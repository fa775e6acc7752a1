"""Replica configurations and the configuration space ``D``.

Section III-A of the paper decomposes a replica into three main components:
*trusted hardware*, *system software* (the operating system) and *application
software* — the latter containing at least the consensus module and the
key/account-management module (wallet), and in practice also the cryptographic
library the paper's adversary model calls out explicitly in Section II-B.

A :class:`ReplicaConfiguration` is an immutable bag of
:class:`SoftwareComponent` values indexed by :class:`ComponentKind`; two
replicas share a fault domain for a component kind exactly when they run the
same component (same kind, name and version).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, unique
from functools import cached_property
from typing import Dict, Iterable, Iterator, Optional, Tuple

from repro.core.exceptions import ConfigurationError


@unique
class ComponentKind(str, Enum):
    """The component slots of a replica considered by the paper.

    The first three are the paper's "three main components"; the remaining
    kinds refine application software into the modules Section III-A singles
    out (consensus client, wallet / key management, cryptographic library) and
    an optional external database for COTS diversity (Section III-A cites
    databases as classic COTS components).
    """

    TRUSTED_HARDWARE = "trusted_hardware"
    OPERATING_SYSTEM = "operating_system"
    CONSENSUS_CLIENT = "consensus_client"
    WALLET = "wallet"
    CRYPTO_LIBRARY = "crypto_library"
    DATABASE = "database"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


#: The component kinds every well-formed configuration must provide.
REQUIRED_KINDS: Tuple[ComponentKind, ...] = (
    ComponentKind.OPERATING_SYSTEM,
    ComponentKind.CONSENSUS_CLIENT,
)


@dataclass(frozen=True, order=True)
class SoftwareComponent:
    """One concrete component in a replica's stack.

    Despite the name this also models trusted *hardware* components (e.g.
    ``SoftwareComponent(ComponentKind.TRUSTED_HARDWARE, "intel-sgx", "2.17")``)
    because from the fault-independence point of view the only thing that
    matters is the shared fault domain identified by (kind, name, version).
    """

    kind: ComponentKind
    name: str
    version: str = "1.0"

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("component name must not be empty")
        if not self.version:
            raise ConfigurationError("component version must not be empty")

    @cached_property
    def identifier(self) -> str:
        """Stable string identifier, e.g. ``operating_system:linux:6.1``.

        Formatted on first read and stored in the instance ``__dict__``
        (``cached_property`` bypasses the frozen ``__setattr__``); it is not
        a field, so equality, hashing, ordering and ``asdict`` ignore it.
        """
        return f"{self.kind.value}:{self.name}:{self.version}"

    def __str__(self) -> str:
        return self.identifier


class ReplicaConfiguration:
    """An immutable replica configuration ``d_i`` (one element of ``D``).

    The configuration is a mapping from :class:`ComponentKind` to a single
    :class:`SoftwareComponent` of that kind.  Configurations are hashable and
    compare by value, so they can be used directly as census keys.
    """

    __slots__ = ("_components", "_key")

    def __init__(self, components: Iterable[SoftwareComponent]) -> None:
        mapping: Dict[ComponentKind, SoftwareComponent] = {}
        for component in components:
            if not isinstance(component, SoftwareComponent):
                raise ConfigurationError(
                    f"expected SoftwareComponent, got {type(component).__name__}"
                )
            if component.kind in mapping:
                raise ConfigurationError(
                    f"duplicate component kind {component.kind.value!r} in configuration"
                )
            mapping[component.kind] = component
        if not mapping:
            raise ConfigurationError("a configuration needs at least one component")
        object.__setattr__(self, "_components", dict(sorted(mapping.items())))
        object.__setattr__(
            self,
            "_key",
            tuple(component.identifier for component in self._components.values()),
        )

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_names(
        cls,
        *,
        operating_system: str,
        consensus_client: str,
        trusted_hardware: Optional[str] = None,
        wallet: Optional[str] = None,
        crypto_library: Optional[str] = None,
        database: Optional[str] = None,
        version: str = "1.0",
    ) -> "ReplicaConfiguration":
        """Build a configuration from plain component names.

        Every provided name becomes a component at the given ``version``.
        This is the convenient constructor used throughout the examples.
        """
        spec = {
            ComponentKind.OPERATING_SYSTEM: operating_system,
            ComponentKind.CONSENSUS_CLIENT: consensus_client,
            ComponentKind.TRUSTED_HARDWARE: trusted_hardware,
            ComponentKind.WALLET: wallet,
            ComponentKind.CRYPTO_LIBRARY: crypto_library,
            ComponentKind.DATABASE: database,
        }
        components = [
            SoftwareComponent(kind, name, version)
            for kind, name in spec.items()
            if name is not None
        ]
        return cls(components)

    @classmethod
    def labeled(cls, label: str) -> "ReplicaConfiguration":
        """Build an opaque configuration identified only by ``label``.

        Figure 1 treats each Bitcoin mining pool as "a unique configuration"
        without saying what the components are; labeled configurations model
        exactly that level of abstraction.
        """
        return cls(
            [
                SoftwareComponent(ComponentKind.OPERATING_SYSTEM, f"os-{label}"),
                SoftwareComponent(ComponentKind.CONSENSUS_CLIENT, f"client-{label}"),
            ]
        )

    # -- accessors -------------------------------------------------------------

    def component(self, kind: ComponentKind) -> Optional[SoftwareComponent]:
        """Return the component of ``kind`` or ``None`` when absent."""
        return self._components.get(kind)

    def kinds(self) -> Tuple[ComponentKind, ...]:
        """The component kinds present in this configuration."""
        return tuple(self._components.keys())

    @property
    def identifier(self) -> str:
        """Stable, human-readable identity string for the whole configuration."""
        return "|".join(self._key)

    def has_component(self, component: SoftwareComponent) -> bool:
        """True when this configuration includes exactly ``component``."""
        return self._components.get(component.kind) == component

    # -- dunder ----------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ReplicaConfiguration):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __lt__(self, other: "ReplicaConfiguration") -> bool:
        if not isinstance(other, ReplicaConfiguration):
            return NotImplemented
        return self._key < other._key

    def __repr__(self) -> str:
        return f"ReplicaConfiguration({self.identifier!r})"

    def __iter__(self) -> Iterator[SoftwareComponent]:
        return iter(self._components.values())

    def __len__(self) -> int:
        return len(self._components)
