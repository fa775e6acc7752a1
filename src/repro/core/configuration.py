"""Replica configurations and the configuration space ``D``.

Section III-A of the paper decomposes a replica into three main components:
*trusted hardware*, *system software* (the operating system) and *application
software* — the latter containing at least the consensus module and the
key/account-management module (wallet), and in practice also the cryptographic
library the paper's adversary model calls out explicitly in Section II-B.

A :class:`ReplicaConfiguration` is an immutable bag of
:class:`SoftwareComponent` values indexed by :class:`ComponentKind`; two
replicas share a fault domain for a component kind exactly when they run the
same component (same kind, name and version).  A :class:`ConfigurationSpace`
describes which components are available per kind and can enumerate the full
space ``D = {d1, ..., dk}`` used in Section IV-A.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum, unique
from functools import cached_property
from typing import Dict, Iterable, Iterator, Mapping, Optional, Sequence, Tuple

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

    def with_version(self, version: str) -> "SoftwareComponent":
        """Return a copy of this component at a different version.

        Patching a vulnerable component is modeled as replacing it with the
        same component at a new version, which moves the replica into a new
        fault domain for that kind.
        """
        return SoftwareComponent(self.kind, self.name, version)

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

    def components(self) -> Tuple[SoftwareComponent, ...]:
        """All components, ordered by kind."""
        return tuple(self._components.values())

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

    def uses_any(self, components: Iterable[SoftwareComponent]) -> bool:
        """True when this configuration includes any of ``components``.

        This is the primitive used by exploit campaigns: a vulnerability in a
        component compromises every replica whose configuration uses it.
        """
        return any(self.has_component(component) for component in components)

    def shared_components(self, other: "ReplicaConfiguration") -> Tuple[SoftwareComponent, ...]:
        """Components shared (exact kind+name+version match) with ``other``."""
        return tuple(
            component
            for component in self._components.values()
            if other.has_component(component)
        )

    def difference_count(self, other: "ReplicaConfiguration") -> int:
        """Number of component kinds at which the two configurations differ.

        Kinds present in one configuration and absent in the other count as
        differences.
        """
        kinds = set(self._components) | set(other._components)
        return sum(
            1
            for kind in kinds
            if self._components.get(kind) != other._components.get(kind)
        )

    def replace(self, component: SoftwareComponent) -> "ReplicaConfiguration":
        """Return a new configuration with ``component`` substituted in."""
        updated = dict(self._components)
        updated[component.kind] = component
        return ReplicaConfiguration(updated.values())

    def without(self, kind: ComponentKind) -> "ReplicaConfiguration":
        """Return a new configuration with the ``kind`` slot removed."""
        if kind not in self._components:
            raise ConfigurationError(f"configuration has no component of kind {kind.value!r}")
        remaining = [c for k, c in self._components.items() if k != kind]
        return ReplicaConfiguration(remaining)

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


class ConfigurationSpace:
    """The space ``D`` of configurations that can be remotely attested.

    A space is described by the set of available components for each kind.
    The full space is the cross product of the per-kind choices (optionally
    including "no component" for kinds marked optional), which matches the
    paper's observation that diversity grows with the number of alternative
    COTS components per slot.
    """

    def __init__(
        self,
        choices: Mapping[ComponentKind, Sequence[SoftwareComponent]],
        *,
        optional_kinds: Iterable[ComponentKind] = (),
    ) -> None:
        if not choices:
            raise ConfigurationError("configuration space needs at least one component kind")
        self._choices: Dict[ComponentKind, Tuple[SoftwareComponent, ...]] = {}
        for kind, components in choices.items():
            components = tuple(components)
            if not components:
                raise ConfigurationError(
                    f"component kind {kind.value!r} has no available components"
                )
            for component in components:
                if component.kind is not kind:
                    raise ConfigurationError(
                        f"component {component.identifier!r} listed under kind {kind.value!r}"
                    )
            if len(set(components)) != len(components):
                raise ConfigurationError(
                    f"duplicate components offered for kind {kind.value!r}"
                )
            self._choices[kind] = components
        self._optional = frozenset(optional_kinds)
        unknown_optional = self._optional - set(self._choices)
        if unknown_optional:
            names = ", ".join(sorted(kind.value for kind in unknown_optional))
            raise ConfigurationError(f"optional kinds not present in space: {names}")

    @classmethod
    def from_catalog(
        cls,
        catalog: Mapping[ComponentKind, Sequence[str]],
        *,
        optional_kinds: Iterable[ComponentKind] = (),
        version: str = "1.0",
    ) -> "ConfigurationSpace":
        """Build a space from a mapping of kind -> component names."""
        choices = {
            kind: [SoftwareComponent(kind, name, version) for name in names]
            for kind, names in catalog.items()
        }
        return cls(choices, optional_kinds=optional_kinds)

    @property
    def kinds(self) -> Tuple[ComponentKind, ...]:
        return tuple(self._choices.keys())

    def choices_for(self, kind: ComponentKind) -> Tuple[SoftwareComponent, ...]:
        """Available components for ``kind``."""
        if kind not in self._choices:
            raise ConfigurationError(f"kind {kind.value!r} is not part of this space")
        return self._choices[kind]

    def size(self) -> int:
        """Number of distinct configurations in the space (``k`` in the paper)."""
        total = 1
        for kind, components in self._choices.items():
            options = len(components) + (1 if kind in self._optional else 0)
            total *= options
        return total

    def enumerate(self) -> Iterator[ReplicaConfiguration]:
        """Yield every configuration in the space in a deterministic order."""
        per_kind: list[Tuple[Optional[SoftwareComponent], ...]] = []
        for kind, components in self._choices.items():
            options: Tuple[Optional[SoftwareComponent], ...] = tuple(components)
            if kind in self._optional:
                options = options + (None,)
            per_kind.append(options)
        for combination in itertools.product(*per_kind):
            present = [component for component in combination if component is not None]
            if present:
                yield ReplicaConfiguration(present)

    def contains(self, configuration: ReplicaConfiguration) -> bool:
        """True when every component of ``configuration`` is offered by this space."""
        for kind in self._choices:
            component = configuration.component(kind)
            if component is None:
                if kind not in self._optional:
                    return False
            elif component not in self._choices[kind]:
                return False
        # Configurations must not use kinds unknown to the space.
        return all(kind in self._choices for kind in configuration.kinds())

    def __contains__(self, configuration: ReplicaConfiguration) -> bool:
        return self.contains(configuration)

    def __len__(self) -> int:
        return self.size()

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{kind.value}={len(components)}" for kind, components in self._choices.items()
        )
        return f"ConfigurationSpace({parts}, size={self.size()})"


def default_configuration_space() -> ConfigurationSpace:
    """A realistic small configuration space used by examples and tests.

    Mirrors the component families the paper discusses: a handful of operating
    systems, consensus clients, wallets, crypto libraries and trusted-hardware
    platforms (TPM / SGX / TrustZone / AMD PSP, per Section III-B).
    """
    catalog = {
        ComponentKind.OPERATING_SYSTEM: ["linux", "freebsd", "openbsd", "windows-server"],
        ComponentKind.CONSENSUS_CLIENT: ["client-alpha", "client-beta", "client-gamma"],
        ComponentKind.WALLET: ["builtin-wallet", "hardware-wallet", "mobile-wallet"],
        ComponentKind.CRYPTO_LIBRARY: ["openssl", "libsodium", "boringssl"],
        ComponentKind.TRUSTED_HARDWARE: ["tpm-2.0", "intel-sgx", "arm-trustzone", "amd-psp"],
    }
    return ConfigurationSpace.from_catalog(
        catalog,
        optional_kinds=[ComponentKind.TRUSTED_HARDWARE, ComponentKind.WALLET],
    )
