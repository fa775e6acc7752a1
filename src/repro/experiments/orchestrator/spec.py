"""Experiment specifications: registration metadata, filtering and sharding.

Each experiment module exposes a module-level ``SPEC``
(:class:`ExperimentSpec`) binding its id, tags, default seed, parameter
dataclass, structured build function and text renderer.  The registry module
collects the specs in paper order; the engine executes them; this module also
hosts the pure selection logic (name/tag filtering, ``--shard i/n``
splitting) so it can be tested without running anything.
"""

from __future__ import annotations

import re
from dataclasses import asdict, dataclass, is_dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
    get_args,
    get_origin,
    get_type_hints,
)

from repro.core.exceptions import OrchestrationError
from repro.experiments.orchestrator.result import ExperimentResult, ResultPayload, jsonify

_SHARD_PATTERN = re.compile(r"^(\d+)/(\d+)$")


@dataclass(frozen=True)
class ExperimentSpec:
    """Registration record for one experiment.

    Attributes:
        experiment_id: stable name used by the CLI, cache keys and golden
            snapshots.
        title: one-line human description (``repro.cli list``).
        build: ``params -> ResultPayload`` — the structured experiment body.
        render: ``ExperimentResult -> str`` — reproduces the classic stdout
            report from the structured result (no trailing newline).
        params_type: frozen dataclass of the experiment's parameters: JSON
            scalars (``int``, ``float``, ``bool``, ``str``, optionally
            ``None``) and tuples of them.
        tags: free-form labels for ``--tag`` filtering.
        seed: the experiment's default base seed (``None`` when fully
            deterministic).
    """

    experiment_id: str
    title: str
    build: Callable[[Any], ResultPayload]
    render: Callable[[ExperimentResult], str]
    params_type: type
    tags: Tuple[str, ...] = ()
    seed: Optional[int] = None

    def default_params(self) -> Any:
        """A fresh instance of the parameter dataclass."""
        return self.params_type()

    @property
    def params_hints(self) -> Mapping[str, Any]:
        """The params dataclass's resolved field hints (read-only).

        Resolved once per params type: ``typing.get_type_hints`` costs about
        0.1 ms a call, and the serve layer reads the hints on every request.
        """
        return _type_hints(self.params_type)

    def params_dict(self, params: Any = None) -> Dict[str, Any]:
        """``params`` (defaulting to :meth:`default_params`) as a JSON-safe dict."""
        if params is None:
            params = self.default_params()
        if not is_dataclass(params):
            raise OrchestrationError(
                f"{self.experiment_id} params must be a dataclass, got {type(params).__name__}"
            )
        return jsonify(asdict(params), where=f"{self.experiment_id} params")

    def params_from_dict(self, document: Dict[str, Any]) -> Any:
        """Rebuild a params instance from :meth:`params_dict` output.

        JSON carries a ``Tuple[T, ...]`` field as an array; the field's type
        hint turns it back into a tuple, so the rebuilt params equal (and
        hash like) the ones :meth:`params_dict` was given.
        """
        hints = self.params_hints
        try:
            return self.params_type(
                **{
                    name: _tuples_from_arrays(value, hints.get(name))
                    for name, value in document.items()
                }
            )
        except TypeError as error:
            raise OrchestrationError(
                f"bad parameters for {self.experiment_id}: {error}"
            ) from error


@lru_cache(maxsize=None)
def _type_hints(params_type: type) -> Mapping[str, Any]:
    """``params_type``'s field hints, resolved once; shared, so read-only."""
    return MappingProxyType(get_type_hints(params_type))


def variadic_tuple_element(annotation: Any) -> Optional[Any]:
    """``T`` when ``annotation`` is ``Tuple[T, ...]``, else ``None``.

    The one tuple shape a params field takes, and the one rule by which a
    JSON array becomes a tuple: :meth:`ExperimentSpec.params_from_dict` and
    the serve layer's request-body coercion both use it.
    """
    element = get_args(annotation)
    if get_origin(annotation) is tuple and len(element) == 2 and element[1] is Ellipsis:
        return element[0]
    return None


def _tuples_from_arrays(value: Any, annotation: Any) -> Any:
    """``value`` with every list a ``Tuple[T, ...]`` hint covers made a tuple."""
    if get_origin(annotation) is Union:
        non_none = [arg for arg in get_args(annotation) if arg is not type(None)]
        if len(non_none) == 1 and value is not None:
            return _tuples_from_arrays(value, non_none[0])
        return value
    element = variadic_tuple_element(annotation)
    if element is not None and isinstance(value, list):
        return tuple(_tuples_from_arrays(item, element) for item in value)
    return value


def experiment_banner(experiment_id: str) -> str:
    """The ``== <id> ====...`` separator line printed above each report."""
    return f"== {experiment_id} " + "=" * max(0, 70 - len(experiment_id))


def filter_specs(
    specs: Sequence[ExperimentSpec],
    *,
    names: Sequence[str] = (),
    tags: Sequence[str] = (),
) -> List[ExperimentSpec]:
    """Select specs by name and/or tag, preserving the input order.

    Unknown names or tags raise :class:`OrchestrationError` — silently
    skipping a misspelled experiment is how regressions go unnoticed.
    With neither filter, every spec is selected.
    """
    known_names = {spec.experiment_id for spec in specs}
    unknown = [name for name in names if name not in known_names]
    if unknown:
        raise OrchestrationError(
            f"unknown experiments: {', '.join(unknown)} "
            f"(known: {', '.join(sorted(known_names))})"
        )
    known_tags = {tag for spec in specs for tag in spec.tags}
    unknown_tags = [tag for tag in tags if tag not in known_tags]
    if unknown_tags:
        raise OrchestrationError(
            f"unknown tags: {', '.join(unknown_tags)} "
            f"(known: {', '.join(sorted(known_tags))})"
        )
    selected = list(specs)
    if names:
        wanted = set(names)
        selected = [spec for spec in selected if spec.experiment_id in wanted]
    if tags:
        wanted_tags = set(tags)
        selected = [spec for spec in selected if wanted_tags.intersection(spec.tags)]
    if (names or tags) and not selected:
        # Individually-valid filters whose intersection is empty would make a
        # "successful" run that produced nothing — fail loudly instead.
        raise OrchestrationError(
            f"no experiment matches names={sorted(names)} AND tags={sorted(tags)}"
        )
    return selected


def parse_shard(text: str) -> Tuple[int, int]:
    """Parse ``"i/n"`` into a 1-based ``(index, count)`` pair."""
    match = _SHARD_PATTERN.match(text.strip())
    if not match:
        raise OrchestrationError(f"shard must look like '1/2', got {text!r}")
    index, count = int(match.group(1)), int(match.group(2))
    if count < 1 or not 1 <= index <= count:
        raise OrchestrationError(
            f"shard index must be in 1..count, got {index}/{count}"
        )
    return index, count


def select_shard(
    specs: Sequence[ExperimentSpec], index: int, count: int
) -> List[ExperimentSpec]:
    """Round-robin shard ``index`` (1-based) of ``count`` over ``specs``.

    Round-robin on the registry order balances the expensive Monte-Carlo
    experiments across shards better than contiguous slicing would, and the
    union over all shards is exactly the unsharded selection.
    """
    if count < 1 or not 1 <= index <= count:
        raise OrchestrationError(
            f"shard index must be in 1..count, got {index}/{count}"
        )
    return [spec for position, spec in enumerate(specs) if position % count == index - 1]
