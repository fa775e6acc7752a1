"""Experiment specifications: registration metadata, filtering and sharding.

Each experiment module exposes a module-level ``SPEC``
(:class:`ExperimentSpec`) binding its id, tags, parameter dataclass (whose
``seed`` field, when it has one, seeds the build), structured build function
and text renderer.  The registry module collects the specs in paper order
and decodes selections; the engine executes them; this module also hosts
the ``--shard i/n`` splitting, so it can be tested without running anything.
"""

from __future__ import annotations

import math
import re
from dataclasses import asdict, dataclass, fields, is_dataclass
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
    """

    experiment_id: str
    title: str
    build: Callable[[Any], ResultPayload]
    render: Callable[[ExperimentResult], str]
    params_type: type
    tags: Tuple[str, ...] = ()

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

    def params_from_dict(self, document: Any) -> Any:
        """Decode a JSON params document into this experiment's params.

        The one decoder every seam uses: a pool worker rebuilding
        :meth:`params_dict` output, a JSON job body, a parsed query string.
        The document must be an object whose keys are params fields; each
        value is checked against its field's type hint (the one lossless
        widening JSON has, int to float, is allowed), and a JSON array fills
        a ``Tuple[T, ...]`` field element by element, so the rebuilt params
        equal (and hash like) the ones :meth:`params_dict` was given.  Every
        failure is an :class:`OrchestrationError` naming the field.
        """
        if not isinstance(document, Mapping):
            raise OrchestrationError(
                f"params for {self.experiment_id!r} must be an object, "
                f"got {type(document).__name__}"
            )
        hints = self.params_hints
        known = [spec_field.name for spec_field in fields(self.params_type)]
        unknown = sorted(set(document) - set(known))
        if unknown:
            raise OrchestrationError(
                f"unknown parameter(s) for {self.experiment_id!r}: "
                f"{', '.join(unknown)} (known: {', '.join(sorted(known))})"
            )
        return self.params_type(
            **{
                name: _decode_value(value, hints[name], name)
                for name, value in document.items()
            }
        )


@lru_cache(maxsize=None)
def _type_hints(params_type: type) -> Mapping[str, Any]:
    """``params_type``'s field hints, resolved once; shared, so read-only."""
    return MappingProxyType(get_type_hints(params_type))


def variadic_tuple_element(annotation: Any) -> Optional[Any]:
    """``T`` when ``annotation`` is ``Tuple[T, ...]``, else ``None``.

    The one tuple shape a params field takes, and the one rule by which a
    JSON array becomes a tuple in :meth:`ExperimentSpec.params_from_dict`.
    """
    element = get_args(annotation)
    if get_origin(annotation) is tuple and len(element) == 2 and element[1] is Ellipsis:
        return element[0]
    return None


def optional_element(annotation: Any) -> Optional[Any]:
    """``T`` when ``annotation`` is ``Optional[T]``, else ``None``."""
    if get_origin(annotation) is Union:
        non_none = [arg for arg in get_args(annotation) if arg is not type(None)]
        if len(non_none) == 1:
            return non_none[0]
    return None


def _decode_value(value: Any, annotation: Any, name: str) -> Any:
    """Check one JSON value against a params field's annotated type."""
    inner = optional_element(annotation)
    if inner is not None:
        return None if value is None else _decode_value(value, inner, name)
    if annotation is bool:
        if isinstance(value, bool):
            return value
        raise OrchestrationError(f"parameter {name!r} must be a boolean, got {value!r}")
    if annotation is int:
        if isinstance(value, int) and not isinstance(value, bool):
            return value
        raise OrchestrationError(f"parameter {name!r} must be an integer, got {value!r}")
    if annotation is float:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            try:
                number = float(value)
            except OverflowError:  # an int past the float range
                number = math.inf
            if not math.isfinite(number):
                raise OrchestrationError(f"parameter {name!r} must be finite, got {value!r}")
            return number
        raise OrchestrationError(f"parameter {name!r} must be a number, got {value!r}")
    if annotation is str:
        if isinstance(value, str):
            return value
        raise OrchestrationError(f"parameter {name!r} must be a string, got {value!r}")
    element = variadic_tuple_element(annotation)
    if element is not None:
        if isinstance(value, list):
            return tuple(_decode_value(item, element, name) for item in value)
        raise OrchestrationError(f"parameter {name!r} must be an array, got {value!r}")
    raise OrchestrationError(f"parameter {name!r} has unsupported type {annotation!r}")


def experiment_banner(experiment_id: str) -> str:
    """The ``== <id> ====...`` separator line printed above each report."""
    return f"== {experiment_id} " + "=" * max(0, 70 - len(experiment_id))


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
