"""The experiment registry: every spec, paper artifacts first, then extensions.

It also decodes a *selection*, the part of a request that says which
results it wants, into the ordered (experiment id, params) requests it
names: :func:`decode_selection` is the one decoder behind ``repro.cli run``,
``POST /jobs`` and ``GET|POST /results``.

This module is the only orchestrator module that imports the experiment
modules (each of which imports ``orchestrator.spec``/``orchestrator.result``
for its ``SPEC`` definition), so it must never be imported from the package
``__init__`` — import it directly where a registry is needed (the CLI, the
result service, pool workers).
"""

from __future__ import annotations

import itertools
import math
from typing import Any, Dict, List, Mapping, Tuple

from repro.core.exceptions import OrchestrationError
from repro.experiments import (
    attestation_coverage,
    campaign_budget,
    campaign_churn,
    campaign_reliability,
    component_exposure,
    decentralized_pools,
    diversity_ablation,
    ecosystem_scale,
    example1,
    figure1,
    prop1,
    prop2,
    prop3,
    protocol_safety,
    safety_violation,
    two_class,
    vulnerability_window,
)
from repro.experiments.orchestrator.spec import ExperimentSpec

#: Every registered spec, in paper order (Figure 1 first, extensions last).
ALL_SPECS: Tuple[ExperimentSpec, ...] = (
    figure1.SPEC,
    example1.SPEC,
    prop1.SPEC,
    prop2.SPEC,
    prop3.SPEC,
    safety_violation.SPEC,
    attestation_coverage.SPEC,
    two_class.SPEC,
    protocol_safety.SPEC,
    diversity_ablation.SPEC,
    vulnerability_window.SPEC,
    decentralized_pools.SPEC,
    component_exposure.SPEC,
    campaign_budget.SPEC,
    campaign_reliability.SPEC,
    campaign_churn.SPEC,
    ecosystem_scale.SPEC,
)

_BY_ID: Dict[str, ExperimentSpec] = {spec.experiment_id: spec for spec in ALL_SPECS}
if len(_BY_ID) != len(ALL_SPECS):  # pragma: no cover - registration bug guard
    raise OrchestrationError("duplicate experiment ids in the registry")


def all_specs() -> Tuple[ExperimentSpec, ...]:
    """Every spec, in registry order."""
    return ALL_SPECS


def experiment_ids() -> List[str]:
    """The registered experiment ids, in registry order."""
    return [spec.experiment_id for spec in ALL_SPECS]


def known_tags() -> List[str]:
    """Every tag used by at least one spec, sorted."""
    return sorted({tag for spec in ALL_SPECS for tag in spec.tags})


def get_spec(experiment_id: str) -> ExperimentSpec:
    """The spec registered under ``experiment_id``."""
    spec = _BY_ID.get(experiment_id)
    if spec is None:
        raise OrchestrationError(
            f"unknown experiment {experiment_id!r} "
            f"(known: {', '.join(experiment_ids())})"
        )
    return spec


#: Upper bound on the requests one selection may name: a job's tasks, a bulk
#: request's results, a run's experiments.
MAX_JOB_TASKS = 256

#: The fields of a selection document.  A route adds only its own field
#: (``wait`` for ``POST /jobs``, ``format`` for ``/results``) and removes it
#: before decoding.
SELECTION_KEYS = frozenset({"experiment", "params", "grid", "experiments", "tag"})

#: One request a selection names: an experiment id and its params document,
#: decoded later by the experiment's own :meth:`ExperimentSpec.params_from_dict`.
Request = Tuple[str, Dict[str, Any]]


def decode_selection(document: Mapping[str, Any]) -> List[Request]:
    """The ordered (experiment id, params) requests a selection names.

    A selection names experiments one way:

    - ``experiment`` (an id) with optional ``params`` (an object) and
      ``grid`` (an object of non-empty value lists, one request per point
      of their product, axes in name order);
    - ``experiments``, a non-empty list of ids or ``{experiment, params}``
      objects, in the order given; a repeated entry stays a separate request;
    - ``tag``, a tag name or a list of them: every experiment carrying any
      of them, in registry order;
    - nothing: every registered experiment, in registry order.

    Ids and params are checked only for shape here.  Whether an id is
    registered and its params fit the experiment is checked per request by
    the caller, so HTTP can answer an unknown id with ``404``.  A selection
    naming more than :data:`MAX_JOB_TASKS` requests is refused before any is
    built.  Every failure is an :class:`OrchestrationError` naming the field.
    """
    unknown = sorted(set(document) - SELECTION_KEYS)
    if unknown:
        raise OrchestrationError(
            f"unknown selection field(s): {', '.join(unknown)} "
            f"(known: {', '.join(sorted(SELECTION_KEYS))})"
        )
    named = [key for key in ("experiment", "experiments", "tag") if key in document]
    if len(named) > 1:
        raise OrchestrationError(
            f"{named[0]!r} cannot be combined with {named[1]!r}: "
            "a selection names its experiments one way"
        )
    for key in ("params", "grid"):
        if key in document and named != ["experiment"]:
            raise OrchestrationError(f"{key!r} applies only to a single 'experiment'")
    if "experiment" in document:
        return _grid_requests(
            document["experiment"], document.get("params"), document.get("grid")
        )
    if "experiments" in document:
        return _entry_requests(document["experiments"])
    specs = _tagged(document["tag"]) if "tag" in document else ALL_SPECS
    return [(spec.experiment_id, {}) for spec in specs]


def _check_count(count: int, field: str) -> None:
    if count > MAX_JOB_TASKS:
        raise OrchestrationError(
            f"{field} names {count} requests (the limit is {MAX_JOB_TASKS}); "
            "split the selection"
        )


def _params_document(value: Any, field: str) -> Dict[str, Any]:
    if value is None:
        return {}
    if not isinstance(value, Mapping):
        raise OrchestrationError(
            f"{field} must be an object of parameter values, got {type(value).__name__}"
        )
    return dict(value)


def _grid_requests(experiment_id: Any, params: Any, grid: Any) -> List[Request]:
    if not isinstance(experiment_id, str):
        raise OrchestrationError("'experiment' must be an experiment id string")
    base = _params_document(params, "'params'")
    if grid is None:
        return [(experiment_id, base)]
    if not isinstance(grid, Mapping) or not grid:
        raise OrchestrationError(
            "'grid' must be a non-empty object of parameter value lists"
        )
    names = sorted(grid)
    for name in names:
        if not isinstance(grid[name], list) or not grid[name]:
            raise OrchestrationError(
                f"grid axis {name!r} must be a non-empty list of values"
            )
    overlap = sorted(set(base) & set(names))
    if overlap:
        raise OrchestrationError(
            f"grid axis and params overlap: {', '.join(overlap)} "
            "(a parameter is either fixed or swept, not both)"
        )
    _check_count(math.prod(len(grid[name]) for name in names), "'grid'")
    return [
        (experiment_id, {**base, **dict(zip(names, point))})
        for point in itertools.product(*(grid[name] for name in names))
    ]


def _entry_requests(entries: Any) -> List[Request]:
    if not isinstance(entries, list) or not entries:
        raise OrchestrationError(
            "'experiments' must be a list of one or more experiment ids or objects"
        )
    _check_count(len(entries), "'experiments'")
    requests: List[Request] = []
    for index, entry in enumerate(entries):
        where = f"experiments[{index}]"
        if isinstance(entry, str):
            requests.append((entry, {}))
            continue
        if not isinstance(entry, Mapping):
            raise OrchestrationError(f"{where} must be an experiment id or an object")
        unknown = sorted(set(entry) - {"experiment", "params"})
        if unknown:
            raise OrchestrationError(
                f"{where} has unknown field(s): {', '.join(unknown)}"
            )
        if not isinstance(entry.get("experiment"), str):
            raise OrchestrationError(f"{where} needs an 'experiment' string")
        requests.append(
            (entry["experiment"], _params_document(entry.get("params"), f"{where}.params"))
        )
    return requests


def _tagged(tags: Any) -> List[ExperimentSpec]:
    if isinstance(tags, str):
        tags = [tags]
    if not (isinstance(tags, list) and tags and all(isinstance(tag, str) for tag in tags)):
        raise OrchestrationError("'tag' must be a tag name or a non-empty list of names")
    unknown = sorted(set(tags) - set(known_tags()))
    if unknown:
        raise OrchestrationError(
            f"unknown tags: {', '.join(unknown)} (known: {', '.join(known_tags())})"
        )
    return [spec for spec in ALL_SPECS if set(tags) & set(spec.tags)]
