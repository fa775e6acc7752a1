"""Structured experiment results and the ``RESULTS.json`` document.

Every experiment produces an :class:`ExperimentResult`: the tables it used to
print, a flat dictionary of headline metrics, and run metadata (seed, wall
time).  Two serialized views exist:

- the **canonical** view (:meth:`ExperimentResult.canonical_dict` /
  :meth:`ExperimentResult.canonical_json`) excludes volatile fields (wall
  time, cache provenance) and is byte-identical for a fixed seed regardless
  of execution mode — serial, process-parallel, sharded, cache hit or miss —
  and of the compute backend.
  Golden snapshots and the ``RESULTS.json`` ``results`` section store this
  view;
- the **full** view (:meth:`ExperimentResult.to_dict`) adds the volatile
  fields and is what the on-disk result cache stores.

``RESULTS.json`` aggregates many canonical results; sharded CI runs each
write their own document and :func:`merge_results_documents` unions them into
exactly what an unsharded run would have produced.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.report import Table
from repro.core.exceptions import OrchestrationError, ReproError

#: Schema version stamped into every serialized result and results document.
RESULT_SCHEMA_VERSION = 1


def jsonify(value: Any, *, where: str = "value") -> Any:
    """Normalize ``value`` to pure JSON types (dict/list/str/int/float/bool/None).

    Tuples become lists, mapping keys must be strings, and NumPy scalars are
    unwrapped via ``.item()`` so serialized documents never depend on which
    backend produced them.  Anything else raises
    :class:`~repro.core.exceptions.OrchestrationError` — results must be
    machine-readable, so unserializable payloads are a bug in the experiment
    glue, caught here rather than at ``json.dumps`` time.
    """
    if type(value).__module__.startswith("numpy") and hasattr(value, "item"):
        value = value.item()
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, numbers.Real):
        result = float(value)
        if result != result or result in (float("inf"), float("-inf")):
            raise OrchestrationError(f"{where} is not a finite number: {value!r}")
        return result
    if isinstance(value, (list, tuple)):
        return [jsonify(item, where=f"{where}[{index}]") for index, item in enumerate(value)]
    if isinstance(value, Mapping):
        out: Dict[str, Any] = {}
        for key, item in value.items():
            if not isinstance(key, str):
                raise OrchestrationError(f"{where} has a non-string key: {key!r}")
            out[key] = jsonify(item, where=f"{where}[{key!r}]")
        return out
    raise OrchestrationError(
        f"{where} of type {type(value).__name__} cannot be serialized to JSON"
    )


@dataclass(frozen=True)
class ResultPayload:
    """What an experiment's build function returns: tables plus metrics.

    The engine wraps this with metadata (seed, wall time) to form
    the full :class:`ExperimentResult`.
    """

    tables: Tuple[Table, ...]
    metrics: Mapping[str, Any]


@dataclass(frozen=True)
class ExperimentResult:
    """One experiment's structured outcome.

    Attributes:
        experiment_id: registry id of the experiment.
        params: the parameter dataclass as a JSON-safe dict.
        tables: the tables the text renderer prints, with raw cell values.
        metrics: headline scalars (and small JSON structures) downstream
            consumers read without parsing tables.
        seed: the base RNG seed the build ran with, its params' ``seed``
            (``None`` when the params have none: a deterministic build).
        wall_time_seconds: volatile — excluded from the canonical view.
        cached: volatile — whether this result came from the on-disk cache.
        kernel_counters: volatile — per-kernel ``{calls, seconds, trials}``
            accumulated while this result was built (empty on cache hits and
            for experiments that never touch the backend kernels).  Like wall
            time, it describes *this run*, not the result, so it never enters
            the canonical view.
        peak_rss_kb: volatile — the building process's peak resident set size
            in KiB, sampled right after the build (0 on cache hits and for
            documents that predate the field).  A lifetime high-water mark of
            whichever process ran the build — a pool worker under parallel
            execution — so the serve layer can surface build memory pressure
            in ``/metrics`` without instrumenting workers separately.
    """

    experiment_id: str
    params: Mapping[str, Any]
    tables: Tuple[Table, ...]
    metrics: Mapping[str, Any]
    seed: Optional[int] = None
    schema_version: int = RESULT_SCHEMA_VERSION
    wall_time_seconds: float = 0.0
    cached: bool = False
    kernel_counters: Mapping[str, Mapping[str, float]] = field(default_factory=dict)
    peak_rss_kb: int = 0

    def canonical_dict(self) -> Dict[str, Any]:
        """The deterministic JSON view (no wall time, no cache provenance)."""
        return {
            "schema_version": self.schema_version,
            "experiment_id": self.experiment_id,
            "seed": self.seed,
            "params": jsonify(self.params, where=f"{self.experiment_id} params"),
            "metrics": jsonify(self.metrics, where=f"{self.experiment_id} metrics"),
            "tables": [
                jsonify(table.to_dict(), where=f"{self.experiment_id} table {index}")
                for index, table in enumerate(self.tables)
            ],
        }

    def canonical_json(self) -> str:
        """Compact sorted-key JSON of :meth:`canonical_dict` (byte-stable)."""
        return json.dumps(
            self.canonical_dict(), sort_keys=True, separators=(",", ":"), allow_nan=False
        )

    def to_dict(self) -> Dict[str, Any]:
        """The full serialized view, volatile fields included."""
        document = self.canonical_dict()
        document["wall_time_seconds"] = float(self.wall_time_seconds)
        document["cached"] = bool(self.cached)
        document["kernel_counters"] = jsonify(
            self.kernel_counters, where=f"{self.experiment_id} kernel counters"
        )
        document["peak_rss_kb"] = int(self.peak_rss_kb)
        return document

    @classmethod
    def from_dict(cls, document: Mapping[str, Any]) -> "ExperimentResult":
        """Rebuild a result from :meth:`to_dict` / :meth:`canonical_dict` output."""
        if not isinstance(document, Mapping):
            raise OrchestrationError(
                f"experiment result document must be an object, got {type(document).__name__}"
            )
        try:
            tables = tuple(Table.from_dict(entry) for entry in document.get("tables", ()))
            return cls(
                experiment_id=document["experiment_id"],
                params=dict(document["params"]),
                tables=tables,
                metrics=dict(document["metrics"]),
                seed=document.get("seed"),
                schema_version=int(document.get("schema_version", RESULT_SCHEMA_VERSION)),
                wall_time_seconds=float(document.get("wall_time_seconds", 0.0)),
                cached=bool(document.get("cached", False)),
                kernel_counters=dict(document.get("kernel_counters") or {}),
                peak_rss_kb=int(document.get("peak_rss_kb", 0)),
            )
        except (KeyError, TypeError, ValueError, ReproError) as error:
            # ReproError covers AnalysisError from Table.from_dict: every
            # malformed document surfaces as one exception type here.
            raise OrchestrationError(f"malformed experiment result document: {error}") from error

    def with_volatile(
        self,
        *,
        wall_time_seconds: float,
        cached: bool,
        kernel_counters: Optional[Mapping[str, Mapping[str, float]]] = None,
        peak_rss_kb: Optional[int] = None,
    ) -> "ExperimentResult":
        """A copy with the volatile fields replaced (canonical view unchanged)."""
        return ExperimentResult(
            experiment_id=self.experiment_id,
            params=self.params,
            tables=self.tables,
            metrics=self.metrics,
            seed=self.seed,
            schema_version=self.schema_version,
            wall_time_seconds=wall_time_seconds,
            cached=cached,
            kernel_counters=(
                self.kernel_counters if kernel_counters is None else kernel_counters
            ),
            peak_rss_kb=(self.peak_rss_kb if peak_rss_kb is None else peak_rss_kb),
        )


def json_body(document: Any) -> bytes:
    """A JSON document in the repository's canonical on-disk format.

    Indent-2, sorted keys, no NaN or infinity, trailing newline.  Golden
    snapshots, ``RESULTS.json`` and served bodies are all written here, so a
    served result is byte-comparable to its golden file.
    """
    return (
        json.dumps(document, indent=2, sort_keys=True, allow_nan=False) + "\n"
    ).encode("utf-8")


def results_document(
    results: Sequence[ExperimentResult],
    *,
    shard: Optional[str] = None,
    backend: Optional[str] = None,
) -> Dict[str, Any]:
    """Build the ``RESULTS.json`` document for one run.

    The ``results`` section maps experiment id to the canonical result and is
    what sharded runs union back together; the ``run`` section carries the
    volatile per-run facts (order, wall times, cache hits, shard label).
    """
    ids = [result.experiment_id for result in results]
    duplicates = {x for x in ids if ids.count(x) > 1}
    if duplicates:
        raise OrchestrationError(
            f"duplicate experiment results in one document: {', '.join(sorted(duplicates))}"
        )
    return {
        "schema_version": RESULT_SCHEMA_VERSION,
        "results": {result.experiment_id: result.canonical_dict() for result in results},
        "run": {
            "experiments": ids,
            "shards": [shard] if shard else [],
            "backend": backend,
            "wall_time_seconds": {
                result.experiment_id: float(result.wall_time_seconds) for result in results
            },
            "cached": {result.experiment_id: bool(result.cached) for result in results},
        },
    }


def merge_results_documents(documents: Iterable[Mapping[str, Any]]) -> Dict[str, Any]:
    """Union several ``RESULTS.json`` documents (e.g. the shards of one run).

    Disjoint shards merge into exactly the unsharded document's ``results``
    section.  When the same experiment appears in several documents with
    *different* canonical content the merge fails loudly — that means the
    shards came from different code or parameters.
    """
    merged_results: Dict[str, Any] = {}
    experiments: List[str] = []
    shards: List[str] = []
    wall_times: Dict[str, float] = {}
    cached: Dict[str, bool] = {}
    backend: Optional[str] = None
    seen_any = False
    for document in documents:
        seen_any = True
        if not isinstance(document, Mapping):
            raise OrchestrationError(
                f"results document must be an object, got {type(document).__name__}"
            )
        version = document.get("schema_version")
        if version != RESULT_SCHEMA_VERSION:
            raise OrchestrationError(
                f"cannot merge results document with schema_version={version!r} "
                f"(expected {RESULT_SCHEMA_VERSION})"
            )
        for experiment_id, entry in document.get("results", {}).items():
            existing = merged_results.get(experiment_id)
            if existing is not None and existing != entry:
                raise OrchestrationError(
                    f"conflicting results for {experiment_id!r} while merging "
                    "(shards ran different code or parameters?)"
                )
            merged_results[experiment_id] = entry
        run = document.get("run", {})
        for experiment_id in run.get("experiments", ()):
            if experiment_id not in experiments:
                experiments.append(experiment_id)
        for shard in run.get("shards", ()):
            if shard not in shards:
                shards.append(shard)
        wall_times.update(run.get("wall_time_seconds", {}))
        cached.update(run.get("cached", {}))
        backend = backend or run.get("backend")
    if not seen_any:
        raise OrchestrationError("no results documents to merge")
    return {
        "schema_version": RESULT_SCHEMA_VERSION,
        "results": merged_results,
        "run": {
            "experiments": experiments,
            "shards": shards,
            "backend": backend,
            "wall_time_seconds": wall_times,
            "cached": cached,
        },
    }


def write_results_document(document: Mapping[str, Any], path: str, *, merge: bool = False) -> None:
    """Write (or, with ``merge=True``, merge into) a ``RESULTS.json`` file."""
    if merge:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                existing = json.load(handle)
        except FileNotFoundError:
            existing = None
        except (OSError, json.JSONDecodeError) as error:
            raise OrchestrationError(f"cannot merge into {path!r}: {error}") from error
        if existing is not None:
            document = merge_results_documents([existing, document])
    try:
        with open(path, "wb") as handle:
            handle.write(json_body(document))
    except OSError as error:
        raise OrchestrationError(f"cannot write results document to {path!r}: {error}") from error


def load_results_document(path: str) -> Dict[str, Any]:
    """Read a ``RESULTS.json`` document, validating its schema version."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        raise OrchestrationError(f"cannot read results document {path!r}: {error}") from error
    if not isinstance(document, dict):
        raise OrchestrationError(
            f"results document {path!r} must be a JSON object, got {type(document).__name__}"
        )
    if document.get("schema_version") != RESULT_SCHEMA_VERSION:
        raise OrchestrationError(
            f"results document {path!r} has schema_version="
            f"{document.get('schema_version')!r} (expected {RESULT_SCHEMA_VERSION})"
        )
    return document
