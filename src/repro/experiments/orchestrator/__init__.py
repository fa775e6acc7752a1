"""Experiment orchestration: specs, structured results, caching, parallel runs.

The orchestrator turns the 13 print-only experiment drivers into a
machine-readable pipeline:

- every experiment registers an :class:`ExperimentSpec` (id, tags,
  parameter dataclass) and produces an :class:`ExperimentResult` — tables,
  headline metrics and run metadata (the seed the build ran with),
  serializable to JSON;
- the engine (:func:`run_experiments`) executes selections serially or over
  a process pool with deterministic per-experiment seeding, so parallel,
  sharded and serial runs emit byte-identical canonical JSON;
- a content-addressed :class:`ResultCache` (keyed on code + params)
  makes repeat invocations free;
- ``repro.cli run`` exposes all of it (``--tag``, ``--shard i/n``,
  ``--parallel``, ``--no-cache``/``--force``, ``--results RESULTS.json``) and
  the golden-snapshot suite under ``tests/golden/`` locks the numbers down.

Import note: ``repro.experiments.orchestrator.registry`` imports every
experiment module and must therefore not be imported here (the experiment
modules import *this* package for their ``SPEC`` definitions); import the
registry directly where needed.
"""

from repro.backend.resilient import (
    DEFAULT_RETRIES,
    ResilientExecutor,
    TaskAttempt,
    backoff_delay,
)
from repro.experiments.orchestrator.cache import (
    CACHE_DIR_ENV_VAR,
    DEFAULT_CACHE_DIR,
    CacheStats,
    PruneReport,
    ResultCache,
    code_fingerprint,
    default_cache_dir,
    invalidate_code_fingerprint,
)
from repro.experiments.orchestrator.engine import execute_spec, run_experiments
from repro.experiments.orchestrator.result import (
    RESULT_SCHEMA_VERSION,
    ExperimentResult,
    ResultPayload,
    json_body,
    jsonify,
    merge_results_documents,
    reject_duplicate_ids,
    results_document,
    write_results_document,
)
from repro.experiments.orchestrator.spec import (
    ExperimentSpec,
    experiment_banner,
    parse_shard,
    select_shard,
)

__all__ = [
    "CACHE_DIR_ENV_VAR",
    "DEFAULT_CACHE_DIR",
    "DEFAULT_RETRIES",
    "CacheStats",
    "ExperimentResult",
    "ExperimentSpec",
    "PruneReport",
    "RESULT_SCHEMA_VERSION",
    "ResilientExecutor",
    "ResultCache",
    "ResultPayload",
    "TaskAttempt",
    "backoff_delay",
    "code_fingerprint",
    "default_cache_dir",
    "execute_spec",
    "invalidate_code_fingerprint",
    "json_body",
    "experiment_banner",
    "jsonify",
    "merge_results_documents",
    "parse_shard",
    "reject_duplicate_ids",
    "results_document",
    "run_experiments",
    "select_shard",
    "write_results_document",
]
