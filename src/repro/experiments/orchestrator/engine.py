"""Execution engine: serial or process-parallel, cache-aware, deterministic.

:func:`run_experiments` executes a selection of specs and returns their
structured results in selection order.  Determinism is by construction:

- every experiment derives all randomness from its own params/seed, never
  from process-global state, so execution order cannot change any number;
- process-parallel runs resolve the compute backend **once** in the parent
  and pass the resolved name to every worker, so a fork/spawn child cannot
  auto-detect a different backend than the serial run would;
- cache hits return the stored document, whose canonical view is
  byte-identical to what a fresh run produces (the volatile wall-time /
  cache-provenance fields live outside the canonical view).

The process pool is the scaling seam for the pure-Python backend, which the
thread-based sweep fan-out of PR 1 cannot speed up (GIL); NumPy-backend runs
also benefit because the 13 experiments are independent processes' worth of
work.

:func:`_pool_execute` is also the HTTP result service's compute seam
(``repro.serve``): cache misses are submitted to its bounded executor with
exactly the arguments a ``run_experiments`` pool worker would receive, so a
served result is computed by the same code path as a CLI run.  Distributed
execution replaces the executor without touching this module or any
experiment.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.backend import get_backend
from repro.backend.resilient import DEFAULT_RETRIES, ResilientExecutor
from repro.backend.selection import use_backend
from repro.backend.timing import KERNEL_TIMINGS, peak_rss_kb
from repro.experiments.orchestrator.cache import ResultCache
from repro.experiments.orchestrator.result import ExperimentResult, jsonify
from repro.experiments.orchestrator.spec import ExperimentSpec
from repro.testing.chaos import chaos_checkpoint


def execute_spec(
    spec: ExperimentSpec,
    params: Any = None,
    *,
    backend: Optional[str] = None,
) -> ExperimentResult:
    """Run one experiment in-process and wrap its payload with metadata.

    ``backend`` (a backend name) is installed as the process default for the
    duration of the build so every nested estimate resolves consistently;
    ``None`` keeps the ambient resolution (default / env var / auto).  The
    result records the seed the build ran with: the params' ``seed`` field,
    or ``None`` for params without one.
    """
    if params is None:
        params = spec.default_params()
    params_doc = spec.params_dict(params)
    # Builds run in-process (or inside a pool worker's process), so the
    # registry delta over the build is exactly this experiment's kernel work.
    timings_before = KERNEL_TIMINGS.snapshot()
    start = time.perf_counter()
    if backend is None:
        payload = spec.build(params)
    else:
        with use_backend(backend):
            payload = spec.build(params)
    elapsed = time.perf_counter() - start
    return ExperimentResult(
        experiment_id=spec.experiment_id,
        params=params_doc,
        tables=tuple(payload.tables),
        metrics=jsonify(payload.metrics, where=f"{spec.experiment_id} metrics"),
        seed=getattr(params, "seed", None),
        wall_time_seconds=elapsed,
        kernel_counters=KERNEL_TIMINGS.delta_since(timings_before),
        peak_rss_kb=peak_rss_kb(),
    )


def _pool_execute(
    experiment_id: str, params_doc: Dict[str, Any], backend: Optional[str]
) -> Dict[str, Any]:
    """Worker entry point: look the spec up by id and run it.

    Returns the full serialized result (plain dict) so only JSON-safe data
    crosses the process boundary.  Submitted by :func:`run_experiments`
    pool workers and by the result service (``repro.serve``) — keep the
    signature JSON-scalar so any executor can carry it.
    """
    from repro.experiments.orchestrator import registry

    chaos_checkpoint("task", key=experiment_id)
    spec = registry.get_spec(experiment_id)
    return execute_spec(
        spec, spec.params_from_dict(params_doc), backend=backend
    ).to_dict()


def run_experiments(
    specs: Sequence[ExperimentSpec],
    *,
    backend: Optional[str] = None,
    parallel: bool = False,
    max_workers: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    force: bool = False,
    task_timeout: Optional[float] = None,
    retries: int = DEFAULT_RETRIES,
) -> List[ExperimentResult]:
    """Run ``specs`` (default parameters) and return results in spec order.

    Args:
        backend: compute-backend name; resolved once so serial, parallel and
            sharded runs agree.  ``None`` uses the ambient resolution.
        parallel: fan the experiments out over a process pool.
        max_workers: pool size (default: ``os.cpu_count()``).
        cache: optional :class:`ResultCache`; fresh results are stored,
            prior results with matching content keys are returned directly.
        force: recompute even on a cache hit (the fresh result still
            overwrites the cache entry).
        task_timeout: per-attempt deadline (seconds) for each parallel task;
            a hung worker is terminated and its task retried.  ``None``
            waits forever.
        retries: how many times a parallel task lost to a worker crash,
            timeout or injected fault is re-dispatched before the run fails.
            Experiments are pure functions of their params, so a retried
            task returns bit-identical results and determinism survives
            worker loss.
    """
    effective_backend = get_backend(backend).name
    results: List[Optional[ExperimentResult]] = [None] * len(specs)
    pending: List[Tuple[int, ExperimentSpec, Dict[str, Any], Optional[str]]] = []
    for index, spec in enumerate(specs):
        params_doc = spec.params_dict()
        # `is not None`, not truthiness: ResultCache.__len__ makes an empty
        # cache falsy, which must still compute keys and store results.
        key = (
            cache.key_for(spec, params_doc)
            if cache is not None
            else None
        )
        if cache is not None and not force:
            hit = cache.load(key)
            if hit is not None and hit.experiment_id == spec.experiment_id:
                results[index] = hit
                continue
        pending.append((index, spec, params_doc, key))

    if parallel and len(pending) > 1:
        pool = ResilientExecutor(
            max_workers=max_workers, deadline=task_timeout, retries=retries
        )
        try:
            futures = [
                (index, spec, key, pool.submit(_pool_execute, spec.experiment_id, params_doc, effective_backend))
                for index, spec, params_doc, key in pending
            ]
            for index, spec, key, future in futures:
                document = future.result()
                results[index] = ExperimentResult.from_dict(document)
                if cache is not None and key is not None:
                    cache.store(key, document)
        finally:
            pool.shutdown(wait=True, cancel_futures=True)
    else:
        for index, spec, params_doc, key in pending:
            result = execute_spec(spec, backend=effective_backend)
            results[index] = result
            if cache is not None and key is not None:
                cache.store(key, result.to_dict())

    return [result for result in results if result is not None]
