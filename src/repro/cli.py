"""Command-line interface for the reproduction.

Twelve subcommands cover the common workflows without writing Python:

- ``list``     — show the available experiments (one per paper artifact);
- ``run``      — run experiments through the orchestrator: name/tag
  filtering, ``--shard i/n`` splitting for CI fan-out, process-parallel
  execution, a content-addressed result cache, a ``RESULTS.json`` artifact
  and golden-snapshot regeneration;
- ``serve``    — host the asyncio HTTP result service: experiment results as
  canonical JSON straight from the content-addressed cache, computed on miss
  on a bounded process pool; reads (``/experiments``, ``/experiments/{id}``),
  writes (``POST /jobs``, ``/jobs/{id}``, bulk ``/results`` with NDJSON
  streaming), cache admin (``/cache/stats|prune|invalidate|warm``), plus
  ``/healthz`` and ``/metrics``;
- ``bench-serve`` — load-test the result service and write the
  throughput snapshot (``BENCH_4.json``; ``--write-ratio`` adds the mixed
  read/write phase recorded as ``BENCH_7.json`` in CI);
- ``cache``    — inspect, shrink or prime the result cache (``--stats``,
  ``--prune`` stale fingerprints and leaked temp files, ``--clear``,
  ``--warm`` to batch-compute registry experiments into the cache);
- ``entropy``  — quick diversity analysis of a voting-power distribution given
  as ``name=power`` pairs (e.g. mining-pool shares), reporting the Shannon
  entropy, the full diversity profile and which protocol tolerances a single
  shared fault in the largest configuration would break;
- ``backends`` — show the registered compute backends, which one is active,
  and — for any backend that cannot run here — the captured import/probe
  error explaining why;
- ``bench``    — time the Monte-Carlo estimator on every available backend and
  optionally write a JSON perf snapshot (the CI ``BENCH_1.json`` artifact);
- ``bench-campaign`` — time the batched campaign engine (scalar python loop
  vs vectorized batch) on every available backend and optionally write the
  ``BENCH_5.json`` snapshot; the backends must produce identical campaign
  results, so this doubles as a cross-backend identity check;
- ``bench-grid`` — time the fused grid campaign engine (one kernel call for
  a whole budgets × reliabilities sweep) against the looped per-point path
  and the scalar python loop, asserting fused/looped bit-identity, and
  optionally write the ``BENCH_8.json`` snapshot;
- ``bench-population`` — time the streaming sparse population plane across
  replica scales with a dense bit-identity check and an optional peak-RSS
  ceiling (the CI ``BENCH_9.json`` artifact);
- ``bench-backends`` — race python vs numpy vs the multiprocess ``shm``
  backend across worker counts on the campaign workload (all identical by
  contract), then run the budgeted sparse campaign at sweep scale as one
  shm kernel call; optionally gate a minimum
  shm-over-numpy speedup and a peak-RSS ceiling and write the
  ``BENCH_10.json`` snapshot.

Every subcommand honors the global ``--backend`` flag (and the
``REPRO_BACKEND`` environment variable) to select the compute backend.

Examples::

    python -m repro.cli list
    python -m repro.cli run figure1 example1
    python -m repro.cli --backend python run --all
    python -m repro.cli run --tag monte-carlo --parallel
    python -m repro.cli run --shard 1/2 --results RESULTS.json
    python -m repro.cli run --all --update-golden
    python -m repro.cli serve --port 8000 --jobs 4
    python -m repro.cli bench-serve --requests 500 --output BENCH_4.json
    python -m repro.cli bench-serve --write-ratio 0.25 --output BENCH_7.json
    python -m repro.cli cache --stats
    python -m repro.cli cache --warm --tag monte-carlo --jobs 4
    python -m repro.cli entropy foundry=34.2 antpool=20.0 f2pool=13.0 rest=32.8
    python -m repro.cli backends
    python -m repro.cli bench --trials 10000 --configs 1000 --output BENCH_1.json
    python -m repro.cli bench-campaign --trials 10000 --output BENCH_5.json
    python -m repro.cli bench-grid --trials 10000 --output BENCH_8.json
    python -m repro.cli bench-backends --workers 1 2 4 8 --output BENCH_10.json
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import shutil
import sys
import tempfile
from typing import Mapping, Optional, Sequence

from repro.analysis.benchmark import benchmark_backends, write_snapshot
from repro.analysis.campaign_benchmark import (
    benchmark_campaigns,
    write_campaign_snapshot,
)
from repro.analysis.population_benchmark import (
    DEFAULT_DENSE_LIMIT,
    DEFAULT_POPULATION_SIZES,
    benchmark_population,
    write_population_snapshot,
)
from repro.analysis.grid_benchmark import (
    benchmark_grid,
    write_grid_snapshot,
)
from repro.analysis.backends_benchmark import (
    DEFAULT_SPARSE_SIZE,
    DEFAULT_WORKER_COUNTS,
    benchmark_backend_suite,
    write_backends_snapshot,
)
from repro.faults.scenarios import ECOSYSTEM_GENERATORS
from repro.analysis.report import Table
from repro.backend import (
    AUTO,
    availability_errors,
    available_backends,
    get_backend,
    registered_backends,
    set_default_backend,
)
from repro.core.distribution import ConfigurationDistribution
from repro.core.exceptions import OrchestrationError, ReproError
from repro.core.resilience import ProtocolFamily, tolerated_fault_fraction
from repro.experiments.orchestrator import (
    DEFAULT_RETRIES,
    ExperimentResult,
    ResultCache,
    execute_spec,
    experiment_banner,
    filter_specs,
    invalidate_code_fingerprint,
    parse_shard,
    results_document,
    run_experiments,
    select_shard,
    write_results_document,
)
from repro.serve import (
    DEFAULT_FAILURE_THRESHOLD,
    DEFAULT_RESET_TIMEOUT,
    ResultServer,
    default_jobs,
    run_serve_bench,
    write_serve_snapshot,
)
from repro.experiments.orchestrator import registry
from repro.experiments.orchestrator.spec import ExperimentSpec

#: Default directory for the golden-snapshot regression files.
DEFAULT_GOLDEN_DIR = os.path.join("tests", "golden")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Fault Independence in Blockchain' (DSN 2023).",
    )
    parser.add_argument(
        "--backend",
        choices=(AUTO, *registered_backends()),
        default=None,
        help="compute backend for the numeric hot paths "
        "(default: REPRO_BACKEND env var, then auto-detect)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list the available experiments")

    run_parser = subparsers.add_parser(
        "run",
        help="run experiments through the orchestrator "
        "(filtering, sharding, caching, RESULTS.json)",
    )
    run_parser.add_argument(
        "experiments",
        nargs="*",
        metavar="EXPERIMENT",
        help="experiment names (see 'list'); default: all of them",
    )
    run_parser.add_argument(
        "--all", action="store_true", help="run every experiment (same as no names)"
    )
    run_parser.add_argument(
        "--tag",
        action="append",
        default=None,
        metavar="TAG",
        help="only experiments carrying this tag (repeatable; OR semantics)",
    )
    run_parser.add_argument(
        "--shard",
        default=None,
        metavar="I/N",
        help="run the I-th of N round-robin shards of the selection "
        "(1-based; shards union back to the full selection)",
    )
    run_parser.add_argument(
        "--parallel",
        action="store_true",
        help="fan the experiments out over a process pool "
        "(results identical to a serial run)",
    )
    run_parser.add_argument(
        "--jobs",
        type=_positive_int,
        default=None,
        metavar="N",
        help="process-pool size (implies --parallel)",
    )
    run_parser.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-attempt deadline for parallel tasks; a hung worker is "
        "terminated and the task retried (default: no deadline)",
    )
    run_parser.add_argument(
        "--retries",
        type=int,
        default=DEFAULT_RETRIES,
        metavar="N",
        help="re-dispatches allowed per parallel task after a worker crash, "
        f"timeout or injected fault (default: {DEFAULT_RETRIES}; results "
        "are bit-identical regardless of retries)",
    )
    run_parser.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the result cache entirely (no reads, no writes)",
    )
    run_parser.add_argument(
        "--force",
        action="store_true",
        help="recompute even on a cache hit (the fresh result is re-cached)",
    )
    run_parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="PATH",
        help="result cache directory (default: $REPRO_CACHE_DIR or .repro-cache)",
    )
    run_parser.add_argument(
        "--results",
        default=None,
        metavar="PATH",
        help="write the structured RESULTS.json artifact here",
    )
    run_parser.add_argument(
        "--merge",
        action="store_true",
        help="merge into an existing --results file instead of replacing it "
        "(how sharded CI runs assemble one artifact)",
    )
    run_parser.add_argument(
        "--quiet", action="store_true", help="suppress the text reports"
    )
    run_parser.add_argument(
        "--update-golden",
        action="store_true",
        help="regenerate the golden-snapshot files for the selected experiments "
        "(per backend where the numbers are backend-sensitive)",
    )
    run_parser.add_argument(
        "--golden-dir",
        default=DEFAULT_GOLDEN_DIR,
        metavar="PATH",
        help=f"golden snapshot directory (default: {DEFAULT_GOLDEN_DIR})",
    )

    serve_parser = subparsers.add_parser(
        "serve",
        help="host the HTTP result service over the content-addressed cache",
    )
    serve_parser.add_argument(
        "--host", default="127.0.0.1", help="interface to bind (default: 127.0.0.1)"
    )
    serve_parser.add_argument(
        "--port", type=int, default=8000, help="TCP port (default: 8000; 0 = ephemeral)"
    )
    serve_parser.add_argument(
        "--jobs",
        type=_positive_int,
        default=None,
        metavar="N",
        help="process-pool size for miss computations "
        f"(default: min(4, cpu count) = {default_jobs()})",
    )
    serve_parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="PATH",
        help="result cache directory (default: $REPRO_CACHE_DIR or .repro-cache)",
    )
    serve_parser.add_argument(
        "--refresh-interval",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="re-hash the source tree this often so the server picks up "
        "edits (0 disables; default: 5)",
    )
    serve_parser.add_argument(
        "--build-deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-request build deadline; exceeding it answers 504 and the "
        "hung worker is terminated (default: no deadline)",
    )
    serve_parser.add_argument(
        "--build-retries",
        type=int,
        default=0,
        metavar="N",
        help="re-dispatches per build after a worker crash or injected "
        "fault (default: 0 — fail fast and let the breaker count it)",
    )
    serve_parser.add_argument(
        "--breaker-threshold",
        type=_positive_int,
        default=DEFAULT_FAILURE_THRESHOLD,
        metavar="N",
        help="consecutive build failures that open the circuit breaker "
        f"(503 + Retry-After; default: {DEFAULT_FAILURE_THRESHOLD})",
    )
    serve_parser.add_argument(
        "--breaker-reset",
        type=float,
        default=DEFAULT_RESET_TIMEOUT,
        metavar="SECONDS",
        help="seconds an open breaker waits before probing one build "
        f"(default: {DEFAULT_RESET_TIMEOUT})",
    )

    bench_serve_parser = subparsers.add_parser(
        "bench-serve",
        help="load-test the result service and snapshot throughput (BENCH_4.json)",
    )
    bench_serve_parser.add_argument(
        "experiments",
        nargs="*",
        metavar="EXPERIMENT",
        help="experiments to request (default: figure1 example1)",
    )
    bench_serve_parser.add_argument(
        "--requests",
        type=_positive_int,
        default=200,
        help="requests per timed phase (default: 200)",
    )
    bench_serve_parser.add_argument(
        "--concurrency",
        type=_positive_int,
        default=8,
        help="concurrent keep-alive connections (default: 8)",
    )
    bench_serve_parser.add_argument(
        "--jobs",
        type=_positive_int,
        default=None,
        metavar="N",
        help="server process-pool size (default: min(4, cpu count))",
    )
    bench_serve_parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="PATH",
        help="serve from this cache directory instead of a fresh temporary "
        "one (a warm directory skews the cold phase)",
    )
    bench_serve_parser.add_argument(
        "--write-ratio",
        type=float,
        default=0.0,
        metavar="RATIO",
        help="add a mixed phase where this fraction of requests are "
        "synchronous POST /jobs submissions (default: 0 — reads only)",
    )
    bench_serve_parser.add_argument(
        "--output",
        metavar="PATH",
        default=None,
        help="write the JSON throughput snapshot here (e.g. BENCH_4.json)",
    )

    cache_parser = subparsers.add_parser(
        "cache",
        help="inspect, shrink or prime the content-addressed result cache",
    )
    cache_parser.add_argument(
        "experiments",
        nargs="*",
        metavar="EXPERIMENT",
        help="with --warm: restrict priming to these experiments "
        "(default: the whole registry)",
    )
    cache_action = cache_parser.add_mutually_exclusive_group()
    cache_action.add_argument(
        "--stats",
        action="store_true",
        help="report live/stale entry counts and sizes (the default action)",
    )
    cache_action.add_argument(
        "--prune",
        action="store_true",
        help="delete entries orphaned by source edits plus leaked temp files",
    )
    cache_action.add_argument(
        "--clear", action="store_true", help="delete every cache entry"
    )
    cache_action.add_argument(
        "--warm",
        action="store_true",
        help="walk the registry and compute every missing result into the "
        "cache, so a server starting on this directory serves hits only",
    )
    cache_parser.add_argument(
        "--tag",
        action="append",
        default=None,
        metavar="TAG",
        help="with --warm: only experiments carrying this tag "
        "(repeatable; OR semantics)",
    )
    cache_parser.add_argument(
        "--jobs",
        type=_positive_int,
        default=None,
        metavar="N",
        help="with --warm: compute misses on a process pool of this size",
    )
    cache_parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="PATH",
        help="result cache directory (default: $REPRO_CACHE_DIR or .repro-cache)",
    )

    entropy_parser = subparsers.add_parser(
        "entropy", help="diversity analysis of a name=power distribution"
    )
    entropy_parser.add_argument(
        "shares",
        nargs="+",
        metavar="NAME=POWER",
        help="voting-power entries, e.g. foundry=34.2 antpool=20.0",
    )

    subparsers.add_parser(
        "backends", help="show registered compute backends and the active one"
    )

    bench_parser = subparsers.add_parser(
        "bench",
        help="time the Monte-Carlo estimator on every available backend",
    )
    bench_parser.add_argument("--trials", type=int, default=10_000)
    bench_parser.add_argument("--configs", type=int, default=1_000)
    bench_parser.add_argument("--budget", type=int, default=1, help="exploit budget")
    bench_parser.add_argument(
        "--vulnerability", type=float, default=0.25, help="per-config vulnerability probability"
    )
    bench_parser.add_argument("--seed", type=int, default=42)
    bench_parser.add_argument(
        "--repeats", type=int, default=3, help="timed repeats per backend (best counts)"
    )
    bench_parser.add_argument(
        "--output",
        metavar="PATH",
        default=None,
        help="write the JSON perf snapshot here (e.g. BENCH_1.json)",
    )

    bench_campaign_parser = subparsers.add_parser(
        "bench-campaign",
        help="time the batched campaign engine on every available backend",
    )
    bench_campaign_parser.add_argument("--trials", type=int, default=10_000)
    bench_campaign_parser.add_argument(
        "--replicas", type=int, default=150, help="population size"
    )
    bench_campaign_parser.add_argument(
        "--ecosystem",
        choices=sorted(ECOSYSTEM_GENERATORS),
        default="default",
        help="ecosystem the benchmark population samples from",
    )
    bench_campaign_parser.add_argument(
        "--exploit-probability",
        type=float,
        default=0.6,
        help="per-replica exploit success probability",
    )
    bench_campaign_parser.add_argument(
        "--budget", type=int, default=4, help="adversary exploit budget"
    )
    bench_campaign_parser.add_argument("--seed", type=int, default=42)
    bench_campaign_parser.add_argument(
        "--repeats", type=int, default=2, help="timed repeats per backend (best counts)"
    )
    bench_campaign_parser.add_argument(
        "--output",
        metavar="PATH",
        default=None,
        help="write the JSON perf snapshot here (e.g. BENCH_5.json)",
    )

    bench_grid_parser = subparsers.add_parser(
        "bench-grid",
        help="time the fused grid campaign engine against the looped and "
        "scalar paths",
    )
    bench_grid_parser.add_argument("--trials", type=int, default=10_000)
    bench_grid_parser.add_argument(
        "--replicas", type=int, default=150, help="population size"
    )
    bench_grid_parser.add_argument(
        "--ecosystem",
        choices=sorted(ECOSYSTEM_GENERATORS),
        default="default",
        help="ecosystem the benchmark population samples from",
    )
    bench_grid_parser.add_argument(
        "--budgets",
        type=int,
        nargs="+",
        default=[1, 2, 3, 4, 5, 6, 7, 8],
        metavar="M",
        help="adversary budgets forming one grid axis",
    )
    bench_grid_parser.add_argument(
        "--probabilities",
        type=float,
        nargs="+",
        default=[0.45, 0.6, 0.75],
        metavar="P",
        help="exploit success probabilities forming the other grid axis",
    )
    bench_grid_parser.add_argument("--seed", type=int, default=42)
    bench_grid_parser.add_argument(
        "--repeats", type=int, default=2, help="timed repeats per mode (best counts)"
    )
    bench_grid_parser.add_argument(
        "--scalar-trials",
        type=int,
        default=400,
        help="trial count for the scalar python modes (the full workload "
        "takes minutes scalar; speedups compare point-trial throughput)",
    )
    bench_grid_parser.add_argument(
        "--output",
        metavar="PATH",
        default=None,
        help="write the JSON perf snapshot here (e.g. BENCH_8.json)",
    )

    bench_population_parser = subparsers.add_parser(
        "bench-population",
        help="time the streaming sparse population plane across replica "
        "scales, with a dense bit-identity check at overlapping sizes",
    )
    bench_population_parser.add_argument(
        "--sizes",
        type=int,
        nargs="+",
        default=list(DEFAULT_POPULATION_SIZES),
        metavar="N",
        help="population sizes to sweep (default: 10^4 10^5 10^6)",
    )
    bench_population_parser.add_argument("--trials", type=int, default=32)
    bench_population_parser.add_argument(
        "--ecosystem",
        choices=sorted(ECOSYSTEM_GENERATORS),
        default="default",
        help="ecosystem the benchmark population streams from",
    )
    bench_population_parser.add_argument(
        "--exploit-probability", type=float, default=0.45
    )
    bench_population_parser.add_argument("--seed", type=int, default=29)
    bench_population_parser.add_argument(
        "--repeats", type=int, default=1, help="timed repeats per stage (best counts)"
    )
    bench_population_parser.add_argument(
        "--dense-limit",
        type=int,
        default=DEFAULT_DENSE_LIMIT,
        metavar="N",
        help="largest size to also materialize densely and compare "
        "bit-for-bit (0 skips the dense path entirely — required for a "
        "meaningful memory-ceiling gate, since peak RSS never shrinks)",
    )
    bench_population_parser.add_argument(
        "--memory-ceiling-mb",
        type=int,
        default=None,
        metavar="MB",
        help="fail (exit 1) if peak RSS exceeds this ceiling",
    )
    bench_population_parser.add_argument(
        "--output",
        metavar="PATH",
        default=None,
        help="write the JSON perf snapshot here (e.g. BENCH_9.json)",
    )

    bench_backends_parser = subparsers.add_parser(
        "bench-backends",
        help="race python/numpy/shm on the campaign workload across worker "
        "counts, plus the budgeted sparse campaign at sweep scale",
    )
    bench_backends_parser.add_argument("--trials", type=int, default=10_000)
    bench_backends_parser.add_argument(
        "--python-trials",
        type=int,
        default=1_000,
        metavar="N",
        help="trial count for the scalar python backend (0 skips it; "
        "throughput comparisons use trials/sec, not wall time)",
    )
    bench_backends_parser.add_argument("--replicas", type=int, default=150)
    bench_backends_parser.add_argument(
        "--ecosystem",
        choices=sorted(ECOSYSTEM_GENERATORS),
        default="default",
    )
    bench_backends_parser.add_argument(
        "--exploit-probability", type=float, default=0.6
    )
    bench_backends_parser.add_argument("--budget", type=int, default=4)
    bench_backends_parser.add_argument("--seed", type=int, default=42)
    bench_backends_parser.add_argument(
        "--repeats", type=int, default=2, help="timed repeats (best counts)"
    )
    bench_backends_parser.add_argument(
        "--workers",
        type=int,
        nargs="+",
        default=list(DEFAULT_WORKER_COUNTS),
        metavar="N",
        help="REPRO_SHM_WORKERS values swept for the shm backend "
        "(default: 1 2 4 8)",
    )
    bench_backends_parser.add_argument(
        "--sparse-size",
        type=int,
        default=DEFAULT_SPARSE_SIZE,
        metavar="N",
        help="replica count of the budgeted sparse campaign "
        "(default: 10^7; 0 skips the sparse phase)",
    )
    bench_backends_parser.add_argument("--sparse-trials", type=int, default=8)
    bench_backends_parser.add_argument(
        "--sparse-workers",
        type=int,
        default=4,
        help="REPRO_SHM_WORKERS for the sparse phase",
    )
    bench_backends_parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        metavar="X",
        help="fail (exit 1) unless shm over numpy reaches this throughput "
        "ratio at --min-speedup-workers (the CI ≥2× gate)",
    )
    bench_backends_parser.add_argument(
        "--min-speedup-workers",
        type=int,
        default=4,
        metavar="N",
        help="worker count the --min-speedup gate reads (default: 4)",
    )
    bench_backends_parser.add_argument(
        "--memory-ceiling-mb",
        type=int,
        default=None,
        metavar="MB",
        help="fail (exit 1) if the sparse phase's peak RSS exceeds this",
    )
    bench_backends_parser.add_argument(
        "--output",
        metavar="PATH",
        default=None,
        help="write the JSON perf snapshot here (e.g. BENCH_10.json)",
    )
    return parser


def _command_list() -> int:
    print("available experiments:")
    for name in registry.experiment_ids():
        print(f"  {name}")
    return 0


def _golden_path(directory: str, spec: ExperimentSpec, backend: Optional[str]) -> str:
    """Golden file path: per-backend for backend-sensitive experiments."""
    if spec.backend_sensitive:
        return os.path.join(directory, f"{spec.experiment_id}.{backend}.json")
    return os.path.join(directory, f"{spec.experiment_id}.json")


def _update_golden(
    specs: Sequence[ExperimentSpec],
    directory: str,
    results_by_id: Mapping[str, ExperimentResult],
    ambient_backend: str,
) -> None:
    """Regenerate the golden snapshots for ``specs`` under ``directory``.

    ``results_by_id`` holds the run's already-computed results so the
    ambient backend's numbers are not recomputed; only the *other* backends'
    variants of backend-sensitive experiments run fresh.
    """
    unavailable = set(registered_backends()) - set(available_backends()) - {AUTO}
    if unavailable and any(spec.backend_sensitive for spec in specs):
        print(
            "warning: backend(s) not available here: "
            f"{', '.join(sorted(unavailable))} — their golden snapshots are "
            "NOT regenerated and may now be stale",
            file=sys.stderr,
        )
    os.makedirs(directory, exist_ok=True)
    for spec in specs:
        backends = available_backends() if spec.backend_sensitive else (None,)
        for backend in backends:
            if backend is None or backend == ambient_backend:
                result = results_by_id[spec.experiment_id]
            else:
                result = execute_spec(spec, backend=backend)
            path = _golden_path(directory, spec, backend)
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(
                    result.canonical_dict(),
                    handle,
                    indent=2,
                    sort_keys=True,
                    allow_nan=False,
                )
                handle.write("\n")
            print(f"golden snapshot written: {path}")


def _command_run(arguments: argparse.Namespace) -> int:
    names = [] if arguments.all else list(arguments.experiments)
    if arguments.merge and not arguments.results:
        # --merge only modifies how --results is written; accepting it alone
        # would silently drop the artifact the caller asked to assemble.
        print("error: --merge requires --results PATH", file=sys.stderr)
        return 2
    if arguments.update_golden:
        # Golden snapshots must be keyed to the source as it is now, not to
        # whatever this process memoized at import time.
        invalidate_code_fingerprint()
    try:
        selected = filter_specs(
            registry.all_specs(), names=names, tags=tuple(arguments.tag or ())
        )
        if arguments.shard is not None:
            index, count = parse_shard(arguments.shard)
            selected = select_shard(selected, index, count)
    except OrchestrationError as error:
        # Selection errors (unknown name/tag, bad shard) are usage errors:
        # exit 2, like argparse, rather than the generic runtime-error 1.
        print(f"error: {error}", file=sys.stderr)
        return 2
    cache = None if arguments.no_cache else ResultCache(arguments.cache_dir)
    if arguments.retries < 0:
        print("error: --retries must be non-negative", file=sys.stderr)
        return 2
    results = run_experiments(
        selected,
        parallel=arguments.parallel or arguments.jobs is not None,
        max_workers=arguments.jobs,
        cache=cache,
        force=arguments.force,
        task_timeout=arguments.task_timeout,
        retries=arguments.retries,
    )
    if not arguments.quiet:
        for spec, result in zip(selected, results):
            print(experiment_banner(spec.experiment_id))
            print(spec.render(result))
            print()
    if arguments.results:
        document = results_document(
            results, shard=arguments.shard, backend=get_backend().name
        )
        write_results_document(document, arguments.results, merge=arguments.merge)
        print(f"results written to {arguments.results}")
    if arguments.update_golden:
        _update_golden(
            selected,
            arguments.golden_dir,
            {result.experiment_id: result for result in results},
            get_backend().name,
        )
    return 0


def _parse_shares(entries: Sequence[str]) -> ConfigurationDistribution:
    weights = {}
    for entry in entries:
        name, separator, raw_value = entry.partition("=")
        if not separator or not name:
            raise ReproError(f"expected NAME=POWER, got {entry!r}")
        try:
            value = float(raw_value)
        except ValueError as error:
            raise ReproError(f"power in {entry!r} is not a number") from error
        if name in weights:
            # Last-wins would silently drop the earlier weight — with real
            # share data that is always a typo, never an intent.
            raise ReproError(f"duplicate name {name!r} (each NAME may appear once)")
        weights[name] = value
    return ConfigurationDistribution(weights)


def _command_entropy(entries: Sequence[str]) -> int:
    distribution = _parse_shares(entries)
    profile = distribution.diversity_profile()
    table = Table(headers=("metric", "value"))
    table.add_row("configurations", len(distribution))
    table.add_row("kappa (non-zero shares)", distribution.support_size())
    table.add_row("shannon entropy (bits)", profile["shannon_entropy"])
    table.add_row("normalized entropy", profile["normalized_entropy"])
    table.add_row("effective configurations (Hill q=1)", profile["hill_1"])
    table.add_row("largest share (Berger-Parker)", profile["berger_parker"])
    table.add_row("HHI", profile["hhi"])
    print(table.render())
    print()
    largest = profile["berger_parker"]
    for family in (ProtocolFamily.BFT, ProtocolFamily.NAKAMOTO):
        tolerance = tolerated_fault_fraction(family)
        verdict = "VIOLATES" if largest >= tolerance else "respects"
        print(
            f"a single fault in the largest configuration {verdict} the "
            f"{family.value} tolerance ({tolerance:.0%})"
        )
    return 0


def _command_backends() -> int:
    active = get_backend()
    available = set(available_backends())
    reasons = availability_errors()
    table = Table(headers=("backend", "available", "active", "reason"))
    for name in registered_backends():
        table.add_row(
            name,
            name in available,
            name == active.name,
            reasons.get(name) or "-",
        )
    print(table.render())
    return 0


def _command_serve(arguments: argparse.Namespace) -> int:
    async def _main() -> None:
        server = ResultServer(
            host=arguments.host,
            port=arguments.port,
            jobs=arguments.jobs,
            cache_dir=arguments.cache_dir,
            refresh_interval=arguments.refresh_interval,
            build_deadline=arguments.build_deadline,
            build_retries=arguments.build_retries,
            breaker_threshold=arguments.breaker_threshold,
            breaker_reset=arguments.breaker_reset,
        )
        await server.start()
        assert server.service is not None
        print(
            f"serving experiment results on {server.url} "
            f"({server.jobs} pool workers, cache: {server.service.cache.directory})"
        )
        print(
            "routes: /experiments  /experiments/{id}  /jobs  /jobs/{id}  "
            "/results  /cache/*  /healthz  /metrics"
        )
        try:
            await server.serve_forever()
        finally:
            await server.stop()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        print("shutting down")
    except OSError as error:
        # Port already bound, privileged port, bad interface: a normal
        # operational failure, not a traceback-worthy bug.
        print(
            f"error: cannot serve on {arguments.host}:{arguments.port}: {error}",
            file=sys.stderr,
        )
        return 1
    return 0


def _command_bench_serve(arguments: argparse.Namespace) -> int:
    experiment_ids = list(arguments.experiments) or ["figure1", "example1"]
    known = set(registry.experiment_ids())
    unknown = [name for name in experiment_ids if name not in known]
    if unknown:
        print(
            f"error: unknown experiments: {', '.join(unknown)} "
            f"(known: {', '.join(registry.experiment_ids())})",
            file=sys.stderr,
        )
        return 2
    temp_cache_dir = None
    cache_dir = arguments.cache_dir
    if cache_dir is None:
        temp_cache_dir = cache_dir = tempfile.mkdtemp(prefix="repro-bench-serve-")
    try:
        report = asyncio.run(_run_bench_serve(arguments, cache_dir, experiment_ids))
        print(
            f"result-service bench: {len(experiment_ids)} experiment(s), "
            f"{arguments.requests} requests x {arguments.concurrency} connections"
        )
        table = Table(headers=("phase", "requests", "seconds", "req/sec", "statuses"))
        phases = [
            ("cold (miss+build)", report.cold),
            ("warm (cache hits)", report.warm),
            ("conditional (304)", report.conditional),
        ]
        if report.mixed is not None:
            phases.append(
                (f"mixed ({report.write_ratio:.0%} writes)", report.mixed)
            )
        for label, phase in phases:
            table.add_row(
                label,
                phase.requests,
                phase.seconds,
                phase.requests_per_second,
                json.dumps(phase.statuses, sort_keys=True),
            )
        print(table.render())
        if arguments.output:
            write_serve_snapshot(report, arguments.output)
            print(f"snapshot written to {arguments.output}")
    finally:
        if temp_cache_dir is not None:
            shutil.rmtree(temp_cache_dir, ignore_errors=True)
    return 0


async def _run_bench_serve(arguments, cache_dir, experiment_ids):
    server = ResultServer(
        host="127.0.0.1",
        port=0,
        jobs=arguments.jobs,
        cache_dir=cache_dir,
        refresh_interval=0.0,
    )
    await server.start()
    try:
        return await run_serve_bench(
            "127.0.0.1",
            server.port,
            experiment_ids,
            requests=arguments.requests,
            concurrency=arguments.concurrency,
            write_ratio=arguments.write_ratio,
        )
    finally:
        await server.stop()


def _command_cache(arguments: argparse.Namespace) -> int:
    cache = ResultCache(arguments.cache_dir)
    if not arguments.warm and (
        arguments.experiments or arguments.tag or arguments.jobs
    ):
        print(
            "error: EXPERIMENT arguments, --tag and --jobs only apply to --warm",
            file=sys.stderr,
        )
        return 2
    if arguments.warm:
        return _warm_cache(arguments, cache)
    if arguments.clear:
        report = cache.clear()
        print(
            f"cleared {cache.directory}: removed {report.removed_entries} "
            f"entries and {report.removed_temp_files} temp files "
            f"({report.freed_bytes} bytes)"
        )
        return 0
    if arguments.prune:
        report = cache.prune()
        print(
            f"pruned {cache.directory}: removed {report.removed_entries} stale "
            f"entries and {report.removed_temp_files} temp files "
            f"({report.freed_bytes} bytes), kept {report.kept_entries} live entries"
        )
        return 0
    stats = cache.stats()
    table = Table(headers=("metric", "value"))
    table.add_row("directory", stats.directory)
    table.add_row("live entries (current fingerprint)", stats.entries)
    table.add_row("stale entries (prunable)", stats.stale_entries)
    table.add_row("leaked temp files (prunable)", stats.temp_files)
    table.add_row("total bytes", stats.total_bytes)
    print(table.render())
    return 0


def _warm_cache(arguments: argparse.Namespace, cache: ResultCache) -> int:
    """Batch-prime the cache: compute every missing registry result.

    The keys are the same content hashes the serve layer derives, so a
    server started on this directory afterwards answers the whole selection
    from cache — this is how CI (and operators) front-load the expensive
    builds before traffic arrives.
    """
    # Key for the source as it is now, not the import-time memo.
    invalidate_code_fingerprint()
    try:
        selected = filter_specs(
            registry.all_specs(),
            names=list(arguments.experiments),
            tags=tuple(arguments.tag or ()),
        )
    except OrchestrationError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    backend_name = get_backend().name
    cached_before = sum(
        1
        for spec in selected
        if cache.load(cache.key_for(spec, spec.params_dict(), backend_name))
        is not None
    )
    run_experiments(
        selected,
        backend=backend_name,
        parallel=arguments.jobs is not None and arguments.jobs > 1,
        max_workers=arguments.jobs,
        cache=cache,
    )
    print(
        f"warmed {cache.directory}: {len(selected) - cached_before} "
        f"result(s) computed, {cached_before} already cached "
        f"({len(selected)} selected, backend: {backend_name})"
    )
    return 0


def _command_bench(arguments: argparse.Namespace) -> int:
    report = benchmark_backends(
        trials=arguments.trials,
        configs=arguments.configs,
        exploit_budget=arguments.budget,
        vulnerability_probability=arguments.vulnerability,
        seed=arguments.seed,
        repeats=arguments.repeats,
    )
    print(
        f"Monte-Carlo estimator bench: {report.trials} trials x "
        f"{report.configs} configs (budget={report.exploit_budget}, "
        f"p_vuln={report.vulnerability_probability}, seed={report.seed})"
    )
    table = Table(headers=("backend", "seconds", "trials/sec", "P[violation]", "vs python"))
    for timing in report.timings:
        speedup = report.speedup_over_python(timing.backend)
        table.add_row(
            timing.backend,
            timing.seconds,
            timing.trials_per_second,
            timing.violation_probability,
            "-" if speedup is None else f"{speedup:.1f}x",
        )
    print(table.render())
    if arguments.output:
        write_snapshot(report, arguments.output)
        print(f"snapshot written to {arguments.output}")
    return 0


def _command_bench_campaign(arguments: argparse.Namespace) -> int:
    report = benchmark_campaigns(
        trials=arguments.trials,
        replicas=arguments.replicas,
        ecosystem=arguments.ecosystem,
        exploit_probability=arguments.exploit_probability,
        budget=arguments.budget,
        seed=arguments.seed,
        repeats=arguments.repeats,
    )
    print(
        f"campaign engine bench: {report.trials} randomized campaigns x "
        f"{report.replicas} replicas x {report.vulnerabilities} vulnerabilities "
        f"({report.ecosystem} ecosystem, budget={report.budget}, "
        f"p_exploit={report.exploit_probability}, seed={report.seed})"
    )
    table = Table(
        headers=("backend", "seconds", "campaigns/sec", "P[violation]", "vs python")
    )
    for timing in report.timings:
        speedup = report.speedup_over_python(timing.backend)
        table.add_row(
            timing.backend,
            timing.seconds,
            timing.trials_per_second,
            timing.violation_probability,
            "-" if speedup is None else f"{speedup:.1f}x",
        )
    print(table.render())
    print("backends produced identical campaign results: True")
    if arguments.output:
        write_campaign_snapshot(report, arguments.output)
        print(f"snapshot written to {arguments.output}")
    return 0


def _command_bench_grid(arguments: argparse.Namespace) -> int:
    report = benchmark_grid(
        trials=arguments.trials,
        replicas=arguments.replicas,
        ecosystem=arguments.ecosystem,
        budgets=tuple(arguments.budgets),
        probabilities=tuple(arguments.probabilities),
        seed=arguments.seed,
        repeats=arguments.repeats,
        scalar_trials=arguments.scalar_trials,
    )
    print(
        f"grid engine bench: {report.grid_points} grid points x "
        f"{report.trials} trials x {report.replicas} replicas "
        f"({report.ecosystem} ecosystem, budgets={list(report.budgets)}, "
        f"p_exploit={list(report.probabilities)}, seed={report.seed})"
    )
    table = Table(headers=("mode", "trials", "seconds", "point-trials/sec"))
    for timing in report.timings:
        table.add_row(
            timing.mode,
            timing.trials,
            timing.seconds,
            timing.point_trials_per_second,
        )
    print(table.render())
    fused_over_looped = report.speedup_fused_over_looped()
    if fused_over_looped is not None:
        print(f"fused over looped (numpy, same workload): {fused_over_looped:.1f}x")
    fused_over_scalar = report.speedup_fused_numpy_over_scalar()
    if fused_over_scalar is not None:
        print(f"fused numpy over scalar python (throughput): {fused_over_scalar:.1f}x")
    print(
        "fused grid identical to looped campaigns: "
        f"{report.identical_fused_vs_looped}"
    )
    if arguments.output:
        write_grid_snapshot(report, arguments.output)
        print(f"snapshot written to {arguments.output}")
    return 0


def _command_bench_population(arguments: argparse.Namespace) -> int:
    report = benchmark_population(
        sizes=tuple(arguments.sizes),
        trials=arguments.trials,
        ecosystem=arguments.ecosystem,
        exploit_probability=arguments.exploit_probability,
        seed=arguments.seed,
        repeats=arguments.repeats,
        dense_limit=arguments.dense_limit,
        memory_ceiling_mb=arguments.memory_ceiling_mb,
    )
    print(
        f"sparse population bench: {report.backend} backend, "
        f"{report.ecosystem} ecosystem ({report.vulnerabilities} "
        f"vulnerabilities), {report.trials} trials, seed={report.seed}, "
        f"dense limit {report.dense_limit}"
    )
    table = Table(
        headers=(
            "replicas",
            "nnz",
            "build sec",
            "sparse sec",
            "sparse trials/sec",
            "dense sec",
            "identical",
            "peak RSS KiB",
        )
    )
    for point in report.points:
        table.add_row(
            point.size,
            point.nnz,
            point.build_seconds,
            point.sparse_seconds,
            point.sparse_trials_per_second,
            "-" if point.dense_seconds is None else point.dense_seconds,
            "-"
            if point.identical_sparse_vs_dense is None
            else point.identical_sparse_vs_dense,
            point.peak_rss_kb,
        )
    print(table.render())
    identical = report.identical_sparse_vs_dense()
    if identical is not None:
        print(f"sparse identical to dense at overlapping scales: {identical}")
    print(f"peak RSS: {report.peak_rss_kb()} KiB")
    if arguments.output:
        write_population_snapshot(report, arguments.output)
        print(f"snapshot written to {arguments.output}")
    if report.within_memory_ceiling() is False:
        print(
            f"error: peak RSS {report.peak_rss_kb()} KiB exceeds the "
            f"{report.memory_ceiling_kb} KiB ceiling",
            file=sys.stderr,
        )
        return 1
    return 0


def _command_bench_backends(arguments: argparse.Namespace) -> int:
    report = benchmark_backend_suite(
        trials=arguments.trials,
        python_trials=arguments.python_trials,
        replicas=arguments.replicas,
        ecosystem=arguments.ecosystem,
        exploit_probability=arguments.exploit_probability,
        budget=arguments.budget,
        seed=arguments.seed,
        repeats=arguments.repeats,
        worker_counts=tuple(arguments.workers),
        sparse_size=arguments.sparse_size,
        sparse_trials=arguments.sparse_trials,
        sparse_workers=arguments.sparse_workers,
        memory_ceiling_mb=arguments.memory_ceiling_mb,
    )
    print(
        f"backend comparison: {report.trials} trials x {report.replicas} "
        f"replicas ({report.vulnerabilities} vulnerabilities), "
        f"budget {report.budget}, seed {report.seed}, "
        f"{report.cpu_count} CPU core(s)"
    )
    table = Table(
        headers=("configuration", "trials", "seconds", "trials/sec", "identical")
    )
    for timing in report.timings:
        table.add_row(
            timing.label,
            timing.trials,
            timing.seconds,
            timing.trials_per_second,
            timing.identical,
        )
    print(table.render())
    for workers in report.worker_counts:
        speedup = report.shm_speedup_over_numpy(workers)
        if speedup is not None:
            print(f"shm[w={workers}] over numpy: {speedup:.2f}x")
    sparse = report.sparse
    if sparse is not None:
        print(
            f"sparse sweep: {sparse.population_size} replicas "
            f"({sparse.nnz} nnz), {sparse.trials} trials, "
            f"{sparse.workers} workers, build {sparse.build_seconds:.1f}s, "
            f"campaign {sparse.campaign_seconds:.2f}s"
        )
        print(f"sparse peak RSS: {sparse.peak_rss_kb} KiB")
    if arguments.output:
        write_backends_snapshot(report, arguments.output)
        print(f"snapshot written to {arguments.output}")
    failed = False
    if arguments.min_speedup is not None:
        speedup = report.shm_speedup_over_numpy(arguments.min_speedup_workers)
        if speedup is None:
            print(
                f"error: no shm measurement at "
                f"{arguments.min_speedup_workers} workers to gate on",
                file=sys.stderr,
            )
            failed = True
        elif speedup < arguments.min_speedup:
            print(
                f"error: shm over numpy at {arguments.min_speedup_workers} "
                f"workers is {speedup:.2f}x, below the required "
                f"{arguments.min_speedup:.2f}x",
                file=sys.stderr,
            )
            failed = True
    if report.within_memory_ceiling() is False:
        print(
            f"error: sparse peak RSS {report.sparse.peak_rss_kb} KiB "
            f"exceeds the {report.memory_ceiling_kb} KiB ceiling",
            file=sys.stderr,
        )
        failed = True
    return 1 if failed else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = _build_parser()
    arguments = parser.parse_args(argv)
    previous_backend = None
    backend_overridden = False
    try:
        if arguments.backend is not None:
            previous_backend = set_default_backend(arguments.backend)
            backend_overridden = True
        if arguments.command == "list":
            return _command_list()
        if arguments.command == "run":
            return _command_run(arguments)
        if arguments.command == "serve":
            return _command_serve(arguments)
        if arguments.command == "bench-serve":
            return _command_bench_serve(arguments)
        if arguments.command == "cache":
            return _command_cache(arguments)
        if arguments.command == "entropy":
            return _command_entropy(arguments.shares)
        if arguments.command == "backends":
            return _command_backends()
        if arguments.command == "bench":
            return _command_bench(arguments)
        if arguments.command == "bench-campaign":
            return _command_bench_campaign(arguments)
        if arguments.command == "bench-grid":
            return _command_bench_grid(arguments)
        if arguments.command == "bench-population":
            return _command_bench_population(arguments)
        if arguments.command == "bench-backends":
            return _command_bench_backends(arguments)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        if backend_overridden:
            set_default_backend(previous_backend)
    parser.error(f"unknown command {arguments.command!r}")  # pragma: no cover
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover - manual entry point
    sys.exit(main())
