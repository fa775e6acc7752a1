"""Command-line interface for the reproduction.

Six subcommands cover the common workflows without writing Python:

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
- ``cache``    — inspect, shrink or prime the result cache (``--stats``,
  ``--prune`` stale fingerprints and leaked temp files, ``--clear``,
  ``--warm`` to batch-compute registry experiments into the cache);
- ``entropy``  — quick diversity analysis of a voting-power distribution given
  as ``name=power`` pairs (e.g. mining-pool shares), reporting the Shannon
  entropy, the full diversity profile and which protocol tolerances a single
  shared fault in the largest configuration would break;
- ``backends`` — show the registered compute backends, which one is active,
  and — for any backend that cannot run here — the captured import/probe
  error explaining why.

Performance is measured by ``perfbench/run.py`` (see ``BENCHMARK.json``),
not by a subcommand.

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
    python -m repro.cli cache --stats
    python -m repro.cli cache --warm --tag monte-carlo --jobs 4
    python -m repro.cli entropy foundry=34.2 antpool=20.0 f2pool=13.0 rest=32.8
    python -m repro.cli backends
"""

from __future__ import annotations

import argparse
import asyncio
import math
import os
import sys
from typing import Mapping, Optional, Sequence

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
    experiment_banner,
    filter_specs,
    invalidate_code_fingerprint,
    json_body,
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


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _positive_seconds(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text!r}")
    return value


def _non_negative_seconds(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text!r}")
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
        type=_positive_seconds,
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
        help="regenerate the golden-snapshot files for the selected experiments",
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
        type=_non_negative_seconds,
        default=5.0,
        metavar="SECONDS",
        help="re-hash the source tree this often so the server picks up "
        "edits (0 disables; default: 5)",
    )
    serve_parser.add_argument(
        "--build-deadline",
        type=_positive_seconds,
        default=None,
        metavar="SECONDS",
        help="per-request build deadline; exceeding it answers 504 and the "
        "hung worker is terminated (default: no deadline)",
    )
    serve_parser.add_argument(
        "--build-retries",
        type=_non_negative_int,
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
        type=_positive_seconds,
        default=DEFAULT_RESET_TIMEOUT,
        metavar="SECONDS",
        help="seconds an open breaker waits before probing one build "
        f"(default: {DEFAULT_RESET_TIMEOUT})",
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

    return parser


def _command_list() -> int:
    print("available experiments:")
    for name in registry.experiment_ids():
        print(f"  {name}")
    return 0


def _update_golden(
    specs: Sequence[ExperimentSpec],
    directory: str,
    results_by_id: Mapping[str, ExperimentResult],
) -> None:
    """Write the run's results for ``specs`` as golden snapshots under ``directory``.

    One ``{experiment_id}.json`` per experiment: every number is the same on
    every backend.
    """
    os.makedirs(directory, exist_ok=True)
    for spec in specs:
        path = os.path.join(directory, f"{spec.experiment_id}.json")
        with open(path, "wb") as handle:
            handle.write(json_body(results_by_id[spec.experiment_id].canonical_dict()))
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
        if cache.load(cache.key_for(spec, spec.params_dict()))
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
        if arguments.command == "cache":
            return _command_cache(arguments)
        if arguments.command == "entropy":
            return _command_entropy(arguments.shares)
        if arguments.command == "backends":
            return _command_backends()
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
