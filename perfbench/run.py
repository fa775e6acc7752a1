"""Run one workload of the layered benchmark and print its metrics.

From the repository root::

    python3 perfbench/run.py --workload grid_sweep --seed 1 --seconds 50 --trace 0

Workloads: ``grid_sweep``, ``population_scale``, ``serve_reads`` and
``serve_writes``; ``BENCHMARK.json`` gates the first and the last (see
``perfbench/README.md``).  The run sets the workload up five times
(``setup_s`` is the median), times ops for ``--seconds`` in all, spread
over those set-ups, checks the program's outputs and tears everything
down.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones.  Each metric is printed as ``name = value unit``; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full record (host,
environment, set-up times, counts and, when traced, every span) is written
under ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

ROOT = Path(__file__).resolve().parent.parent

WORKLOADS = ("grid_sweep", "population_scale", "serve_reads", "serve_writes")


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    # The checkout's own source, never an installed copy; the script's
    # directory is dropped so no module here can shadow a stdlib one.
    sys.path[:] = [str(ROOT / "src"), str(ROOT)] + [
        entry for entry in sys.path[1:] if entry not in (str(ROOT / "src"), str(ROOT))
    ]
    from perfbench import harness

    environment = harness.pin_environment()
    from perfbench.spans import span_records
    from perfbench.serving import ServeReads, ServeWrites
    from perfbench.workloads import GridSweep, PopulationScale
    from repro.backend import get_backend

    workload_class = {
        cls.name: cls for cls in (GridSweep, PopulationScale, ServeReads, ServeWrites)
    }[args.workload]
    trace = bool(args.trace)
    out_dir = ROOT / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    run = harness.measure(
        workload_class,
        seed=args.seed,
        seconds=args.seconds,
        trace=trace,
        workdir_root=str(out_dir),
    )
    metrics = run.metrics(trace)
    failed = sum(1 for op in run.log.ops if not op.ok)
    summary = {
        "correct": not run.failures and failed == 0,
        "attempted": len(run.log.ops),
        "failed": failed,
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": trace,
        "backend": get_backend().name,
        "environment": environment,
        "host": harness.host_block(),
        "setup_seconds": run.setup_seconds,
        "counts": run.log.counts,
        "failures": run.failures,
        **summary,
    }
    stem = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    if trace:
        with open(stem.with_suffix(".spans.jsonl"), "w", encoding="utf-8") as handle:
            for span in span_records(run.tracer.spans):
                handle.write(json.dumps(span) + "\n")

    print(f"# host {json.dumps(record['host'], sort_keys=True)}")
    print(f"# backend {record['backend']} environment {json.dumps(environment, sort_keys=True)}")
    for failure in run.failures:
        print(f"# FAILED {failure}")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']} {metric['unit']}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
