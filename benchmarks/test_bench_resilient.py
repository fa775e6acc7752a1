"""Benchmark: serial vs sharded campaign estimation on the resilient seam.

A campaign is a one-request grid, so the sharded run is
:class:`ShardedGridRun` over that request.  It pays dispatch overhead
(pickling shard arguments, merging shard results) in exchange for parallel
trial evaluation, and the counter-based RNG keeps the sharded estimate
bit-identical to serial — so the recorded timings measure pure
orchestration cost, never a change in the answer.

Run with::

    pytest benchmarks/test_bench_resilient.py --benchmark-only
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.backend import available_backends
from repro.faults.engine import BatchCampaignEngine, GridPointRequest, ShardedGridRun
from repro.faults.scenarios import ecosystem_scenario

TRIALS = 2_500
REPLICAS = 150

SCENARIO = ecosystem_scenario(
    ecosystem="default",
    population_size=REPLICAS,
    seed=42,
    exploit_probability=0.6,
)


#: The whole-catalog BFT campaign ``engine.estimate(...)`` runs.
CAMPAIGN = (
    GridPointRequest(
        tolerances=(1.0 / 3.0,), vulnerability_ids=tuple(SCENARIO.catalog.ids())
    ),
)


def _engine(backend):
    return BatchCampaignEngine(
        SCENARIO.population, SCENARIO.catalog, backend=backend
    )


def _sharded_estimate(run):
    (point,) = run.estimate_grid(CAMPAIGN, trials=TRIALS, seed=42)
    return point.estimate_at(0)


@pytest.mark.parametrize("backend", available_backends())
def test_serial_estimate_baseline(benchmark, backend):
    engine = _engine(backend)
    estimate = benchmark(engine.estimate, trials=TRIALS, seed=42)
    assert estimate.trials == TRIALS


@pytest.mark.parametrize("backend", available_backends())
def test_process_sharded_estimate(benchmark, backend):
    engine = _engine(backend)
    run = ShardedGridRun(engine, max_workers=4)
    estimate = benchmark(_sharded_estimate, run)
    assert estimate == engine.estimate(trials=TRIALS, seed=42)


def test_thread_sharded_estimate(benchmark):
    engine = _engine("python")
    with ThreadPoolExecutor(max_workers=4) as executor:
        run = ShardedGridRun(engine, max_workers=4, executor=executor)
        estimate = benchmark(_sharded_estimate, run)
    assert estimate == engine.estimate(trials=TRIALS, seed=42)
