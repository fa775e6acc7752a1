"""Benchmark: end-to-end protocol safety under a single shared vulnerability."""

from __future__ import annotations

from repro.bft.runner import run_consensus
from repro.experiments.protocol_safety import run_protocol_safety
from repro.faults.injection import FaultSchedule, FaultSpec


def test_protocol_safety_experiment(benchmark):
    result = benchmark(run_protocol_safety)
    assert result.condition_predicts_safety
    safety = {
        (row.deployment, row.protocol): row.safety_observed for row in result.bft_rows
    }
    assert safety[("diverse (unique configs)", "pbft")]
    assert not safety[("shared client on 5 of 7", "pbft")]
    diverse, shared = result.nakamoto_rows
    assert not diverse.majority
    assert shared.majority


def test_pbft_honest_run_latency(benchmark):
    """Raw simulator throughput: one honest PBFT instance with 13 replicas."""
    ids = [f"r{i}" for i in range(13)]
    result = benchmark(run_consensus, ids, protocol="pbft")
    assert result.safety_ok and result.all_honest_decided


def test_hotstuff_honest_run_latency(benchmark):
    """Raw simulator throughput: one honest streamlined instance, 13 replicas."""
    ids = [f"r{i}" for i in range(13)]
    result = benchmark(run_consensus, ids, protocol="hotstuff")
    assert result.safety_ok and result.all_honest_decided


def test_pbft_under_equivocation_latency(benchmark):
    """Worst-case Byzantine run (beyond the fault bound) with 10 replicas."""
    ids = [f"r{i}" for i in range(10)]
    schedule = FaultSchedule(
        FaultSpec(replica_id=replica_id) for replica_id in ("r0", "r3", "r5", "r7")
    )
    result = benchmark(run_consensus, ids, schedule, protocol="pbft")
    assert not result.within_fault_bound
