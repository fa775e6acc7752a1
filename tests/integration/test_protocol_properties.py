"""Property-based tests on protocol-level invariants (hypothesis)."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bft.quorum import QuorumModel, QuorumSpec
from repro.bft.runner import run_consensus
from repro.core.distribution import ConfigurationDistribution
from repro.core.resilience import ProtocolFamily, SafetyCondition
from repro.faults.injection import FaultSchedule, FaultSpec
from repro.nakamoto.attack import double_spend_success_probability


class TestQuorumProperties:
    @given(st.integers(min_value=4, max_value=400))
    def test_classic_quorum_intersection_contains_an_honest_replica(self, n):
        spec = QuorumSpec(total_replicas=n, model=QuorumModel.CLASSIC)
        # Two quorums intersect in at least f+1 replicas, so with at most f
        # Byzantine replicas at least one honest replica is in the intersection.
        assert 2 * spec.quorum_size - n >= spec.fault_bound + 1

    @given(st.integers(min_value=3, max_value=400))
    def test_hybrid_quorum_intersection_is_nonempty(self, n):
        spec = QuorumSpec(total_replicas=n, model=QuorumModel.HYBRID)
        assert 2 * spec.quorum_size - n >= 1

    @given(st.integers(min_value=4, max_value=400))
    def test_fault_bound_is_maximal(self, n):
        spec = QuorumSpec(total_replicas=n)
        assert 3 * spec.fault_bound + 1 <= n
        assert 3 * (spec.fault_bound + 1) + 1 > n


class TestSafetyConditionProperties:
    @given(
        st.integers(min_value=4, max_value=100),
        st.lists(st.floats(min_value=0.0, max_value=5.0), min_size=1, max_size=10),
    )
    def test_condition_monotone_in_compromised_power(self, n, faults):
        condition = SafetyCondition.for_family(ProtocolFamily.BFT, total_power=float(n))
        if condition.is_safe(faults + [1.0]):
            assert condition.is_safe(faults)

    @given(st.floats(min_value=0.0, max_value=1.0), st.integers(min_value=1, max_value=20))
    def test_double_spend_probability_is_a_probability(self, fraction, confirmations):
        value = double_spend_success_probability(fraction, confirmations)
        assert 0.0 <= value <= 1.0

    @given(st.floats(min_value=0.0, max_value=0.49), st.integers(min_value=1, max_value=15))
    def test_double_spend_probability_decreases_with_confirmations(self, fraction, z):
        assert double_spend_success_probability(fraction, z + 1) <= (
            double_spend_success_probability(fraction, z) + 1e-12
        )


class TestCensusEntropyProperties:
    @given(
        st.lists(st.floats(min_value=0.01, max_value=100.0), min_size=2, max_size=40),
        st.integers(min_value=2, max_value=10),
    )
    def test_splitting_any_share_never_reduces_entropy(self, weights, parts):
        distribution = ConfigurationDistribution(
            {f"c{i}": w for i, w in enumerate(weights)}
        )
        split = ConfigurationDistribution(
            {
                **{f"c0#{part}": weights[0] / parts for part in range(parts)},
                **{f"c{i}": w for i, w in enumerate(weights) if i > 0},
            }
        )
        assert split.entropy() >= distribution.entropy() - 1e-9


class TestSimulatedConsensusProperties:
    @settings(max_examples=12, deadline=None)
    @given(
        st.integers(min_value=4, max_value=7),
        st.data(),
    )
    def test_safety_holds_whenever_faults_respect_the_bound(self, n, data):
        ids = [f"r{i}" for i in range(n)]
        spec = QuorumSpec(total_replicas=n)
        byzantine = data.draw(
            st.lists(st.sampled_from(ids), max_size=spec.fault_bound, unique=True)
        )
        schedule = FaultSchedule(FaultSpec(replica_id=replica_id) for replica_id in byzantine)
        result = run_consensus(ids, schedule, protocol="pbft")
        assert result.within_fault_bound
        assert result.safety_ok

    @settings(max_examples=8, deadline=None)
    @given(st.integers(min_value=4, max_value=7))
    def test_honest_runs_always_decide(self, n):
        ids = [f"r{i}" for i in range(n)]
        for protocol in ("pbft", "hotstuff"):
            result = run_consensus(ids, protocol=protocol)
            assert result.safety_ok
            assert result.all_honest_decided
