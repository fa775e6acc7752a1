"""Integration tests for the PBFT, HotStuff-style and hybrid protocol simulations.

These tests check the safety cliff the paper's Section II-C condition
describes: runs stay safe while the Byzantine voting power respects the
protocol's bound and demonstrably lose safety once a (shared) fault pushes it
past the bound.
"""

from __future__ import annotations

import pytest

from repro.bft.hotstuff import HotStuffRun
from repro.bft.hybrid import HybridRun
from repro.bft.pbft import PbftRun
from repro.bft.runner import fault_bound_for, run_consensus
from repro.core.exceptions import ProtocolError
from repro.faults.injection import FaultKind, FaultSchedule, FaultSpec


def _ids(count: int):
    return [f"r{i}" for i in range(count)]


def _byzantine(replica_ids):
    return FaultSchedule(FaultSpec(replica_id=replica_id) for replica_id in replica_ids)


class TestPbft:
    def test_honest_run_commits_everywhere(self):
        result = run_consensus(_ids(4), protocol="pbft")
        assert result.safety_ok
        assert result.all_honest_decided
        assert result.messages_sent > 0

    def test_multiple_sequences(self):
        result = run_consensus(_ids(4), protocol="pbft", values=("a", "b", "c"))
        assert result.safety_ok
        assert result.all_honest_decided

    def test_crashed_backup_within_bound_keeps_liveness(self):
        crashed = FaultSchedule([FaultSpec(replica_id="r3", kind=FaultKind.CRASH)])
        result = run_consensus(_ids(4), crashed, protocol="pbft")
        assert result.safety_ok
        assert result.all_honest_decided

    def test_byzantine_backup_within_bound_is_safe(self):
        result = run_consensus(_ids(4), _byzantine(["r3"]), protocol="pbft")
        assert result.safety_ok
        assert result.within_fault_bound

    def test_byzantine_primary_alone_cannot_break_safety(self):
        result = run_consensus(_ids(7), _byzantine(["r0"]), protocol="pbft")
        assert result.safety_ok

    def test_safety_violation_beyond_fault_bound(self):
        # n=4, f=1: a Byzantine primary plus one Byzantine backup exceed f and
        # produce conflicting commits on the two honest replicas.
        result = run_consensus(_ids(4), _byzantine(["r0", "r3"]), protocol="pbft")
        assert not result.within_fault_bound
        assert not result.safety_ok

    def test_safety_violation_in_larger_deployment(self):
        # n=7, f=2: three Byzantine replicas spanning both halves break safety.
        result = run_consensus(
            _ids(7), _byzantine(["r0", "r3", "r5"]), protocol="pbft"
        )
        assert not result.safety_ok

    def test_minimum_replica_count_enforced(self):
        with pytest.raises(ProtocolError):
            PbftRun(replica_ids=_ids(3), fault_schedule=FaultSchedule())

    def test_unknown_primary_rejected(self):
        with pytest.raises(ProtocolError):
            PbftRun(
                replica_ids=_ids(4),
                fault_schedule=FaultSchedule(),
                primary_id="ghost",
            )

    def test_empty_values_rejected(self):
        run = PbftRun(replica_ids=_ids(4), fault_schedule=FaultSchedule())
        with pytest.raises(ProtocolError):
            run.execute(())


class TestHotStuff:
    def test_honest_run_commits_everywhere(self):
        result = run_consensus(_ids(4), protocol="hotstuff")
        assert result.safety_ok
        assert result.all_honest_decided

    def test_linear_message_complexity_is_lower_than_pbft(self):
        pbft = run_consensus(_ids(10), protocol="pbft")
        hotstuff = run_consensus(_ids(10), protocol="hotstuff")
        assert hotstuff.messages_sent < pbft.messages_sent

    def test_byzantine_followers_within_bound_are_safe(self):
        result = run_consensus(
            _ids(7), _byzantine(["r5", "r6"]), protocol="hotstuff"
        )
        assert result.safety_ok

    def test_equivocating_leader_with_collusion_breaks_safety(self):
        result = run_consensus(
            _ids(4), _byzantine(["r0", "r3"]), protocol="hotstuff"
        )
        assert not result.safety_ok

    def test_equivocating_leader_alone_cannot_break_safety(self):
        result = run_consensus(_ids(7), _byzantine(["r0"]), protocol="hotstuff")
        assert result.safety_ok


class TestHybrid:
    def test_honest_run_commits_everywhere(self):
        result = run_consensus(_ids(3), protocol="hybrid")
        assert result.safety_ok
        assert result.all_honest_decided

    def test_needs_only_2f_plus_1_replicas(self):
        assert fault_bound_for("hybrid", 3) == 1
        assert fault_bound_for("pbft", 4) == 1

    def test_byzantine_primary_with_intact_tee_cannot_equivocate(self):
        result = run_consensus(_ids(5), _byzantine(["r0", "r4"]), protocol="hybrid")
        assert result.safety_ok

    def test_compromised_trusted_components_break_safety(self):
        # The same fault pattern becomes fatal once the trusted hardware falls
        # (the paper's trusted-hardware diversity concern).
        result = run_consensus(
            _ids(5),
            _byzantine(["r0", "r4"]),
            protocol="hybrid",
            tee_compromised_ids=["r0", "r4"],
        )
        assert not result.safety_ok

    def test_unknown_tee_id_rejected(self):
        with pytest.raises(ProtocolError):
            HybridRun(
                replica_ids=_ids(3),
                fault_schedule=FaultSchedule(),
                tee_compromised_ids=frozenset({"ghost"}),
            ).execute()

    def test_minimum_replica_count(self):
        with pytest.raises(ProtocolError):
            HybridRun(replica_ids=_ids(2), fault_schedule=FaultSchedule())


class TestRunConstruction:
    """Every protocol's run rejects a malformed deployment the same way."""

    @pytest.mark.parametrize("run_type", [PbftRun, HotStuffRun, HybridRun])
    def test_duplicate_replica_ids_rejected(self, run_type):
        with pytest.raises(ProtocolError, match="replica ids must be unique"):
            run_type(replica_ids=["r0", "r1", "r2", "r0"], fault_schedule=FaultSchedule())

    @pytest.mark.parametrize(
        "run_type, field, role",
        [(HotStuffRun, "leader_id", "leader"), (HybridRun, "primary_id", "primary")],
    )
    def test_leader_must_be_a_replica(self, run_type, field, role):
        with pytest.raises(ProtocolError, match=f"{role} 'ghost' is not a replica"):
            run_type(
                replica_ids=_ids(4), fault_schedule=FaultSchedule(), **{field: "ghost"}
            )

    @pytest.mark.parametrize("run_type", [HotStuffRun, HybridRun])
    def test_empty_values_rejected(self, run_type):
        run = run_type(replica_ids=_ids(4), fault_schedule=FaultSchedule())
        with pytest.raises(ProtocolError, match="at least one value"):
            run.execute(())

    def test_hotstuff_needs_four_replicas(self):
        with pytest.raises(ProtocolError, match="at least 4 replicas"):
            HotStuffRun(replica_ids=_ids(3), fault_schedule=FaultSchedule())


class TestRunner:
    def test_unknown_protocol_rejected(self):
        with pytest.raises(ProtocolError):
            run_consensus(_ids(4), protocol="raft")

    def test_population_input(self, unique_population):
        result = run_consensus(unique_population, protocol="pbft")
        assert result.safety_ok
        assert result.quorum.total_replicas == 8

    def test_empty_replica_list_rejected(self):
        with pytest.raises(ProtocolError):
            run_consensus([], protocol="pbft")

    def test_byzantine_count_reported(self):
        result = run_consensus(_ids(4), _byzantine(["r1"]), protocol="pbft")
        assert result.byzantine_count == 1
        assert result.within_fault_bound

    def test_fault_bound_for_unknown_protocol(self):
        with pytest.raises(ProtocolError):
            fault_bound_for("tendermint", 4)
