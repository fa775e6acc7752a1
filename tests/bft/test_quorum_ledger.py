"""Unit tests for BFT quorum arithmetic and replicated ledgers."""

from __future__ import annotations

import pytest

from repro.bft.ledger import ReplicatedLedger, check_agreement
from repro.bft.quorum import QuorumModel, QuorumSpec
from repro.core.exceptions import ProtocolError


class TestQuorumSpec:
    def test_classic_bounds(self):
        spec = QuorumSpec(total_replicas=4)
        assert spec.fault_bound == 1
        assert spec.quorum_size == 3

    def test_classic_larger_deployment(self):
        spec = QuorumSpec(total_replicas=10)
        assert spec.fault_bound == 3
        assert spec.quorum_size == 7

    def test_hybrid_bounds(self):
        spec = QuorumSpec(total_replicas=3, model=QuorumModel.HYBRID)
        assert spec.fault_bound == 1
        assert spec.quorum_size == 2

    def test_tolerates(self):
        spec = QuorumSpec(total_replicas=7)
        assert spec.tolerates(2)
        assert not spec.tolerates(3)

    def test_minimum_sizes_enforced(self):
        with pytest.raises(ProtocolError):
            QuorumSpec(total_replicas=3)  # classic needs >= 4
        with pytest.raises(ProtocolError):
            QuorumSpec(total_replicas=2, model=QuorumModel.HYBRID)

    def test_negative_byzantine_count_rejected(self):
        with pytest.raises(ProtocolError):
            QuorumSpec(total_replicas=4).tolerates(-1)


class TestReplicatedLedger:
    def test_commit_and_query(self):
        ledger = ReplicatedLedger("r0")
        ledger.commit(0, "tx-a")
        assert ledger.entries() == {0: "tx-a"}
        assert 0 in ledger

    def test_idempotent_recommit(self):
        ledger = ReplicatedLedger("r0")
        ledger.commit(0, "tx-a")
        ledger.commit(0, "tx-a")
        assert ledger.entries() == {0: "tx-a"}

    def test_conflicting_local_commit_raises(self):
        ledger = ReplicatedLedger("r0")
        ledger.commit(0, "tx-a")
        with pytest.raises(ProtocolError):
            ledger.commit(0, "tx-b")

    def test_rejects_invalid_inputs(self):
        ledger = ReplicatedLedger("r0")
        with pytest.raises(ProtocolError):
            ledger.commit(-1, "tx")
        with pytest.raises(ProtocolError):
            ledger.commit(0, "")


class TestAgreement:
    def _ledgers(self, assignments):
        ledgers = {}
        for replica_id, entries in assignments.items():
            ledger = ReplicatedLedger(replica_id)
            for sequence, value in entries.items():
                ledger.commit(sequence, value)
            ledgers[replica_id] = ledger
        return ledgers

    def test_agreement_when_all_match(self):
        ledgers = self._ledgers({"a": {0: "x"}, "b": {0: "x"}, "c": {0: "x"}})
        report = check_agreement(ledgers)
        assert report.safe
        assert report.fully_replicated_sequences == (0,)

    def test_conflict_detected(self):
        ledgers = self._ledgers({"a": {0: "x"}, "b": {0: "y"}})
        report = check_agreement(ledgers)
        assert not report.safe
        assert report.conflicts == ((0, ("x", "y")),)

    def test_byzantine_ledgers_are_excluded(self):
        ledgers = self._ledgers({"honest1": {0: "x"}, "honest2": {0: "x"}, "byz": {0: "y"}})
        report = check_agreement(ledgers, honest_ids=["honest1", "honest2"])
        assert report.safe

    def test_partial_replication_is_safe_but_not_fully_replicated(self):
        ledgers = self._ledgers({"a": {0: "x"}, "b": {}})
        report = check_agreement(ledgers)
        assert report.safe
        assert report.decided_sequences == (0,)
        assert report.fully_replicated_sequences == ()

    def test_unknown_honest_id_rejected(self):
        ledgers = self._ledgers({"a": {0: "x"}})
        with pytest.raises(ProtocolError):
            check_agreement(ledgers, honest_ids=["ghost"])

    def test_empty_input_rejected(self):
        with pytest.raises(ProtocolError):
            check_agreement({})
