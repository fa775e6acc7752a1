"""Determinism guarantees: serial == process-parallel == sharded == cached.

The orchestrator's contract is that execution mode is unobservable in the
results: for a fixed seed the canonical ``ExperimentResult`` JSON is
byte-identical no matter how the run was scheduled or whether it was served
from the on-disk cache.
"""

from __future__ import annotations

import pytest

from repro.backend import use_backend
from repro.experiments.orchestrator import (
    ResultCache,
    json_body,
    results_document,
    run_experiments,
    select_shard,
)
from repro.experiments.orchestrator import registry

#: A fast cross-section: deterministic analytics, a Monte-Carlo experiment
#: and a multi-table protocol experiment.
FAST_IDS = ("figure1", "example1", "proposition1", "safety_violation", "protocol_safety")


def fast_specs():
    return [registry.get_spec(experiment_id) for experiment_id in FAST_IDS]


def canonical(results):
    return [json_body(result.canonical_dict()) for result in results]


class TestSerialVsParallel:
    def test_process_parallel_is_byte_identical_to_serial(self):
        specs = fast_specs()
        serial = run_experiments(specs)
        parallel = run_experiments(specs, parallel=True, max_workers=3)
        assert canonical(serial) == canonical(parallel)

    def test_execution_order_does_not_matter(self):
        specs = fast_specs()
        forward = run_experiments(specs)
        reversed_results = run_experiments(list(reversed(specs)))
        by_id_forward = {r.experiment_id: json_body(r.canonical_dict()) for r in forward}
        by_id_reversed = {
            r.experiment_id: json_body(r.canonical_dict()) for r in reversed_results
        }
        assert by_id_forward == by_id_reversed


class TestSharding:
    def test_shards_union_to_the_unsharded_run(self):
        specs = fast_specs()
        unsharded = {
            r.experiment_id: json_body(r.canonical_dict()) for r in run_experiments(specs)
        }
        sharded = {}
        for index in (1, 2):
            shard = select_shard(specs, index, 2)
            for result in run_experiments(shard):
                assert result.experiment_id not in sharded  # shards are disjoint
                sharded[result.experiment_id] = json_body(result.canonical_dict())
        assert sharded == unsharded

    def test_shards_partition_the_selection(self):
        specs = list(registry.all_specs())
        seen = []
        for index in (1, 2, 3):
            seen.extend(spec.experiment_id for spec in select_shard(specs, index, 3))
        assert sorted(seen) == sorted(spec.experiment_id for spec in specs)


class TestCachePaths:
    def test_cache_hit_is_byte_identical_to_miss(self, tmp_path):
        specs = fast_specs()
        cache = ResultCache(str(tmp_path / "cache"))
        fresh = run_experiments(specs, cache=cache)
        assert all(not result.cached for result in fresh)
        assert len(cache) == len(specs)
        hits = run_experiments(specs, cache=cache)
        assert all(result.cached for result in hits)
        assert canonical(fresh) == canonical(hits)

    def test_force_recomputes_but_matches(self, tmp_path):
        specs = fast_specs()[:2]
        cache = ResultCache(str(tmp_path / "cache"))
        first = run_experiments(specs, cache=cache)
        forced = run_experiments(specs, cache=cache, force=True)
        assert all(not result.cached for result in forced)
        assert canonical(first) == canonical(forced)

    def test_parallel_run_populates_the_cache(self, tmp_path):
        specs = fast_specs()[:3]
        cache = ResultCache(str(tmp_path / "cache"))
        run_experiments(specs, parallel=True, cache=cache)
        assert len(cache) == len(specs)
        hits = run_experiments(specs, cache=cache)
        assert all(result.cached for result in hits)


class TestBackendPinning:
    def test_explicit_backend_matches_across_modes(self):
        specs = [registry.get_spec("safety_violation"), registry.get_spec("diversity_ablation")]
        with use_backend("python"):
            serial = run_experiments(specs)
            parallel = run_experiments(specs, parallel=True)
        assert canonical(serial) == canonical(parallel)
        assert canonical(serial) == canonical(run_experiments(specs))

    def test_results_record_no_backend(self):
        spec = registry.get_spec("safety_violation")
        with use_backend("python"):
            (result,) = run_experiments([spec])
        assert "backend" not in result.canonical_dict()


class TestResultsDocumentDeterminism:
    def test_sharded_documents_merge_to_the_unsharded_document(self):
        from repro.experiments.orchestrator import merge_results_documents

        specs = fast_specs()
        unsharded = results_document(run_experiments(specs))
        shard_docs = [
            results_document(
                run_experiments(select_shard(specs, index, 2)), shard=f"{index}/2"
            )
            for index in (1, 2)
        ]
        merged = merge_results_documents(shard_docs)
        assert merged["results"] == unsharded["results"]
