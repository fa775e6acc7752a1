"""Tests for the content-addressed result cache."""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.core.exceptions import OrchestrationError
from repro.experiments.orchestrator import ResultCache, execute_spec
from repro.experiments.orchestrator import registry
from repro.experiments.orchestrator import cache as cache_module
from repro.experiments.orchestrator.cache import (
    code_fingerprint,
    default_cache_dir,
    invalidate_code_fingerprint,
    refresh_code_fingerprint,
)


@pytest.fixture
def cache(tmp_path):
    return ResultCache(str(tmp_path / "cache"))


def figure1_spec():
    return registry.get_spec("figure1")


class TestKeying:
    def test_key_is_stable(self, cache):
        spec = figure1_spec()
        params = spec.params_dict()
        assert cache.key_for(spec, params, None) == cache.key_for(spec, params, None)

    def test_key_changes_with_params(self, cache):
        spec = figure1_spec()
        base = cache.key_for(spec, spec.params_dict(), None)
        tweaked = spec.params_dict(spec.params_type(max_residual_miners=10))
        assert cache.key_for(spec, tweaked, None) != base

    def test_backend_keys_split_only_for_sensitive_specs(self, cache):
        sensitive = registry.get_spec("safety_violation")
        params = sensitive.params_dict()
        assert cache.key_for(sensitive, params, "python") != cache.key_for(
            sensitive, params, "numpy"
        )
        insensitive = figure1_spec()
        params = insensitive.params_dict()
        assert cache.key_for(insensitive, params, "python") == cache.key_for(
            insensitive, params, "numpy"
        )

    def test_keys_differ_across_experiments(self, cache):
        first = figure1_spec()
        second = registry.get_spec("example1")
        assert cache.key_for(first, first.params_dict(), None) != cache.key_for(
            second, second.params_dict(), None
        )


class TestStoreAndLoad:
    def test_round_trip_preserves_canonical_json(self, cache):
        spec = figure1_spec()
        result = execute_spec(spec)
        key = cache.key_for(spec, spec.params_dict(), None)
        cache.store(key, result)
        loaded = cache.load(key)
        assert loaded is not None
        assert loaded.cached is True
        assert loaded.canonical_json() == result.canonical_json()

    def test_missing_key_is_a_miss(self, cache):
        assert cache.load("0" * 64) is None

    def test_corrupt_entry_degrades_to_a_miss(self, cache, tmp_path):
        spec = figure1_spec()
        key = cache.key_for(spec, spec.params_dict(), None)
        cache.store(key, execute_spec(spec))
        path = os.path.join(cache.directory, f"{key}.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("{ not json")
        assert cache.load(key) is None

    def test_non_object_json_entry_is_a_miss(self, cache):
        spec = figure1_spec()
        key = cache.key_for(spec, spec.params_dict(), None)
        cache.store(key, execute_spec(spec))
        path = os.path.join(cache.directory, f"{key}.json")
        for payload in ("null", "[1, 2]", '"text"'):
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(payload)
            assert cache.load(key) is None

    def test_truncated_document_is_a_miss(self, cache):
        spec = figure1_spec()
        key = cache.key_for(spec, spec.params_dict(), None)
        cache.store(key, execute_spec(spec))
        path = os.path.join(cache.directory, f"{key}.json")
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
        del document["experiment_id"]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
        assert cache.load(key) is None

    def test_failed_commit_leaves_no_entry_and_no_temp_file(self, cache, monkeypatch):
        spec = figure1_spec()
        key = cache.key_for(spec, spec.params_dict(), None)
        result = execute_spec(spec)

        def disk_full(source, destination):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cache_module.os, "replace", disk_full)
        with pytest.raises(OrchestrationError, match="cannot write cache entry"):
            cache.store(key, result)
        assert os.listdir(cache.directory) == []
        assert cache.load(key) is None

    def test_directory_that_is_a_file_is_an_orchestration_error(self, tmp_path):
        blocker = tmp_path / "cache"
        blocker.write_text("not a directory", encoding="utf-8")
        spec = figure1_spec()
        cache = ResultCache(str(blocker))
        with pytest.raises(OrchestrationError, match="cannot write cache entry"):
            cache.store(cache.key_for(spec, spec.params_dict(), None), execute_spec(spec))
        assert blocker.read_text(encoding="utf-8") == "not a directory"

    def test_len_counts_committed_entries(self, cache):
        assert len(cache) == 0
        spec = figure1_spec()
        cache.store(cache.key_for(spec, spec.params_dict(), None), execute_spec(spec))
        assert len(cache) == 1


class TestFingerprintHooks:
    def test_fingerprint_is_memoized(self):
        assert code_fingerprint() == code_fingerprint()

    def test_invalidate_forces_a_recompute_to_the_same_value(self):
        before = code_fingerprint()
        invalidate_code_fingerprint()
        assert cache_module._package_fingerprint_cache is None
        assert code_fingerprint() == before

    def test_refresh_reports_false_on_stable_source(self):
        code_fingerprint()
        assert refresh_code_fingerprint() is False

    def test_refresh_reports_true_when_the_memo_went_stale(self, monkeypatch):
        monkeypatch.setattr(cache_module, "_package_fingerprint_cache", "0" * 64)
        assert refresh_code_fingerprint() is True

    def test_refresh_with_cold_memo_reports_false(self, monkeypatch):
        monkeypatch.setattr(cache_module, "_package_fingerprint_cache", None)
        assert refresh_code_fingerprint() is False

    def test_keys_change_with_the_fingerprint(self, cache, monkeypatch):
        spec = figure1_spec()
        params = spec.params_dict()
        before = cache.key_for(spec, params, None)
        monkeypatch.setattr(cache_module, "_package_fingerprint_cache", "0" * 64)
        assert cache.key_for(spec, params, None) != before

    def test_explicit_fingerprint_pins_the_key(self, cache, monkeypatch):
        spec = figure1_spec()
        params = spec.params_dict()
        pinned = cache.key_for(spec, params, None, fingerprint="f" * 64)
        # The pinned key ignores whatever the memo says.
        monkeypatch.setattr(cache_module, "_package_fingerprint_cache", "0" * 64)
        assert cache.key_for(spec, params, None, fingerprint="f" * 64) == pinned
        assert cache.key_for(spec, params, None) != pinned

    def test_store_records_an_explicit_fingerprint(self, cache):
        spec = figure1_spec()
        pinned = "f" * 64
        key = cache.key_for(spec, spec.params_dict(), None, fingerprint=pinned)
        cache.store(key, execute_spec(spec), fingerprint=pinned)
        path = os.path.join(cache.directory, f"{key}.json")
        with open(path, encoding="utf-8") as handle:
            assert json.load(handle)["code_fingerprint"] == pinned
        # Not the current fingerprint, so prune() reclaims it — the entry is
        # consistent: unreachable key, stale recorded fingerprint.
        assert cache.prune().removed_entries == 1


class TestPruneAndStats:
    def _store_one(self, cache):
        spec = figure1_spec()
        key = cache.key_for(spec, spec.params_dict(), None)
        cache.store(key, execute_spec(spec))
        return key

    def test_entries_record_the_current_fingerprint(self, cache):
        key = self._store_one(cache)
        with open(os.path.join(cache.directory, f"{key}.json"), encoding="utf-8") as handle:
            document = json.load(handle)
        assert document["code_fingerprint"] == code_fingerprint()

    def test_stats_counts_live_entries(self, cache):
        self._store_one(cache)
        stats = cache.stats()
        assert stats.entries == 1
        assert stats.stale_entries == 0
        assert stats.temp_files == 0
        assert stats.total_bytes > 0

    def test_stats_on_missing_directory_is_empty(self, tmp_path):
        stats = ResultCache(str(tmp_path / "never-created")).stats()
        assert (stats.entries, stats.stale_entries, stats.temp_files) == (0, 0, 0)

    def test_prune_keeps_live_entries(self, cache):
        key = self._store_one(cache)
        report = cache.prune()
        assert report.removed_entries == 0
        assert report.kept_entries == 1
        assert cache.load(key) is not None

    def test_prune_removes_entries_orphaned_by_a_source_edit(self, cache, monkeypatch):
        key = self._store_one(cache)
        # Simulate a source edit after the entry was written: the current
        # fingerprint no longer matches the one recorded in the entry.
        monkeypatch.setattr(cache_module, "_package_fingerprint_cache", "0" * 64)
        stats = cache.stats()
        assert stats.entries == 0
        assert stats.stale_entries == 1
        report = cache.prune()
        assert report.removed_entries == 1
        assert report.kept_entries == 0
        assert report.freed_bytes > 0
        assert len(cache) == 0
        assert os.path.exists(os.path.join(cache.directory, f"{key}.json")) is False

    def test_prune_removes_leaked_temp_files(self, cache):
        self._store_one(cache)
        leaked = os.path.join(cache.directory, ".tmp-leaked.json")
        with open(leaked, "w", encoding="utf-8") as handle:
            handle.write("{}")
        two_hours_ago = time.time() - 7200
        os.utime(leaked, (two_hours_ago, two_hours_ago))
        report = cache.prune()
        assert report.removed_temp_files == 1
        assert report.kept_entries == 1
        assert not os.path.exists(leaked)

    def test_prune_keeps_fresh_temp_files(self, cache):
        # A fresh temp file is a store() in flight somewhere — deleting it
        # would break that writer's atomic rename.
        self._store_one(cache)
        in_flight = os.path.join(cache.directory, ".tmp-in-flight.json")
        with open(in_flight, "w", encoding="utf-8") as handle:
            handle.write("{}")
        report = cache.prune()
        assert report.removed_temp_files == 0
        assert os.path.exists(in_flight)
        assert cache.stats().temp_files == 0

    def test_prune_removes_pre_fingerprint_entries(self, cache):
        key = self._store_one(cache)
        path = os.path.join(cache.directory, f"{key}.json")
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
        del document["code_fingerprint"]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
        report = cache.prune()
        assert report.removed_entries == 1

    def test_clear_removes_entries_and_leaked_temps(self, cache):
        self._store_one(cache)
        leaked = os.path.join(cache.directory, ".tmp-x.json")
        with open(leaked, "w") as handle:
            handle.write("{}")
        two_hours_ago = time.time() - 7200
        os.utime(leaked, (two_hours_ago, two_hours_ago))
        report = cache.clear()
        assert report.removed_entries == 1
        assert report.removed_temp_files == 1
        assert len(cache) == 0

    def test_clear_keeps_fresh_temp_files(self, cache):
        # Same rule as prune(): a young .tmp-* file is a store() in flight
        # (possibly in another process); clear() unlinking it would make
        # that writer's atomic os.replace blow up.  Regression test for
        # clear() deleting temps regardless of age.
        self._store_one(cache)
        in_flight = os.path.join(cache.directory, ".tmp-in-flight.json")
        with open(in_flight, "w", encoding="utf-8") as handle:
            handle.write("{}")
        report = cache.clear()
        assert report.removed_entries == 1
        assert report.removed_temp_files == 0
        assert os.path.exists(in_flight)

    def test_store_in_flight_survives_a_concurrent_clear(self, cache):
        # Simulate the interleaving directly: a writer has created its temp
        # file but not yet renamed it when clear() runs.  The rename must
        # still succeed and commit the entry.
        import tempfile

        result = execute_spec(figure1_spec())
        key = cache.key_for(figure1_spec(), figure1_spec().params_dict(), "python")
        os.makedirs(cache.directory, exist_ok=True)
        descriptor, temp_path = tempfile.mkstemp(
            prefix=".tmp-", suffix=".json", dir=cache.directory
        )
        with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
            json.dump(result.canonical_dict(), handle)
        cache.clear()
        os.replace(temp_path, os.path.join(cache.directory, f"{key}.json"))

    def test_invalidate_removes_one_entry(self, cache):
        key = self._store_one(cache)
        assert cache.invalidate(key) is True
        assert cache.load(key) is None
        assert cache.invalidate(key) is False

    def test_invalidate_rejects_path_traversal(self, cache, tmp_path):
        outside = tmp_path / "outside.json"
        outside.write_text("{}")
        assert cache.invalidate("../outside") is False
        assert cache.invalidate("") is False
        assert outside.exists()

    def test_prune_on_missing_directory_is_a_no_op(self, tmp_path):
        report = ResultCache(str(tmp_path / "never-created")).prune()
        assert report.removed_entries == 0
        assert report.removed_temp_files == 0


class TestDefaultDirectory:
    def test_env_var_wins(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env-cache"))
        assert default_cache_dir() == str(tmp_path / "env-cache")
        assert ResultCache().directory == str(tmp_path / "env-cache")

    def test_fallback_without_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert default_cache_dir() == ".repro-cache"
