"""Crash-safety tests for the result cache's atomic write protocol.

Chaos pins the worst instants: a hard kill between the temp write and the
rename must leave no committed entry (only a reclaimable ``.tmp-*`` file),
and a corrupted commit must degrade to a cache miss — never to a torn
result being served.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

import pytest

from repro.experiments.orchestrator import registry
from repro.experiments.orchestrator.cache import (
    CACHE_DIR_ENV_VAR,
    TEMP_FILE_MAX_AGE_SECONDS,
    ResultCache,
)
from repro.experiments.orchestrator.engine import execute_spec
from repro.testing.chaos import (
    CHAOS_CRASH_EXIT_CODE,
    CHAOS_ENV_VAR,
    reset_chaos,
)

REPO_SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")

STORE_SCRIPT = """
import sys
from repro.experiments.orchestrator import registry
from repro.experiments.orchestrator.cache import ResultCache
from repro.experiments.orchestrator.engine import execute_spec

spec = registry.get_spec("example1")
result = execute_spec(spec)
cache = ResultCache(sys.argv[1])
key = cache.key_for(spec, spec.params_dict())
cache.store(key, result.to_dict())
print("stored", key)
"""


@pytest.fixture(autouse=True)
def _fresh_chaos(monkeypatch):
    monkeypatch.delenv(CHAOS_ENV_VAR, raising=False)
    reset_chaos()
    yield
    reset_chaos()


def _entries(directory):
    try:
        names = os.listdir(directory)
    except OSError:
        return [], []
    committed = [n for n in names if n.endswith(".json") and not n.startswith(".tmp-")]
    temps = [n for n in names if n.startswith(".tmp-")]
    return committed, temps


class TestCrashDuringStore:
    def test_kill_between_temp_write_and_rename_commits_nothing(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        env = dict(os.environ)
        env[CHAOS_ENV_VAR] = "crash:1@cache-write"
        env.pop(CACHE_DIR_ENV_VAR, None)
        env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
        completed = subprocess.run(
            [sys.executable, "-c", STORE_SCRIPT, cache_dir],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode == CHAOS_CRASH_EXIT_CODE, completed.stderr
        committed, temps = _entries(cache_dir)
        assert committed == []  # the rename never happened
        assert len(temps) == 1  # the torn write is visible only as a temp file

        # Readers see a plain miss.
        cache = ResultCache(cache_dir)
        spec = registry.get_spec("example1")
        key = cache.key_for(spec, spec.params_dict())
        assert cache.load(key) is None
        assert len(cache) == 0

        # A fresh temp file may belong to a live writer: prune keeps it.
        assert cache.prune().removed_temp_files == 0
        # Once it is older than any plausible writer, prune reclaims it.
        stale = time.time() - TEMP_FILE_MAX_AGE_SECONDS - 60
        temp_path = os.path.join(cache_dir, temps[0])
        os.utime(temp_path, (stale, stale))
        report = cache.prune()
        assert report.removed_temp_files == 1
        assert _entries(cache_dir) == ([], [])

    def test_store_retry_after_crash_round_trips(self, tmp_path):
        """The writer that dies is simply retried; the retry commits."""
        cache_dir = str(tmp_path / "cache")
        cache = ResultCache(cache_dir)
        spec = registry.get_spec("example1")
        result = execute_spec(spec)
        key = cache.key_for(spec, spec.params_dict())
        cache.store(key, result.to_dict())
        loaded = cache.load(key)
        assert loaded is not None
        assert loaded.cached is True
        assert loaded.canonical_dict() == result.canonical_dict()


class TestCorruptCommit:
    def test_corrupted_entry_degrades_to_a_miss_and_is_prunable(
        self, tmp_path, monkeypatch
    ):
        cache_dir = str(tmp_path / "cache")
        cache = ResultCache(cache_dir)
        spec = registry.get_spec("example1")
        result = execute_spec(spec)
        key = cache.key_for(spec, spec.params_dict())

        monkeypatch.setenv(CHAOS_ENV_VAR, "corrupt:1@cache-write")
        reset_chaos()
        cache.store(key, result.to_dict())
        monkeypatch.delenv(CHAOS_ENV_VAR)
        reset_chaos()

        committed, _ = _entries(cache_dir)
        assert len(committed) == 1  # the garbage *was* committed...
        assert cache.load(key) is None  # ...but loads degrade to a miss
        stats = cache.stats()
        assert stats.entries == 0
        assert stats.stale_entries == 1  # unreadable provenance counts stale
        report = cache.prune()
        assert report.removed_entries == 1

        # After pruning, a clean store repairs the entry.
        cache.store(key, result.to_dict())
        assert cache.load(key) is not None
