"""Tests for the backend comparison harness (``bench-backends``)."""

from __future__ import annotations

import json

import pytest

pytest.importorskip("numpy")

from repro.analysis.backends_benchmark import (
    benchmark_backend_suite,
    write_backends_snapshot,
)
from repro.backend.shm_backend import ShmBackend
from repro.core.exceptions import AnalysisError

needs_shm = pytest.mark.skipif(
    not ShmBackend.is_available(), reason="shm backend unavailable here"
)

SMALL = dict(
    trials=200,
    python_trials=60,
    replicas=24,
    seed=5,
    repeats=1,
    worker_counts=(1, 2),
    sparse_size=4_000,
    sparse_trials=6,
    sparse_workers=2,
)


@pytest.fixture(scope="module")
def report():
    return benchmark_backend_suite(**SMALL)


@needs_shm
class TestBenchmarkBackendSuite:
    def test_every_configuration_is_timed_and_identical(self, report):
        labels = [timing.label for timing in report.timings]
        assert labels == ["numpy", "python", "shm[w=1]", "shm[w=2]"]
        for timing in report.timings:
            assert timing.seconds > 0
            assert timing.trials_per_second > 0
            assert timing.identical is True
        assert report.timing("python").trials == SMALL["python_trials"]
        assert report.timing("numpy").trials == SMALL["trials"]
        with pytest.raises(AnalysisError, match="not benchmarked"):
            report.timing("shm[w=64]")

    def test_speedups_are_reported_per_worker_count(self, report):
        for workers in SMALL["worker_counts"]:
            assert report.shm_speedup_over_numpy(workers) > 0
        assert report.shm_speedup_over_numpy(64) is None
        assert report.cpu_count >= 1

    def test_sparse_sweep_runs_the_budgeted_campaign(self, report):
        sparse = report.sparse
        assert sparse is not None
        assert sparse.population_size == SMALL["sparse_size"]
        assert sparse.nnz > 0
        assert sparse.workers == SMALL["sparse_workers"]
        assert sparse.build_seconds > 0
        assert sparse.campaign_seconds > 0
        assert sparse.peak_rss_kb > 0

    def test_memory_ceiling_gate(self):
        report = benchmark_backend_suite(**SMALL, memory_ceiling_mb=1)
        assert report.within_memory_ceiling() is False
        generous = benchmark_backend_suite(**SMALL, memory_ceiling_mb=1 << 20)
        assert generous.within_memory_ceiling() is True

    def test_no_ceiling_or_no_sparse_phase_gates_nothing(self, report):
        assert report.within_memory_ceiling() is None
        skipped = benchmark_backend_suite(**{**SMALL, "sparse_size": 0})
        assert skipped.sparse is None
        assert skipped.within_memory_ceiling() is None

    def test_snapshot_round_trip(self, report, tmp_path):
        path = tmp_path / "BENCH_10.json"
        write_backends_snapshot(report, str(path))
        document = json.loads(path.read_text())
        assert document["benchmark"] == "backend_comparison"
        assert document["workload"]["cpu_count"] == report.cpu_count
        assert set(document["results"]) == {
            "numpy",
            "python",
            "shm[w=1]",
            "shm[w=2]",
        }
        assert document["results"]["shm[w=2]"]["workers"] == 2
        assert document["version"] == 2
        assert set(document["sparse_sweep"]) == {
            "population_size",
            "trials",
            "nnz",
            "workers",
            "budget",
            "build_seconds",
            "campaign_seconds",
            "peak_rss_kb",
        }
        assert "1" in document["speedups_shm_over_numpy"]
        assert document["within_memory_ceiling"] is None

    def test_snapshot_write_failure_raises(self, report, tmp_path):
        with pytest.raises(AnalysisError, match="cannot write"):
            write_backends_snapshot(report, str(tmp_path / "no" / "dir.json"))

    def test_invalid_arguments_rejected(self):
        with pytest.raises(AnalysisError):
            benchmark_backend_suite(**{**SMALL, "trials": 0})
        with pytest.raises(AnalysisError):
            benchmark_backend_suite(**{**SMALL, "repeats": 0})
        with pytest.raises(AnalysisError):
            benchmark_backend_suite(**{**SMALL, "worker_counts": (0,)})
