"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.experiments.orchestrator import load_results_document


class TestListAndRun:
    def test_list_prints_every_experiment(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "figure1" in output
        assert "decentralized_pools" in output

    def test_run_single_experiment(self, capsys):
        assert main(["run", "example1"]) == 0
        output = capsys.readouterr().out
        assert "Example 1" in output
        assert "8-replica" in output

    def test_run_unknown_experiment_fails(self, capsys):
        assert main(["run", "does-not-exist"]) == 2
        assert "unknown experiments" in capsys.readouterr().err

    def test_run_multiple_experiments(self, capsys):
        assert main(["run", "proposition1", "proposition3"]) == 0
        output = capsys.readouterr().out
        assert "Proposition 1" in output
        assert "Proposition 3" in output


class TestRunOrchestration:
    def test_tag_filter_selects_the_propositions(self, capsys):
        assert main(["run", "--tag", "proposition", "--no-cache"]) == 0
        output = capsys.readouterr().out
        assert "Proposition 1" in output
        assert "Proposition 2" in output
        assert "Proposition 3" in output
        assert "Figure 1" not in output

    def test_unknown_tag_is_a_usage_error(self, capsys):
        assert main(["run", "--tag", "no-such-tag"]) == 2
        assert "unknown tags" in capsys.readouterr().err

    def test_bad_shard_is_a_usage_error(self, capsys):
        assert main(["run", "--shard", "3/2", "figure1"]) == 2
        assert "shard" in capsys.readouterr().err

    def test_quiet_suppresses_reports(self, capsys):
        assert main(["run", "--quiet", "--no-cache", "figure1"]) == 0
        assert capsys.readouterr().out == ""

    def test_results_artifact_is_written(self, tmp_path, capsys):
        path = tmp_path / "RESULTS.json"
        assert main(["run", "--quiet", "--no-cache", "--results", str(path), "figure1"]) == 0
        document = load_results_document(str(path))
        assert list(document["results"]) == ["figure1"]
        assert document["results"]["figure1"]["metrics"]["always_below_bft8"] is True
        assert "results written to" in capsys.readouterr().out

    def test_second_invocation_is_served_from_cache(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        argv = ["run", "--quiet", "--cache-dir", cache_dir, "figure1", "example1"]
        assert main(argv + ["--results", str(first)]) == 0
        assert main(argv + ["--results", str(second)]) == 0
        capsys.readouterr()
        first_doc = load_results_document(str(first))
        second_doc = load_results_document(str(second))
        assert first_doc["run"]["cached"] == {"figure1": False, "example1": False}
        assert second_doc["run"]["cached"] == {"figure1": True, "example1": True}
        assert first_doc["results"] == second_doc["results"]

    def test_shards_merge_to_the_unsharded_artifact(self, tmp_path, capsys):
        unsharded = tmp_path / "full.json"
        merged = tmp_path / "merged.json"
        base = ["run", "--quiet", "--no-cache", "--tag", "paper"]
        assert main(base + ["--results", str(unsharded)]) == 0
        assert main(base + ["--shard", "1/2", "--results", str(merged)]) == 0
        assert main(base + ["--shard", "2/2", "--results", str(merged), "--merge"]) == 0
        capsys.readouterr()
        full_doc = load_results_document(str(unsharded))
        merged_doc = load_results_document(str(merged))
        assert merged_doc["results"] == full_doc["results"]
        assert merged_doc["run"]["shards"] == ["1/2", "2/2"]

    def test_update_golden_writes_snapshots(self, tmp_path, capsys):
        golden_dir = tmp_path / "golden"
        assert (
            main(
                [
                    "run",
                    "--quiet",
                    "--no-cache",
                    "--update-golden",
                    "--golden-dir",
                    str(golden_dir),
                    "figure1",
                ]
            )
            == 0
        )
        capsys.readouterr()
        document = json.loads((golden_dir / "figure1.json").read_text(encoding="utf-8"))
        assert document["experiment_id"] == "figure1"
        assert "wall_time_seconds" not in document

    def test_non_positive_jobs_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            main(["run", "--jobs", "0", "figure1"])
        with pytest.raises(SystemExit):
            main(["run", "--jobs", "-2", "figure1"])

    def test_parallel_flag_matches_serial_results(self, tmp_path, capsys):
        serial = tmp_path / "serial.json"
        parallel = tmp_path / "parallel.json"
        base = ["run", "--quiet", "--no-cache", "--tag", "proposition"]
        assert main(base + ["--results", str(serial)]) == 0
        assert main(base + ["--parallel", "--jobs", "2", "--results", str(parallel)]) == 0
        capsys.readouterr()
        assert (
            load_results_document(str(serial))["results"]
            == load_results_document(str(parallel))["results"]
        )


class TestEntropyCommand:
    def test_entropy_of_uniform_distribution(self, capsys):
        assert main(["entropy", "a=1", "b=1", "c=1", "d=1"]) == 0
        output = capsys.readouterr().out
        assert "2.0000" in output  # 2 bits
        assert "respects" in output

    def test_entropy_flags_dangerous_concentration(self, capsys):
        assert main(["entropy", "foundry=60", "rest=40"]) == 0
        output = capsys.readouterr().out
        assert "VIOLATES" in output

    def test_malformed_share_is_an_error(self, capsys):
        assert main(["entropy", "justaname"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_non_numeric_power_is_an_error(self, capsys):
        assert main(["entropy", "a=notanumber"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_duplicate_name_is_an_error(self, capsys):
        assert main(["entropy", "a=1", "a=2"]) == 1
        error = capsys.readouterr().err
        assert "duplicate name" in error
        assert "'a'" in error

    def test_duplicate_name_among_many_is_an_error(self, capsys):
        assert main(["entropy", "a=1", "b=2", "a=3"]) == 1
        assert "duplicate name" in capsys.readouterr().err

    def test_missing_command_exits_with_usage_error(self):
        with pytest.raises(SystemExit):
            main([])


class TestMergeRequiresResults:
    def test_merge_without_results_is_a_usage_error(self, capsys):
        assert main(["run", "example1", "--merge"]) == 2
        assert "--merge requires --results" in capsys.readouterr().err

    def test_merge_with_results_still_works(self, tmp_path, capsys):
        path = tmp_path / "RESULTS.json"
        assert main(["run", "example1", "--quiet", "--results", str(path)]) == 0
        assert (
            main(["run", "figure1", "--quiet", "--results", str(path), "--merge"]) == 0
        )
        document = json.loads(path.read_text())
        assert set(document["results"]) == {"example1", "figure1"}


class TestCacheCommand:
    def test_stats_is_the_default_action(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        assert main(["run", "example1", "--quiet", "--cache-dir", str(cache_dir)]) == 0
        capsys.readouterr()
        assert main(["cache", "--cache-dir", str(cache_dir)]) == 0
        output = capsys.readouterr().out
        assert "live entries" in output

    def test_prune_removes_stale_entries(self, tmp_path, capsys, monkeypatch):
        from repro.experiments.orchestrator import cache as cache_module

        cache_dir = tmp_path / "cache"
        assert main(["run", "example1", "--quiet", "--cache-dir", str(cache_dir)]) == 0
        monkeypatch.setattr(cache_module, "_package_fingerprint_cache", "0" * 64)
        capsys.readouterr()
        assert main(["cache", "--prune", "--cache-dir", str(cache_dir)]) == 0
        output = capsys.readouterr().out
        assert "removed 1 stale entries" in output
        assert not list(cache_dir.glob("*.json"))

    def test_clear_removes_live_entries(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        assert main(["run", "example1", "--quiet", "--cache-dir", str(cache_dir)]) == 0
        capsys.readouterr()
        assert main(["cache", "--clear", "--cache-dir", str(cache_dir)]) == 0
        assert "removed 1" in capsys.readouterr().out
        assert not list(cache_dir.glob("*.json"))

    def test_prune_and_clear_are_mutually_exclusive(self):
        with pytest.raises(SystemExit):
            main(["cache", "--prune", "--clear"])

    def test_warm_primes_misses_then_reports_hits(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        assert main(["cache", "--warm", "example1", "--cache-dir", str(cache_dir)]) == 0
        first = capsys.readouterr().out
        assert "1 result(s) computed, 0 already cached" in first
        assert len(list(cache_dir.glob("*.json"))) == 1
        assert main(["cache", "--warm", "example1", "--cache-dir", str(cache_dir)]) == 0
        second = capsys.readouterr().out
        assert "0 result(s) computed, 1 already cached" in second

    def test_warm_with_tag_selects_by_tag(self, tmp_path, capsys):
        from repro.experiments.orchestrator import registry

        tag = registry.known_tags()[0]
        expected = sum(1 for spec in registry.all_specs() if tag in spec.tags)
        cache_dir = tmp_path / "cache"
        assert main(
            ["cache", "--warm", "--tag", tag, "--cache-dir", str(cache_dir)]
        ) == 0
        assert f"({expected} selected" in capsys.readouterr().out
        assert len(list(cache_dir.glob("*.json"))) == expected

    def test_warm_unknown_experiment_is_a_usage_error(self, tmp_path, capsys):
        assert main(["cache", "--warm", "nope", "--cache-dir", str(tmp_path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_warm_only_flags_require_warm(self, tmp_path, capsys):
        assert main(["cache", "--stats", "--tag", "x", "--cache-dir", str(tmp_path)]) == 2
        assert "--warm" in capsys.readouterr().err


class TestBenchServeCommand:
    def test_bench_serve_writes_snapshot(self, tmp_path, capsys):
        output = tmp_path / "BENCH_4.json"
        assert (
            main(
                [
                    "bench-serve",
                    "example1",
                    "--requests",
                    "8",
                    "--concurrency",
                    "2",
                    "--output",
                    str(output),
                ]
            )
            == 0
        )
        printed = capsys.readouterr().out
        assert "warm (cache hits)" in printed
        document = json.loads(output.read_text())
        assert document["benchmark"] == "result_service"
        assert document["phases"]["cold_misses"]["statuses"] == {"200": 1}
        assert document["phases"]["warm_hits"]["statuses"] == {"200": 8}
        assert document["phases"]["warm_hits"]["x_cache"] == {"hit": 8}
        assert document["phases"]["conditional_304"]["statuses"] == {"304": 8}

    def test_bench_serve_unknown_experiment_is_a_usage_error(self, capsys):
        assert main(["bench-serve", "nope"]) == 2
        assert "unknown experiments" in capsys.readouterr().err

    def test_bench_serve_write_ratio_adds_the_mixed_phase(self, tmp_path, capsys):
        output = tmp_path / "BENCH_7.json"
        assert (
            main(
                [
                    "bench-serve",
                    "example1",
                    "--requests",
                    "8",
                    "--concurrency",
                    "2",
                    "--write-ratio",
                    "0.25",
                    "--output",
                    str(output),
                ]
            )
            == 0
        )
        printed = capsys.readouterr().out
        assert "mixed (25% writes)" in printed
        document = json.loads(output.read_text())
        assert document["workload"]["write_ratio"] == 0.25
        mixed = document["phases"]["mixed_read_write"]
        assert mixed["requests"] == 8
        # Every fourth request is a POST /jobs (wait=true → 200); the rest
        # are warm GETs — all against the already-primed cache.
        assert mixed["statuses"] == {"200": 8}
        assert mixed["x_cache"].get("hit", 0) >= 6

    def test_bench_serve_bad_write_ratio_is_an_error(self, capsys):
        assert main(["bench-serve", "example1", "--write-ratio", "1.5"]) == 1
        assert "write ratio" in capsys.readouterr().err


class TestServeCommand:
    def test_busy_port_is_a_clean_error(self, capsys):
        import socket

        with socket.socket() as blocker:
            blocker.bind(("127.0.0.1", 0))
            blocker.listen(1)
            port = blocker.getsockname()[1]
            assert main(["serve", "--port", str(port)]) == 1
        error = capsys.readouterr().err
        assert "cannot serve on" in error
        assert str(port) in error


class TestBackendsCommand:
    def test_backends_lists_registered_backends(self, capsys):
        assert main(["backends"]) == 0
        output = capsys.readouterr().out
        assert "python" in output
        assert "numpy" in output
        assert "yes" in output

    def test_global_backend_flag_changes_active_backend(self, capsys):
        assert main(["--backend", "python", "backends"]) == 0
        output = capsys.readouterr().out
        python_row = next(line for line in output.splitlines() if line.startswith("python"))
        assert "yes" in python_row  # available AND active

    def test_backend_flag_is_restored_after_the_command(self, capsys, monkeypatch):
        from repro.backend import BACKEND_ENV_VAR, NumpyBackend, get_backend

        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        main(["--backend", "python", "list"])
        capsys.readouterr()
        expected = "numpy" if NumpyBackend.is_available() else "python"
        assert get_backend().name == expected

    def test_unknown_backend_is_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            main(["--backend", "fortran", "list"])


class TestBenchCommand:
    def test_bench_prints_table_for_every_backend(self, capsys):
        assert main(["bench", "--trials", "100", "--configs", "10", "--repeats", "1"]) == 0
        output = capsys.readouterr().out
        assert "trials/sec" in output
        assert "python" in output

    def test_bench_writes_snapshot(self, tmp_path, capsys):
        import json

        snapshot = tmp_path / "BENCH_TEST.json"
        assert (
            main(
                [
                    "bench",
                    "--trials", "100",
                    "--configs", "10",
                    "--repeats", "1",
                    "--output", str(snapshot),
                ]
            )
            == 0
        )
        capsys.readouterr()
        document = json.loads(snapshot.read_text())
        assert document["workload"]["configs"] == 10
        assert set(document["results"])  # at least one backend measured

    def test_bench_rejects_bad_workload(self, capsys):
        assert main(["bench", "--trials", "0"]) == 1
        assert "error:" in capsys.readouterr().err


class TestBenchCampaignCommand:
    def test_bench_campaign_prints_table_for_every_backend(self, capsys):
        assert (
            main(
                [
                    "bench-campaign",
                    "--trials", "50",
                    "--replicas", "12",
                    "--repeats", "1",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "campaigns/sec" in output
        assert "python" in output
        assert "identical campaign results: True" in output

    def test_bench_campaign_writes_snapshot(self, tmp_path, capsys):
        import json

        snapshot = tmp_path / "BENCH_CAMPAIGN_TEST.json"
        assert (
            main(
                [
                    "bench-campaign",
                    "--trials", "50",
                    "--replicas", "12",
                    "--repeats", "1",
                    "--output", str(snapshot),
                ]
            )
            == 0
        )
        capsys.readouterr()
        document = json.loads(snapshot.read_text())
        assert document["benchmark"] == "batch_campaign_engine"
        assert document["workload"]["trials"] == 50
        assert set(document["results"])  # at least one backend measured
        if "numpy" in document["results"]:
            assert document["speedup_numpy_over_python"] > 0

    def test_bench_campaign_rejects_bad_workload(self, capsys):
        assert main(["bench-campaign", "--trials", "0"]) == 1
        assert "error:" in capsys.readouterr().err


class TestBenchGridCommand:
    SMALL = [
        "bench-grid",
        "--trials", "60",
        "--replicas", "10",
        "--budgets", "1", "2",
        "--probabilities", "0.5",
        "--repeats", "1",
        "--scalar-trials", "40",
    ]

    def test_bench_grid_prints_table_for_every_backend(self, capsys):
        assert main(list(self.SMALL)) == 0
        output = capsys.readouterr().out
        assert "point-trials/sec" in output
        assert "python_fused" in output
        assert "python_looped" in output
        assert "fused grid identical to looped campaigns: True" in output

    def test_bench_grid_writes_snapshot(self, tmp_path, capsys):
        snapshot = tmp_path / "BENCH_GRID_TEST.json"
        assert main(list(self.SMALL) + ["--output", str(snapshot)]) == 0
        capsys.readouterr()
        document = json.loads(snapshot.read_text())
        assert document["benchmark"] == "grid_campaign_engine"
        assert document["workload"]["grid_points"] == 2
        assert document["identical_fused_vs_looped"] is True
        assert "python_fused" in document["results"]
        if "numpy_fused" in document["results"]:
            assert document["speedup_fused_over_looped_numpy"] > 0
            assert document["speedup_numpy_fused_over_python_scalar"] > 0

    def test_bench_grid_rejects_bad_workload(self, capsys):
        assert main(["bench-grid", "--trials", "0"]) == 1
        assert "error:" in capsys.readouterr().err


class TestBenchPopulationCommand:
    SMALL = [
        "bench-population",
        "--sizes", "200",
        "--trials", "8",
        "--seed", "3",
        "--dense-limit", "200",
    ]

    def test_bench_population_prints_table_and_identity(self, capsys):
        assert main(list(self.SMALL)) == 0
        output = capsys.readouterr().out
        assert "sparse population bench:" in output
        assert "sparse trials/sec" in output
        assert "sparse identical to dense at overlapping scales: True" in output
        assert "peak RSS:" in output

    def test_bench_population_writes_snapshot(self, tmp_path, capsys):
        snapshot = tmp_path / "BENCH_POP_TEST.json"
        assert main(list(self.SMALL) + ["--output", str(snapshot)]) == 0
        capsys.readouterr()
        document = json.loads(snapshot.read_text())
        assert document["benchmark"] == "sparse_population_plane"
        assert document["results"]["200"]["nnz"] == 200 * 5
        assert document["identical_sparse_vs_dense"] is True
        assert document["peak_rss_kb"] > 0

    def test_bench_population_enforces_the_memory_ceiling(self, capsys):
        assert main(list(self.SMALL) + ["--memory-ceiling-mb", "1"]) == 1
        captured = capsys.readouterr()
        assert "exceeds" in captured.err

    def test_bench_population_rejects_bad_workload(self, capsys):
        assert main(["bench-population", "--trials", "0"]) == 1
        assert "error:" in capsys.readouterr().err


class TestBenchBackendsCommand:
    SMALL = [
        "bench-backends",
        "--trials", "200",
        "--python-trials", "60",
        "--replicas", "24",
        "--seed", "5",
        "--repeats", "1",
        "--workers", "1", "2",
        "--sparse-size", "3000",
        "--sparse-trials", "6",
        "--sparse-workers", "2",
    ]

    def test_bench_backends_prints_table_and_speedups(self, capsys):
        pytest.importorskip("numpy")
        assert main(list(self.SMALL)) == 0
        output = capsys.readouterr().out
        assert "backend comparison:" in output
        assert "numpy" in output
        assert "shm[w=2]" in output
        assert "over numpy:" in output
        assert "sparse sweep:" in output
        assert "campaign " in output
        assert "sparse peak RSS:" in output

    def test_bench_backends_writes_snapshot(self, tmp_path, capsys):
        pytest.importorskip("numpy")
        snapshot = tmp_path / "BENCH_10_TEST.json"
        assert main(list(self.SMALL) + ["--output", str(snapshot)]) == 0
        capsys.readouterr()
        document = json.loads(snapshot.read_text())
        assert document["benchmark"] == "backend_comparison"
        assert document["results"]["shm[w=1]"]["identical"] is True
        assert document["version"] == 2
        assert document["sparse_sweep"]["campaign_seconds"] > 0

    def test_bench_backends_enforces_the_memory_ceiling(self, capsys):
        pytest.importorskip("numpy")
        assert main(list(self.SMALL) + ["--memory-ceiling-mb", "1"]) == 1
        assert "exceeds" in capsys.readouterr().err

    def test_bench_backends_enforces_min_speedup(self, capsys):
        pytest.importorskip("numpy")
        # An absurd bar fails deterministically regardless of host speed.
        arguments = list(self.SMALL) + [
            "--min-speedup", "1000000",
            "--min-speedup-workers", "2",
        ]
        assert main(arguments) == 1
        assert "below the required" in capsys.readouterr().err

    def test_bench_backends_min_speedup_needs_a_measurement(self, capsys):
        pytest.importorskip("numpy")
        arguments = list(self.SMALL) + [
            "--min-speedup", "1.0",
            "--min-speedup-workers", "64",
        ]
        assert main(arguments) == 1
        assert "no shm measurement" in capsys.readouterr().err

    def test_bench_backends_rejects_bad_workload(self, capsys):
        pytest.importorskip("numpy")
        assert main(["bench-backends", "--trials", "0"]) == 1
        assert "error:" in capsys.readouterr().err


class TestBackendsReasonColumn:
    def test_backends_table_has_reason_column(self, capsys):
        assert main(["backends"]) == 0
        output = capsys.readouterr().out
        assert "reason" in output.splitlines()[0]

    def test_unavailable_backend_shows_its_reason(self, capsys, monkeypatch):
        from repro.backend import selection
        from repro.backend.base import ComputeBackend

        class Broken(ComputeBackend):
            name = "broken"

            @classmethod
            def is_available(cls):
                return False

            @classmethod
            def availability_error(cls):
                return "probe exploded: no such device"

        Broken.__abstractmethods__ = frozenset()
        monkeypatch.setattr(
            selection, "_REGISTRY", selection._REGISTRY + (Broken,)
        )
        assert main(["backends"]) == 0
        output = capsys.readouterr().out
        broken_row = next(
            line for line in output.splitlines() if line.startswith("broken")
        )
        assert "no" in broken_row
        assert "probe exploded: no such device" in broken_row
