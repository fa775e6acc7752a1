"""Tests for the command-line interface."""

from __future__ import annotations

import json
import pathlib
import socket

import pytest

from repro import cli
from repro.cli import main
from repro.experiments.orchestrator import load_results_document
from repro.serve import ResultServer

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


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

    @pytest.mark.parametrize("backend", cli.available_backends())
    @pytest.mark.parametrize(
        "experiment", ["two_class", "safety_violation", "diversity_ablation"]
    )
    def test_update_golden_writes_one_census_snapshot_on_every_backend(
        self, tmp_path, capsys, experiment, backend
    ):
        # Census trials read the counter stream: each backend writes the one
        # committed snapshot, byte for byte.
        golden_dir = tmp_path / "golden"
        arguments = ["--backend", backend, "run", "--quiet", "--no-cache", "--update-golden"]
        assert main(arguments + ["--golden-dir", str(golden_dir), experiment]) == 0
        capsys.readouterr()
        name = f"{experiment}.json"
        assert [path.name for path in golden_dir.iterdir()] == [name]
        assert (golden_dir / name).read_bytes() == (GOLDEN_DIR / name).read_bytes()

    def test_non_positive_jobs_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            main(["run", "--jobs", "0", "figure1"])
        with pytest.raises(SystemExit):
            main(["run", "--jobs", "-2", "figure1"])

    @pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
    @pytest.mark.parametrize("mode", [[], ["--parallel", "--jobs", "2"]])
    def test_bad_task_timeout_is_a_usage_error(self, capsys, value, mode):
        arguments = ["run", "--quiet", "--no-cache", "--task-timeout", value]
        with pytest.raises(SystemExit) as exit_info:
            main(arguments + mode + ["proposition1", "proposition2"])
        assert exit_info.value.code == 2
        assert "--task-timeout" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", [[], ["--parallel", "--jobs", "2"]])
    def test_finite_task_timeout_is_accepted(self, tmp_path, capsys, mode):
        results = tmp_path / "results.json"
        arguments = ["run", "--quiet", "--no-cache", "--task-timeout", "60"]
        arguments += ["--results", str(results)] + mode
        assert main(arguments + ["proposition1", "proposition2"]) == 0
        capsys.readouterr()
        document = load_results_document(str(results))
        assert sorted(document["results"]) == ["proposition1", "proposition2"]

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


class TestServeCommand:
    def test_busy_port_is_a_clean_error(self, capsys):
        with socket.socket() as blocker:
            blocker.bind(("127.0.0.1", 0))
            blocker.listen(1)
            port = blocker.getsockname()[1]
            assert main(["serve", "--port", str(port)]) == 1
        error = capsys.readouterr().err
        assert "cannot serve on" in error
        assert str(port) in error

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--build-deadline", "0"),
            ("--build-deadline", "-1"),
            ("--build-deadline", "nan"),
            ("--build-deadline", "inf"),
            ("--build-retries", "-1"),
            ("--breaker-reset", "-5"),
            ("--breaker-reset", "nan"),
            ("--breaker-reset", "inf"),
            ("--refresh-interval", "-1"),
            ("--refresh-interval", "nan"),
        ],
    )
    def test_bad_numeric_flag_is_a_usage_error(self, capsys, monkeypatch, flag, value):
        # A value argparse lets through must not reach a running server.
        monkeypatch.setattr(
            cli, "_command_serve", lambda arguments: pytest.fail("server started")
        )
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--port", "0", flag, value])
        assert exit_info.value.code == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value, attribute, parsed",
        [
            ("--build-deadline", "2.5", "build_deadline", 2.5),
            ("--build-retries", "0", "build_retries", 0),
            ("--breaker-reset", "0.5", "breaker_reset", 0.5),
            ("--refresh-interval", "0.25", "refresh_interval", 0.25),
            # 0 is how a caller turns the server's source refresh loop off.
            ("--refresh-interval", "0", "refresh_interval", 0.0),
        ],
    )
    def test_valid_numeric_flag_reaches_the_server(
        self, monkeypatch, flag, value, attribute, parsed
    ):
        started = []
        monkeypatch.setattr(
            cli, "_command_serve", lambda arguments: started.append(arguments) or 0
        )
        assert main(["serve", "--port", "0", flag, value]) == 0
        assert getattr(started[0], attribute) == parsed
        assert type(getattr(started[0], attribute)) is type(parsed)

    def test_serve_announces_its_url_and_releases_the_port_on_interrupt(
        self, tmp_path, capsys, monkeypatch
    ):
        async def interrupted(self):
            raise KeyboardInterrupt

        monkeypatch.setattr(ResultServer, "serve_forever", interrupted)
        arguments = ["serve", "--port", "0", "--jobs", "1", "--refresh-interval", "0"]
        assert main(arguments + ["--cache-dir", str(tmp_path)]) == 0
        output = capsys.readouterr().out
        assert "shutting down" in output
        banner = next(line for line in output.splitlines() if line.startswith("serving"))
        assert str(tmp_path) in banner
        port = int(banner.split("http://127.0.0.1:")[1].split()[0])
        assert port > 0
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", port))


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
