"""Tests of the benchmark itself: exact counts, metric names, hygiene.

A later change may rest a count claim on ``kernel.calls``, ``kernel.cells``,
``engine.chunks``, ``build.nnz`` and ``orchestrator.builds`` only if two
runs with the same seed report them identically; these tests pin that.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

from perfbench import ROOT, harness
from perfbench.serving import ServeWrites
from perfbench.workloads import GridSweep, PopulationScale

COUNTS = ("kernel.calls", "kernel.cells", "engine.chunks", "build.nnz", "orchestrator.builds")


def short_run(workload_class, seed, tmp_path):
    run = harness.measure(
        workload_class,
        seed=seed,
        seconds=1.0,
        trace=True,
        workdir_root=str(tmp_path),
        rounds=1,
        max_ops=3,
    )
    assert run.failures == []
    assert all(op.ok for op in run.log.ops)
    return run


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Two same-seed traced runs per workload that has a named count."""
    tmp_path = tmp_path_factory.mktemp("perfbench")
    return {
        cls.name: (short_run(cls, 7, tmp_path), short_run(cls, 7, tmp_path))
        for cls in (GridSweep, PopulationScale, ServeWrites)
    }


def values(run, names):
    metrics = run.metrics(True)
    return {name: metrics[name]["value"] for name in names}


@pytest.mark.parametrize("workload", ["grid_sweep", "population_scale", "serve_writes"])
def test_counts_repeat_exactly_for_a_seed(runs, workload):
    first, second = runs[workload]
    assert values(first, COUNTS) == values(second, COUNTS)


def test_counts_describe_the_workloads(runs):
    grid = values(runs["grid_sweep"][0], COUNTS)
    assert grid["kernel.calls"] == 1 and grid["engine.chunks"] == 1 and grid["kernel.cells"] > 0
    population = values(runs["population_scale"][0], COUNTS)
    assert population["engine.chunks"] == 3
    assert population["build.nnz"] > 0 and population["kernel.cells"] > 0
    assert values(runs["serve_writes"][0], COUNTS)["orchestrator.builds"] == 1


@pytest.mark.parametrize("workload", ["grid_sweep", "population_scale"])
def test_layer_self_times_cover_the_op(runs, workload):
    share = values(runs[workload][0], ("trace.unattributed_share",))["trace.unattributed_share"]
    assert 0.0 <= share < 0.10


def test_reported_names_match_the_benchmark_definition(runs):
    definition = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    run = runs["population_scale"][0]
    layer = run.metrics(True)
    assert list(layer) == [metric["name"] for metric in definition["per_layer"]]
    assert [layer[metric["name"]]["unit"] for metric in definition["per_layer"]] == [
        metric["unit"] for metric in definition["per_layer"]
    ]
    end_to_end = run.metrics(False)
    assert list(end_to_end) == [metric["name"] for metric in definition["end_to_end"]]
    assert [end_to_end[metric["name"]]["unit"] for metric in definition["end_to_end"]] == [
        metric["unit"] for metric in definition["end_to_end"]
    ]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid_sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""
