"""Golden-snapshot regression suite for every experiment.

Each file under ``tests/golden/`` is the canonical JSON view of one
experiment's structured result at its default parameters and fixed seed —
one file per experiment, because every number (census trials and entropies
included) is the same on every compute backend.  Rerunning the experiments
and diffing against the snapshots locks the regenerated paper numbers —
Figure 1, Example 1, Propositions 1-3 and the extension analyses — against
regression.

The comparison keeps a ``REL_TOL = 1e-9`` float tolerance instead of
comparing bytes because the last digits depend on the Python version:
CPython 3.12 made the builtin ``sum`` of floats compensated, and the
experiments that add shares with ``sum`` (``decentralized_pools``,
``example1``, ``figure1``, ``proposition2``, ``protocol_safety`` and
``safety_violation``) then write different last digits than on 3.11, which
wrote the committed files; with ``sum`` replaced by a plain left-to-right
loop, 3.12 writes 3.11's bytes.  ``setup.py`` allows Python 3.9 and later,
so byte identity is checked where the interpreter is pinned: CI regenerates
every snapshot on each backend and requires ``git diff`` to be empty.

Regenerate after an intentional change with::

    PYTHONPATH=src python -m repro.cli run --all --quiet --no-cache --update-golden
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from repro.experiments.orchestrator import execute_spec, json_body
from repro.experiments.orchestrator import registry

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "golden"

#: Relative/absolute float tolerances: tight enough to catch any real change
#: in a reported number, loose enough to absorb cross-platform libm jitter.
REL_TOL = 1e-9
ABS_TOL = 1e-12


def assert_matches(expected, actual, path="$"):
    """Recursive equality with float tolerance and exact type agreement."""
    if isinstance(expected, bool) or isinstance(actual, bool):
        assert type(expected) is type(actual) and expected == actual, (
            f"{path}: expected {expected!r}, got {actual!r}"
        )
    elif isinstance(expected, float) or isinstance(actual, float):
        assert isinstance(expected, (int, float)) and isinstance(actual, (int, float)), (
            f"{path}: expected a number, got {actual!r}"
        )
        assert math.isclose(expected, actual, rel_tol=REL_TOL, abs_tol=ABS_TOL), (
            f"{path}: expected {expected!r}, got {actual!r}"
        )
    elif isinstance(expected, dict):
        assert isinstance(actual, dict), f"{path}: expected a dict, got {actual!r}"
        assert sorted(expected) == sorted(actual), (
            f"{path}: keys differ: {sorted(expected)} vs {sorted(actual)}"
        )
        for key in expected:
            assert_matches(expected[key], actual[key], f"{path}.{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, list), f"{path}: expected a list, got {actual!r}"
        assert len(expected) == len(actual), (
            f"{path}: length {len(expected)} vs {len(actual)}"
        )
        for index, (left, right) in enumerate(zip(expected, actual)):
            assert_matches(left, right, f"{path}[{index}]")
    else:
        assert expected == actual, f"{path}: expected {expected!r}, got {actual!r}"


@pytest.mark.parametrize(
    "spec", registry.all_specs(), ids=lambda spec: spec.experiment_id
)
def test_experiment_matches_golden_snapshot(spec):
    golden_path = GOLDEN_DIR / f"{spec.experiment_id}.json"
    assert golden_path.exists(), (
        f"missing golden snapshot {golden_path.name}; regenerate with "
        "`python -m repro.cli run --all --quiet --no-cache --update-golden`"
    )
    expected = json.loads(golden_path.read_text(encoding="utf-8"))
    actual = json.loads(json_body(execute_spec(spec).canonical_dict()))
    assert_matches(expected, actual)


def test_every_golden_file_belongs_to_a_registered_experiment():
    """No orphaned snapshots: stale files would silently stop guarding."""
    valid_names = {f"{spec.experiment_id}.json" for spec in registry.all_specs()}
    on_disk = {path.name for path in GOLDEN_DIR.glob("*.json")}
    assert on_disk, "tests/golden is empty"
    orphans = on_disk - valid_names
    assert not orphans, f"golden files without a registered experiment: {sorted(orphans)}"


def test_every_experiment_has_a_golden_file():
    """Coverage guard: adding an experiment without a snapshot must fail."""
    missing = [
        spec.experiment_id
        for spec in registry.all_specs()
        if not (GOLDEN_DIR / f"{spec.experiment_id}.json").exists()
    ]
    assert not missing, (
        f"experiments without golden snapshots: {missing}; regenerate with "
        "`python -m repro.cli run --all --quiet --no-cache --update-golden`"
    )
