"""Every script in ``examples/`` runs to completion and prints its report.

The examples are the library's documented entry points, so each one runs as
a subprocess exactly as a user would start it (``PYTHONPATH=src``), on the
interpreter and backend environment of the test run.  Results are a pure
function of their inputs on every backend, so each report must also read the
same when the script runs on the pure-Python backend.
"""

from __future__ import annotations

import functools
import os
import pathlib
import subprocess
import sys

import pytest

from repro.backend.selection import BACKEND_ENV_VAR

ROOT = pathlib.Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def _run(script: pathlib.Path, **env_overrides: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env.update(env_overrides)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, str(script)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


@functools.lru_cache(maxsize=None)
def _run_as_configured(script: pathlib.Path) -> subprocess.CompletedProcess:
    """One run per script in the test run's own environment."""
    return _run(script)


def test_examples_directory_is_not_empty():
    assert EXAMPLES


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.stem)
def test_example_runs(script):
    completed = _run_as_configured(script)
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip()


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.stem)
def test_example_report_is_the_same_on_the_python_backend(script):
    configured = _run_as_configured(script)
    python = _run(script, **{BACKEND_ENV_VAR: "python"})
    assert python.returncode == 0, python.stderr
    assert python.stdout == configured.stdout
