"""Census trials read the counter stream: one result on every backend.

The contract of ``ComputeBackend.violation_trials``: with ``n`` shares in
descending order, configuration ``i`` of trial ``t`` is vulnerable exactly
when ``campaign_uniform(seed, t * n + i) < p``; a trial's compromised share
is its first ``exploit_budget`` vulnerable shares added left to right from
``0.0``; ``compromised_total`` is ``math.fsum`` of the per-trial values; and
a trial violates a tolerance when its share is ``>=`` it.  :func:`contract`
states it directly and draws every cell, so equality with it also shows
that the draws a kernel skips change nothing.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.backend import NumpyBackend, available_backends, get_backend, python_backend
from repro.backend.base import TrialBatchResult, campaign_uniform
from repro.core.distribution import ConfigurationDistribution
from repro.experiments.orchestrator import execute_spec, registry
from repro.faults.engine import run_census_trials

TOLERANCES = (1 / 3, 1 / 2)

SEEDS = (0, -1, -(2**63), 2**64 - 1, 2**64 + 5)

#: Round, degenerate and grid probabilities: a uniform is ``k * 2^-53`` for
#: an integer ``k``, so ``<`` against ``k * 2^-53`` and its float neighbours
#: decides whether the grid draw itself counts.
PROBABILITIES = (0.0, 1.0, 0.25, 0.3) + tuple(
    value
    for k in (1, 3, 1 << 51, (1 << 53) - 1)
    for value in (
        k * 2.0**-53,
        math.nextafter(k * 2.0**-53, 0.0),
        math.nextafter(k * 2.0**-53, 1.0),
    )
)


def contract(shares, *, vulnerability_probability, exploit_budget, trials, seed, tolerances):
    """The census contract, every cell drawn."""
    per_trial = []
    for trial in range(trials):
        vulnerable = [
            share
            for index, share in enumerate(shares)
            if campaign_uniform(seed, trial * len(shares) + index)
            < vulnerability_probability
        ]
        compromised = 0.0
        for share in vulnerable[:exploit_budget]:
            compromised += share
        per_trial.append(compromised)
    return TrialBatchResult(
        trials=trials,
        violations=tuple(
            sum(value >= tolerance for value in per_trial) for tolerance in tolerances
        ),
        compromised_total=math.fsum(per_trial),
    )


def random_shares(rng, count):
    """``count`` non-dyadic shares, descending."""
    weights = [rng.random() for _ in range(count)]
    total = sum(weights)
    return sorted((weight / total for weight in weights), reverse=True)


def censuses(rng):
    # One census with a share between the two tolerances, so they judge
    # the same draws differently, and random ones of 1 to 12 configurations.
    return [[0.4, 0.35, 0.25]] + [random_shares(rng, rng.randint(1, 12)) for _ in range(3)]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("backend", available_backends())
def test_every_backend_equals_the_contract(backend, seed):
    kernel = get_backend(backend)
    rng = random.Random(seed % 1009)
    for shares in censuses(rng):
        n = len(shares)
        for budget in sorted({0, 1, 2, n, n + 2}):
            for probability in PROBABILITIES:
                arguments = dict(
                    vulnerability_probability=probability,
                    exploit_budget=budget,
                    trials=40,
                    seed=seed,
                    tolerances=TOLERANCES,
                )
                assert kernel.violation_trials(shares, **arguments) == contract(
                    shares, **arguments
                ), (shares, budget, probability)


@pytest.mark.skipif(not NumpyBackend.is_available(), reason="numpy not installed")
@pytest.mark.parametrize("block_cells", [1, 5, 64])
def test_numpy_blocks_are_invisible(monkeypatch, block_cells):
    from repro.backend import numpy_backend

    monkeypatch.setattr(numpy_backend, "_CENSUS_BLOCK_CELLS", block_cells)
    rng = random.Random(block_cells)
    for _ in range(12):
        shares = random_shares(rng, rng.randint(1, 40))
        arguments = dict(
            vulnerability_probability=rng.choice((0.05, 0.25, 0.3, rng.random())),
            exploit_budget=rng.choice((1, 2, 3, len(shares))),
            trials=rng.randint(1, 120),
            seed=rng.randint(-(2**64), 2**65),
            tolerances=TOLERANCES,
        )
        assert NumpyBackend().violation_trials(shares, **arguments) == contract(
            shares, **arguments
        )


def test_python_reference_stops_drawing_at_each_trials_last_pick(monkeypatch):
    draws = []

    def spy(seed, index):
        draws.append(index)
        return campaign_uniform(seed, index)

    monkeypatch.setattr(python_backend, "campaign_uniform", spy)
    shares = random_shares(random.Random(3), 20)
    probability, budget, trials, seed = 0.3, 2, 50, 9
    get_backend("python").violation_trials(
        shares,
        vulnerability_probability=probability,
        exploit_budget=budget,
        trials=trials,
        seed=seed,
        tolerances=TOLERANCES,
    )
    expected = []
    for trial in range(trials):
        picked = 0
        for index in range(len(shares)):
            if picked == budget:
                break
            counter = trial * len(shares) + index
            expected.append(counter)
            picked += campaign_uniform(seed, counter) < probability
    assert draws == expected
    assert len(draws) < trials * len(shares)


def test_negative_seed_builds_the_same_bytes_on_every_backend():
    spec = registry.get_spec("safety_violation")
    params = spec.params_type(seed=-3)
    documents = {
        execute_spec(spec, params, backend=backend).canonical_json()
        for backend in available_backends()
    }
    assert len(documents) == 1


@pytest.mark.parametrize("backend", available_backends())
def test_every_backend_gets_the_censuss_memoized_descending_tuple(monkeypatch, backend):
    kernel = get_backend(backend)
    original = kernel.violation_trials
    handed = []

    def spy(shares, **arguments):
        handed.append(shares)
        return original(shares, **arguments)

    monkeypatch.setattr(kernel, "violation_trials", spy)
    census = ConfigurationDistribution({"a": 0.2, "b": 0.5, "c": 0.3})
    for seed in (1, 2):
        run_census_trials(
            census,
            vulnerability_probability=0.5,
            exploit_budget=1,
            trials=10,
            seed=seed,
            tolerances=TOLERANCES,
            backend=backend,
        )
    assert len(handed) == 2
    assert all(shares is census.sorted_probabilities() for shares in handed)
    assert handed[0] == (0.5, 0.3, 0.2)
