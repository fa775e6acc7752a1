"""Shared helpers of the campaign-kernel tests.

The backend seam runs a campaign in two steps — ``sparse_grid_partials``
draws the per-trial sums, ``campaign_verdicts`` judges them — and its
partials hold the backend's array type, whose dataclass ``==`` raises on
NumPy.  These helpers run both steps and turn partials into plain lists.
"""

from __future__ import annotations


def run_campaign(backend, sparse, points, *, trials, total_power, trial_offset=0):
    """Every point over the whole CSR ``sparse``, judged into grid results."""
    partials = backend.sparse_grid_partials(
        sparse, points, trials=trials, trial_offset=trial_offset
    )
    return backend.campaign_verdicts(
        partials, points, trials=trials, total_power=total_power
    )


def plain(partials):
    """``(per-trial sums, per-column totals)`` lists, one pair per partial."""
    return [
        (
            list(map(float, partial.per_trial_compromised)),
            list(map(float, partial.per_vulnerability_totals)),
        )
        for partial in partials
    ]
