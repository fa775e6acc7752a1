"""Proactive recovery and patch roll-out over vulnerability windows.

The paper's Remark 1 notes that faults can be detected and patched but that
attacks happen *during the vulnerability window*, and Section III-A points to
proactive-recovery protocols (PBFT-PR, SPARE, COBRA) and self-stabilization as
ways to shrink the attacker's usable window.  This module models both levers:

- :class:`PatchRollout` — after a patch is released, replicas adopt it over
  time (exponentially-staggered adoption with a configurable mean latency),
  which gradually shrinks the exposed voting power;
- :class:`ProactiveRecoveryPolicy` — replicas are rejuvenated (reimaged onto a
  clean configuration) on a rotating schedule regardless of whether a
  compromise is known, which bounds how long any exploited replica stays under
  attacker control.

Both produce *exposure timelines*: voting power exposed / compromised as a
function of time, which the vulnerability-window experiment integrates into a
"power-time" area the same way availability analyses integrate downtime.
A timeline sums the still-exposed powers afresh only at the samples where
some replica's window has closed since the previous sample, adding them in
schedule order, so every sample equals the per-instant power bit for bit.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.exceptions import FaultModelError
from repro.core.population import ReplicaPopulation
from repro.faults.vulnerability import Vulnerability


@dataclass(frozen=True)
class ExposureTimeline:
    """Exposed voting power sampled over time.

    Attributes:
        times: sample instants, ascending.
        exposed_power: voting power exposed (or compromised) at each instant.
        total_power: the population's total power, for normalization.
    """

    times: Tuple[float, ...]
    exposed_power: Tuple[float, ...]
    total_power: float

    def peak_fraction(self) -> float:
        """Largest exposed fraction over the timeline."""
        if not self.exposed_power:
            return 0.0
        return max(self.exposed_power) / self.total_power

    def exposure_area(self) -> float:
        """Integral of the exposed *fraction* over time (trapezoidal rule).

        This "fraction x time" area is the quantity both patching speed and
        proactive recovery try to minimize: how much attacker-usable
        power-time the window leaves on the table.
        """
        if len(self.times) < 2:
            return 0.0
        area = 0.0
        for (t0, p0), (t1, p1) in zip(
            zip(self.times, self.exposed_power), zip(self.times[1:], self.exposed_power[1:])
        ):
            area += (t1 - t0) * (p0 + p1) / 2.0
        return area / self.total_power

    def time_above_fraction(self, fraction: float) -> float:
        """Total time during which the exposed fraction is at least ``fraction``.

        Uses the sample grid (no interpolation), so the resolution is the
        sampling step of the timeline.
        """
        if not 0.0 <= fraction <= 1.0:
            raise FaultModelError(f"fraction must be in [0, 1], got {fraction}")
        if len(self.times) < 2:
            return 0.0
        total = 0.0
        threshold = fraction * self.total_power
        for (t0, p0), (t1, _) in zip(
            zip(self.times, self.exposed_power), zip(self.times[1:], self.exposed_power[1:])
        ):
            if p0 >= threshold - 1e-12:
                total += t1 - t0
        return total


def _open_power_timeline(
    schedule: Sequence[Tuple[float, float]],
    times: Sequence[float],
    open_power: Callable[[Sequence[Tuple[float, float]], float], float],
) -> Tuple[float, ...]:
    """``open_power(schedule, t)`` at each of the ascending sample ``times``.

    An entry ``(closes_at, power)`` is open while ``t < closes_at``, so the
    open set only shrinks as ``t`` grows.  A sample's sum is recomputed only
    when some open window closed since the previous sample, over the entries
    still open and in schedule order: the same powers added in the same
    order as ``open_power`` over the whole schedule.  Every other sample
    repeats its predecessor's value.
    """
    # A NaN close is never open (``t < NaN`` is false), so it never closes.
    closes = sorted(closes_at for closes_at, _ in schedule if closes_at == closes_at)
    sums: List[float] = []
    still_open = list(schedule)
    closed = -1
    for t in times:
        now_closed = bisect_right(closes, t)
        if now_closed != closed:
            closed = now_closed
            still_open = [entry for entry in still_open if t < entry[0]]
            value = open_power(still_open, t)
        sums.append(value)
    return tuple(sums)


class PatchRollout:
    """Staggered patch adoption across the exposed replicas.

    Each exposed replica adopts the patch at
    ``patch_release_time + Exp(mean_adoption_latency)`` (deterministic given
    the seed).  Before its adoption time the replica counts as exposed; after,
    it does not.
    """

    def __init__(
        self,
        population: ReplicaPopulation,
        vulnerability: Vulnerability,
        *,
        disclosure_time: float = 0.0,
        patch_release_time: float = 0.0,
        mean_adoption_latency: float = 10.0,
        seed: int = 0,
    ) -> None:
        if patch_release_time < disclosure_time:
            raise FaultModelError("the patch cannot be released before disclosure")
        if mean_adoption_latency < 0:
            raise FaultModelError(
                f"mean adoption latency must be non-negative, got {mean_adoption_latency}"
            )
        self._population = population
        self._vulnerability = vulnerability
        self._disclosure_time = disclosure_time
        self._patch_release_time = patch_release_time
        rng = random.Random(seed)
        self._adoption_time: Dict[str, float] = {}
        for replica in population.replicas_using_component(vulnerability.component):
            if mean_adoption_latency == 0:
                delay = 0.0
            else:
                delay = rng.expovariate(1.0 / mean_adoption_latency)
            self._adoption_time[replica.replica_id] = patch_release_time + delay

    @property
    def exposed_replica_ids(self) -> Tuple[str, ...]:
        """Replicas that were exposed when the vulnerability was disclosed."""
        return tuple(self._adoption_time.keys())

    def adoption_time_of(self, replica_id: str) -> Optional[float]:
        """When ``replica_id`` adopts the patch (``None`` if never exposed)."""
        return self._adoption_time.get(replica_id)

    def exposed_power_at(self, time: float) -> float:
        """Voting power still exposed at ``time``."""
        if time < self._disclosure_time:
            return 0.0
        return self._exposed_power(self._adoption_schedule(), time)

    def _adoption_schedule(self) -> List[Tuple[float, float]]:
        """Each exposed replica's ``(adoption time, power)``, in exposure order."""
        return [
            (adopted_at, self._population.power_of(replica_id))
            for replica_id, adopted_at in self._adoption_time.items()
        ]

    @staticmethod
    def _exposed_power(schedule: Sequence[Tuple[float, float]], time: float) -> float:
        """Power of the replicas in ``schedule`` not yet patched at ``time``."""
        return sum(power for adopted_at, power in schedule if time < adopted_at)

    def all_patched_time(self) -> float:
        """The instant at which the last exposed replica is patched."""
        if not self._adoption_time:
            return self._patch_release_time
        return max(self._adoption_time.values())

    def timeline(self, *, horizon: Optional[float] = None, samples: int = 200) -> ExposureTimeline:
        """Sample the exposed power from disclosure until ``horizon``.

        Each sample equals :meth:`exposed_power_at` at its instant; the sum
        is redone only after some replica adopted the patch.
        """
        if samples < 2:
            raise FaultModelError(f"at least 2 samples are required, got {samples}")
        end = horizon if horizon is not None else self.all_patched_time() * 1.05 + 1e-9
        if end <= self._disclosure_time:
            end = self._disclosure_time + 1.0
        step = (end - self._disclosure_time) / (samples - 1)
        times = [self._disclosure_time + index * step for index in range(samples)]
        # Every sample is at or after disclosure, so exposed_power_at's
        # early return never fires; the schedule is read once, not per sample.
        return ExposureTimeline(
            times=tuple(times),
            exposed_power=_open_power_timeline(
                self._adoption_schedule(), times, self._exposed_power
            ),
            total_power=self._population.total_power(),
        )


class ProactiveRecoveryPolicy:
    """Rotating rejuvenation of replicas (PBFT-PR / SPARE-style).

    Replicas are recovered one at a time, ``recovery_period`` apart, in a
    fixed round-robin order.  A compromised replica stays compromised from the
    attack time until its next scheduled recovery, so the maximum time any
    single replica spends under attacker control is bounded by
    ``recovery_period * len(population)`` regardless of patching.
    """

    def __init__(
        self,
        population: ReplicaPopulation,
        *,
        recovery_period: float = 10.0,
        start_time: float = 0.0,
    ) -> None:
        if recovery_period <= 0:
            raise FaultModelError(
                f"recovery period must be positive, got {recovery_period}"
            )
        self._population = population
        self._period = recovery_period
        self._start = start_time
        # Each replica's slot in the round-robin recovery order.
        self._position: Dict[str, int] = {
            replica_id: index for index, replica_id in enumerate(population.replica_ids())
        }

    @property
    def rotation_length(self) -> float:
        """Time to cycle through every replica once."""
        return self._period * len(self._position)

    def next_recovery_after(self, replica_id: str, time: float) -> float:
        """The first scheduled recovery of ``replica_id`` strictly after ``time``.

        A recovery coinciding exactly with the attack instant does not count
        as cleaning that attack, so the bound is strict.
        """
        index = self._position.get(replica_id)
        if index is None:
            raise FaultModelError(f"unknown replica {replica_id!r}")
        first = self._start + index * self._period
        if time < first:
            return first
        cycles = int((time - first) // self.rotation_length) + 1
        return first + cycles * self.rotation_length

    def compromised_power_at(
        self, compromised_ids: Sequence[str], attack_time: float, time: float
    ) -> float:
        """Power still attacker-controlled at ``time`` given recovery rotation.

        Each compromised replica is cleaned at its first scheduled recovery
        after ``attack_time``; re-compromise after recovery is not modeled
        here (the exploit campaign can be re-run for that).
        """
        if time < attack_time:
            return 0.0
        return self._compromised_power(
            self._recovery_schedule(compromised_ids, attack_time), time
        )

    def _recovery_schedule(
        self, compromised_ids: Sequence[str], attack_time: float
    ) -> List[Tuple[float, float]]:
        """Each compromised replica's ``(recovery time, power)``, in the given order."""
        return [
            (
                self.next_recovery_after(replica_id, attack_time),
                self._population.power_of(replica_id),
            )
            for replica_id in compromised_ids
        ]

    @staticmethod
    def _compromised_power(schedule: Sequence[Tuple[float, float]], time: float) -> float:
        """Power of the replicas in ``schedule`` not yet recovered at ``time``."""
        total = 0.0
        for recovered_at, power in schedule:
            if time < recovered_at:
                total += power
        return total

    def timeline(
        self,
        compromised_ids: Sequence[str],
        *,
        attack_time: float = 0.0,
        horizon: Optional[float] = None,
        samples: int = 200,
    ) -> ExposureTimeline:
        """Sample the attacker-controlled power from the attack until ``horizon``.

        Each sample equals :meth:`compromised_power_at` at its instant; the
        sum is redone only after some compromised replica was recovered.

        Raises:
            FaultModelError: ``horizon`` is at or before ``attack_time`` (the
                samples would run backwards and the areas come out negative).
        """
        if samples < 2:
            raise FaultModelError(f"at least 2 samples are required, got {samples}")
        if horizon is not None and not horizon > attack_time:
            raise FaultModelError(
                f"horizon must be after the attack time {attack_time}, got {horizon}"
            )
        end = horizon if horizon is not None else attack_time + self.rotation_length * 1.05
        step = (end - attack_time) / (samples - 1)
        times = [attack_time + index * step for index in range(samples)]
        # Every sample is at or after the attack, so compromised_power_at's
        # early return never fires; recoveries are scheduled once, not per sample.
        return ExposureTimeline(
            times=tuple(times),
            exposed_power=_open_power_timeline(
                self._recovery_schedule(compromised_ids, attack_time),
                times,
                self._compromised_power,
            ),
            total_power=self._population.total_power(),
        )
