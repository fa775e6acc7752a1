"""An entropy-maximizing configuration planner.

Given a list of candidate configurations (possibly with per-configuration
capacity limits) and a number of replicas to deploy, the planner produces an
assignment whose census entropy is maximal: replica counts per configuration
differ by at most one, using as many distinct configurations as capacity
allows.  This is the constructive counterpart of
Definition 1/2 and the optimization a Lazarus-style manager would run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

from repro.core.abundance import AbundanceVector
from repro.core.distribution import ConfigurationDistribution
from repro.core.exceptions import PlanningError

ConfigKey = Hashable


@dataclass(frozen=True)
class AssignmentPlan:
    """The planner's output.

    Attributes:
        counts: replicas assigned per configuration.
        total_replicas: total replicas assigned.
        entropy: census entropy (bits) of the assignment.
        kappa: number of distinct configurations used.
        omega: mean replicas per used configuration.
    """

    counts: Tuple[Tuple[ConfigKey, int], ...]
    total_replicas: int
    entropy: float
    kappa: int
    omega: float

    def as_abundance(self) -> AbundanceVector:
        """The plan as an abundance vector."""
        return AbundanceVector.from_counts(dict(self.counts))

    def as_distribution(self) -> ConfigurationDistribution:
        """The plan's census distribution."""
        return self.as_abundance().to_distribution()

    def assignment_list(self) -> List[ConfigKey]:
        """One configuration per replica, in a deterministic order."""
        result: List[ConfigKey] = []
        for key, count in self.counts:
            result.extend([key] * count)
        return result


class EntropyPlanner:
    """Plans configuration assignments that maximize census entropy.

    Args:
        candidates: the configurations available for assignment
            (:class:`~repro.core.configuration.ReplicaConfiguration` objects
            or opaque labels).
        capacity: optional per-configuration limit on how many replicas may
            use it (licensing limits, hardware availability, ...).  Missing
            keys are unconstrained.
    """

    def __init__(
        self,
        candidates: Sequence[ConfigKey],
        *,
        capacity: Optional[Mapping[ConfigKey, int]] = None,
    ) -> None:
        candidates = list(candidates)
        if not candidates:
            raise PlanningError("the planner needs at least one candidate configuration")
        if len(set(candidates)) != len(candidates):
            raise PlanningError("candidate configurations must be unique")
        self._candidates = candidates
        self._capacity: Dict[ConfigKey, int] = {}
        for key, limit in (capacity or {}).items():
            if key not in candidates:
                raise PlanningError(f"capacity given for unknown configuration {key!r}")
            if limit < 0:
                raise PlanningError(f"capacity must be non-negative, got {limit}")
            self._capacity[key] = int(limit)

    # -- planning -----------------------------------------------------------------------

    def plan(self, total_replicas: int) -> AssignmentPlan:
        """Assign ``total_replicas`` replicas as evenly as capacity allows.

        The algorithm is round-robin water-filling: repeatedly give one more
        replica to the least-loaded configuration that still has capacity.
        This yields counts that differ by at most one wherever capacity is not
        binding, which maximizes entropy among capacity-feasible assignments.
        """
        if total_replicas <= 0:
            raise PlanningError(f"total replicas must be positive, got {total_replicas}")
        total_capacity = sum(
            self._capacity.get(key, total_replicas) for key in self._candidates
        )
        if total_capacity < total_replicas:
            raise PlanningError(
                f"capacity ({total_capacity}) cannot host {total_replicas} replicas"
            )
        counts: Dict[ConfigKey, int] = {key: 0 for key in self._candidates}
        for _ in range(total_replicas):
            target = self._least_loaded_with_capacity(counts)
            counts[target] += 1
        used = {key: count for key, count in counts.items() if count > 0}
        abundance = AbundanceVector.from_counts(used)
        distribution = abundance.to_distribution()
        return AssignmentPlan(
            counts=tuple(sorted(used.items(), key=lambda item: str(item[0]))),
            total_replicas=total_replicas,
            entropy=distribution.entropy(),
            kappa=distribution.support_size(),
            omega=abundance.mean_abundance(),
        )

    # -- baselines (for the ablation experiments) ------------------------------------------

    def plan_monoculture(self, total_replicas: int) -> AssignmentPlan:
        """Worst-case baseline: everyone on the first configuration with room."""
        if total_replicas <= 0:
            raise PlanningError(f"total replicas must be positive, got {total_replicas}")
        counts: Dict[ConfigKey, int] = {}
        remaining = total_replicas
        for key in self._candidates:
            room = self._capacity.get(key, remaining)
            take = min(room, remaining)
            if take > 0:
                counts[key] = take
                remaining -= take
            if remaining == 0:
                break
        if remaining > 0:
            raise PlanningError("capacity cannot host the requested replicas")
        abundance = AbundanceVector.from_counts(counts)
        distribution = abundance.to_distribution()
        return AssignmentPlan(
            counts=tuple(sorted(counts.items(), key=lambda item: str(item[0]))),
            total_replicas=total_replicas,
            entropy=distribution.entropy(),
            kappa=distribution.support_size(),
            omega=abundance.mean_abundance(),
        )

    def plan_proportional(
        self, total_replicas: int, popularity: Mapping[ConfigKey, float]
    ) -> AssignmentPlan:
        """Market-driven baseline: assign proportionally to component popularity.

        Models what happens with no diversity management at all: replicas pick
        whatever is most popular, reproducing the ecosystem's skew.
        """
        if total_replicas <= 0:
            raise PlanningError(f"total replicas must be positive, got {total_replicas}")
        weights = {key: float(popularity.get(key, 0.0)) for key in self._candidates}
        if sum(weights.values()) <= 0:
            raise PlanningError("popularity weights must have positive total")
        # Largest-remainder apportionment keeps the counts integral.
        total_weight = sum(weights.values())
        quotas = {
            key: total_replicas * weight / total_weight for key, weight in weights.items()
        }
        counts = {key: int(quota) for key, quota in quotas.items()}
        assigned = sum(counts.values())
        remainders = sorted(
            quotas.items(), key=lambda item: (item[1] - int(item[1]), str(item[0])), reverse=True
        )
        for key, _ in remainders:
            if assigned >= total_replicas:
                break
            counts[key] += 1
            assigned += 1
        used = {key: count for key, count in counts.items() if count > 0}
        abundance = AbundanceVector.from_counts(used)
        distribution = abundance.to_distribution()
        return AssignmentPlan(
            counts=tuple(sorted(used.items(), key=lambda item: str(item[0]))),
            total_replicas=total_replicas,
            entropy=distribution.entropy(),
            kappa=distribution.support_size(),
            omega=abundance.mean_abundance(),
        )

    # -- internals -------------------------------------------------------------------------

    def _least_loaded_with_capacity(self, counts: Dict[ConfigKey, int]) -> ConfigKey:
        best_key = None
        best_count = None
        for key in self._candidates:
            limit = self._capacity.get(key)
            if limit is not None and counts[key] >= limit:
                continue
            if best_count is None or counts[key] < best_count:
                best_key = key
                best_count = counts[key]
        if best_key is None:
            raise PlanningError("no configuration has remaining capacity")
        return best_key
