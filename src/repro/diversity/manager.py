"""A Lazarus-style centralized diversity manager (permissioned baseline).

Lazarus (Garcia, Bessani & Neves, Middleware 2019) automatically manages the
diversity of operating systems in a permissioned BFT deployment: it tracks
which configurations are deployed, scores risk from known vulnerabilities and
rotates replicas onto safer, more diverse configurations.  The paper uses it
as the state of the art that *cannot* be applied directly to permissionless
systems (no global manager exists there).

The :class:`DiversityManager` reproduces that baseline at the level the
reproduction needs: it owns a fixed set of replica slots, plans their
configurations with the entropy planner, reacts to vulnerability disclosures
by migrating exposed replicas to patched/alternative configurations, and
reports the deployment's entropy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.core.configuration import ReplicaConfiguration
from repro.core.distribution import ConfigurationDistribution
from repro.core.exceptions import PlanningError
from repro.diversity.planner import EntropyPlanner
from repro.faults.vulnerability import Vulnerability


@dataclass(frozen=True)
class ManagedDeployment:
    """A snapshot of the managed deployment.

    Attributes:
        assignment: configuration per replica slot.
        entropy: census entropy of the deployment (bits).
    """

    assignment: Tuple[Tuple[str, ReplicaConfiguration], ...]
    entropy: float


class DiversityManager:
    """Centralized manager assigning and rotating replica configurations."""

    def __init__(
        self,
        slots: Sequence[str],
        candidates: Sequence[ReplicaConfiguration],
    ) -> None:
        if not slots:
            raise PlanningError("the manager needs at least one replica slot")
        if len(set(slots)) != len(slots):
            raise PlanningError("slot names must be unique")
        if not candidates:
            raise PlanningError("the manager needs at least one candidate configuration")
        self._slots = list(slots)
        self._candidates = list(candidates)
        self._assignment: Dict[str, ReplicaConfiguration] = {}
        self._migrations = 0
        self.rebalance()

    # -- planning -----------------------------------------------------------------------

    def rebalance(self) -> ManagedDeployment:
        """(Re)assign every slot using the entropy planner."""
        planner = EntropyPlanner(self._candidates)
        plan = planner.plan(len(self._slots))
        configurations = plan.assignment_list()
        self._assignment = dict(zip(self._slots, configurations))
        return self.deployment()

    def deployment(self) -> ManagedDeployment:
        """The current deployment snapshot."""
        census = ConfigurationDistribution(
            self._count_by_configuration()
        )
        return ManagedDeployment(
            assignment=tuple(sorted(self._assignment.items())),
            entropy=census.entropy(),
        )

    @property
    def migrations_performed(self) -> int:
        """How many slot migrations the manager has executed."""
        return self._migrations

    # -- vulnerability response --------------------------------------------------------------

    def respond_to_vulnerability(self, vulnerability: Vulnerability) -> Tuple[str, ...]:
        """Migrate every slot exposed to ``vulnerability`` off the vulnerable component.

        Exposed slots are moved to the candidate configuration (not containing
        the vulnerable component) that currently hosts the fewest slots, which
        preserves as much evenness as possible.  Returns the migrated slots.
        """
        safe_candidates = [
            candidate
            for candidate in self._candidates
            if not candidate.has_component(vulnerability.component)
        ]
        if not safe_candidates:
            raise PlanningError(
                "no candidate configuration avoids the vulnerable component "
                f"{vulnerability.component.identifier!r}"
            )
        migrated: List[str] = []
        for slot, configuration in sorted(self._assignment.items()):
            if not configuration.has_component(vulnerability.component):
                continue
            target = self._least_loaded(safe_candidates)
            self._assignment[slot] = target
            self._migrations += 1
            migrated.append(slot)
        return tuple(migrated)

    # -- internals ------------------------------------------------------------------------------

    def _count_by_configuration(self) -> Dict[ReplicaConfiguration, int]:
        counts: Dict[ReplicaConfiguration, int] = {}
        for configuration in self._assignment.values():
            counts[configuration] = counts.get(configuration, 0) + 1
        return counts

    def _least_loaded(self, candidates: Sequence[ReplicaConfiguration]) -> ReplicaConfiguration:
        counts = self._count_by_configuration()
        return min(candidates, key=lambda candidate: (counts.get(candidate, 0), candidate.identifier))

    # -- dunder -----------------------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._slots)
