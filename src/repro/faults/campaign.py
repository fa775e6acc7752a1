"""Exploit campaigns: resolving vulnerabilities against a replica population.

A campaign turns "the attacker exploits vulnerabilities V1..Vm" into the
quantities the Section II-C safety condition needs: the set of compromised
replicas, the power compromised through each vulnerability (``f_t^i``) and
the total compromised power.  Replicas exposed to several exploited
vulnerabilities are counted once in the total (a replica cannot be "more than
Byzantine") but appear in every relevant ``f_t^i`` for reporting, mirroring
the paper's per-vulnerability accounting.

Fault domains and exposed-power reductions are resolved through an
array-backed :class:`~repro.faults.matrix.PopulationMatrix` on the compute
backend; only the per-replica Bernoulli draws of *unreliable* exploits
(``exploit_probability < 1``) remain scalar, preserving the original
``random.Random(seed)`` stream byte for byte.  For batches of thousands of
randomized campaigns use :class:`~repro.faults.engine.BatchCampaignEngine`,
which vectorizes the draws too.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Sequence, Tuple

from repro.backend import get_backend
from repro.backend.selection import BackendLike
from repro.core.exceptions import FaultModelError
from repro.core.population import ReplicaPopulation
from repro.core.resilience import ProtocolFamily, ResilienceReport, analyze_resilience
from repro.faults.catalog import VulnerabilityCatalog
from repro.faults.matrix import PopulationMatrix


@dataclass(frozen=True)
class CampaignOutcome:
    """Result of running an exploit campaign against a population.

    Attributes:
        exploited: ids of the vulnerabilities the attacker exploited.
        compromised_replicas: ids of replicas that became Byzantine.
        compromised_power: total voting power of the compromised replicas
            (each replica counted once even when multiply exposed).
        total_power: the population's total voting power ``n_t``.
        power_per_vulnerability: the per-vulnerability compromised power
            ``f_t^i`` (a replica exposed to several exploited vulnerabilities
            contributes to each).
    """

    exploited: Tuple[str, ...]
    compromised_replicas: FrozenSet[str]
    compromised_power: float
    total_power: float
    power_per_vulnerability: Tuple[Tuple[str, float], ...]

    @property
    def compromised_fraction(self) -> float:
        """Compromised power as a fraction of total power."""
        if self.total_power <= 0:
            return 0.0
        return self.compromised_power / self.total_power


def reject_duplicate_vulnerability_ids(ids: Sequence[str]) -> None:
    """Usage-error guard shared by the scalar campaign and the batch engine.

    Exploiting the same vulnerability twice in one campaign would
    double-count exploit attempts against its replicas — with real
    vulnerability data that is always a typo, never an intent.
    """
    seen: set = set()
    duplicates: set = set()
    for vuln_id in ids:
        if vuln_id in seen:
            duplicates.add(vuln_id)
        seen.add(vuln_id)
    if duplicates:
        raise FaultModelError(
            f"duplicate vulnerability ids in campaign: {', '.join(sorted(duplicates))}"
        )


class ExploitCampaign:
    """Executes exploit campaigns against a replica population.

    The campaign model follows Section II-B: exploiting vulnerability ``i``
    makes every exposed replica Byzantine with the vulnerability's
    ``exploit_probability`` (independently per replica).  With the default
    probability of 1.0 the campaign is deterministic.

    The population × catalog pair is snapshotted into a
    :class:`~repro.faults.matrix.PopulationMatrix` the first time a campaign
    runs; later mutations of the population (join/leave, power updates) or
    catalog are not reflected.  Build a fresh campaign (or pass a fresh
    ``matrix``) after mutating, exactly as you would re-take a census.
    """

    def __init__(
        self,
        population: ReplicaPopulation,
        catalog: VulnerabilityCatalog,
        *,
        seed: int = 0,
        backend: BackendLike = None,
        matrix: Optional[PopulationMatrix] = None,
    ) -> None:
        self._population = population
        self._catalog = catalog
        self._rng = random.Random(seed)
        self._backend = backend
        # The matrix is built lazily (campaigns constructed for their
        # resilience_report helper never pay for it) and may be shared
        # across campaigns over the same population × catalog pair.
        self._matrix = matrix

    @property
    def matrix(self) -> PopulationMatrix:
        """The array-backed snapshot campaigns resolve against (lazy)."""
        if self._matrix is None:
            self._matrix = PopulationMatrix.build(self._population, self._catalog)
        return self._matrix

    # -- core -------------------------------------------------------------------

    def run(
        self,
        vulnerability_ids: Sequence[str],
        *,
        time: Optional[float] = None,
    ) -> CampaignOutcome:
        """Exploit the given vulnerabilities and report the outcome.

        Args:
            vulnerability_ids: ids of catalog vulnerabilities to exploit.
                Listing the same vulnerability twice is a usage error — it
                would double-count exploit attempts against its replicas.
            time: optional simulation time; vulnerabilities not yet disclosed
                at ``time`` are skipped (they cannot be exploited).
        """
        if not vulnerability_ids:
            raise FaultModelError("a campaign needs at least one vulnerability")
        ids = list(vulnerability_ids)
        reject_duplicate_vulnerability_ids(ids)
        matrix = self.matrix
        backend = get_backend(self._backend)
        exposed_power = matrix.exposed_power(backend=backend)
        powers = matrix.powers
        exploited: list[str] = []
        compromised_rows: set[int] = set()
        per_vulnerability: Dict[str, float] = {}
        for vuln_id in ids:
            vulnerability = self._catalog.get(vuln_id)
            if time is not None and not vulnerability.is_exploitable_at(time):
                per_vulnerability[vuln_id] = 0.0
                continue
            exploited.append(vuln_id)
            rows = matrix.exposed_row_indices(vuln_id)
            if vulnerability.exploit_probability >= 1.0:
                # Reliable exploit: the whole fault domain turns Byzantine
                # and f_t^i is the precomputed masked reduction.
                compromised_rows.update(rows)
                per_vulnerability[vuln_id] = exposed_power[vuln_id]
            else:
                # Flaky exploit: one Bernoulli draw per exposed replica, in
                # join order — the exact RNG stream of the scalar model.
                probability = vulnerability.exploit_probability
                power = 0.0
                for row in rows:
                    if self._rng.random() < probability:
                        compromised_rows.add(row)
                        power += powers[row]
                per_vulnerability[vuln_id] = power
        total_compromised = 0.0
        for row in sorted(compromised_rows):
            total_compromised += powers[row]
        return CampaignOutcome(
            exploited=tuple(exploited),
            compromised_replicas=frozenset(
                matrix.replica_ids[row] for row in compromised_rows
            ),
            compromised_power=total_compromised,
            total_power=matrix.total_power,
            power_per_vulnerability=tuple(sorted(per_vulnerability.items())),
        )

    def run_worst_case(
        self,
        *,
        max_vulnerabilities: int = 1,
        time: Optional[float] = None,
    ) -> CampaignOutcome:
        """Exploit the ``max_vulnerabilities`` most damaging vulnerabilities.

        The attacker greedily picks vulnerabilities by exposed power (one
        reduction over the CSR exposure), which is optimal when fault domains
        are disjoint and a good (and conventional) heuristic otherwise.
        """
        if max_vulnerabilities <= 0:
            raise FaultModelError(
                f"max vulnerabilities must be positive, got {max_vulnerabilities}"
            )
        if len(self._catalog) == 0:
            raise FaultModelError("the catalog is empty; nothing to exploit")
        ranked = self.matrix.most_damaging(
            max_vulnerabilities, backend=self._backend, time=time
        )
        return self.run([vuln_id for vuln_id, _ in ranked], time=time)

    def resilience_report(
        self,
        outcome: CampaignOutcome,
        *,
        family: ProtocolFamily = ProtocolFamily.BFT,
    ) -> ResilienceReport:
        """Evaluate the Section II-C safety condition for a campaign outcome."""
        return analyze_resilience(
            self._population,
            dict(outcome.power_per_vulnerability),
            family=family,
        )

def single_vulnerability_breakdown(
    population: ReplicaPopulation,
    catalog: VulnerabilityCatalog,
    *,
    family: ProtocolFamily = ProtocolFamily.BFT,
) -> Dict[str, bool]:
    """For every vulnerability, does exploiting it alone violate safety?

    Returns a mapping vulnerability id -> "safety violated".  This is the
    clearest expression of the paper's core warning: a *single* shared fault
    can exceed ``f`` when diversity is low.

    The population × catalog matrix is built once and shared by every
    single-vulnerability campaign (each still gets its own fresh RNG, as the
    scalar implementation did).
    """
    matrix = PopulationMatrix.build(population, catalog)
    results: Dict[str, bool] = {}
    for vulnerability in catalog:
        campaign = ExploitCampaign(population, catalog, matrix=matrix)
        outcome = campaign.run([vulnerability.vuln_id])
        report = campaign.resilience_report(outcome, family=family)
        results[vulnerability.vuln_id] = not report.safe
    return results
