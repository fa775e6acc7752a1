"""A queryable catalog of vulnerabilities.

The catalog is the interface between the ecosystem model ("which components
exist and how popular are they") and the adversary model ("which shared flaws
can be exploited").  It answers the query the analysis needs: the exposure
(voting power at risk) of each vulnerability against a given population,
and the ranking of the most damaging ones that
:meth:`~repro.faults.matrix.PopulationMatrix.most_damaging` reproduces.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.core.configuration import SoftwareComponent
from repro.core.exceptions import FaultModelError
from repro.core.population import ReplicaPopulation
from repro.faults.vulnerability import Severity, Vulnerability


class VulnerabilityCatalog:
    """An append-only collection of :class:`Vulnerability` records."""

    def __init__(self, vulnerabilities: Iterable[Vulnerability] = ()) -> None:
        self._by_id: Dict[str, Vulnerability] = {}
        for vulnerability in vulnerabilities:
            self.add(vulnerability)

    # -- mutation ---------------------------------------------------------------

    def add(self, vulnerability: Vulnerability) -> None:
        """Register a vulnerability; ids must be unique."""
        if vulnerability.vuln_id in self._by_id:
            raise FaultModelError(
                f"vulnerability {vulnerability.vuln_id!r} already in catalog"
            )
        self._by_id[vulnerability.vuln_id] = vulnerability

    # -- queries ----------------------------------------------------------------

    def get(self, vuln_id: str) -> Vulnerability:
        """The vulnerability with ``vuln_id`` (raises when unknown)."""
        try:
            return self._by_id[vuln_id]
        except KeyError:
            raise FaultModelError(f"unknown vulnerability {vuln_id!r}") from None

    def all(self) -> Tuple[Vulnerability, ...]:
        """Every vulnerability, in insertion order."""
        return tuple(self._by_id.values())

    # -- exposure analysis --------------------------------------------------------

    def exposure(
        self,
        population: ReplicaPopulation,
        *,
        time: Optional[float] = None,
    ) -> Dict[str, float]:
        """Voting power exposed to each vulnerability against ``population``.

        The exposure of a vulnerability is the total power of replicas whose
        configuration contains the vulnerable component — the upper bound on
        ``f_t^i`` before considering exploit reliability.  When ``time`` is
        given, undisclosed vulnerabilities have exposure 0.
        """
        result: Dict[str, float] = {}
        for vulnerability in self._by_id.values():
            if time is not None and not vulnerability.is_exploitable_at(time):
                result[vulnerability.vuln_id] = 0.0
                continue
            result[vulnerability.vuln_id] = population.power_using_component(
                vulnerability.component
            )
        return result

    def most_damaging(
        self,
        population: ReplicaPopulation,
        *,
        count: int = 1,
        time: Optional[float] = None,
    ) -> List[Tuple[Vulnerability, float]]:
        """The ``count`` vulnerabilities exposing the most voting power."""
        if count < 0:
            raise FaultModelError(f"count must be non-negative, got {count}")
        exposure = self.exposure(population, time=time)
        ranked = sorted(
            self._by_id.values(),
            key=lambda vulnerability: (-exposure[vulnerability.vuln_id], vulnerability.vuln_id),
        )
        return [(vulnerability, exposure[vulnerability.vuln_id]) for vulnerability in ranked[:count]]

    # -- construction helpers ------------------------------------------------------

    @classmethod
    def one_per_component(
        cls,
        components: Iterable[SoftwareComponent],
        *,
        severity: Severity = Severity.HIGH,
        exploit_probability: float = 1.0,
    ) -> "VulnerabilityCatalog":
        """A catalog with exactly one vulnerability per given component.

        This is the worst-case assumption used by several experiments: every
        component *could* harbor an exploitable flaw, so the question becomes
        purely how much power each shared component concentrates.
        """
        catalog = cls()
        for index, component in enumerate(components):
            catalog.add(
                Vulnerability(
                    vuln_id=f"CVE-SYN-{index:04d}-{component.kind.value}-{component.name}",
                    component=component,
                    severity=severity,
                    exploit_probability=exploit_probability,
                )
            )
        return catalog

    @classmethod
    def for_population(
        cls,
        population: ReplicaPopulation,
        *,
        severity: Severity = Severity.HIGH,
        exploit_probability: float = 1.0,
    ) -> "VulnerabilityCatalog":
        """One vulnerability per distinct component appearing in ``population``."""
        seen: List[SoftwareComponent] = []
        for replica in population:
            for component in replica.configuration:
                if component not in seen:
                    seen.append(component)
        return cls.one_per_component(
            seen, severity=severity, exploit_probability=exploit_probability
        )

    # -- dunder --------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._by_id)

    def __iter__(self) -> Iterator[Vulnerability]:
        return iter(self._by_id.values())

    def __contains__(self, vuln_id: str) -> bool:
        return vuln_id in self._by_id

    def __repr__(self) -> str:
        return f"VulnerabilityCatalog(vulnerabilities={len(self)})"
