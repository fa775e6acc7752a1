"""Array-backed view of a population's fault domains.

A :class:`PopulationMatrix` freezes one ``ReplicaPopulation`` +
``VulnerabilityCatalog`` pair into the structures the campaign kernels
consume: a replicas × vulnerabilities exposure (rows in join order, columns
in catalog insertion order), the per-replica power vector, and the
per-vulnerability exploit-success probabilities and disclosure times.  It is
built once per (population, catalog) pair and handed to every campaign — the
scalar per-replica scans of the original fault model become reductions on
the compute backend
(:meth:`~repro.backend.base.ComputeBackend.sparse_masked_power_sums`,
:meth:`~repro.backend.base.ComputeBackend.sparse_grid_partials`).

Every matrix holds its exposure as a CSR
:class:`~repro.backend.base.SparseExposure`, the one layout the kernels
take, whatever ``build(..., layout=...)`` chose.  The layout only decides
what else is stored: a ``"dense"`` matrix also keeps the nested 0/1 row
tuples (:meth:`PopulationMatrix.exposure_rows`), a ``"sparse"`` one keeps
nothing else and may drop the replica ids.  ``"auto"`` keeps every
shipped scenario dense and goes sparse beyond a few million cells — or past
~64k cells at ≤ 12.5% density.  Both layouts produce bit-identical results.

The matrix is a *snapshot*: later mutations of the population (join/leave,
power updates) or catalog (``add``) are not reflected.  Rebuild after
mutating, exactly as you would re-take a census.
"""

from __future__ import annotations

import array as _stdlib_array
import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.backend import get_backend
from repro.backend.base import SparseExposure
from repro.backend.selection import BackendLike
from repro.core.exceptions import FaultModelError
from repro.core.population import Replica, ReplicaPopulation
from repro.faults.catalog import VulnerabilityCatalog

#: Accepted values of ``build(..., layout=...)``.
MATRIX_LAYOUTS = ("auto", "dense", "sparse")

#: ``layout="auto"`` goes sparse above this many dense cells outright …
AUTO_SPARSE_CELLS = 1 << 22
#: … or above this many cells when the exposed-cell density is at most
#: :data:`AUTO_SPARSE_DENSITY`.
AUTO_SPARSE_MIN_CELLS = 1 << 16
AUTO_SPARSE_DENSITY = 0.125


def _auto_layout(replica_count: int, column_count: int, nnz: int) -> str:
    """The ``layout="auto"`` density heuristic, shared by every build path."""
    cells = replica_count * column_count
    if cells > AUTO_SPARSE_CELLS:
        return "sparse"
    if cells > AUTO_SPARSE_MIN_CELLS and cells and nnz / cells <= AUTO_SPARSE_DENSITY:
        return "sparse"
    return "dense"


def _validate_dense_inputs(
    replica_ids: Sequence[str],
    powers: Sequence[float],
    vulnerability_ids: Sequence[str],
    success_probabilities: Sequence[float],
    disclosed_at: Sequence[float],
    rows: Sequence[Sequence[float]],
) -> None:
    """The hand-built (dense constructor) matrix's shape and value checks.

    Population and catalog already reject duplicate ids at join/add time;
    re-checking here keeps hand-built matrices honest too.
    """
    if len(powers) != len(replica_ids):
        raise FaultModelError(f"{len(powers)} powers for {len(replica_ids)} replicas")
    if len(success_probabilities) != len(vulnerability_ids) or len(
        disclosed_at
    ) != len(vulnerability_ids):
        raise FaultModelError(
            "per-vulnerability vectors must match the vulnerability ids"
        )
    if len(rows) != len(replica_ids):
        raise FaultModelError(
            f"exposure has {len(rows)} rows for {len(replica_ids)} replicas"
        )
    for row in rows:
        if len(row) != len(vulnerability_ids):
            raise FaultModelError(
                f"exposure row has {len(row)} columns for "
                f"{len(vulnerability_ids)} vulnerabilities"
            )
    if len(set(replica_ids)) != len(replica_ids):
        raise FaultModelError("duplicate replica ids in population matrix")
    if len(set(vulnerability_ids)) != len(vulnerability_ids):
        raise FaultModelError("duplicate vulnerability ids in population matrix")
    if not all(math.isfinite(power) and power >= 0 for power in powers):
        raise FaultModelError("replica powers must be finite and non-negative")


class PopulationMatrix:
    """CSR exposure plus power/probability vectors for campaigns."""

    def __init__(
        self,
        replica_ids: Sequence[str],
        powers: Sequence[float],
        vulnerability_ids: Sequence[str],
        success_probabilities: Sequence[float],
        disclosed_at: Sequence[float],
        exposure: Sequence[Sequence[float]],
    ) -> None:
        """A dense-layout matrix from a row-major 0/1 exposure matrix."""
        rows = tuple(tuple(1.0 if cell else 0.0 for cell in row) for row in exposure)
        _validate_dense_inputs(
            replica_ids,
            powers,
            vulnerability_ids,
            success_probabilities,
            disclosed_at,
            rows,
        )
        self._setup(
            SparseExposure.from_dense(
                rows, powers, success_probabilities, disclosed_at
            ),
            vulnerability_ids,
            replica_ids,
            rows,
        )

    def _setup(
        self,
        sparse: SparseExposure,
        vulnerability_ids: Sequence[str],
        replica_ids: Optional[Sequence[str]],
        exposure: Optional[Tuple[Tuple[float, ...], ...]],
    ) -> None:
        self._sparse = sparse.validate()
        self._exposure = exposure
        self._exposed_rows: Optional[Tuple[Tuple[int, ...], ...]] = None
        self._replica_ids = tuple(replica_ids) if replica_ids is not None else None
        self._powers = sparse.powers
        self._replica_count = sparse.replica_count
        self._vulnerability_ids: Tuple[str, ...] = tuple(vulnerability_ids)
        self._success_probabilities: Tuple[float, ...] = tuple(
            float(p) for p in sparse.success_probabilities
        )
        self._disclosed_at: Tuple[float, ...] = tuple(
            float(t) for t in sparse.disclosed_at
        )
        self._vulnerability_index: Dict[str, int] = {
            vuln_id: index for index, vuln_id in enumerate(self._vulnerability_ids)
        }
        # Total power summed sequentially in join order, matching
        # ReplicaPopulation.total_power so outcomes are byte-compatible.
        total = 0.0
        for power in self._powers:
            total += power
        self._total_power = total
        # Per-backend cache of the full exposed-power reduction (keyed by
        # backend name; backends are process-wide singletons).
        self._exposed_power_cache: Dict[str, Tuple[float, ...]] = {}

    @classmethod
    def _from_sparse(
        cls,
        sparse: SparseExposure,
        vulnerability_ids: Sequence[str],
        replica_ids: Optional[Sequence[str]],
        exposure: Optional[Tuple[Tuple[float, ...], ...]] = None,
    ) -> "PopulationMatrix":
        self = cls.__new__(cls)
        self._setup(sparse, vulnerability_ids, replica_ids, exposure)
        return self

    @classmethod
    def build(
        cls,
        population: ReplicaPopulation,
        catalog: VulnerabilityCatalog,
        *,
        layout: str = "auto",
    ) -> "PopulationMatrix":
        """Snapshot ``population`` × ``catalog`` into a campaign matrix.

        Exposure cell ``(r, v)`` is 1 exactly when replica ``r``'s
        configuration contains vulnerability ``v``'s component — the same
        fault-domain query ``ReplicaPopulation.replicas_using_component``
        answers, resolved once for every pair.  ``layout`` selects the
        storage: ``"dense"`` and ``"sparse"`` force it, ``"auto"`` applies
        the density heuristic (every pre-sparse workload stays dense).
        """
        if layout not in MATRIX_LAYOUTS:
            raise FaultModelError(
                f"matrix layout must be one of {MATRIX_LAYOUTS}, got {layout!r}"
            )
        replicas = population.replicas()
        vulnerabilities = catalog.all()
        if not replicas:
            raise FaultModelError("cannot build a matrix for an empty population")
        # Resolve the exposed columns once: the CSR view and, for the dense
        # layout, the stored 0/1 rows both come from these index tuples.
        components = [v.component for v in vulnerabilities]
        row_columns = [
            tuple(
                column
                for column, component in enumerate(components)
                if replica.configuration.has_component(component)
            )
            for replica in replicas
        ]
        if layout == "auto":
            nnz = sum(len(columns) for columns in row_columns)
            layout = _auto_layout(len(replicas), len(vulnerabilities), nnz)
        exposure = None
        if layout == "dense":
            exposure = []
            for columns in row_columns:
                row = [0.0] * len(vulnerabilities)
                for column in columns:
                    row[column] = 1.0
                exposure.append(tuple(row))
        return cls._from_sparse(
            SparseExposure.from_rows(
                row_columns,
                (replica.power for replica in replicas),
                [v.exploit_probability for v in vulnerabilities],
                [v.disclosed_at for v in vulnerabilities],
            ),
            [v.vuln_id for v in vulnerabilities],
            [replica.replica_id for replica in replicas],
            tuple(exposure) if exposure is not None else None,
        )

    @classmethod
    def from_replica_chunks(
        cls,
        chunks: Iterable[Sequence[Replica]],
        catalog: VulnerabilityCatalog,
        *,
        keep_replica_ids: bool = False,
    ) -> "PopulationMatrix":
        """Stream replica chunks straight into a sparse matrix.

        The bounded-memory build path: chunks (e.g. from
        :func:`repro.datasets.generators.stream_replica_chunks`) are consumed
        one at a time and only the CSR structure accumulates — the population
        itself is never materialized.  Replica ids are dropped by default
        (10⁶ id strings dwarf the CSR arrays); pass ``keep_replica_ids=True``
        when per-replica attribution is worth the memory.
        """
        vulnerabilities = catalog.all()
        components = [v.component for v in vulnerabilities]
        indptr = _stdlib_array.array("q", [0])
        indices = _stdlib_array.array("q")
        powers = _stdlib_array.array("d")
        replica_ids: Optional[List[str]] = [] if keep_replica_ids else None
        # Distinct configurations are few (the product of market sizes), so
        # the exposed-column resolution caches per configuration value.
        columns_cache: Dict[object, Tuple[int, ...]] = {}
        for chunk in chunks:
            for replica in chunk:
                configuration = replica.configuration
                columns = columns_cache.get(configuration)
                if columns is None:
                    columns = tuple(
                        column
                        for column, component in enumerate(components)
                        if configuration.has_component(component)
                    )
                    columns_cache[configuration] = columns
                indices.extend(columns)
                indptr.append(len(indices))
                powers.append(float(replica.power))
                if replica_ids is not None:
                    replica_ids.append(replica.replica_id)
        if len(indptr) == 1:
            raise FaultModelError("cannot build a matrix for an empty population")
        sparse = SparseExposure(
            indptr=indptr,
            indices=indices,
            powers=powers,
            success_probabilities=tuple(
                v.exploit_probability for v in vulnerabilities
            ),
            disclosed_at=tuple(v.disclosed_at for v in vulnerabilities),
        )
        return cls._from_sparse(
            sparse, [v.vuln_id for v in vulnerabilities], replica_ids
        )

    # -- shape and lookups ---------------------------------------------------------

    @property
    def is_sparse(self) -> bool:
        """Whether the matrix was built sparse (no dense rows stored)."""
        return self._exposure is None

    @property
    def replica_ids(self) -> Tuple[str, ...]:
        if self._replica_ids is None:
            raise FaultModelError(
                "replica ids were not materialized for this sparse matrix; "
                "build with keep_replica_ids=True if attribution is needed"
            )
        return self._replica_ids

    @property
    def vulnerability_ids(self) -> Tuple[str, ...]:
        return self._vulnerability_ids

    @property
    def replica_count(self) -> int:
        return self._replica_count

    @property
    def vulnerability_count(self) -> int:
        return len(self._vulnerability_ids)

    @property
    def powers(self) -> Sequence[float]:
        """Per-replica powers, the CSR view's ``array('d')``."""
        return self._powers

    @property
    def success_probabilities(self) -> Tuple[float, ...]:
        return self._success_probabilities

    @property
    def total_power(self) -> float:
        """``n_t`` — total voting power of the snapshot."""
        return self._total_power

    @property
    def nnz(self) -> int:
        """Number of exposed (replica, vulnerability) cells."""
        return self._sparse.nnz

    @property
    def density(self) -> float:
        """Exposed-cell fraction of the dense grid."""
        cells = self.replica_count * self.vulnerability_count
        return self.nnz / cells if cells else 0.0

    def vulnerability_index(self, vuln_id: str) -> int:
        try:
            return self._vulnerability_index[vuln_id]
        except KeyError:
            raise FaultModelError(f"unknown vulnerability {vuln_id!r}") from None

    def exposed_row_indices(self, vuln_id: str) -> Tuple[int, ...]:
        """Row indices (join order) of the replicas exposed to ``vuln_id``.

        The first call transposes the CSR view into per-column row tuples
        (ascending) in one pass; later calls are lookups.
        """
        column = self.vulnerability_index(vuln_id)
        if self._exposed_rows is None:
            rows: Tuple[List[int], ...] = tuple(
                [] for _ in range(self.vulnerability_count)
            )
            indptr, indices = self._sparse.indptr, self._sparse.indices
            for row in range(self._replica_count):
                for position in range(indptr[row], indptr[row + 1]):
                    rows[indices[position]].append(row)
            self._exposed_rows = tuple(tuple(column_rows) for column_rows in rows)
        return self._exposed_rows[column]

    def exposure_rows(self) -> Tuple[Tuple[float, ...], ...]:
        """The stored 0/1 exposure matrix as nested tuples (row-major)."""
        if self._exposure is None:
            raise FaultModelError(
                "exposure_rows() needs the dense exposure, which a sparse-built "
                "matrix does not store; use sparse_exposure() instead"
            )
        return self._exposure

    def is_exploitable_at(self, vuln_id: str, time: Optional[float]) -> bool:
        """Disclosure gate: ``time is None`` means "already disclosed"."""
        if time is None:
            return True
        return time >= self._disclosed_at[self.vulnerability_index(vuln_id)]

    def sparse_exposure(self) -> SparseExposure:
        """The exposure as a validated CSR structure, the kernels' one layout."""
        return self._sparse

    # -- reductions ---------------------------------------------------------------

    def exposed_power(
        self,
        *,
        backend: BackendLike = None,
        time: Optional[float] = None,
    ) -> Dict[str, float]:
        """Voting power exposed to each vulnerability (``f_t^i`` upper bounds).

        One reduction over the CSR cells on the compute backend replaces the
        per-vulnerability population scans of
        ``VulnerabilityCatalog.exposure``; it adds in ascending row order on
        every backend, so the sums are bit-identical across backends.  When
        ``time`` is given, vulnerabilities not yet disclosed report 0 (they
        cannot be exploited), matching the catalog semantics.
        """
        resolved = get_backend(backend)
        sums = self._exposed_power_cache.get(resolved.name)
        if sums is None:
            sums = tuple(resolved.sparse_masked_power_sums(self._sparse))
            self._exposed_power_cache[resolved.name] = sums
        return {
            vuln_id: (
                0.0
                if time is not None and time < self._disclosed_at[index]
                else sums[index]
            )
            for index, vuln_id in enumerate(self._vulnerability_ids)
        }

    def most_damaging(
        self,
        count: int,
        *,
        backend: BackendLike = None,
        time: Optional[float] = None,
    ) -> Tuple[Tuple[str, float], ...]:
        """The ``count`` vulnerabilities exposing the most voting power.

        Ranking (descending exposure, id as tie-break) matches
        ``VulnerabilityCatalog.most_damaging`` so the refactored worst-case
        campaign picks the same targets as the scalar implementation.
        """
        if count < 0:
            raise FaultModelError(f"count must be non-negative, got {count}")
        exposure = self.exposed_power(backend=backend, time=time)
        ranked = sorted(exposure.items(), key=lambda item: (-item[1], item[0]))
        return tuple(ranked[:count])

    # -- dunder -------------------------------------------------------------------

    def __repr__(self) -> str:
        layout = "sparse" if self.is_sparse else "dense"
        return (
            f"PopulationMatrix(replicas={self.replica_count}, "
            f"vulnerabilities={self.vulnerability_count}, "
            f"layout={layout}, "
            f"total_power={self._total_power:.6g})"
        )
