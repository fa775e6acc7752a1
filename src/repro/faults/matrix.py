"""Array-backed view of a population's fault domains.

A :class:`PopulationMatrix` freezes one ``ReplicaPopulation`` +
``VulnerabilityCatalog`` pair into the structures the campaign kernels
consume: a replicas × vulnerabilities exposure matrix (rows in join order,
columns in catalog insertion order), the per-replica power vector, and the
per-vulnerability exploit-success probabilities and disclosure times.  It is
built once per (population, catalog) pair and handed to every campaign — the
scalar per-replica scans of the original fault model become masked
matrix–vector reductions on the compute backend
(:meth:`~repro.backend.base.ComputeBackend.masked_power_sums`,
:meth:`~repro.backend.base.ComputeBackend.campaign_grid`).

The exposure can be held **dense** (nested 0/1 tuples, the historical
layout) or **sparse** (a CSR :class:`~repro.backend.base.SparseExposure`).
``build(..., layout=...)`` picks automatically: real ecosystems expose each
replica to a handful of components out of many, so beyond a few million
dense cells — or past ~64k cells at ≤ 12.5% density — the matrix keeps only
the exposed cells and campaigns route through the sparse kernels.  Both
layouts produce bit-identical campaign results; everything the dense layout
additionally materializes (row tuples, per-replica ids) is either available
on demand or explicitly reported as not materialized.

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


class PopulationMatrix:
    """Exposure matrix plus power/probability vectors for campaigns."""

    def __init__(
        self,
        replica_ids: Sequence[str],
        powers: Sequence[float],
        vulnerability_ids: Sequence[str],
        success_probabilities: Sequence[float],
        disclosed_at: Sequence[float],
        exposure: Sequence[Sequence[float]],
    ) -> None:
        self._replica_ids: Optional[Tuple[str, ...]] = tuple(replica_ids)
        self._powers: Sequence[float] = tuple(float(p) for p in powers)
        self._exposure: Optional[Tuple[Tuple[float, ...], ...]] = tuple(
            tuple(1.0 if cell else 0.0 for cell in row) for row in exposure
        )
        self._sparse: Optional[SparseExposure] = None
        self._replica_count = len(self._replica_ids)
        self._init_vulnerabilities(
            vulnerability_ids, success_probabilities, disclosed_at
        )
        self._validate()
        self._replica_index: Optional[Dict[str, int]] = {
            replica_id: index for index, replica_id in enumerate(self._replica_ids)
        }
        self._finish_init()
        self._exposed_rows: Optional[Tuple[Tuple[int, ...], ...]] = tuple(
            tuple(
                row
                for row in range(self._replica_count)
                if self._exposure[row][column]
            )
            for column in range(len(self._vulnerability_ids))
        )

    # -- construction -------------------------------------------------------------

    def _init_vulnerabilities(
        self,
        vulnerability_ids: Sequence[str],
        success_probabilities: Sequence[float],
        disclosed_at: Sequence[float],
    ) -> None:
        self._vulnerability_ids: Tuple[str, ...] = tuple(vulnerability_ids)
        self._success_probabilities: Tuple[float, ...] = tuple(
            float(p) for p in success_probabilities
        )
        self._disclosed_at: Tuple[float, ...] = tuple(
            float(t) for t in disclosed_at
        )
        self._vulnerability_index: Dict[str, int] = {
            vuln_id: index for index, vuln_id in enumerate(self._vulnerability_ids)
        }

    def _finish_init(self) -> None:
        # Total power summed sequentially in join order, matching
        # ReplicaPopulation.total_power so outcomes are byte-compatible.
        total = 0.0
        for power in self._powers:
            total += power
        self._total_power = total
        # Per-backend caches of the kernel-ready arrays and of the full
        # exposed-power reduction (keyed by backend name; backends are
        # process-wide singletons so the name identifies the instance).
        self._array_cache: Dict[Tuple[str, str], object] = {}
        self._exposed_power_cache: Dict[str, Tuple[float, ...]] = {}

    @classmethod
    def _from_sparse(
        cls,
        sparse: SparseExposure,
        vulnerability_ids: Sequence[str],
        replica_ids: Optional[Sequence[str]],
    ) -> "PopulationMatrix":
        self = cls.__new__(cls)
        self._replica_ids = tuple(replica_ids) if replica_ids is not None else None
        self._powers = sparse.powers
        self._exposure = None
        self._exposed_rows = None
        self._sparse = sparse.validate()
        self._replica_count = sparse.replica_count
        self._init_vulnerabilities(
            vulnerability_ids,
            sparse.success_probabilities,
            sparse.disclosed_at,
        )
        self._validate()
        self._replica_index = (
            {
                replica_id: index
                for index, replica_id in enumerate(self._replica_ids)
            }
            if self._replica_ids is not None
            else None
        )
        self._finish_init()
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
        # Resolve the exposed columns once; both layouts are derived from the
        # same per-row index tuples, so build(dense) stays byte-identical to
        # the historical construction.
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
        vulnerability_ids = [v.vuln_id for v in vulnerabilities]
        if layout == "sparse":
            sparse = SparseExposure.from_rows(
                row_columns,
                (replica.power for replica in replicas),
                [v.exploit_probability for v in vulnerabilities],
                [v.disclosed_at for v in vulnerabilities],
            )
            return cls._from_sparse(
                sparse,
                vulnerability_ids,
                [replica.replica_id for replica in replicas],
            )
        column_count = len(vulnerabilities)
        exposure = []
        for columns in row_columns:
            row = [0.0] * column_count
            for column in columns:
                row[column] = 1.0
            exposure.append(row)
        return cls(
            replica_ids=[replica.replica_id for replica in replicas],
            powers=[replica.power for replica in replicas],
            vulnerability_ids=vulnerability_ids,
            success_probabilities=[v.exploit_probability for v in vulnerabilities],
            disclosed_at=[v.disclosed_at for v in vulnerabilities],
            exposure=exposure,
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
        sparse.validate()
        return cls._from_sparse(
            sparse, [v.vuln_id for v in vulnerabilities], replica_ids
        )

    def _validate(self) -> None:
        if len(self._powers) != self._replica_count:
            raise FaultModelError(
                f"{len(self._powers)} powers for {self._replica_count} replicas"
            )
        if len(self._success_probabilities) != len(self._vulnerability_ids) or len(
            self._disclosed_at
        ) != len(self._vulnerability_ids):
            raise FaultModelError(
                "per-vulnerability vectors must match the vulnerability ids"
            )
        if self._exposure is not None:
            if len(self._exposure) != self._replica_count:
                raise FaultModelError(
                    f"exposure has {len(self._exposure)} rows for "
                    f"{self._replica_count} replicas"
                )
            for row in self._exposure:
                if len(row) != len(self._vulnerability_ids):
                    raise FaultModelError(
                        f"exposure row has {len(row)} columns for "
                        f"{len(self._vulnerability_ids)} vulnerabilities"
                    )
        elif self._sparse is not None and self._sparse.column_count != len(
            self._vulnerability_ids
        ):
            raise FaultModelError(
                f"sparse exposure has {self._sparse.column_count} columns for "
                f"{len(self._vulnerability_ids)} vulnerabilities"
            )
        # Population and catalog already reject duplicate ids at join/add
        # time; re-checking here keeps hand-built matrices honest too.
        if self._replica_ids is not None and len(set(self._replica_ids)) != len(
            self._replica_ids
        ):
            raise FaultModelError("duplicate replica ids in population matrix")
        if len(set(self._vulnerability_ids)) != len(self._vulnerability_ids):
            raise FaultModelError("duplicate vulnerability ids in population matrix")
        if not all(math.isfinite(power) and power >= 0 for power in self._powers):
            raise FaultModelError("replica powers must be finite and non-negative")

    # -- shape and lookups ---------------------------------------------------------

    @property
    def is_sparse(self) -> bool:
        """Whether the exposure is stored CSR (no dense rows materialized)."""
        return self._sparse is not None

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
        """Per-replica powers (a tuple when dense, an ``array('d')`` when sparse)."""
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
        if self._sparse is not None:
            return self._sparse.nnz
        return sum(
            1 for row in self._exposure for cell in row if cell
        )

    @property
    def density(self) -> float:
        """Exposed-cell fraction of the dense grid."""
        cells = self.replica_count * self.vulnerability_count
        return self.nnz / cells if cells else 0.0

    def replica_index(self, replica_id: str) -> int:
        if self._replica_index is None:
            raise FaultModelError(
                "replica ids were not materialized for this sparse matrix; "
                "build with keep_replica_ids=True if attribution is needed"
            )
        try:
            return self._replica_index[replica_id]
        except KeyError:
            raise FaultModelError(f"unknown replica {replica_id!r}") from None

    def vulnerability_index(self, vuln_id: str) -> int:
        try:
            return self._vulnerability_index[vuln_id]
        except KeyError:
            raise FaultModelError(f"unknown vulnerability {vuln_id!r}") from None

    def _require_dense(self, what: str) -> None:
        if self._exposure is None:
            raise FaultModelError(
                f"{what} needs the dense exposure, which a sparse-built "
                "matrix does not materialize; use sparse_exposure() instead"
            )

    def exposed_row_indices(self, vuln_id: str) -> Tuple[int, ...]:
        """Row indices (join order) of the replicas exposed to ``vuln_id``."""
        if self._exposed_rows is None:
            column = self.vulnerability_index(vuln_id)
            sparse = self._sparse
            return tuple(
                row
                for row in range(sparse.replica_count)
                for position in range(
                    sparse.indptr[row], sparse.indptr[row + 1]
                )
                if sparse.indices[position] == column
            )
        return self._exposed_rows[self.vulnerability_index(vuln_id)]

    def exposure_rows(self) -> Tuple[Tuple[float, ...], ...]:
        """The raw 0/1 exposure matrix as nested tuples (row-major)."""
        self._require_dense("exposure_rows()")
        return self._exposure

    def is_exploitable_at(self, vuln_id: str, time: Optional[float]) -> bool:
        """Disclosure gate: ``time is None`` means "already disclosed"."""
        if time is None:
            return True
        return time >= self._disclosed_at[self.vulnerability_index(vuln_id)]

    # -- backend arrays ------------------------------------------------------------

    def exposure_array(self, backend: BackendLike = None):
        """The exposure matrix in the backend's native representation (cached)."""
        self._require_dense("exposure_array()")
        resolved = get_backend(backend)
        key = ("exposure", resolved.name)
        cached = self._array_cache.get(key)
        if cached is None:
            cached = resolved.asarray_matrix(self._exposure)
            self._array_cache[key] = cached
        return cached

    def powers_array(self, backend: BackendLike = None):
        """The power vector in the backend's native representation (cached)."""
        resolved = get_backend(backend)
        key = ("powers", resolved.name)
        cached = self._array_cache.get(key)
        if cached is None:
            cached = resolved.asarray(self._powers)
            self._array_cache[key] = cached
        return cached

    # -- sparse views --------------------------------------------------------------

    def sparse_exposure(self) -> SparseExposure:
        """The exposure as a validated CSR structure.

        Free for sparse-built matrices; dense matrices compress on first use
        (cached) so any matrix can feed the sparse kernels and engines.
        """
        if self._sparse is None:
            cached = self._array_cache.get(("sparse", ""))
            if cached is None:
                cached = SparseExposure.from_dense(
                    self._exposure,
                    self._powers,
                    self._success_probabilities,
                    self._disclosed_at,
                )
                self._array_cache[("sparse", "")] = cached
            return cached
        return self._sparse

    # -- reductions ---------------------------------------------------------------

    def exposed_power(
        self,
        *,
        backend: BackendLike = None,
        time: Optional[float] = None,
    ) -> Dict[str, float]:
        """Voting power exposed to each vulnerability (``f_t^i`` upper bounds).

        One masked matrix–vector reduction on the compute backend replaces
        the per-vulnerability population scans of
        ``VulnerabilityCatalog.exposure``; when ``time`` is given,
        vulnerabilities not yet disclosed report 0 (they cannot be
        exploited), matching the catalog semantics.  Sparse matrices reduce
        over the CSR cells only.
        """
        resolved = get_backend(backend)
        sums = self._exposed_power_cache.get(resolved.name)
        if sums is None:
            if self._sparse is not None:
                sums = tuple(
                    resolved.sparse_masked_power_sums(self._sparse)
                )
            else:
                sums = tuple(
                    resolved.masked_power_sums(
                        self.exposure_array(resolved), self.powers_array(resolved)
                    )
                )
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
