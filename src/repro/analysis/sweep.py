"""Generic parameter-sweep helpers.

Every experiment in the paper-reproduction is a sweep of one metric over one
parameter (residual miners for Figure 1, abundance for Proposition 3, ...).
The helpers here run such sweeps and keep the (parameter, value) pairs
together.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import (
    Callable,
    Generic,
    Iterable,
    List,
    Mapping,
    Optional,
    Tuple,
    TypeVar,
)

from repro.core.exceptions import AnalysisError

P = TypeVar("P")
V = TypeVar("V")
K = TypeVar("K")
R = TypeVar("R")


@dataclass(frozen=True)
class SweepResult(Generic[P, V]):
    """The outcome of sweeping a function over a parameter range.

    Attributes:
        parameter_name: name of the swept parameter (for reporting).
        points: ``(parameter, value)`` pairs in sweep order.
    """

    parameter_name: str
    points: Tuple[Tuple[P, V], ...]

    def values(self) -> Tuple[V, ...]:
        return tuple(value for _, value in self.points)

    def __len__(self) -> int:
        return len(self.points)


def sweep(
    parameters: Iterable[P],
    function: Callable[[P], V],
    *,
    parameter_name: str = "parameter",
    parallel: bool = False,
    max_workers: Optional[int] = None,
) -> SweepResult[P, V]:
    """Evaluate ``function`` at every parameter value, preserving order.

    With ``parallel=True`` the points are fanned out over a
    ``concurrent.futures`` thread pool while the result order still follows
    the input order.  ``function`` must then be thread-safe and derive any
    randomness deterministically from its parameter (the Monte-Carlo callers
    seed per point), so a parallel sweep returns exactly what the serial
    sweep would.

    Being thread-based, the fan-out only buys wall-clock time when the
    per-point work releases the GIL — NumPy-backend kernels and I/O do,
    pure-Python computation does not (it runs correctly in parallel mode,
    just without speedup).
    """
    parameter_list: List[P] = list(parameters)
    if not parameter_list:
        raise AnalysisError("a sweep needs at least one parameter value")
    if parallel and len(parameter_list) > 1:
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            values = list(pool.map(function, parameter_list))
    else:
        values = [function(parameter) for parameter in parameter_list]
    return SweepResult(
        parameter_name=parameter_name,
        points=tuple(zip(parameter_list, values)),
    )


def mapping_sweep(
    items: Mapping[K, V],
    function: Callable[[int, K, V], R],
    *,
    parallel: bool = False,
    max_workers: Optional[int] = None,
) -> List[R]:
    """Evaluate ``function(index, key, value)`` over a mapping, in order.

    The shared scaffolding behind the Monte-Carlo entry points that sweep a
    family of censuses: each item gets its stable enumeration index (the
    per-point seed offset), results come back in mapping iteration order,
    and ``parallel`` / ``max_workers`` behave exactly as in :func:`sweep`.
    """
    points = [(index, key, value) for index, (key, value) in enumerate(items.items())]
    result = sweep(
        points,
        lambda point: function(*point),
        parallel=parallel,
        max_workers=max_workers,
    )
    return list(result.values())
