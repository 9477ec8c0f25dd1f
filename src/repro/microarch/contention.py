"""What the SMT and multicore contention maps share.

Both machine models solve a coschedule's steady state as the fixed point
of a map over the state vector ``[ipc_1..n, share_1..n]`` (per-job IPC
and LLC capacity share).  A :class:`ContentionMap` is that map for one
coschedule: the machine model computes every term that does not depend
on the state (full-window core CPIs, useful windows, the bus and cache
constants, ...) once when it builds the map, and each evaluation then
runs only the state-dependent equations.  The fixed-point iterate and
the diagnostic evaluation are the same equations, so a simulation
result's diagnostics are exactly the map's values at the fixed point.
"""

from __future__ import annotations

from typing import Callable, Sequence

__all__ = ["ContentionMap", "llc_misses"]


class ContentionMap:
    """One coschedule's fixed-point map, built once.

    Args:
        n: number of jobs in the coschedule.
        equations: ``equations(ipcs, shares)`` returns a tuple whose
            first two items are the next IPCs and shares (lists) and
            whose remaining items are the model's diagnostics.
        evaluation: the dataclass holding ``equations``' tuple, field
            for field; list items are stored as tuples.
    """

    __slots__ = ("n", "_equations", "_evaluation")

    def __init__(self, n: int, equations: Callable, evaluation: type) -> None:
        self.n = n
        self._equations = equations
        self._evaluation = evaluation

    def __call__(self, state: Sequence[float]) -> list[float]:
        """The next iterate ``[ipc_1..n, share_1..n]`` from ``state``."""
        n = self.n
        if len(state) != 2 * n:
            raise ValueError("state length mismatch with job count")
        values = self._equations(state[:n], state[n:])
        return values[0] + values[1]

    def evaluate(self, ipcs: Sequence[float], shares: Sequence[float]):
        """All of the model's outputs at the given estimates."""
        if len(ipcs) != self.n or len(shares) != self.n:
            raise ValueError("state length mismatch with job count")
        return self._evaluation(
            *(
                tuple(value) if isinstance(value, list) else value
                for value in self._equations(ipcs, shares)
            )
        )


def llc_misses(
    curves: Sequence[Callable[[float], float]],
    ipcs: Sequence[float],
    shares: Sequence[float],
) -> tuple[list[float], float]:
    """Per-job LLC MPKI at the given shares, and the total miss rate.

    Args:
        curves: each job's miss curve
            (:meth:`~repro.microarch.params.JobTypeParams.llc_mpki`).
        ipcs: per-job IPC estimates.
        shares: per-job LLC capacity shares.

    Returns:
        ``(mpkis, misses_per_cycle)``, the second being the sum over
        jobs of IPC x MPKI / 1000, added up left to right.
    """
    mpkis = [curve(share) for curve, share in zip(curves, shares)]
    misses = 0.0
    for ipc, mpki in zip(ipcs, mpkis):
        misses += ipc * mpki
    return mpkis, misses / 1000.0
