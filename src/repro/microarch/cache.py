"""Shared-LLC capacity contention.

Co-running jobs compete for last-level-cache capacity.  We use the
standard miss-driven-insertion model: in steady state each job holds a
fraction of the cache proportional to the rate at which it inserts lines,
which is its miss *bandwidth* (IPC x MPKI).  A configurable floor keeps
every job from being fully evicted (real LRU caches never hand 100% of
the capacity to one thread).

The allocation feeds each job's miss-rate curve
(:meth:`repro.microarch.params.JobTypeParams.llc_mpki`), closing the loop
inside the coschedule fixed point.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

__all__ = ["cache_shares", "share_allocator"]


def share_allocator(
    n: int,
    total_mb: float,
    *,
    floor_fraction: float = 0.03,
    exponent: float = 0.6,
) -> Callable[[Sequence[float]], list[float]]:
    """:func:`cache_shares` for ``n`` jobs, its constants checked once.

    Returns ``allocate(pressures) -> shares`` for length-``n`` pressure
    vectors; see :func:`cache_shares` for the arguments and the model.
    A negative pressure raises ``ValueError``; a NaN passes through, so
    inside a contention map a non-finite iterate is left to the
    fixed-point solver's check.
    """
    if total_mb <= 0.0:
        raise ValueError(f"total_mb must be positive, got {total_mb}")
    if exponent <= 0.0:
        raise ValueError(f"exponent must be positive, got {exponent}")
    if n > 1 and floor_fraction * n >= 1.0:
        raise ValueError(
            f"floor_fraction {floor_fraction} infeasible for {n} jobs"
        )
    even = total_mb / n
    floor = floor_fraction * total_mb
    distributable = total_mb - n * floor

    if n == 1:

        def allocate(pressures: Sequence[float]) -> list[float]:
            for p in pressures:
                if p < 0.0:
                    raise ValueError("pressures must be non-negative")
            return [total_mb]

        return allocate

    def allocate(pressures: Sequence[float]) -> list[float]:
        # One pass checks, raises to the power and adds left to right.
        scaled = []
        total_pressure = 0.0
        for p in pressures:
            if p < 0.0:
                raise ValueError("pressures must be non-negative")
            p **= exponent
            scaled.append(p)
            total_pressure += p
        if total_pressure <= 0.0:
            return [even] * n
        shares = []
        for p in scaled:
            shares.append(floor + distributable * p / total_pressure)
        return shares

    return allocate


def cache_shares(
    pressures: Sequence[float],
    total_mb: float,
    *,
    floor_fraction: float = 0.03,
    exponent: float = 0.6,
) -> list[float]:
    """Split ``total_mb`` of cache among jobs by insertion pressure.

    Args:
        pressures: per-job insertion pressure (misses per cycle, i.e.
            IPC x MPKI / 1000; any non-negative scale works since only
            ratios matter).
        total_mb: shared cache capacity.
        floor_fraction: minimum fraction of the cache each job keeps.
        exponent: concavity of the pressure->occupancy relation.  With
            1.0 occupancy is proportional to miss bandwidth; real LRU
            caches are less winner-takes-all because the victim job's
            reuse hits also refresh its lines, which a sub-linear
            exponent captures (a streaming job does not fully evict a
            cache-friendly co-runner).

    Returns:
        Per-job capacity allocations summing to ``total_mb``.

    Raises:
        ValueError: if a pressure is negative, NaN or infinite.

    A single job gets the whole cache.  With all-zero pressures the
    split is even (jobs that never miss do not fight for capacity, and
    their allocation is irrelevant to their performance).
    """
    n = len(pressures)
    if n == 0:
        return []
    for p in pressures:
        if not math.isfinite(p):
            raise ValueError(f"pressures must be finite, got {p}")
    allocate = share_allocator(
        n,
        total_mb,
        floor_fraction=floor_fraction,
        exponent=exponent,
    )
    return allocate(pressures)
