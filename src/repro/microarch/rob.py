"""ROB partitioning and instruction-window effects.

The reorder buffer bounds each thread's instruction window, which in
turn bounds its ILP (how much of the dispatch width it can use) and its
MLP (how many memory misses it overlaps).  Two partitioning schemes are
modeled, following Raasch & Reinhardt (PACT 2003):

* **static** — each of the n co-running threads gets ``rob_size / n``
  entries: isolated but inflexible (compute threads with large window
  demands are starved even when co-runners need little).
* **dynamic** — entries are granted by demand.  Under round-robin fetch
  a memory-stalled thread keeps fetching and fills the ROB (occupancy
  demand grows toward the whole ROB during stalls), squeezing everyone
  proportionally; under ICOUNT demands stay near each thread's useful
  window and spare entries are redistributed by water-filling, so no
  thread ends up below its static share.  This interaction is why
  ICOUNT + dynamic sharing is the strongest policy pair in the
  Section-VII study.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.microarch.config import FetchPolicy, RobPolicy
from repro.microarch.fetch import water_filler
from repro.microarch.params import JobTypeParams

__all__ = ["occupancy_demand", "window_allocator", "window_shares"]


def _demand_model(
    useful: Sequence[float], rob_size: int, icount: bool
) -> Callable[[Sequence[float]], list[float]]:
    """``demands(stall_fractions)``: the occupancy demands of threads
    whose useful windows are ``useful``."""
    full = float(rob_size)
    indices = range(len(useful))

    def demands(stall_fractions: Sequence[float]) -> list[float]:
        values = []
        for i in indices:
            stall_fraction = stall_fractions[i]
            if not 0.0 <= stall_fraction <= 1.0:
                raise ValueError(
                    f"stall fraction out of [0, 1]: {stall_fraction}"
                )
            if icount:
                values.append(useful[i] * (1.0 + 0.25 * stall_fraction))
            else:
                values.append(
                    (1.0 - stall_fraction) * useful[i]
                    + stall_fraction * full
                )
        return values

    return demands


def occupancy_demand(
    job: JobTypeParams,
    stall_fraction: float,
    rob_size: int,
    fetch_policy: FetchPolicy,
) -> float:
    """ROB entries a thread would occupy if unconstrained.

    With ICOUNT the thread is throttled once it holds its useful window
    (plus a small overshoot growing with stall time).  With round-robin
    fetch, stall periods let the thread run away toward the full ROB.
    """
    demands = _demand_model(
        (float(min(job.w_need, rob_size)),),
        rob_size,
        fetch_policy is FetchPolicy.ICOUNT,
    )
    return demands((stall_fraction,))[0]


def window_allocator(
    jobs: Sequence[JobTypeParams],
    rob_size: int,
    rob_policy: RobPolicy,
    fetch_policy: FetchPolicy,
) -> Callable[[Sequence[float]], list[float]]:
    """:func:`window_shares` for a fixed set of threads and policies.

    Returns ``allocate(stall_fractions) -> windows`` with each thread's
    useful window and the policy branches resolved once.
    """
    n = len(jobs)
    if n == 1:
        return lambda stall_fractions: [float(rob_size)]
    if rob_policy is RobPolicy.STATIC:
        even = rob_size / n
        return lambda stall_fractions: [even] * n

    icount = fetch_policy is FetchPolicy.ICOUNT
    demands_at = _demand_model(
        [float(min(job.w_need, rob_size)) for job in jobs], rob_size, icount
    )
    capacity = float(rob_size)
    fill = water_filler([1.0] * n)

    def allocate(stall_fractions: Sequence[float]) -> list[float]:
        demands = demands_at(stall_fractions)
        total = 0.0
        for d in demands:
            total += d
        if total <= rob_size:
            return demands
        if not icount:
            # Runaway occupancy: stalled threads hold entries hostage and
            # the squeeze lands on everyone proportionally.
            return [rob_size * d / total for d in demands]
        # ICOUNT keeps demands honest, so over-subscription resolves like
        # a fair allocator: small demands are met in full, big ones split
        # the remainder — never below the static share.
        return fill(demands, capacity)

    return allocate


def window_shares(
    jobs: Sequence[JobTypeParams],
    stall_fractions: Sequence[float],
    rob_size: int,
    rob_policy: RobPolicy,
    fetch_policy: FetchPolicy,
) -> list[float]:
    """Per-thread instruction-window sizes under the given policies.

    Static partitioning returns ``rob_size / n`` for every thread.
    Dynamic partitioning grants each thread its occupancy demand when
    the ROB is large enough, and splits proportionally to demand when
    over-subscribed.
    """
    n = len(jobs)
    if n == 0:
        return []
    if len(stall_fractions) != n:
        raise ValueError(
            f"length mismatch: {n} jobs vs {len(stall_fractions)} stalls"
        )
    allocate = window_allocator(jobs, rob_size, rob_policy, fetch_policy)
    return allocate(stall_fractions)
