"""SMT fetch-policy modeling.

The fetch policy decides which thread's instructions enter the pipeline
each cycle.  In the mean-field core model each thread sees a dispatch
share of ``eta * W / (1 + sum of rival weights)``; the fetch policy
determines how much of a *rival* each co-runner is:

* **Round-robin** hands fetch slots to every thread in turn, including
  memory-stalled ones whose instructions just pile up — so every
  co-runner has full rival weight 1 and slots given to stalled threads
  are effectively wasted.
* **ICOUNT** (Tullsen et al., ISCA 1996) prioritizes threads with few
  in-flight instructions.  A memory-stalled thread holds its window's
  worth of in-flight instructions and is skipped, so it only competes
  for slots while it is actually active: its rival weight is (close to)
  its active fraction.  This is why ICOUNT lifts aggregate throughput —
  compute threads reclaim the slots stalled threads cannot use.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.microarch.config import FetchPolicy

__all__ = ["rival_weigher", "rival_weights", "water_fill"]


def rival_weigher(
    policy: FetchPolicy,
    *,
    strength: float = 2.5,
    rr_slot_waste: float = 0.5,
) -> Callable[[Sequence[float]], list[float]]:
    """:func:`rival_weights` for one policy, its waste resolved once.

    Returns ``weigh(activities) -> rival weights``.
    """
    if not 0.0 <= rr_slot_waste <= 1.0:
        raise ValueError(f"rr_slot_waste out of [0, 1]: {rr_slot_waste}")
    if policy is FetchPolicy.ROUND_ROBIN:
        waste = rr_slot_waste
    else:
        waste = 1.0 / (1.0 + strength)

    def weigh(activities: Sequence[float]) -> list[float]:
        for a in activities:
            if not -1e-9 <= a <= 1.0 + 1e-9:
                raise ValueError(f"activity out of [0, 1]: {a}")
        return [
            min(1.0, max(0.0, a) + waste * (1.0 - max(0.0, a)))
            for a in activities
        ]

    return weigh


def rival_weights(
    policy: FetchPolicy,
    activities: Sequence[float],
    *,
    strength: float = 2.5,
    rr_slot_waste: float = 0.5,
) -> list[float]:
    """How strongly each thread competes for dispatch slots.

    A thread's rival weight interpolates between its active fraction
    (an ideal policy that never wastes a slot on a stalled thread) and
    1 (a naive policy that always hands the thread its turn):

        c_j = a_j + waste * (1 - a_j)

    * ICOUNT: ``waste = 1 / (1 + strength)`` — nearly slot-exact for a
      strong ICOUNT.
    * Round-robin: ``waste = rr_slot_waste`` — stalled threads keep
      consuming a share of slots until their front-end queues fill.

    Args:
        policy: the SMT fetch policy.
        activities: per-thread fraction of time *not* stalled on memory
            (in [0, 1]).
        strength: ICOUNT selectivity (0 degenerates to waste = 1).
        rr_slot_waste: fraction of a stalled thread's slot share that
            round-robin fetch actually wastes.

    Returns:
        Per-thread rival weights in [0, 1].
    """
    weigh = rival_weigher(
        policy, strength=strength, rr_slot_waste=rr_slot_waste
    )
    return weigh(activities)


def water_fill(
    demands: Sequence[float],
    weights: Sequence[float],
    capacity: float,
) -> list[float]:
    """Allocate ``capacity`` among demands with weighted fair sharing.

    Threads demanding less than their weighted share get their demand;
    the leftover is re-split among the rest by weight (classic
    water-filling).  The result never exceeds a thread's demand and the
    total never exceeds ``capacity``.

    Used for dispatch-width sharing: demands are the IPCs each thread
    could sustain without the width constraint; the allocation is the
    IPC it actually achieves.  When total demand exceeds the width, the
    sum of allocations equals the width — the *linear bottleneck* of
    Section V.C.1b emerges exactly here.
    """
    n = len(demands)
    if len(weights) != n:
        raise ValueError(f"length mismatch: {n} demands vs {len(weights)} weights")
    if capacity < 0.0:
        raise ValueError("capacity must be non-negative")
    if any(d < 0.0 for d in demands):
        raise ValueError("demands must be non-negative")
    if any(w < 0.0 for w in weights):
        raise ValueError("weights must be non-negative")

    allocation = [0.0] * n
    active = [i for i in range(n) if demands[i] > 0.0]
    remaining = float(capacity)

    # Threads with zero weight only receive capacity left over after all
    # positively weighted threads are satisfied; treat them as epsilon
    # weight to keep the loop uniform.
    epsilon = 1e-12
    effective = [max(w, epsilon) for w in weights]

    while active and remaining > 1e-15:
        weight_sum = sum(effective[i] for i in active)
        satisfied = [
            i
            for i in active
            if demands[i] - allocation[i]
            <= remaining * effective[i] / weight_sum + 1e-15
        ]
        if satisfied:
            for i in satisfied:
                grant = demands[i] - allocation[i]
                allocation[i] = demands[i]
                remaining -= grant
                active.remove(i)
        else:
            for i in active:
                allocation[i] += remaining * effective[i] / weight_sum
            remaining = 0.0
    return allocation
