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

import math
from typing import Callable, Sequence

from repro.microarch.config import FetchPolicy

__all__ = ["rival_weigher", "rival_weights", "water_fill", "water_filler"]


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
        weights = []
        for a in activities:
            if not -1e-9 <= a <= 1.0 + 1e-9:
                raise ValueError(f"activity out of [0, 1]: {a}")
            a = a if a > 0.0 else 0.0
            c = a + waste * (1.0 - a)
            weights.append(c if c < 1.0 else 1.0)
        return weights

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


def water_filler(
    weights: Sequence[float],
) -> Callable[[Sequence[float], float], list[float]]:
    """:func:`water_fill` for fixed weights, checked once.

    Returns ``fill(demands, capacity) -> allocation`` for demand vectors
    as long as ``weights``; see :func:`water_fill` for the model.

    Raises:
        ValueError: on a weight that is negative, NaN or infinite; the
            returned ``fill`` raises on a length mismatch, or a demand
            or capacity that is negative, NaN or infinite.
    """
    n = len(weights)
    inf = math.inf
    # Threads with zero weight only receive capacity left over after all
    # positively weighted threads are satisfied; treat them as epsilon
    # weight to keep the loop uniform.
    epsilon = 1e-12
    effective = []
    for w in weights:
        if not 0.0 <= w < inf:
            raise ValueError(f"weights must be finite and >= 0, got {w}")
        effective.append(epsilon if epsilon > w else w)
    indices = range(n)

    def fill(demands: Sequence[float], capacity: float) -> list[float]:
        if len(demands) != n:
            raise ValueError(
                f"length mismatch: {len(demands)} demands vs {n} weights"
            )
        if not 0.0 <= capacity < inf:
            raise ValueError(
                f"capacity must be finite and >= 0, got {capacity}"
            )
        for d in demands:
            if not 0.0 <= d < inf:
                raise ValueError(f"demands must be finite and >= 0, got {d}")
        # A pending thread has received nothing yet, so its unmet demand
        # is its whole demand.  Each pass grants every pending demand
        # that fits its weighted share of the remainder (all judged
        # against the same remainder, granted in thread order) or, when
        # none fits, splits the remainder by weight and ends.
        allocation = [0.0] * n
        pending = []
        for i in indices:
            if demands[i] > 0.0:
                pending.append(i)
        remaining = float(capacity)
        while pending and remaining > 1e-15:
            weight_sum = 0.0
            for i in pending:
                weight_sum += effective[i]
            granted = []
            unmet = []
            for i in pending:
                if demands[i] <= remaining * effective[i] / weight_sum + 1e-15:
                    granted.append(i)
                else:
                    unmet.append(i)
            if not granted:
                for i in pending:
                    allocation[i] = remaining * effective[i] / weight_sum
                break
            for i in granted:
                allocation[i] = demands[i]
                remaining -= demands[i]
            pending = unmet
        return allocation

    return fill


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

    Used for ICOUNT's dynamic ROB sharing
    (:func:`repro.microarch.rob.window_allocator`, through
    :func:`water_filler`): demands are the threads' occupancy demands
    and the capacity is the ROB size.

    Weights are added left to right, so the split does not depend on
    the Python version's ``sum()``.

    Raises:
        ValueError: on a length mismatch, or a demand, weight or
            capacity that is negative, NaN or infinite.
    """
    if len(weights) != len(demands):
        raise ValueError(
            f"length mismatch: {len(demands)} demands vs {len(weights)} weights"
        )
    return water_filler(weights)(demands, capacity)
