"""Memory-bus contention model.

All LLC misses of all contexts are serviced by one memory bus.  Each
miss occupies the bus for a fixed service time (``bus_service_cycles``),
so the bus is an M/D/1-style server: at utilization ``U`` the expected
queueing delay per miss is ``S * U / (2 * (1 - U))``, which is added to
the uncontended memory latency.

This is the mechanism behind two of the paper's observations: streaming
jobs (libquantum-like) degrade everyone's memory latency, and memory
bandwidth is a candidate *linear bottleneck* (Section V.C.1b) — when the
bus saturates, each job's rate becomes proportional to its share of bus
slots.
"""

from __future__ import annotations

import math
from typing import Callable

__all__ = ["bus_model", "bus_utilization", "bus_queueing_delay"]


def bus_model(
    service_cycles: float, *, max_utilization: float = 0.95
) -> Callable[[float], tuple[float, float]]:
    """The bus as a function of total miss rate, its constants checked once.

    Args:
        service_cycles: bus occupancy per miss.
        max_utilization: clamp keeping the queueing delay finite; the
            fixed point self-limits below this in practice because a
            slower memory system lowers IPCs and hence the miss rate.

    Returns:
        ``model(miss_rate_per_cycle) -> (utilization, queueing_delay)``,
        where the miss rate is the sum over jobs of IPC x MPKI / 1000,
        the utilization is clamped below 1 and the delay is the expected
        cycles a miss waits for the bus.  A negative miss rate raises
        ``ValueError``; a NaN passes through, so inside a contention map
        a non-finite iterate is left to the fixed-point solver's check.
    """
    if service_cycles <= 0.0:
        raise ValueError("service time must be positive")

    def model(miss_rate_per_cycle: float) -> tuple[float, float]:
        if miss_rate_per_cycle < 0.0:
            raise ValueError("miss rate must be non-negative")
        u = miss_rate_per_cycle * service_cycles
        u = max_utilization if max_utilization < u else u
        return u, service_cycles * u / (2.0 * (1.0 - u))

    return model


def _checked_model(
    miss_rate_per_cycle: float, service_cycles: float, max_utilization: float
) -> tuple[float, float]:
    """:func:`bus_model` at one finite miss rate."""
    if not math.isfinite(miss_rate_per_cycle):
        raise ValueError(
            f"miss rate must be finite, got {miss_rate_per_cycle}"
        )
    model = bus_model(service_cycles, max_utilization=max_utilization)
    return model(miss_rate_per_cycle)


def bus_utilization(
    miss_rate_per_cycle: float,
    service_cycles: float,
    *,
    max_utilization: float = 0.95,
) -> float:
    """Bus utilization for a total miss rate, clamped below 1
    (see :func:`bus_model`); a non-finite miss rate raises ``ValueError``."""
    return _checked_model(
        miss_rate_per_cycle, service_cycles, max_utilization
    )[0]


def bus_queueing_delay(
    miss_rate_per_cycle: float,
    service_cycles: float,
    *,
    max_utilization: float = 0.95,
) -> float:
    """Expected queueing delay (cycles) a miss waits for the bus
    (see :func:`bus_model`); a non-finite miss rate raises ``ValueError``."""
    return _checked_model(
        miss_rate_per_cycle, service_cycles, max_utilization
    )[1]
