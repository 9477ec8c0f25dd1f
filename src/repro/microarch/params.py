"""Per-job-type model parameters.

A :class:`JobTypeParams` is the synthetic analogue of one SPEC CPU2006
benchmark: a handful of mechanistic parameters from which the model
derives the job's performance alone and in any coschedule.  The
parameters are the usual interval-model quantities: dispatch-limited CPI,
branch misprediction rate, a shared-cache miss-rate curve, memory-level
parallelism, and the instruction-window demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from repro.errors import ConfigurationError

__all__ = ["JobTypeParams"]


@dataclass(frozen=True)
class JobTypeParams:
    """Mechanistic parameters of one job type (synthetic benchmark).

    Attributes:
        name: identifier (mirrors the Table-I benchmark it stands in for).
        category: coarse class used in docs/examples ("compute",
            "memory", "balanced", "branch").
        cpi_base: dispatch-limited CPI on the reference 4-wide core with
            perfect caches and a full window (>= 1/width).
        ilp_sens: relative CPI inflation when the instruction window
            shrinks to zero (linear in the window shortfall).
        w_need: window size (ROB entries) needed for full ILP and MLP.
        br_mpki: branch mispredictions per kilo-instruction.
        cpi_short: non-overlapped short-stall CPI component (L2/L3 hits,
            long-latency units).
        mpki_inf: LLC misses per kilo-instruction with unbounded cache.
        mpki_amp: additional MPKI as the cache allocation goes to zero.
        c_half_mb: cache allocation at which half of ``mpki_amp`` is
            eliminated (the knee of the miss curve).
        gamma: steepness of the miss curve.
        mlp: memory-level parallelism with a full window (>= 1); memory
            stall per miss is the memory latency divided by the
            effective MLP.
    """

    name: str
    category: str
    cpi_base: float
    ilp_sens: float
    w_need: int
    br_mpki: float
    cpi_short: float
    mpki_inf: float
    mpki_amp: float
    c_half_mb: float
    gamma: float
    mlp: float

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("job type needs a non-empty name")
        for field in fields(self):
            value = getattr(self, field.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigurationError(
                    f"{self.name}: {field.name} must be finite, got {value!r}"
                )
        checks = [
            ("cpi_base", self.cpi_base, 0.0),
            ("w_need", float(self.w_need), 0.0),
            ("cpi_short", self.cpi_short, -1e-12),
            ("br_mpki", self.br_mpki, -1e-12),
            ("mpki_inf", self.mpki_inf, -1e-12),
            ("mpki_amp", self.mpki_amp, -1e-12),
            ("c_half_mb", self.c_half_mb, 0.0),
            ("gamma", self.gamma, 0.0),
        ]
        for label, value, minimum in checks:
            if value <= minimum:
                raise ConfigurationError(
                    f"{self.name}: {label} must be > {max(minimum, 0.0):g}, "
                    f"got {value!r}"
                )
        if self.ilp_sens < 0.0:
            raise ConfigurationError(f"{self.name}: ilp_sens must be >= 0")
        if self.mlp < 1.0:
            raise ConfigurationError(f"{self.name}: mlp must be >= 1")

    def llc_mpki(self, cache_mb: float) -> float:
        """LLC misses per kilo-instruction at a cache allocation.

        Smooth, monotonically decreasing curve::

            mpki(C) = mpki_inf + mpki_amp / (1 + (C / c_half)^gamma)

        ``cache_mb`` may be zero (fully evicted job), giving the maximum
        ``mpki_inf + mpki_amp``.
        """
        if cache_mb < 0.0:
            raise ValueError(f"cache allocation must be >= 0, got {cache_mb}")
        return self.mpki_inf + self.mpki_amp / (
            1.0 + (cache_mb / self.c_half_mb) ** self.gamma
        )

    @property
    def memory_bound(self) -> bool:
        """Heuristic flag: does this job miss the LLC a lot even warm?"""
        return self.mpki_inf + 0.5 * self.mpki_amp > 5.0

    def window_scaling(self, window: float) -> float:
        """Fraction of full ILP/MLP available with ``window`` ROB entries."""
        if window <= 0.0:
            return 0.0
        return min(1.0, window / float(self.w_need))

    def core_cpi(self, scale: float, branch_penalty_cycles: float) -> float:
        """Dispatch-and-front-end CPI at a window scaling (see
        :meth:`window_scaling`): dispatch-limited CPI inflated by the
        ILP lost to a short window, plus branch refills and short stalls."""
        return (
            self.cpi_base * (1.0 + self.ilp_sens * (1.0 - scale))
            + self.br_mpki / 1000.0 * branch_penalty_cycles
            + self.cpi_short
        )

    def effective_mlp(self, scale: float) -> float:
        """Memory-level parallelism at a window scaling."""
        return 1.0 + (self.mlp - 1.0) * scale
