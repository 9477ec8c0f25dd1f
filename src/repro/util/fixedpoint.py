"""Damped fixed-point iteration driver.

The microarchitectural contention models (shared cache shares, memory-bus
utilization, SMT width shares) are coupled non-linear equations solved as
a fixed point ``x = f(x)``.  This module provides a single, well-tested
driver with under-relaxation so every model converges the same way.

A solve gives up early, raising :class:`~repro.errors.ConvergenceError`
before its iteration budget is spent, in two cases:

* **Non-finite iterate.** The first NaN or infinite map value or
  residual ends the solve at that iteration.  Blended into the iterate,
  a NaN or infinity stays there for any damping below 1, so the solve
  could only spin out its budget.  A non-finite start vector is
  rejected up front (``ValueError``), so every map sees finite states.
* **Stalled contraction.** The best (lowest) residual is tracked per
  window of ``_STALL_WINDOW`` iterations.  At the end of every window
  from the second on, the solve is abandoned if that window's best
  residual is above ``_STALL_RATIO`` times the previous window's best:
  the iteration is circling (a limit cycle) rather than contracting.

Giving up early never changes the value a successful solve returns,
because the iterates are computed exactly as before and the checks only
decide when to stop.  Callers that retry with another damping factor
(``repro.microarch.simulator``'s damping ladder) restart from the same
start vector, so abandoning a solve that would have exhausted its budget
anyway yields the same final result, only sooner.  The window and ratio
are set so that no coschedule of the default roster that converges is
abandoned: the worst window-to-window ratio seen on a converging solve
is about 0.68, against the 0.9 threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.errors import ConvergenceError

__all__ = ["FixedPointResult", "solve_fixed_point"]

# Stall detection (see the module docstring): iterations per window, and
# the factor by which a window's best residual must beat the previous
# window's for the solve to count as still contracting.
_STALL_WINDOW = 100
_STALL_RATIO = 0.9


@dataclass(frozen=True)
class FixedPointResult:
    """Outcome of a fixed-point solve.

    Attributes:
        value: the converged state vector.
        iterations: number of iterations performed.
        residual: final max-norm difference between successive iterates.
    """

    value: tuple[float, ...]
    iterations: int
    residual: float


def solve_fixed_point(
    func: Callable[[Sequence[float]], Sequence[float]],
    start: Sequence[float],
    *,
    damping: float = 0.5,
    tolerance: float = 1e-9,
    max_iterations: int = 500,
) -> FixedPointResult:
    """Solve ``x = func(x)`` by damped (under-relaxed) iteration.

    The update is ``x <- (1 - damping) * x + damping * func(x)``; the
    relative max-norm of the raw update is used as the convergence
    criterion, so the result is insensitive to the damping factor.

    Args:
        func: the fixed-point map; must return a sequence of the same
            length as its input.
        start: initial iterate.
        damping: fraction of the new iterate blended in each step,
            in (0, 1].
        tolerance: relative max-norm convergence threshold.
        max_iterations: iteration budget before ConvergenceError.

    Raises:
        ConvergenceError: if the iteration does not converge: its budget
            runs out, an iterate or residual is non-finite, or the
            residual stops contracting (see the module docstring).  The
            message names which.
        ValueError: if damping is outside (0, 1], tolerance is negative
            or NaN, max_iterations is below 1, or start is empty or
            holds a NaN or infinite entry.
    """
    if not 0.0 < damping <= 1.0:
        raise ValueError(f"damping must be in (0, 1], got {damping}")
    if not tolerance >= 0.0:
        raise ValueError(f"tolerance must be >= 0, got {tolerance}")
    if max_iterations < 1:
        raise ValueError(f"max_iterations must be >= 1, got {max_iterations}")
    x = [float(v) for v in start]
    if not x:
        raise ValueError("start vector must be non-empty")
    if not all(math.isfinite(v) for v in x):
        raise ValueError(f"start vector must be finite, got {x}")

    keep = 1.0 - damping
    residual = math.inf
    window_best = math.inf
    previous_best = math.inf
    size = len(x)
    indices = range(size)
    for iteration in range(1, max_iterations + 1):
        fx = func(x)
        if len(fx) != size:
            raise ValueError(
                f"fixed-point map changed dimension: {size} -> {len(fx)}"
            )
        # One pass for the relative max-norm residual, finiteness and
        # the blended iterate: a non-finite map value makes its term,
        # and so the residual, NaN or infinite, and either fails the
        # ``< inf`` test below before the blend is used.
        residual = 0.0
        blended = []
        for i in indices:
            new = fx[i]
            old = x[i]
            # |new - old| / max(1, |old|); a division by 1 changes
            # nothing, so it is left out.
            term = abs(new - old)
            if old > 1.0:
                term /= old
            elif old < -1.0:
                term /= -old
            if term > residual or term != term:
                residual = term
            blended.append(keep * old + damping * new)
        if not residual < math.inf:
            raise ConvergenceError(
                f"non-finite iterate at iteration {iteration} "
                f"(residual {residual:.3e})"
            )
        x = blended
        if residual <= tolerance:
            return FixedPointResult(
                value=tuple(x), iterations=iteration, residual=residual
            )
        if residual < window_best:
            window_best = residual
        if iteration % _STALL_WINDOW == 0:
            if window_best > _STALL_RATIO * previous_best:
                raise ConvergenceError(
                    f"stalled at iteration {iteration}: best residual "
                    f"{window_best:.3e} over the last {_STALL_WINDOW} "
                    f"iterations, previous window {previous_best:.3e} "
                    f"(tolerance {tolerance:.3e})"
                )
            previous_best = window_best
            window_best = math.inf
    raise ConvergenceError(
        f"budget exhausted: no convergence in {max_iterations} iterations "
        f"(residual {residual:.3e}, tolerance {tolerance:.3e})"
    )
