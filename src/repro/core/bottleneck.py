"""Linear-bottleneck analysis (Section V.C.1b).

A *linear bottleneck* is a fully utilized shared resource that every
job's execution rate is proportional to its share of: ``r_b(s) =
f_b(s) * R_b`` with ``sum_b f_b(s) = 1``.  Then for every coschedule

    sum_b  r_b(s) / R_b  =  1,

and the average throughput is scheduler-independent:
``AT = N / sum_b (1 / R_b)`` (Equation 7).

Real machines are never exactly linear, so the paper fits the best
``R_b`` in the least-squares sense and uses the residual as a distance
from the ideal: small error => scheduling cannot matter much.  Figure 3
plots throughput variability against this error.

The fit is linear in ``z_b = 1 / R_b``: minimize ``||M z - 1||^2`` with
``M[s, b] = r_b(s)``, solved with a NumPy least-squares call plus a
non-negativity projection (a negative ``z_b`` has no physical meaning).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.workload import Workload
from repro.microarch.rates import RateSource

__all__ = ["BottleneckFit", "fit_linear_bottleneck"]


@dataclass(frozen=True)
class BottleneckFit:
    """Least-squares linear-bottleneck fit for one workload.

    Attributes:
        workload: the analyzed workload.
        full_rates: fitted ``R_b`` (execution rate of type b with the
            whole bottleneck resource), per type; ``inf`` when the
            fitted inverse rate is zero.
        error: the paper's epsilon^2 — mean squared residual of
            ``sum_b r_b(s)/R_b - 1`` over coschedules.
    """

    workload: Workload
    full_rates: dict[str, float]
    error: float


def _nonnegative_lstsq(M: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Least squares with a non-negativity constraint on the solution.

    Active-set elimination: solve unconstrained; clamp negative
    coordinates to zero and re-solve over the remaining columns until
    all coordinates are non-negative.  For the small, well-conditioned
    systems here this converges in a handful of rounds.
    """
    n = M.shape[1]
    active = list(range(n))
    z = np.zeros(n)
    for _ in range(n + 1):
        if not active:
            break
        sub = M[:, active]
        z_sub, *_ = np.linalg.lstsq(sub, target, rcond=None)
        negatives = [active[i] for i, v in enumerate(z_sub) if v < 0.0]
        if not negatives:
            for i, column in enumerate(active):
                z[column] = z_sub[i]
            break
        active = [column for column in active if column not in negatives]
    return z


def fit_linear_bottleneck(
    rates: RateSource,
    workload: Workload,
    *,
    contexts: int | None = None,
) -> BottleneckFit:
    """Fit the best linear-bottleneck explanation of a workload's rates."""
    machine = getattr(rates, "machine", None)
    k = contexts if contexts is not None else (machine.contexts if machine else None)
    if k is None:
        raise ValueError("pass contexts=K for rate sources without a machine")

    coschedules = workload.coschedules(k)
    types = workload.types
    M = np.zeros((len(coschedules), len(types)))
    for i, s in enumerate(coschedules):
        type_rates = rates.type_rates(s)
        for j, b in enumerate(types):
            M[i, j] = type_rates.get(b, 0.0)

    target = np.ones(len(coschedules))
    z = _nonnegative_lstsq(M, target)
    residual = M @ z - target
    error = float(np.mean(residual**2))

    full_rates = {
        b: (1.0 / z[j] if z[j] > 0.0 else float("inf"))
        for j, b in enumerate(types)
    }
    return BottleneckFit(workload=workload, full_rates=full_rates, error=error)
