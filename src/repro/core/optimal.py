"""The Section-IV linear program: optimal (and worst) throughput.

Let ``x_s`` be the fraction of time a scheduler spends executing
coschedule ``s``.  The long-term average throughput is
``sum_s x_s * it(s)`` (Equation 2), maximized subject to (Equations 3-5):

* ``x_s >= 0``,
* ``sum_s x_s = 1``,
* equal work per type: for every type b (vs. the first type),
  ``sum_s x_s * r_b(s) = sum_s x_s * r_1(s)``.

Maximizing gives the theoretically best scheduler; minimizing gives the
deliberately worst one, and together they bound what *any* scheduler can
achieve on the workload.  A vertex optimum uses at most N coschedules
(the number of equality constraints), a property the paper points out
and our tests assert.

**Assembly.** The program is built straight into a
:class:`~repro.lp.standard_form.StandardForm` (``min c'x, Ax = b,
x >= 0``) rather than written with the modeling layer's variables and
expressions and compiled: one column per coschedule, the time-budget
row, then one equal-work row per non-reference type.  Its layout —
coschedules, column and row names — depends only on the workload and
K and is kept in a small LRU cache, so a re-solve over new rates (every
estimator epoch of an estimated-rate run) only reads rates and fills
``c``, ``A`` and ``b``.  The result is exact by construction: every
entry is the float expression compilation produced — ``0.0 + coef``
accumulation (turning a ``-0.0`` coefficient into ``+0.0``), the
objective negated for maximization, ``b = [1.0, ±0.0, ...]`` with the
sign of zero compilation leaves — and the form is solved through
:meth:`repro.lp.model.Model.solve` on either backend.
``tests/property/test_section_iv_form.py`` keeps the modeling-layer
program as the oracle and compares the arrays byte for byte.

Non-finite inputs fail loudly: a NaN, infinite or non-positive type
weight is a :class:`~repro.errors.WorkloadError`, and a non-finite
rate is a :class:`~repro.errors.SolverError` naming the workload and
the coschedule.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.errors import SolverError, WorkloadError
from repro.core.workload import Workload
from repro.lp.model import Model, Sense
from repro.lp.standard_form import StandardForm
from repro.microarch.rates import RateSource, infer_contexts

__all__ = [
    "OptimalSchedule",
    "optimal_throughput",
    "section_iv_form",
    "worst_throughput",
]


@dataclass(frozen=True)
class OptimalSchedule:
    """The LP's answer for one workload.

    Attributes:
        workload: the analyzed workload.
        throughput: the optimal (or worst) long-term average throughput
            in weighted instructions per cycle.
        fractions: time fraction per coschedule, support only (fractions
            below 1e-12 are dropped).
        sense: "max" or "min".
        duals: dual values of the LP constraints — ``time_budget`` is
            the marginal value of a unit of time (equal to the optimal
            per-coschedule "adjusted throughput"), and
            ``equal_work[b]`` prices the equal-work constraint of type
            b (how much throughput a unit of allowed work imbalance
            toward type b would buy).  Complementary slackness ties
            these to the support: every used coschedule s satisfies
            ``it(s) = y_time + sum_b y_b (r_b(s) - r_1(s))``.
        per_type_rate: the common long-term execution rate every job
            type sustains under the schedule (throughput / N).
    """

    workload: Workload
    throughput: float
    fractions: dict[tuple[str, ...], float]
    sense: str
    duals: dict[str, float] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.duals is None:
            object.__setattr__(self, "duals", {})

    @property
    def per_type_rate(self) -> float:
        """Average per-type execution rate (equal by construction)."""
        return self.throughput / self.workload.n_types

    def support_size(self) -> int:
        """Number of coschedules with non-zero time fraction."""
        return len(self.fractions)

    def fraction_of(self, coschedule: Sequence[str]) -> float:
        """Time fraction of a coschedule (0.0 if unused)."""
        return self.fractions.get(tuple(sorted(coschedule)), 0.0)


def _normalize_weights(
    workload: Workload, type_weights: Mapping[str, float] | None
) -> dict[str, float]:
    """Per-type work shares, normalized to sum to 1 (uniform default)."""
    if type_weights is None:
        share = 1.0 / workload.n_types
        return {b: share for b in workload.types}
    missing = [b for b in workload.types if b not in type_weights]
    if missing:
        raise WorkloadError(f"type_weights missing entries for {missing}")
    values = {b: float(type_weights[b]) for b in workload.types}
    # A positive test, since NaN fails every comparison (``v <= 0.0``
    # would let it through).
    bad = {b: v for b, v in values.items() if not 0.0 < v < math.inf}
    if bad:
        raise WorkloadError(
            f"type_weights must be positive and finite, got {bad}"
        )
    total = sum(values.values())
    if total == math.inf:
        raise WorkloadError(f"type_weights overflow when summed: {values}")
    return {b: v / total for b, v in values.items()}


@dataclass(frozen=True)
class _Layout:
    """The rate-free structure of one (workload, K) Section-IV LP:
    one column per coschedule, the time-budget row, one equal-work row
    per non-reference type."""

    coschedules: tuple[tuple[str, ...], ...]
    column_names: tuple[str, ...]
    row_names: tuple[str, ...]


@functools.lru_cache(maxsize=128)
def _layout(workload: Workload, contexts: int) -> _Layout:
    coschedules = tuple(workload.coschedules(contexts))
    return _Layout(
        coschedules=coschedules,
        column_names=tuple(f"x[{','.join(s)}]" for s in coschedules),
        row_names=(
            "time_budget",
            *(f"equal_work[{b}]" for b in workload.types[1:]),
        ),
    )


def section_iv_form(
    rates: RateSource,
    workload: Workload,
    contexts: int | None,
    sense: Sense,
    type_weights: Mapping[str, float] | None = None,
) -> StandardForm:
    """The Section-IV LP in standard form, one column per coschedule.

    Rates are read once per coschedule, in coschedule order.  Every
    entry is the float the modeling layer's compilation produces (see
    the module docstring); a non-finite entry raises
    :class:`~repro.errors.SolverError` naming the coschedule.
    """
    k = infer_contexts(rates, contexts)
    layout = _layout(workload, k)
    tables = [rates.type_rates(s) for s in layout.coschedules]
    weights = _normalize_weights(workload, type_weights)

    # Work proportionality (Equation 5, generalized): each type's share
    # of the executed work matches its weight — work_b / w_b equals
    # work_ref / w_ref, written with a w_ref/w_b scale so the uniform
    # case reduces to the paper's equal-work constraint verbatim.
    reference = workload.types[0]
    raw = [
        [sum(t.values()) for t in tables],
        [1.0] * len(tables),
    ]
    for b in workload.types[1:]:
        scale = weights[reference] / weights[b]
        raw.append(
            [t.get(b, 0.0) * scale - t.get(reference, 0.0) for t in tables]
        )
    grid = np.array(raw)
    finite = np.isfinite(grid).all(axis=0)
    if not finite.all():
        j = int(np.flatnonzero(~finite)[0])
        raise SolverError(
            f"throughput LP for {workload.label()}: coschedule "
            f"{layout.coschedules[j]} has non-finite rates {dict(tables[j])}"
        )
    # Compilation subtracts ``coef * 0.0`` from an equal-work row's
    # -0.0 right-hand side, which leaves it -0.0 unless a coefficient
    # has its sign bit set; it accumulates every coefficient onto 0.0,
    # turning -0.0 into +0.0.
    b = np.where(np.signbit(grid[1:]).any(axis=1), 0.0, -0.0)
    b[0] = 1.0
    grid += 0.0
    sign = 1.0 if sense is Sense.MINIMIZE else -1.0
    grid[0] *= sign
    return StandardForm(
        c=grid[0],
        A=grid[1:],
        b=b,
        objective_constant=sign * 0.0,
        objective_sign=sign,
        column_meaning=[
            ("var", (name, 0.0, 1.0)) for name in layout.column_names
        ],
        row_names=list(layout.row_names),
        row_signs=[1.0] * len(layout.row_names),
    )


def _solve(
    rates: RateSource,
    workload: Workload,
    contexts: int | None,
    sense: Sense,
    backend: str,
    type_weights: Mapping[str, float] | None = None,
) -> OptimalSchedule:
    k = infer_contexts(rates, contexts)
    form = section_iv_form(rates, workload, k, sense, type_weights)
    model = Model.from_form(
        form, name=f"{sense.value}_tp[{workload.label()}]", sense=sense
    )
    solution = model.solve(backend=backend)
    if not solution.is_optimal:
        raise SolverError(
            f"throughput LP for {workload.label()} terminated "
            f"{solution.status.value}; the equal-work constraints should "
            "always be satisfiable with positive rates"
        )

    fractions: dict[tuple[str, ...], float] = {}
    layout = _layout(workload, k)
    for s, name in zip(layout.coschedules, layout.column_names):
        value = solution.value(name)
        if value > 1e-12:
            fractions[s] = value

    return OptimalSchedule(
        workload=workload,
        throughput=solution.objective,
        fractions=fractions,
        sense=sense.value,
        duals=dict(solution.duals),
    )


def optimal_throughput(
    rates: RateSource,
    workload: Workload,
    *,
    contexts: int | None = None,
    backend: str = "simplex",
    type_weights: Mapping[str, float] | None = None,
) -> OptimalSchedule:
    """Maximum long-term throughput of any scheduler on the workload.

    Args:
        rates: per-coschedule execution rates (a
            :class:`repro.microarch.rates.RateTable` or compatible).
        workload: the N job types.
        contexts: number of hardware contexts K; inferred from
            ``rates.machine`` when omitted.
        backend: LP backend ("simplex" or "scipy").
        type_weights: per-type work shares (normalized internally);
            omitted = the paper's equal-work assumption.  The paper
            notes that skewed weights "would dominate the execution,
            thereby limiting the possibilities to exploit symbiosis" —
            pass a skew here to quantify that remark.
    """
    return _solve(
        rates, workload, contexts, Sense.MAXIMIZE, backend, type_weights
    )


def worst_throughput(
    rates: RateSource,
    workload: Workload,
    *,
    contexts: int | None = None,
    backend: str = "simplex",
    type_weights: Mapping[str, float] | None = None,
) -> OptimalSchedule:
    """Minimum long-term throughput: the deliberately worst scheduler.

    Together with :func:`optimal_throughput` this bounds the throughput
    of *any* scheduling policy on the workload (Section IV).
    """
    return _solve(
        rates, workload, contexts, Sense.MINIMIZE, backend, type_weights
    )
