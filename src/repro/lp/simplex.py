"""Dense two-phase primal simplex solver.

This is the default backend for :meth:`repro.lp.model.Model.solve` and
the self-contained replacement for the paper's use of glpk.  It is a
textbook tableau implementation with:

* Phase 1 with artificial variables (detects infeasibility, drives
  artificials out of the basis, drops redundant rows);
* Dantzig pricing with an automatic switch to Bland's rule after a pivot
  budget, guaranteeing termination on degenerate problems;
* dual recovery by solving ``B' y = c_B`` at the optimum.

The Section-IV throughput LPs are small (tens to hundreds of columns,
number of rows = number of job types), so a dense tableau is the right
tool: simple, auditable, and fast enough to solve thousands of instances
per second.  At that size numpy's per-call overhead, not arithmetic,
is the cost of a pivot, so the pricing and ratio tests run on Python
floats read out of the tableau: the same comparisons, the same IEEE
divisions and the same first-index tie-breaks as array operations
would give.  Row elimination and the reduced-cost product stay in
numpy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SolverError
from repro.lp.model import Model
from repro.lp.solution import LPSolution, SolveStatus
from repro.lp.standard_form import StandardForm, to_standard_form

__all__ = ["StandardFormResult", "solve_standard_form", "solve_model"]

_TOLERANCE = 1e-9
_BLAND_SWITCH = 2000
_MAX_PIVOTS = 100_000


@dataclass(frozen=True)
class StandardFormResult:
    """Raw result of a standard-form solve.

    Attributes:
        status: OPTIMAL / INFEASIBLE / UNBOUNDED.
        x: primal point over standard-form columns (zeros otherwise).
        objective: standard-form (minimization) objective value.
        y: duals over original standard-form rows (zeros for redundant
            rows dropped during phase 1).
        basis: basic column indices at the optimum.
        iterations: total simplex pivots across both phases.
    """

    status: SolveStatus
    x: np.ndarray
    objective: float
    y: np.ndarray
    basis: tuple[int, ...]
    iterations: int


def _pivot(tableau: np.ndarray, row: int, col: int) -> None:
    """Gauss-Jordan pivot of ``tableau`` on (row, col), in place."""
    pivot_row = tableau[row, :]
    pivot_row /= pivot_row[col]
    for i, factor in enumerate(tableau[:, col].tolist()):
        if i != row and factor != 0.0:
            tableau[i, :] -= factor * pivot_row


def _choose_entering(
    reduced: np.ndarray, n_allowed: int, *, bland: bool
) -> int | None:
    """Pick the entering column among the first ``n_allowed``, or None
    if optimal.  Dantzig: the first of the most negative reduced costs."""
    costs = reduced[:n_allowed].tolist()
    candidates = [j for j, cost in enumerate(costs) if cost < -_TOLERANCE]
    if not candidates:
        return None
    if bland:
        return candidates[0]
    return min(candidates, key=costs.__getitem__)


def _choose_leaving(
    tableau: np.ndarray, basis: list[int], col: int
) -> int | None:
    """Ratio test: pick the leaving row, or None if unbounded."""
    rhs = tableau[:, -1].tolist()
    ratios = [
        (rhs[i] / a, i)
        for i, a in enumerate(tableau[:, col].tolist())
        if a > _TOLERANCE
    ]
    if not ratios:
        return None
    cutoff = min(ratio for ratio, _ in ratios) + _TOLERANCE
    # Bland-compatible tie break: smallest basis variable index.
    return min(
        (i for ratio, i in ratios if ratio <= cutoff), key=basis.__getitem__
    )


def _run_simplex(
    tableau: np.ndarray,
    basis: list[int],
    cost: np.ndarray,
    n_allowed: int,
    start_iterations: int,
) -> tuple[str, int]:
    """Iterate to optimality for ``cost``, entering only the first
    ``n_allowed`` columns; returns (status, iterations)."""
    iterations = start_iterations
    while True:
        if iterations > _MAX_PIVOTS:
            raise SolverError(
                f"simplex exceeded {_MAX_PIVOTS} pivots; problem is "
                "numerically pathological"
            )
        c_basis = cost[basis]
        reduced = cost - c_basis @ tableau[:, :-1]
        entering = _choose_entering(
            reduced, n_allowed, bland=iterations > _BLAND_SWITCH
        )
        if entering is None:
            return "optimal", iterations
        leaving = _choose_leaving(tableau, basis, entering)
        if leaving is None:
            return "unbounded", iterations
        _pivot(tableau, leaving, entering)
        basis[leaving] = entering
        iterations += 1


def solve_standard_form(
    c: np.ndarray, A: np.ndarray, b: np.ndarray
) -> StandardFormResult:
    """Solve ``min c'x s.t. Ax = b, x >= 0`` (with ``b >= 0``).

    Raises:
        SolverError: on dimension mismatch, negative rhs, non-finite
            entries, or pivot-budget exhaustion.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    if A.ndim != 2:
        raise SolverError("A must be a 2-D matrix")
    n_rows, n_cols = A.shape
    if b.shape != (n_rows,) or c.shape != (n_cols,):
        raise SolverError(
            f"dimension mismatch: A is {A.shape}, b is {b.shape}, c is {c.shape}"
        )
    if np.any(b < -_TOLERANCE):
        raise SolverError("standard form requires b >= 0")
    if not all(np.isfinite(part).all() for part in (A, b, c)):
        raise SolverError("standard form has non-finite entries")

    original_A = A.copy()
    original_rows = list(range(n_rows))

    # Tableau: [A | artificial I | b]
    tableau = np.hstack([A, np.eye(n_rows), b.reshape(-1, 1)])
    basis = [n_cols + i for i in range(n_rows)]
    total_cols = n_cols + n_rows

    # ---- Phase 1: minimize sum of artificials.
    phase1_cost = np.zeros(total_cols)
    phase1_cost[n_cols:] = 1.0
    status, iterations = _run_simplex(
        tableau, basis, phase1_cost, total_cols, 0
    )
    if status == "unbounded":  # cannot happen with bounded-below phase-1
        raise SolverError("phase 1 reported unbounded; internal error")
    artificial_value = sum(
        tableau[i, -1] for i, j in enumerate(basis) if j >= n_cols
    )
    if artificial_value > 1e-7:
        return StandardFormResult(
            status=SolveStatus.INFEASIBLE,
            x=np.zeros(n_cols),
            objective=float("nan"),
            y=np.zeros(n_rows),
            basis=tuple(basis),
            iterations=iterations,
        )

    # Drive remaining artificials out of the basis; drop redundant rows.
    keep_rows: list[int] = []
    for i in range(len(basis)):
        if basis[i] < n_cols:
            keep_rows.append(i)
            continue
        pivot_col = next(
            (
                j
                for j in range(n_cols)
                if abs(tableau[i, j]) > _TOLERANCE and j not in basis
            ),
            None,
        )
        if pivot_col is None:
            continue  # redundant row: drop below
        _pivot(tableau, i, pivot_col)
        basis[i] = pivot_col
        keep_rows.append(i)
    if len(keep_rows) != len(basis):
        tableau = tableau[keep_rows, :]
        basis = [basis[i] for i in keep_rows]
        original_rows = [original_rows[i] for i in keep_rows]

    # ---- Phase 2: original objective; artificials barred from entering.
    phase2_cost = np.concatenate([c, np.zeros(n_rows)])
    status, iterations = _run_simplex(
        tableau, basis, phase2_cost, n_cols, iterations
    )
    if status == "unbounded":
        return StandardFormResult(
            status=SolveStatus.UNBOUNDED,
            x=np.zeros(n_cols),
            objective=float("-inf"),
            y=np.zeros(n_rows),
            basis=tuple(basis),
            iterations=iterations,
        )

    x = np.zeros(n_cols)
    for i, j in enumerate(basis):
        if j < n_cols:
            x[j] = tableau[i, -1]
    objective = float(c @ x)

    # Duals: solve B' y = c_B over the surviving rows.
    y = np.zeros(n_rows)
    rows_idx = np.array(original_rows, dtype=int)
    basis_cols = [j for j in basis if j < n_cols]
    if len(basis_cols) == len(original_rows):
        B = original_A[np.ix_(rows_idx, basis_cols)]
        c_b = c[basis_cols]
        try:
            y_small = np.linalg.solve(B.T, c_b)
            y[rows_idx] = y_small
        except np.linalg.LinAlgError:
            pass  # degenerate basis: report zero duals rather than fail

    return StandardFormResult(
        status=SolveStatus.OPTIMAL,
        x=x,
        objective=objective,
        y=y,
        basis=tuple(basis),
        iterations=iterations,
    )


def solve_model(model: Model) -> LPSolution:
    """Compile ``model`` to standard form, solve it, map the result back."""
    form: StandardForm = to_standard_form(model)
    result = solve_standard_form(form.c, form.A, form.b)
    if result.status is not SolveStatus.OPTIMAL:
        return LPSolution(status=result.status, iterations=result.iterations)
    return LPSolution(
        status=SolveStatus.OPTIMAL,
        objective=form.recover_objective(result.objective),
        values=form.recover_values(result.x),
        duals=form.recover_duals(result.y),
        iterations=result.iterations,
    )
