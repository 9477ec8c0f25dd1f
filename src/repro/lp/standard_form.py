"""Conversion of a :class:`repro.lp.model.Model` to standard form.

Standard form here means::

    minimize    c' x
    subject to  A x = b,   x >= 0,   b >= 0

Transformations applied:

* maximize -> minimize by negating the objective (the original-sense
  objective is restored when reporting solutions);
* finite lower bounds are shifted out (``x = y + lower``);
* free variables are split into a difference of two non-negatives;
* finite upper bounds become explicit ``<=`` rows;
* inequality rows gain slack/surplus columns;
* rows with negative right-hand sides are negated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.lp.model import Model, Sense, _Relation

__all__ = ["StandardForm", "to_standard_form"]


@dataclass
class StandardForm:
    """A model compiled to ``min c'x, Ax = b, x >= 0`` with recovery maps.

    Attributes:
        c: objective coefficients over standard-form columns.
        A: dense constraint matrix (rows x columns).
        b: non-negative right-hand side.
        objective_constant: constant added back to the objective.
        objective_sign: +1 if the original model minimized, -1 if it
            maximized (applied when reporting the original objective).
        column_meaning: per column, a tuple ``(kind, payload)`` where
            kind is ``"var"`` (payload: (name, shift, sign)) or
            ``"slack"`` (payload: constraint name).
        row_names: original constraint name per row ("" for bound rows),
            used to report duals.
        row_signs: +1/-1 multiplier applied to each row (for dual
            recovery).
    """

    c: np.ndarray
    A: np.ndarray
    b: np.ndarray
    objective_constant: float
    objective_sign: float
    column_meaning: list[tuple[str, tuple]]
    row_names: list[str]
    row_signs: list[float]

    @property
    def n_rows(self) -> int:
        """Number of equality rows."""
        return self.A.shape[0]

    @property
    def n_cols(self) -> int:
        """Number of standard-form columns."""
        return self.A.shape[1]

    def recover_values(self, x: np.ndarray) -> dict[str, float]:
        """Map a standard-form point back to original variable values."""
        values: dict[str, float] = {}
        for j, (kind, payload) in enumerate(self.column_meaning):
            if kind != "var":
                continue
            name, shift, sign = payload
            values[name] = values.get(name, shift) + sign * float(x[j])
        return values

    def recover_objective(self, standard_objective: float) -> float:
        """Map the standard-form objective back to the original sense."""
        return self.objective_sign * (standard_objective + self.objective_constant)

    def recover_duals(self, y: np.ndarray) -> dict[str, float]:
        """Map standard-form duals back to named original constraints.

        Duals of bound rows (upper-bound expansions) are dropped.  For a
        maximization model the sign convention follows the original
        sense, so a positive dual on a binding ``<=`` row means the
        objective would improve if the row were relaxed.
        """
        duals: dict[str, float] = {}
        for i, name in enumerate(self.row_names):
            if not name:
                continue
            duals[name] = self.objective_sign * self.row_signs[i] * float(y[i])
        return duals


def to_standard_form(model: Model) -> StandardForm:
    """Compile ``model`` into a :class:`StandardForm` (or return the
    form a :meth:`Model.from_form` model carries)."""
    if model.form is not None:
        return model.form
    column_meaning: list[tuple[str, tuple]] = []
    objective_constant = 0.0

    # Column layout for each original variable.
    var_columns: dict[str, list[tuple[int, float, float]]] = {}
    for var in model.variables:
        columns: list[tuple[int, float, float]] = []
        if var.lower is not None:
            # x = y + lower, y >= 0
            j = len(column_meaning)
            column_meaning.append(("var", (var.name, var.lower, 1.0)))
            columns.append((j, var.lower, 1.0))
        else:
            # free: x = y+ - y-
            j_pos = len(column_meaning)
            column_meaning.append(("var", (var.name, 0.0, 1.0)))
            j_neg = len(column_meaning)
            column_meaning.append(("var", (var.name, 0.0, -1.0)))
            columns.append((j_pos, 0.0, 1.0))
            columns.append((j_neg, 0.0, -1.0))
        var_columns[var.name] = columns

    rows: list[dict[int, float]] = []
    rhs: list[float] = []
    relations: list[_Relation] = []
    row_names: list[str] = []

    def add_row(
        coefficients: dict[int, float],
        relation: _Relation,
        value: float,
        name: str,
    ) -> None:
        rows.append(coefficients)
        relations.append(relation)
        rhs.append(value)
        row_names.append(name)

    # Original constraints.
    for constraint in model.constraints:
        coefficients: dict[int, float] = {}
        value = constraint.rhs
        for var, coef in constraint.expr.coefficients.items():
            for j, shift, sign in var_columns[var.name]:
                coefficients[j] = coefficients.get(j, 0.0) + coef * sign
                value -= coef * shift
        add_row(coefficients, constraint.relation, value, constraint.name)

    # Upper bounds become rows (lower bounds were shifted into columns).
    for var in model.variables:
        if var.upper is None:
            continue
        coefficients = {}
        value = var.upper
        for j, shift, sign in var_columns[var.name]:
            coefficients[j] = coefficients.get(j, 0.0) + sign
            value -= shift
        add_row(coefficients, _Relation.LE, value, "")

    # Objective over columns.
    sign = 1.0 if model.sense is Sense.MINIMIZE else -1.0
    c_entries: dict[int, float] = {}
    objective_constant += model.objective.constant
    for var, coef in model.objective.coefficients.items():
        for j, shift, s in var_columns[var.name]:
            c_entries[j] = c_entries.get(j, 0.0) + coef * s
            objective_constant += coef * shift if s > 0 else 0.0

    # Slack columns for inequalities.
    n_structural = len(column_meaning)
    slack_of_row: dict[int, int] = {}
    for i, relation in enumerate(relations):
        if relation is _Relation.EQ:
            continue
        j = len(column_meaning)
        column_meaning.append(("slack", (row_names[i] or f"bound{i}",)))
        slack_of_row[i] = j

    n_cols = len(column_meaning)
    n_rows = len(rows)
    A = np.zeros((n_rows, n_cols))
    b = np.zeros(n_rows)
    c = np.zeros(n_cols)
    row_signs = [1.0] * n_rows

    for j, coef in c_entries.items():
        c[j] = sign * coef

    for i, coefficients in enumerate(rows):
        for j, coef in coefficients.items():
            A[i, j] = coef
        b[i] = rhs[i]
        if relations[i] is _Relation.LE:
            A[i, slack_of_row[i]] = 1.0
        elif relations[i] is _Relation.GE:
            A[i, slack_of_row[i]] = -1.0
        if b[i] < 0:
            A[i, :] *= -1.0
            b[i] *= -1.0
            row_signs[i] = -1.0

    # Column objective constant handling for minimize-standardization:
    # we folded the original-sense constant into objective_constant; the
    # standard form minimizes sign*objective, so scale the constant too.
    return StandardForm(
        c=c,
        A=A,
        b=b,
        objective_constant=sign * objective_constant,
        objective_sign=sign,
        column_meaning=column_meaning,
        row_names=row_names,
        row_signs=row_signs,
    )
