"""Tests for the from-scratch simplex solver (repro.lp.simplex)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SolverError
from repro.lp.model import Model, Sense
from repro.lp.simplex import solve_standard_form
from repro.lp.solution import SolveStatus


def build(sense=Sense.MAXIMIZE):
    return Model("test", sense=sense)


class TestStandardFormSolver:
    @pytest.mark.parametrize("where", ["c", "A", "b"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_entries_rejected(self, where, value):
        arrays = {
            "c": np.array([-1.0, -1.0]),
            "A": np.array([[1.0, 2.0]]),
            "b": np.array([4.0]),
        }
        arrays[where].flat[0] = value
        with pytest.raises(SolverError, match="non-finite"):
            solve_standard_form(arrays["c"], arrays["A"], arrays["b"])

    def test_simple_max(self):
        # max x + y s.t. x + 2y <= 4, 3x + y <= 6 -> handled via model API
        m = build()
        x = m.add_variable("x")
        y = m.add_variable("y")
        m.add_constraint(x + 2 * y <= 4.0)
        m.add_constraint(3 * x + y <= 6.0)
        m.set_objective(x + y)
        solution = m.solve()
        assert solution.is_optimal
        assert solution.objective == pytest.approx(2.8)
        assert solution.value("x") == pytest.approx(1.6)
        assert solution.value("y") == pytest.approx(1.2)

    def test_equality_constraints(self):
        m = build(Sense.MINIMIZE)
        x = m.add_variable("x")
        y = m.add_variable("y")
        m.add_constraint(x + y == 10.0)
        m.set_objective(2 * x + 3 * y)
        solution = m.solve()
        assert solution.objective == pytest.approx(20.0)
        assert solution.value("x") == pytest.approx(10.0)

    def test_infeasible(self):
        m = build()
        x = m.add_variable("x")
        m.add_constraint(x >= 5.0)
        m.add_constraint(x <= 3.0)
        m.set_objective(x)
        solution = m.solve()
        assert solution.status is SolveStatus.INFEASIBLE

    def test_unbounded(self):
        m = build()
        x = m.add_variable("x")
        m.set_objective(x)
        solution = m.solve()
        assert solution.status is SolveStatus.UNBOUNDED

    def test_degenerate_problem_terminates(self):
        # Classic degeneracy: multiple constraints meeting at a vertex.
        m = build()
        x = m.add_variable("x")
        y = m.add_variable("y")
        m.add_constraint(x + y <= 1.0)
        m.add_constraint(x + y <= 1.0)
        m.add_constraint(x <= 1.0)
        m.set_objective(x + y)
        solution = m.solve()
        assert solution.is_optimal
        assert solution.objective == pytest.approx(1.0)

    def test_redundant_rows_dropped(self):
        m = build(Sense.MINIMIZE)
        x = m.add_variable("x")
        y = m.add_variable("y")
        m.add_constraint(x + y == 4.0)
        m.add_constraint(2 * x + 2 * y == 8.0)  # redundant
        m.set_objective(x + 2 * y)
        solution = m.solve()
        assert solution.is_optimal
        assert solution.objective == pytest.approx(4.0)

    def test_lower_bound_shift(self):
        m = build(Sense.MINIMIZE)
        x = m.add_variable("x", lower=2.0)
        m.set_objective(x)
        solution = m.solve()
        assert solution.objective == pytest.approx(2.0)

    def test_free_variable(self):
        m = build(Sense.MINIMIZE)
        x = m.add_variable("x", lower=None)
        m.add_constraint(x >= -3.0)
        m.set_objective(x)
        solution = m.solve()
        assert solution.objective == pytest.approx(-3.0)
        assert solution.value("x") == pytest.approx(-3.0)

    def test_upper_bounds(self):
        m = build()
        x = m.add_variable("x", upper=1.5)
        y = m.add_variable("y", upper=2.5)
        m.set_objective(x + y)
        solution = m.solve()
        assert solution.objective == pytest.approx(4.0)

    def test_objective_constant(self):
        m = build(Sense.MINIMIZE)
        x = m.add_variable("x", lower=1.0)
        m.set_objective(x + 10.0)
        solution = m.solve()
        assert solution.objective == pytest.approx(11.0)

    def test_duals_on_binding_constraints(self):
        # max 3x + 2y s.t. x + y <= 4, x <= 2 -> optimum (2, 2).
        m = build()
        x = m.add_variable("x")
        y = m.add_variable("y")
        c1 = m.add_constraint(x + y <= 4.0, name="capacity")
        m.add_constraint(x <= 2.0, name="xcap")
        m.set_objective(3 * x + 2 * y)
        solution = m.solve()
        assert solution.objective == pytest.approx(10.0)
        # Relaxing 'capacity' by 1 raises the optimum by 2 (y increases).
        assert solution.duals["capacity"] == pytest.approx(2.0)
        assert c1.name == "capacity"

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(SolverError):
            solve_standard_form(
                np.array([1.0]), np.eye(2), np.array([1.0, 1.0])
            )

    def test_negative_rhs_rejected(self):
        with pytest.raises(SolverError):
            solve_standard_form(
                np.array([1.0, 0.0]),
                np.array([[1.0, 1.0]]),
                np.array([-1.0]),
            )

    def test_vertex_solution_support_bound(self):
        """A vertex optimum has at most (#rows) nonzero variables."""
        m = build()
        xs = [m.add_variable(f"x{i}") for i in range(10)]
        m.add_constraint(
            sum(x * 1.0 for x in xs[1:]) + xs[0] == 1.0, name="budget"
        )
        m.set_objective(sum((i + 1.0) * x for i, x in enumerate(xs)))
        solution = m.solve()
        assert solution.is_optimal
        assert len(solution.support()) <= 1
