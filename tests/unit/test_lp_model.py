"""Tests for the LP modeling layer (repro.lp.model)."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.lp.model import LinearExpr, Model, Sense


class TestExpressions:
    def test_variable_arithmetic(self):
        m = Model()
        x = m.add_variable("x")
        y = m.add_variable("y")
        expr = 2 * x + y - 3.0
        assert expr.coefficients[x] == 2.0
        assert expr.coefficients[y] == 1.0
        assert expr.constant == -3.0

    def test_negation_and_subtraction(self):
        m = Model()
        x = m.add_variable("x")
        expr = -(x - 1.0)
        assert expr.coefficients[x] == -1.0
        assert expr.constant == 1.0

    def test_rsub(self):
        m = Model()
        x = m.add_variable("x")
        expr = 5.0 - x
        assert expr.coefficients[x] == -1.0
        assert expr.constant == 5.0

    def test_combining_same_variable(self):
        m = Model()
        x = m.add_variable("x")
        expr = x + x + 2 * x
        assert expr.coefficients[x] == 4.0

    def test_evaluate(self):
        m = Model()
        x = m.add_variable("x")
        expr = 3 * x + 1.0
        assert expr.evaluate({"x": 2.0}) == 7.0

    def test_non_scalar_multiplication_rejected(self):
        m = Model()
        x = m.add_variable("x")
        with pytest.raises(TypeError):
            x * x  # noqa: B015 - intentional misuse

    def test_bad_operand_rejected(self):
        with pytest.raises(TypeError):
            LinearExpr() + "nope"


class TestConstraints:
    def test_relations_build_constraints(self):
        m = Model()
        x = m.add_variable("x")
        le = m.add_constraint(x <= 5.0)
        ge = m.add_constraint(x >= 1.0)
        eq = m.add_constraint(x == 2.0)
        assert le.rhs == 5.0
        assert ge.rhs == 1.0
        assert eq.rhs == 2.0

    def test_violation(self):
        m = Model()
        x = m.add_variable("x")
        c = m.add_constraint(x <= 5.0)
        assert c.violation({"x": 7.0}) == pytest.approx(2.0)
        assert c.violation({"x": 3.0}) == 0.0

    def test_constraint_names_autogenerated(self):
        m = Model()
        x = m.add_variable("x")
        c0 = m.add_constraint(x >= 0.0)
        c1 = m.add_constraint(x <= 1.0, name="cap")
        assert c0.name == "c0"
        assert c1.name == "cap"

    def test_non_constraint_rejected(self):
        m = Model()
        m.add_variable("x")
        with pytest.raises(TypeError):
            m.add_constraint(42)  # type: ignore[arg-type]


class TestModel:
    def test_duplicate_variable_names_rejected(self):
        m = Model()
        m.add_variable("x")
        with pytest.raises(ConfigurationError):
            m.add_variable("x")

    def test_inconsistent_bounds_rejected(self):
        m = Model()
        with pytest.raises(ConfigurationError):
            m.add_variable("x", lower=2.0, upper=1.0)

    def test_check_feasible(self):
        m = Model()
        x = m.add_variable("x", lower=0.0, upper=10.0)
        m.add_constraint(x >= 2.0)
        assert m.check_feasible({"x": 5.0})
        assert not m.check_feasible({"x": 1.0})
        assert not m.check_feasible({"x": 11.0})

    def test_unknown_backend_rejected(self):
        m = Model()
        x = m.add_variable("x")
        m.set_objective(x)
        with pytest.raises(ConfigurationError):
            m.solve(backend="gurobi")

    def test_sense_switch_via_set_objective(self):
        m = Model(sense=Sense.MINIMIZE)
        x = m.add_variable("x", upper=3.0)
        m.set_objective(x, sense=Sense.MAXIMIZE)
        assert m.sense is Sense.MAXIMIZE
        solution = m.solve()
        assert solution.objective == pytest.approx(3.0)
