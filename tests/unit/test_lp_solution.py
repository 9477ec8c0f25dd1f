"""Tests for LPSolution helpers."""

from __future__ import annotations

from repro.lp.solution import LPSolution, SolveStatus


class TestLpSolution:
    def test_value_defaults_to_zero(self):
        solution = LPSolution(
            status=SolveStatus.OPTIMAL, objective=1.0, values={"x": 2.0}
        )
        assert solution.value("x") == 2.0
        assert solution.value("missing") == 0.0

    def test_support_filters_small_values(self):
        solution = LPSolution(
            status=SolveStatus.OPTIMAL,
            values={"x": 1e-15, "y": 0.5},
        )
        assert solution.support() == {"y": 0.5}
