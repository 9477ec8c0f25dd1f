"""Tests for repro.util.fixedpoint."""

from __future__ import annotations

import math

import pytest

from repro.errors import ConvergenceError
from repro.microarch.benchmarks import default_roster
from repro.microarch.config import quad_core_machine, smt_machine
from repro.microarch.multicore import multicore_iteration
from repro.microarch.smt_core import smt_iteration
from repro.util import fixedpoint
from repro.util.fixedpoint import solve_fixed_point


def counting(func):
    """Wrap a map so the test can read how often the solver called it."""

    def counted(x):
        counted.calls += 1
        return func(x)

    counted.calls = 0
    return counted


class TestSolveFixedPoint:
    def test_converges_on_contraction(self):
        # x = cos(x) has the Dottie fixed point ~0.739085.
        result = solve_fixed_point(
            lambda x: [math.cos(x[0])], [0.0], damping=1.0
        )
        assert result.value[0] == pytest.approx(0.7390851, abs=1e-6)

    def test_converges_on_linear_system(self):
        # x = Ax + b with spectral radius < 1.
        def linear(x):
            return [0.5 * x[0] + 0.1 * x[1] + 1.0, 0.2 * x[0] + 0.3 * x[1] + 2.0]

        result = solve_fixed_point(linear, [0.0, 0.0])
        x, y = result.value
        assert x == pytest.approx(0.5 * x + 0.1 * y + 1.0, abs=1e-6)
        assert y == pytest.approx(0.2 * x + 0.3 * y + 2.0, abs=1e-6)

    def test_damping_tames_oscillation(self):
        # x -> 2 - x oscillates forever undamped but has fixed point 1.
        result = solve_fixed_point(lambda x: [2.0 - x[0]], [0.0], damping=0.5)
        assert result.value[0] == pytest.approx(1.0, abs=1e-6)

    def test_divergence_raises(self):
        with pytest.raises(ConvergenceError, match="budget exhausted"):
            solve_fixed_point(
                lambda x: [2.0 * x[0] + 1.0], [1.0], max_iterations=50
            )

    def test_reports_iterations_and_residual(self):
        result = solve_fixed_point(lambda x: [0.5 * x[0]], [1.0])
        assert result.iterations >= 1
        assert result.residual <= 1e-9

    def test_identity_converges_immediately(self):
        result = solve_fixed_point(lambda x: list(x), [3.0, 4.0])
        assert result.value == (3.0, 4.0)
        assert result.iterations == 1

    def test_invalid_damping_rejected(self):
        for damping in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                solve_fixed_point(lambda x: list(x), [1.0], damping=damping)

    def test_empty_start_rejected(self):
        with pytest.raises(ValueError):
            solve_fixed_point(lambda x: list(x), [])

    @pytest.mark.parametrize("tolerance", [math.nan, -1e-12, -math.inf])
    def test_invalid_tolerance_rejected(self, tolerance):
        with pytest.raises(ValueError, match="tolerance"):
            solve_fixed_point(lambda x: list(x), [1.0], tolerance=tolerance)

    @pytest.mark.parametrize("max_iterations", [0, -1])
    def test_invalid_budget_rejected(self, max_iterations):
        converged = counting(lambda x: list(x))
        with pytest.raises(ValueError, match="max_iterations"):
            solve_fixed_point(converged, [1.0], max_iterations=max_iterations)
        assert converged.calls == 0

    def test_zero_tolerance_accepted(self):
        result = solve_fixed_point(lambda x: [0.5], [0.0], damping=1.0,
                                   tolerance=0.0)
        assert result.value == (0.5,)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_start_rejected(self, bad):
        mapped = counting(lambda x: list(x))
        with pytest.raises(ValueError, match="start vector must be finite"):
            solve_fixed_point(mapped, [1.0, bad])
        assert mapped.calls == 0

    @pytest.mark.parametrize(
        "machine, iteration",
        [
            (smt_machine(), smt_iteration),  # dynamic-ROB SMT map
            (quad_core_machine(), multicore_iteration),
        ],
        ids=["smt4", "quad"],
    )
    def test_non_finite_start_rejected_for_every_machine(
        self, machine, iteration
    ):
        # Every contention map fails the same way on a bad start vector,
        # before any map sees it.
        roster = default_roster()
        iterate = iteration(machine, [roster["mcf"], roster["sjeng"]])
        with pytest.raises(ValueError, match="start vector must be finite"):
            solve_fixed_point(iterate, [1.0, 1.0, math.nan, 1.0])

    def test_dimension_change_rejected(self):
        with pytest.raises(ValueError):
            solve_fixed_point(lambda x: [1.0, 2.0], [1.0])


class TestGivingUpEarly:
    def test_undamped_limit_cycle_is_abandoned(self):
        # x -> 2 - x undamped alternates 0, 2, 0, ... forever.
        cycle = counting(lambda x: [2.0 - x[0]])
        with pytest.raises(ConvergenceError, match="stalled at iteration"):
            solve_fixed_point(cycle, [0.0], damping=1.0, max_iterations=5000)
        assert cycle.calls <= 300

    def test_slow_contraction_still_converges(self, monkeypatch):
        # Contracts by 0.995 per step: ~3,000 iterations, many windows.
        def slow(x):
            return [0.995 * x[0]]

        checked = solve_fixed_point(
            slow, [1.0], damping=1.0, max_iterations=5000
        )
        assert checked.iterations > 2 * fixedpoint._STALL_WINDOW
        monkeypatch.setattr(fixedpoint, "_STALL_WINDOW", 5001)
        unchecked = solve_fixed_point(
            slow, [1.0], damping=1.0, max_iterations=5000
        )
        assert checked == unchecked

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_iterate_raises_at_once(self, bad):
        poisoned = counting(lambda x: [bad, 1.0])
        with pytest.raises(
            ConvergenceError, match="non-finite iterate at iteration 1"
        ):
            solve_fixed_point(poisoned, [1.0, 1.0], max_iterations=5000)
        assert poisoned.calls == 1
