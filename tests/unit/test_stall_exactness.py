"""Abandoning a stalled damping rung never changes a simulation result.

``solve_fixed_point`` gives up on a rung whose residual has stopped
contracting, and ``simulate_coschedule`` falls through to the next rung,
which restarts from the same start vector.  These tests hold the
simulator to the results it gives with the stall check switched off, on
the quad-core coschedules where the check matters most: bus-saturated
libquantum pairs whose first rung runs into a limit cycle, and the four
slowest coschedules that do converge on the first rung (the closest any
converging rung of the default roster comes to the stall threshold).
"""

from __future__ import annotations

import pytest

from repro.errors import ConvergenceError
from repro.microarch import simulator
from repro.microarch.benchmarks import default_roster
from repro.microarch.config import quad_core_machine
from repro.util import fixedpoint

LIMIT_CYCLES = (
    ("libquantum", "libquantum"),
    ("calculix", "libquantum", "libquantum"),
)

#: Slowest converging quad coschedules at the first rung (damping 0.4),
#: with their iteration counts.
SLOW_CONVERGERS = {
    ("hmmer", "libquantum", "tonto", "xalancbmk"): 3146,
    ("gcc.cp-decl", "gcc.g23", "libquantum"): 3115,
    ("calculix", "gcc.g23", "libquantum", "sjeng"): 2781,
    ("libquantum", "mcf", "perlbench", "tonto"): 2345,
}

COSCHEDULES = LIMIT_CYCLES + tuple(SLOW_CONVERGERS)


def simulate_traced(names):
    """Simulate ``names`` on quad, recording each rung as
    ``(damping, map calls, converged)``."""
    rungs = []
    solve = fixedpoint.solve_fixed_point

    def traced(func, start, **kwargs):
        calls = 0

        def counted(x):
            nonlocal calls
            calls += 1
            return func(x)

        try:
            result = solve(counted, start, **kwargs)
        except ConvergenceError:
            rungs.append((kwargs["damping"], calls, False))
            raise
        rungs.append((kwargs["damping"], calls, True))
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulator, "solve_fixed_point", traced)
        result = simulator.simulate_coschedule(
            quad_core_machine(), default_roster(), names
        )
    return result, rungs


@pytest.fixture(scope="module")
def checked():
    return {names: simulate_traced(names) for names in COSCHEDULES}


@pytest.fixture(scope="module")
def unchecked():
    with pytest.MonkeyPatch.context() as patch:
        # A window longer than the simulator's 5,000-iteration budget
        # never closes, so no rung is ever abandoned.
        patch.setattr(fixedpoint, "_STALL_WINDOW", 5001)
        return {names: simulate_traced(names) for names in COSCHEDULES}


@pytest.mark.parametrize("names", COSCHEDULES, ids="+".join)
def test_stall_check_does_not_change_results(checked, unchecked, names):
    assert checked[names][0] == unchecked[names][0]


@pytest.mark.parametrize("names", tuple(SLOW_CONVERGERS), ids="+".join)
def test_slow_convergers_keep_their_first_rung(checked, names):
    result, rungs = checked[names]
    first = simulator._DAMPING_LADDER[0]
    assert rungs == [(first, SLOW_CONVERGERS[names], True)]
    assert result.iterations == SLOW_CONVERGERS[names]


@pytest.mark.parametrize("names", LIMIT_CYCLES, ids="+".join)
def test_limit_cycles_are_abandoned_early(checked, unchecked, names):
    first = simulator._DAMPING_LADDER[0]
    damping, calls, converged = checked[names][1][0]
    assert (damping, converged) == (first, False)
    assert calls <= 1000
    # With the check off the same rung spends its whole budget.
    assert unchecked[names][1][0] == (first, 5000, False)


@pytest.mark.parametrize("names", LIMIT_CYCLES, ids="+".join)
def test_evaluations_count_abandoned_rungs(checked, names):
    result, rungs = checked[names]
    assert result.evaluations == sum(calls for _, calls, _ in rungs)
    assert result.evaluations > result.iterations


@pytest.mark.parametrize("names", tuple(SLOW_CONVERGERS), ids="+".join)
def test_first_rung_evaluations_equal_iterations(checked, names):
    result, _ = checked[names]
    assert result.evaluations == result.iterations
