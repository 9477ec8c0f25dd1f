"""Tests for SystemMetrics accounting."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.queueing.system import SystemMetrics


class TestSystemMetrics:
    def test_interval_accounting(self):
        m = SystemMetrics()
        m.observe_interval(2.0, ("a", "b"), jobs_in_system=3, work=1.5)
        m.observe_interval(1.0, (), jobs_in_system=0, work=0.0)
        assert m.measured_time == 3.0
        assert m.utilization == pytest.approx(4.0 / 3.0)
        assert m.empty_fraction == pytest.approx(1.0 / 3.0)
        assert m.throughput == pytest.approx(0.5)

    def test_coschedule_fractions(self):
        m = SystemMetrics()
        m.observe_interval(3.0, ("a",), 1, 1.0)
        m.observe_interval(1.0, ("b",), 1, 1.0)
        fractions = m.coschedule_fractions()
        assert fractions[("a",)] == pytest.approx(0.75)
        assert fractions[("b",)] == pytest.approx(0.25)

    def test_coschedule_key_canonicalized(self):
        m = SystemMetrics()
        m.observe_interval(1.0, ("b", "a"), 2, 0.0)
        assert ("a", "b") in m.time_by_coschedule

    def test_completions(self):
        m = SystemMetrics()
        m.observe_completion(2.0)
        m.observe_completion(4.0)
        assert m.completed == 2
        assert m.mean_turnaround == 3.0

    def test_zero_interval_ignored(self):
        m = SystemMetrics()
        m.observe_interval(0.0, ("a",), 1, 0.0)
        assert m.measured_time == 0.0
        assert m.time_by_coschedule == {}

    def test_errors(self):
        m = SystemMetrics()
        with pytest.raises(SimulationError):
            m.observe_interval(-1.0, (), 0, 0.0)
        with pytest.raises(SimulationError):
            m.observe_completion(-1.0)
        with pytest.raises(SimulationError):
            _ = m.mean_turnaround
        with pytest.raises(SimulationError):
            _ = m.utilization
        with pytest.raises(SimulationError):
            _ = m.coschedule_fractions()


NON_FINITE = [float("nan"), float("inf")]


class TestNonFiniteObservations:
    """NaN/inf reaching the metrics raises a typed error naming the
    quantity and its value, and leaves the accumulator untouched."""

    @staticmethod
    def _untouched(m: SystemMetrics) -> bool:
        return m.to_state() == SystemMetrics().to_state()

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_interval_dt(self, value):
        m = SystemMetrics()
        with pytest.raises(SimulationError, match=rf"interval dt {value!r}"):
            m.observe_interval(value, ("a",), 1, 1.0)
        assert self._untouched(m)

    @pytest.mark.parametrize("value", NON_FINITE + [float("-inf")])
    def test_work(self, value):
        m = SystemMetrics()
        with pytest.raises(SimulationError, match=rf"work {value!r}"):
            m.observe_interval(1.0, ("a",), 1, value)
        assert self._untouched(m)

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_turnaround(self, value):
        m = SystemMetrics()
        with pytest.raises(SimulationError, match=rf"turnaround {value!r}"):
            m.observe_completion(value)
        assert m.completed == 0
        assert self._untouched(m)
