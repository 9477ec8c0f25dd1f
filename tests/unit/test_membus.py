"""Tests for the memory-bus contention model."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from repro.microarch.membus import (
    bus_model,
    bus_queueing_delay,
    bus_utilization,
)


class TestBusUtilization:
    def test_zero_traffic(self):
        assert bus_utilization(0.0, 20.0) == 0.0

    def test_linear_region(self):
        assert bus_utilization(0.01, 20.0) == pytest.approx(0.2)

    def test_clamped(self):
        assert bus_utilization(1.0, 100.0) == 0.95
        assert bus_utilization(1.0, 100.0, max_utilization=0.9) == 0.9

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            bus_utilization(-0.1, 20.0)
        with pytest.raises(ValueError):
            bus_utilization(0.1, 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_miss_rate_raises(self, bad):
        with pytest.raises(ValueError, match="finite"):
            bus_utilization(bad, 20.0)
        with pytest.raises(ValueError, match="finite"):
            bus_queueing_delay(bad, 20.0)

    def test_model_passes_nan_through(self):
        """Inside a contention map a NaN is left to the fixed-point
        solver, whose non-finite-iterate error moves the damping ladder
        on to its next rung."""
        utilization, delay = bus_model(20.0)(math.nan)
        assert math.isnan(utilization) and math.isnan(delay)


class TestBusQueueingDelay:
    def test_zero_at_zero_load(self):
        assert bus_queueing_delay(0.0, 20.0) == 0.0

    def test_md1_formula(self):
        # U = 0.5 -> delay = S * 0.5 / (2 * 0.5) = S / 2.
        assert bus_queueing_delay(0.025, 20.0) == pytest.approx(10.0)

    def test_explodes_near_saturation(self):
        low = bus_queueing_delay(0.02, 20.0)
        high = bus_queueing_delay(0.047, 20.0)
        assert high > 5 * low

    def test_finite_at_clamp(self):
        delay = bus_queueing_delay(10.0, 20.0)
        assert delay == pytest.approx(20.0 * 0.95 / (2 * 0.05))

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=1.0, max_value=100.0),
    )
    def test_nonnegative_and_monotone(self, rate, service):
        delay = bus_queueing_delay(rate, service)
        assert delay >= 0.0
        assert bus_queueing_delay(rate * 0.5, service) <= delay + 1e-12
