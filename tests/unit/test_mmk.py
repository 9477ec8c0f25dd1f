"""Tests for the M/M/K analytics (Figure 4)."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.experiments import figure4
from repro.queueing.mmk import MMKQueue


class TestPaperExample:
    """The Section-VI worked example, to the paper's printed precision."""

    def test_base_case(self):
        queue = MMKQueue(arrival_rate=3.5, service_rate=1.0, servers=4)
        assert queue.mean_jobs_in_system == pytest.approx(8.7, abs=0.05)
        assert queue.mean_turnaround == pytest.approx(2.5, abs=0.05)

    def test_improved_case(self):
        queue = MMKQueue(arrival_rate=3.5, service_rate=1.03, servers=4)
        assert queue.mean_jobs_in_system == pytest.approx(7.3, abs=0.05)
        assert queue.mean_turnaround == pytest.approx(2.1, abs=0.05)

    def test_sixteen_percent_reduction(self):
        base = MMKQueue(arrival_rate=3.5, service_rate=1.0, servers=4)
        improved = MMKQueue(arrival_rate=3.5, service_rate=1.03, servers=4)
        reduction = 1.0 - improved.mean_turnaround / base.mean_turnaround
        assert reduction == pytest.approx(0.16, abs=0.01)


class TestMM1Reduction:
    """With one server the formulas must match M/M/1 closed forms."""

    def test_mm1(self):
        lam, mu = 0.6, 1.0
        queue = MMKQueue(arrival_rate=lam, service_rate=mu, servers=1)
        rho = lam / mu
        assert queue.erlang_c == pytest.approx(rho)
        assert queue.mean_jobs_in_system == pytest.approx(rho / (1 - rho))
        assert queue.mean_turnaround == pytest.approx(1 / (mu - lam))
        assert queue.empty_probability == pytest.approx(1 - rho)


class TestStability:
    def test_unstable_detected(self):
        queue = MMKQueue(arrival_rate=5.0, service_rate=1.0, servers=4)
        assert not queue.is_stable
        with pytest.raises(ConfigurationError):
            _ = queue.mean_turnaround

    def test_boundary_unstable(self):
        queue = MMKQueue(arrival_rate=4.0, service_rate=1.0, servers=4)
        assert not queue.is_stable

    def test_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            MMKQueue(arrival_rate=0.0, service_rate=1.0, servers=4)
        with pytest.raises(ConfigurationError):
            MMKQueue(arrival_rate=1.0, service_rate=0.0, servers=4)
        with pytest.raises(ConfigurationError):
            MMKQueue(arrival_rate=1.0, service_rate=1.0, servers=0)


class TestCurve:
    """Figure 4's sampled curves: flat at low load, exploding as the
    arrival rate approaches the maximum service rate K * mu."""

    def test_monotone_increasing(self):
        curve = figure4.compute_curves(n_points=12)
        for column in ("base_turnaround", "improved_turnaround"):
            values = [getattr(point, column) for point in curve]
            assert values == sorted(values)

    def test_infinite_beyond_capacity(self):
        curve = figure4.compute_curves(n_points=21, max_load=1.05)
        for point in curve:
            base_stable = point.arrival_rate < 4.0
            improved_stable = point.arrival_rate < 4.0 * 1.03
            assert (point.base_turnaround != float("inf")) == base_stable
            assert (
                point.improved_turnaround != float("inf")
            ) == improved_stable
        assert any(p.base_turnaround == float("inf") for p in curve)

    def test_low_load_approaches_service_time(self):
        first = figure4.compute_curves(service_rate=2.0, n_points=1000)[0]
        assert first.base_turnaround == pytest.approx(0.5, rel=1e-3)

    def test_higher_service_rate_always_faster(self):
        curve = figure4.compute_curves(n_points=9)
        assert all(
            p.improved_turnaround < p.base_turnaround for p in curve
        )
