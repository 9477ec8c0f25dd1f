"""Tests for the job-sensitivity analysis (Section V.C.1a)."""

from __future__ import annotations

import pytest

from repro.core.sensitivity import per_type_rate_spread, workload_sensitivity
from repro.core.workload import Workload
from repro.microarch.rates import TableRates

AB = Workload.of("A", "B")


class TestSensitivity:
    def test_insensitive_workload(self, insensitive_rates):
        report = workload_sensitivity(insensitive_rates, AB, contexts=2)
        assert report.mean_sensitivity == pytest.approx(0.0, abs=1e-12)

    def test_sensitive_workload(self, synthetic_rates):
        report = workload_sensitivity(synthetic_rates, AB, contexts=2)
        assert report.mean_sensitivity > 0.1

    def test_per_type_entries(self, synthetic_rates):
        report = workload_sensitivity(synthetic_rates, AB, contexts=2)
        assert set(report.per_type) == {"A", "B"}
        assert report.mean_sensitivity == pytest.approx(
            sum(report.per_type.values()) / 2
        )

    def test_contexts_required_without_machine(self, synthetic_rates):
        with pytest.raises(ValueError):
            workload_sensitivity(synthetic_rates, AB)


class TestRateSpread:
    def test_equal_types_zero_spread(self):
        rates = TableRates(
            {
                ("A", "A"): {"A": 1.0},
                ("A", "B"): {"A": 0.5, "B": 0.5},
                ("B", "B"): {"B": 1.0},
            }
        )
        assert per_type_rate_spread(rates, AB, contexts=2) == pytest.approx(0.0)

    def test_fast_slow_spread(self, insensitive_rates):
        # A mean per-job rate 0.8, B 0.4 -> spread 0.4.
        assert per_type_rate_spread(
            insensitive_rates, AB, contexts=2
        ) == pytest.approx(0.4)

    def test_smt_has_large_spread_on_mixed_workload(self, smt_rates, mixed_workload):
        """Mixing mcf with hmmer gives a large per-type mean-WIPC spread
        — the paper's Section V.C.2 mechanism on SMT."""
        assert per_type_rate_spread(smt_rates, mixed_workload) > 0.1
