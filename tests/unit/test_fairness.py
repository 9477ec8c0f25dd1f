"""Tests for the Section-V.D fairness counterfactual."""

from __future__ import annotations

import pytest

from repro.core.fairness import equalize_heterogeneous_rates
from repro.core.optimal import optimal_throughput
from repro.core.workload import Workload
from repro.errors import WorkloadError
from repro.microarch.rates import TableRates

AB = Workload.of("A", "B")


class TestEqualize:
    def test_preserves_instantaneous_throughput(self, synthetic_rates):
        fair = equalize_heterogeneous_rates(synthetic_rates, AB, contexts=2)
        before = synthetic_rates.instantaneous_throughput(("A", "B"))
        after = fair.instantaneous_throughput(("A", "B"))
        assert after == pytest.approx(before, rel=1e-12)

    def test_full_blend_equalizes(self, synthetic_rates):
        fair = equalize_heterogeneous_rates(synthetic_rates, AB, contexts=2)
        rates = fair.type_rates(("A", "B"))
        assert rates["A"] == pytest.approx(rates["B"])

    def test_zero_blend_is_identity(self, synthetic_rates):
        same = equalize_heterogeneous_rates(
            synthetic_rates, AB, contexts=2, blend=0.0
        )
        assert same.type_rates(("A", "B")) == pytest.approx(
            synthetic_rates.type_rates(("A", "B"))
        )

    def test_partial_blend_between(self, synthetic_rates):
        half = equalize_heterogeneous_rates(
            synthetic_rates, AB, contexts=2, blend=0.5
        )
        rates = half.type_rates(("A", "B"))
        assert 0.5 < rates["A"] < 0.9
        assert 0.5 < rates["B"] < 0.7

    def test_other_coschedules_untouched(self, synthetic_rates):
        fair = equalize_heterogeneous_rates(synthetic_rates, AB, contexts=2)
        assert fair.type_rates(("A", "A")) == pytest.approx(
            synthetic_rates.type_rates(("A", "A"))
        )

    def test_input_table_untouched(self, synthetic_rates):
        """The counterfactual is a new table; the baseline it is
        compared with keeps its heterogeneous rates."""
        equalize_heterogeneous_rates(synthetic_rates, AB, contexts=2)
        assert synthetic_rates.type_rates(("A", "B")) == {"A": 0.9, "B": 0.5}

    def test_requires_n_equal_k(self, synthetic_rates):
        with pytest.raises(WorkloadError):
            equalize_heterogeneous_rates(synthetic_rates, AB, contexts=3)

    def test_blend_bounds(self, synthetic_rates):
        with pytest.raises(WorkloadError):
            equalize_heterogeneous_rates(
                synthetic_rates, AB, contexts=2, blend=1.5
            )


class TestPaperEffect:
    def test_optimal_improves_and_uses_hetero_coschedule(self):
        """After equalization the optimal scheduler can lean on the
        heterogeneous coschedule (the paper's Section-V.D result)."""
        # Unfair hetero coschedule: great total (1.8) but very skewed.
        rates = TableRates(
            {
                ("A", "A"): {"A": 1.1},
                ("A", "B"): {"A": 1.5, "B": 0.3},
                ("B", "B"): {"B": 1.0},
            }
        )
        before = optimal_throughput(rates, AB, contexts=2)
        fair = equalize_heterogeneous_rates(rates, AB, contexts=2)
        after = optimal_throughput(fair, AB, contexts=2)
        assert after.throughput > before.throughput
        assert after.fraction_of(("A", "B")) == pytest.approx(1.0, abs=1e-9)
