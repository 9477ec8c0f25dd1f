"""Tests for the linear-bottleneck analysis (Section V.C.1b)."""

from __future__ import annotations

from itertools import combinations_with_replacement

import pytest

from repro.core.bottleneck import BottleneckFit, fit_linear_bottleneck
from repro.core.optimal import optimal_throughput
from repro.core.workload import Workload
from repro.microarch.rates import TableRates

AB = Workload.of("A", "B")


def exact_bottleneck_rates(R: dict[str, float], k: int = 2) -> TableRates:
    """Rates of an exact linear bottleneck with equal resource shares."""
    table = {}
    for cos in combinations_with_replacement(sorted(R), k):
        counts = {b: cos.count(b) for b in set(cos)}
        table[cos] = {b: counts[b] / k * R[b] for b in counts}
    return TableRates(table)


def equation7_throughput(fit: BottleneckFit) -> float:
    """Equation 7: ``AT = N / sum_b (1 / R_b)`` for an exact bottleneck."""
    return len(fit.full_rates) / sum(1.0 / r for r in fit.full_rates.values())


class TestExactBottleneck:
    def test_zero_error(self):
        rates = exact_bottleneck_rates({"A": 2.0, "B": 1.0})
        fit = fit_linear_bottleneck(rates, AB, contexts=2)
        assert fit.error == pytest.approx(0.0, abs=1e-12)

    def test_recovers_full_rates(self):
        rates = exact_bottleneck_rates({"A": 2.0, "B": 1.0})
        fit = fit_linear_bottleneck(rates, AB, contexts=2)
        assert fit.full_rates["A"] == pytest.approx(2.0, rel=1e-6)
        assert fit.full_rates["B"] == pytest.approx(1.0, rel=1e-6)

    def test_equation7_matches_lp(self):
        """For an exact bottleneck, Equation 7's throughput equals the
        LP optimum (scheduling cannot matter)."""
        rates = exact_bottleneck_rates({"A": 2.0, "B": 1.0})
        fit = fit_linear_bottleneck(rates, AB, contexts=2)
        lp = optimal_throughput(rates, AB, contexts=2)
        assert equation7_throughput(fit) == pytest.approx(
            lp.throughput, rel=1e-6
        )

    def test_three_types(self):
        R = {"A": 3.0, "B": 2.0, "C": 1.0}
        rates = exact_bottleneck_rates(R, k=3)
        workload = Workload.of("A", "B", "C")
        fit = fit_linear_bottleneck(rates, workload, contexts=3)
        assert fit.error == pytest.approx(0.0, abs=1e-12)
        expected = 3 / (1 / 3.0 + 1 / 2.0 + 1 / 1.0)
        assert equation7_throughput(fit) == pytest.approx(expected, rel=1e-6)


class TestImperfectFit:
    def test_nonzero_error_for_non_bottleneck(self, synthetic_rates):
        fit = fit_linear_bottleneck(synthetic_rates, AB, contexts=2)
        assert fit.error > 1e-4

    def test_nonnegative_inverse_rates(self):
        """The non-negativity projection never reports negative R_b."""
        rates = TableRates(
            {
                ("A", "A"): {"A": 0.1},
                ("A", "B"): {"A": 0.05, "B": 3.0},
                ("B", "B"): {"B": 3.0},
            }
        )
        fit = fit_linear_bottleneck(rates, AB, contexts=2)
        for value in fit.full_rates.values():
            assert value > 0.0  # inf allowed, negative not

    def test_smt_compute_workload_near_bottleneck(self, smt_rates):
        """The paper: high-IPC SMT workloads sit near the dispatch-width
        linear bottleneck."""
        compute = Workload.of("calculix", "h264ref", "hmmer", "tonto")
        memory = Workload.of("libquantum", "mcf", "xalancbmk", "gcc.g23")
        compute_fit = fit_linear_bottleneck(smt_rates, compute)
        memory_fit = fit_linear_bottleneck(smt_rates, memory)
        assert compute_fit.error < memory_fit.error
