"""Tests for the Section-IV throughput LP (repro.core.optimal)."""

from __future__ import annotations

import math
from itertools import combinations_with_replacement

import pytest

from repro.core.optimal import optimal_throughput, worst_throughput
from repro.core.workload import Workload
from repro.errors import SolverError, WorkloadError
from repro.microarch.rates import TableRates
from repro.queueing.hotpath import synthetic_rates as hotpath_rates

AB = Workload.of("A", "B")


class TestSyntheticTwoTypes:
    """Hand-checkable 2-type, 2-context programs."""

    def test_optimal_matches_hand_computation(self, synthetic_rates):
        # Schedules: pure-AB (fair? r_A=0.9, r_B=0.5 -> unequal work);
        # candidates combine AA (A:1.6), AB (A:.9,B:.5), BB (B:.8).
        best = optimal_throughput(synthetic_rates, AB, contexts=2)
        worst = worst_throughput(synthetic_rates, AB, contexts=2)
        # Brute-force over the 2-simplex of (x_AA, x_AB, x_BB).
        def throughput(x_aa, x_ab):
            x_bb = 1.0 - x_aa - x_ab
            work_a = 1.6 * x_aa + 0.9 * x_ab
            work_b = 0.5 * x_ab + 0.8 * x_bb
            if abs(work_a - work_b) > 1e-6:
                return None
            return work_a + work_b

        feasible = []
        steps = 2000
        for i in range(steps + 1):
            x_aa = i / steps
            # Solve the equal-work constraint for x_ab given x_aa:
            # 1.6 a + 0.9 m = 0.5 m + 0.8 (1 - a - m)
            # 1.6 a + 0.4 m = 0.8 - 0.8 a - 0.8 m -> m = (0.8 - 2.4 a)/1.2
            x_ab = (0.8 - 2.4 * x_aa) / 1.2
            if 0.0 <= x_ab and x_aa + x_ab <= 1.0 + 1e-12:
                value = throughput(x_aa, x_ab)
                if value is not None:
                    feasible.append(value)
        assert best.throughput == pytest.approx(max(feasible), abs=1e-3)
        assert worst.throughput == pytest.approx(min(feasible), abs=1e-3)

    def test_equal_work_satisfied(self, synthetic_rates):
        best = optimal_throughput(synthetic_rates, AB, contexts=2)
        work = {"A": 0.0, "B": 0.0}
        for cos, fraction in best.fractions.items():
            for b, rate in synthetic_rates.type_rates(cos).items():
                work[b] += fraction * rate
        assert work["A"] == pytest.approx(work["B"], rel=1e-6)

    def test_fractions_sum_to_one(self, synthetic_rates):
        for solve in (optimal_throughput, worst_throughput):
            schedule = solve(synthetic_rates, AB, contexts=2)
            assert sum(schedule.fractions.values()) == pytest.approx(1.0)

    def test_per_type_rate(self, synthetic_rates):
        """Equal work: each type runs at throughput / N under the
        optimal time fractions."""
        best = optimal_throughput(synthetic_rates, AB, contexts=2)
        for job_type in ("A", "B"):
            rate = sum(
                fraction
                * synthetic_rates.type_rates(cos).get(job_type, 0.0)
                for cos, fraction in best.fractions.items()
            )
            assert rate == pytest.approx(best.throughput / 2)

    def test_insensitive_rates_leave_no_headroom(self, insensitive_rates):
        best = optimal_throughput(insensitive_rates, AB, contexts=2)
        worst = worst_throughput(insensitive_rates, AB, contexts=2)
        # Per-job rates A=0.8, B=0.4 regardless of coschedule: harmonic
        # balance gives AT = 2/(1/0.8 + 1/0.4) ... times 2 contexts.
        expected = 2 * 2 / (1 / 0.8 + 1 / 0.4)
        assert best.throughput == pytest.approx(expected, rel=1e-9)
        assert worst.throughput == pytest.approx(expected, rel=1e-9)

    def test_linear_bottleneck_rates_fix_throughput(self):
        """If r_b(s) = f_b(s) * R_b with shares summing to 1, every
        scheduler achieves N / sum(1/R_b) (paper Equation 7)."""
        R = {"A": 2.0, "B": 1.0}
        table = {}
        for cos in combinations_with_replacement("AB", 2):
            counts = {b: cos.count(b) for b in set(cos)}
            # Each job gets an equal share of the bottleneck resource.
            table[cos] = {
                b: (counts[b] / 2.0) * R[b] for b in counts
            }
        rates = TableRates(table)
        best = optimal_throughput(rates, AB, contexts=2)
        worst = worst_throughput(rates, AB, contexts=2)
        expected = 2 / (1 / 2.0 + 1 / 1.0)
        assert best.throughput == pytest.approx(expected, rel=1e-9)
        assert worst.throughput == pytest.approx(worst.throughput, rel=1e-9)
        assert best.throughput == pytest.approx(worst.throughput, rel=1e-9)


class TestOnSimulatedRates:
    def test_support_at_most_n_types(self, smt_rates, mixed_workload):
        best = optimal_throughput(smt_rates, mixed_workload)
        assert best.support_size() <= mixed_workload.n_types

    def test_optimal_at_least_worst(self, smt_rates, mixed_workload):
        best = optimal_throughput(smt_rates, mixed_workload)
        worst = worst_throughput(smt_rates, mixed_workload)
        assert best.throughput >= worst.throughput - 1e-9

    def test_contexts_inferred_from_machine(self, smt_rates, mixed_workload):
        implicit = optimal_throughput(smt_rates, mixed_workload)
        explicit = optimal_throughput(smt_rates, mixed_workload, contexts=4)
        assert implicit.throughput == pytest.approx(explicit.throughput)

    def test_contexts_required_for_frozen_tables(self, synthetic_rates):
        with pytest.raises(WorkloadError):
            optimal_throughput(synthetic_rates, AB)

    def test_bad_contexts_rejected(self, synthetic_rates):
        with pytest.raises(WorkloadError):
            optimal_throughput(synthetic_rates, AB, contexts=0)

    def test_fraction_of_unused_coschedule_is_zero(self, synthetic_rates):
        best = optimal_throughput(synthetic_rates, AB, contexts=2)
        total = sum(
            best.fraction_of(cos) for cos in AB.coschedules(2)
        )
        assert total == pytest.approx(1.0)


class _Poisoned:
    """A rate table with one coschedule's rate of one type replaced."""

    def __init__(self, source, coschedule, name, value) -> None:
        self.source = source
        self.coschedule = coschedule
        self.name = name
        self.value = value

    def type_rates(self, coschedule):
        entry = self.source.type_rates(coschedule)
        if tuple(sorted(coschedule)) == self.coschedule:
            entry = {**entry, self.name: self.value}
        return entry


class TestNonFiniteInputs:
    """Non-finite LP inputs fail loudly with a typed, named error."""

    @pytest.fixture()
    def table(self):
        rates, names = hotpath_rates(n_types=3, contexts=2, seed=7)
        return rates, Workload.of(*names)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("solve", [optimal_throughput, worst_throughput])
    def test_non_finite_rate_names_the_coschedule(self, table, solve, value):
        rates, workload = table
        poisoned = _Poisoned(rates, ("A", "B"), "B", value)
        with pytest.raises(SolverError) as excinfo:
            solve(poisoned, workload, contexts=2)
        message = str(excinfo.value)
        assert "A+B+C" in message
        assert "('A', 'B')" in message

    @pytest.mark.parametrize(
        "value", [math.nan, math.inf, -math.inf, 0.0, -1.0]
    )
    def test_bad_weight_is_a_workload_error(self, table, value):
        rates, workload = table
        with pytest.raises(WorkloadError, match="positive and finite"):
            optimal_throughput(
                rates, workload, contexts=2,
                type_weights={"A": 1.0, "B": value, "C": 1.0},
            )

    def test_overflowing_weights_are_a_workload_error(self, table):
        rates, workload = table
        with pytest.raises(WorkloadError, match="overflow"):
            optimal_throughput(
                rates, workload, contexts=2,
                type_weights={"A": 1e308, "B": 1e308, "C": 1e308},
            )
