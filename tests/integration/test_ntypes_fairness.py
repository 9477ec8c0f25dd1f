"""Section V.B (N-sweep) and Section V.D (fairness counterfactual) shapes."""

from __future__ import annotations

import pytest

from repro.experiments.common import sample_workloads
from repro.experiments.fairness_cf import compute_fairness_cf
from repro.experiments.ntypes import compute_ntypes, run
from repro.experiments.registry import RunOptions


class TestNTypesShape:
    @pytest.fixture(scope="class")
    def points(self, context):
        return compute_ntypes(
            context.smt_rates,
            n_values=(2, 4, 8),
            max_workloads_per_n=25,
            seed=11,
        )

    def test_gains_stay_small_for_all_n(self, points):
        """Paper: N=8 raises the SMT optimal gain only to ~4.5%."""
        for p in points:
            assert 0.0 <= p.mean_gain < 0.12

    def test_no_explosive_growth_with_n(self, points):
        by_n = {p.n_types: p.mean_gain for p in points}
        assert by_n[8] < 3 * max(by_n[4], 0.01)

    def test_run_honours_the_workload_cap(self, context):
        """``--max-workloads`` (and ``--quick``) cap the sample per N."""
        points = run(context, RunOptions(max_workloads=5))
        assert [p.n_types for p in points] == [2, 3, 4, 6, 8]
        assert all(1 <= p.workloads <= 5 for p in points)


class TestFairnessShape:
    @pytest.fixture(scope="class")
    def outcomes(self, context):
        workloads = sample_workloads(context.workloads, 10, seed=13)
        return compute_fairness_cf(context.smt_rates, workloads)

    def test_optimal_never_hurt_by_equalization(self, outcomes):
        for o in outcomes:
            assert o.optimal_change >= -1e-9

    def test_optimal_improves_on_average(self, outcomes):
        mean = sum(o.optimal_change for o in outcomes) / len(outcomes)
        assert mean > 0.01

    def test_fcfs_and_worst_barely_move(self, outcomes):
        """Paper: 'the average throughput of the FCFS and worst
        schedulers remains unchanged'."""
        for o in outcomes:
            assert abs(o.fcfs_change) < 0.05
            assert o.worst_change < 0.02

    def test_hetero_coschedule_dominates_after_transform(self, outcomes):
        """Paper: the optimal scheduler then selects the heterogeneous
        coschedule for most of the time."""
        mean_after = sum(o.hetero_fraction_after for o in outcomes) / len(
            outcomes
        )
        assert mean_after > 0.6

    def test_hetero_fraction_increases(self, outcomes):
        for o in outcomes:
            assert (
                o.hetero_fraction_after >= o.hetero_fraction_before - 1e-9
            )
