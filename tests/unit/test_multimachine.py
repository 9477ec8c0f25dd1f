"""Tests for the Section-III-D multi-machine reduction."""

from __future__ import annotations

import pytest

from repro.core.multimachine import (
    joint_optimal_throughput,
    reduced_optimal_throughput,
)
from repro.core.optimal import optimal_throughput
from repro.core.workload import Workload
from repro.errors import WorkloadError

AB = Workload.of("A", "B")


class TestReduction:
    @pytest.mark.parametrize("n_machines", [1, 2, 3])
    def test_joint_equals_reduced(self, synthetic_rates, n_machines):
        """The paper's remark: the joint LP gains nothing over solving
        one machine and replicating."""
        joint = joint_optimal_throughput(
            synthetic_rates, AB, n_machines, contexts=2
        )
        reduced = reduced_optimal_throughput(
            synthetic_rates, AB, n_machines, contexts=2
        )
        assert joint.throughput == pytest.approx(
            reduced.throughput, rel=1e-8
        )

    def test_per_machine_throughput(self, synthetic_rates):
        schedule = reduced_optimal_throughput(
            synthetic_rates, AB, 4, contexts=2
        )
        single = optimal_throughput(synthetic_rates, AB, contexts=2)
        assert schedule.throughput / 4 == pytest.approx(single.throughput)

    def test_reduced_replicates_fractions(self, synthetic_rates):
        schedule = reduced_optimal_throughput(
            synthetic_rates, AB, 2, contexts=2
        )
        assert len(schedule.per_machine_fractions) == 2
        assert (
            schedule.per_machine_fractions[0]
            == schedule.per_machine_fractions[1]
        )

    def test_joint_machine_budgets_each_sum_to_one(self, synthetic_rates):
        joint = joint_optimal_throughput(
            synthetic_rates, AB, 2, contexts=2
        )
        for fractions in joint.per_machine_fractions:
            assert sum(fractions.values()) == pytest.approx(1.0)

    def test_on_simulated_rates(self, smt_rates, mixed_workload):
        joint = joint_optimal_throughput(smt_rates, mixed_workload, 2)
        reduced = reduced_optimal_throughput(smt_rates, mixed_workload, 2)
        assert joint.throughput == pytest.approx(
            reduced.throughput, rel=1e-7
        )

    def test_bad_machine_count(self, synthetic_rates):
        with pytest.raises(WorkloadError):
            joint_optimal_throughput(synthetic_rates, AB, 0, contexts=2)
        with pytest.raises(WorkloadError):
            reduced_optimal_throughput(synthetic_rates, AB, -1, contexts=2)
