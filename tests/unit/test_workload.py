"""Tests for Workload."""

from __future__ import annotations

import pytest

from repro.core.workload import Workload, all_workloads
from repro.errors import WorkloadError
from repro.microarch.benchmarks import BENCHMARK_NAMES


class TestWorkload:
    def test_of_canonicalizes(self):
        assert Workload.of("mcf", "bzip2").types == ("bzip2", "mcf")

    def test_duplicates_rejected(self):
        with pytest.raises(WorkloadError):
            Workload.of("mcf", "mcf")

    def test_raw_constructor_requires_canonical(self):
        with pytest.raises(WorkloadError):
            Workload(types=("b", "a"))

    def test_empty_rejected(self):
        with pytest.raises(WorkloadError):
            Workload(types=())

    def test_coschedule_count_paper(self):
        workload = Workload.of("a", "b", "c", "d")
        assert len(workload.coschedules(4)) == 35

    def test_coschedules_are_canonical(self):
        workload = Workload.of("x", "y")
        for cos in workload.coschedules(3):
            assert cos == tuple(sorted(cos))

    def test_bad_contexts(self):
        with pytest.raises(WorkloadError):
            Workload.of("a").coschedules(0)

    def test_membership_and_iteration(self):
        workload = Workload.of("a", "b")
        assert "a" in workload
        assert list(workload) == ["a", "b"]

    def test_label(self):
        assert Workload.of("b", "a").label() == "a+b"


class TestAllWorkloads:
    def test_paper_count_495(self):
        assert len(all_workloads(BENCHMARK_NAMES, 4)) == 495

    def test_n8_count(self):
        assert len(all_workloads(BENCHMARK_NAMES, 8)) == 495  # C(12,8)

    def test_distinct(self):
        workloads = all_workloads(["a", "b", "c"], 2)
        assert len({w.types for w in workloads}) == 3

    def test_too_many_types_rejected(self):
        with pytest.raises(WorkloadError):
            all_workloads(["a", "b"], 3)

    def test_zero_types_rejected(self):
        with pytest.raises(WorkloadError):
            all_workloads(["a"], 0)
