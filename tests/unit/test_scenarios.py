"""Tests for the workload-scenario registry."""

from __future__ import annotations

import json
import statistics

import pytest

from repro.errors import WorkloadError
from repro.queueing.scenarios import (
    SCENARIOS,
    Scenario,
    all_scenarios,
    get_scenario,
    register_scenario,
)

TYPES = ("A", "B", "C", "D")


def fields(jobs):
    return [
        (j.job_id, j.job_type, j.size, j.arrival_time) for j in jobs
    ]


class TestRegistry:
    def test_ships_the_documented_scenarios(self):
        names = list(SCENARIOS)
        assert len(names) >= 8
        for expected in (
            "baseline_poisson",
            "heavy_tail",
            "mice_elephants",
            "bursty_mmpp",
            "diurnal_cycle",
            "batch_storms",
            "skewed_types",
            "saturated_backlog",
            "replayed_burst",
        ):
            assert expected in names

    def test_get_unknown_raises(self):
        with pytest.raises(WorkloadError, match="unknown scenario"):
            get_scenario("does_not_exist")

    def test_reregistration_replaces(self):
        original = get_scenario("baseline_poisson")
        try:
            replacement = Scenario(
                name="baseline_poisson",
                description="x",
                stress="y",
                arrival="poisson",
            )
            register_scenario(replacement)
            assert get_scenario("baseline_poisson") is replacement
            assert len(all_scenarios()) == len(SCENARIOS)
        finally:
            register_scenario(original)

    def test_to_jsonable_is_serializable(self):
        for scenario in all_scenarios():
            json.dumps(scenario.to_jsonable())


class TestBuildJobs:
    @pytest.mark.parametrize(
        "name", sorted(SCENARIOS), ids=lambda n: n
    )
    def test_every_scenario_generates_a_valid_stream(self, name):
        scenario = get_scenario(name)
        jobs = list(
            scenario.build_jobs(TYPES, mean_rate=2.0, seed=1, n_jobs=150)
        )
        assert len(jobs) == 150
        times = [j.arrival_time for j in jobs]
        assert times == sorted(times)
        assert [j.job_id for j in jobs] == list(range(150))
        assert all(j.size > 0.0 for j in jobs)
        assert set(j.job_type for j in jobs) <= set(TYPES)
        if scenario.saturated:
            assert all(t == 0.0 for t in times)

    @pytest.mark.parametrize(
        "name", sorted(SCENARIOS), ids=lambda n: n
    )
    def test_streams_are_deterministic(self, name):
        scenario = get_scenario(name)
        a = list(scenario.build_jobs(TYPES, mean_rate=2.0, seed=4,
                                     n_jobs=60))
        b = list(scenario.build_jobs(TYPES, mean_rate=2.0, seed=4,
                                     n_jobs=60))
        assert fields(a) == fields(b)

    def test_mean_rate_is_normalized_across_shapes(self):
        """Every non-saturated shape offers the configured mean rate —
        including MMPP, whose state rates are stored as multipliers."""
        for name in ("baseline_poisson", "bursty_mmpp", "diurnal_cycle",
                     "batch_storms"):
            scenario = get_scenario(name)
            jobs = list(
                scenario.build_jobs(
                    TYPES, mean_rate=3.0, seed=2, n_jobs=30_000
                )
            )
            rate = len(jobs) / jobs[-1].arrival_time
            assert rate == pytest.approx(3.0, rel=0.15), name

    def test_replay_is_bit_identical_to_its_base(self):
        base = list(
            get_scenario("bursty_mmpp").build_jobs(
                TYPES, mean_rate=2.0, seed=11, n_jobs=80
            )
        )
        replayed = list(
            get_scenario("replayed_burst").build_jobs(
                TYPES, mean_rate=2.0, seed=11, n_jobs=80
            )
        )
        assert fields(replayed) == fields(base)

    def test_skewed_types_skews(self):
        jobs = list(
            get_scenario("skewed_types").build_jobs(
                TYPES, mean_rate=2.0, seed=3, n_jobs=4_000
            )
        )
        counts = statistics.multimode(j.job_type for j in jobs)
        shares = {
            t: sum(1 for j in jobs if j.job_type == t) / len(jobs)
            for t in TYPES
        }
        # Weight 8:1:1:1 → the dominant type takes ~8/11 of arrivals.
        assert max(shares.values()) > 0.6
        assert counts == ["A"]

    def test_heavy_tail_sizes_are_heavy(self):
        jobs = list(
            get_scenario("heavy_tail").build_jobs(
                TYPES, mean_rate=2.0, seed=5, n_jobs=5_000
            )
        )
        sizes = sorted(j.size for j in jobs)
        assert sizes[-1] / statistics.median(sizes) > 10.0

    def test_arrival_times_invariant_under_size_law(self):
        """The derived-stream guarantee at the scenario level: two
        scenarios differing only in size law see identical clocks."""
        base = get_scenario("baseline_poisson")
        tailed = get_scenario("heavy_tail")
        t_base = [
            j.arrival_time
            for j in base.build_jobs(TYPES, mean_rate=2.0, seed=6,
                                     n_jobs=100)
        ]
        t_tail = [
            j.arrival_time
            for j in tailed.build_jobs(TYPES, mean_rate=2.0, seed=6,
                                       n_jobs=100)
        ]
        assert t_base == t_tail


class TestValidation:
    def test_unknown_arrival_kind(self):
        with pytest.raises(WorkloadError, match="unknown arrival kind"):
            Scenario(name="x", description="", stress="",
                     arrival="teleport")

    def test_load_bounds(self):
        with pytest.raises(WorkloadError, match="load"):
            Scenario(name="x", description="", stress="",
                     arrival="poisson", load=0.0)
        with pytest.raises(WorkloadError, match="load"):
            Scenario(name="x", description="", stress="",
                     arrival="poisson", load=1.5)

    def test_n_jobs_positive(self):
        with pytest.raises(WorkloadError, match="n_jobs"):
            Scenario(name="x", description="", stress="",
                     arrival="poisson", n_jobs=0)

    def test_weights_project_onto_any_roster(self):
        scenario = get_scenario("skewed_types")
        two = scenario.weights_for(("p", "q"))
        assert set(two) == {"p", "q"}
        assert two["p"] > two["q"]
        assert scenario.weights_for(("a",)) == {"a": 8.0}
        assert get_scenario("baseline_poisson").weights_for(TYPES) is None

    def test_weights_order_double_digit_ranks_numerically(self):
        """rank10 must sort after rank9, not between rank1 and rank2."""
        scenario = Scenario(
            name="_many_ranks",
            description="x",
            stress="y",
            arrival="poisson",
            type_weights={f"rank{i}": float(20 - i) for i in range(12)},
        )
        roster = tuple(f"t{i}" for i in range(12))
        weights = scenario.weights_for(roster)
        assert [weights[t] for t in roster] == [
            float(20 - i) for i in range(12)
        ]

    def test_weights_never_recycle_on_large_rosters(self):
        """Types beyond the rank list weigh 0: a one-dominant-type
        scenario stays one-dominant on a 6-type roster instead of
        wrapping the rank weights around."""
        scenario = get_scenario("skewed_types")
        six = ("t0", "t1", "t2", "t3", "t4", "t5")
        weights = scenario.weights_for(six)
        assert weights["t0"] == 8.0
        assert weights["t4"] == 0.0 and weights["t5"] == 0.0
        jobs = list(
            scenario.build_jobs(six, mean_rate=2.0, seed=1, n_jobs=500)
        )
        assert {j.job_type for j in jobs} <= {"t0", "t1", "t2", "t3"}

    def test_replay_honors_its_own_default_n_jobs(self):
        """The replay branch resolves n_jobs before delegating: a
        replay scenario with its own default must not inherit the base
        scenario's (larger) default stream length."""
        short = Scenario(
            name="_short_replay",
            description="x",
            stress="y",
            arrival="replay",
            arrival_params={"base": "bursty_mmpp"},
            n_jobs=25,
        )
        jobs = list(short.build_jobs(TYPES, mean_rate=2.0, seed=3))
        assert len(jobs) == 25
