"""Tests for RateTable / TableRates (repro.microarch.rates)."""

from __future__ import annotations

import math

import pytest

from repro.errors import WorkloadError
from repro.experiments.common import snapshot_rates
from repro.microarch.rates import TableRates, canonical_coschedule, checked_entry
from repro.util.multiset import multisets


class TestCanonical:
    def test_sorts(self):
        assert canonical_coschedule(["b", "a"]) == ("a", "b")

    def test_already_canonical_tuple_returned_as_is(self):
        """The fast path: a sorted tuple skips the re-sort and comes
        back as the *same object* (memo keys stay interned)."""
        key = ("a", "b", "b", "c")
        assert canonical_coschedule(key) is key
        assert canonical_coschedule(()) == ()
        single = ("mcf",)
        assert canonical_coschedule(single) is single

    def test_unsorted_tuple_still_sorts(self):
        assert canonical_coschedule(("b", "a", "c")) == ("a", "b", "c")
        # equal-element runs are not mistaken for disorder
        assert canonical_coschedule(("a", "a", "b")) == ("a", "a", "b")

    def test_non_tuple_iterables_always_normalize(self):
        assert canonical_coschedule(iter(["c", "a"])) == ("a", "c")
        assert canonical_coschedule({"b": 1, "a": 2}) == ("a", "b")


class TestRateTable:
    def test_alone_wipc_is_one(self, smt_rates):
        assert smt_rates.wipcs(("hmmer",)) == pytest.approx((1.0,))

    def test_type_rates_sum_matches_it(self, smt_rates):
        cos = ("bzip2", "hmmer", "libquantum", "mcf")
        rates = smt_rates.type_rates(cos)
        assert sum(rates.values()) == pytest.approx(
            smt_rates.instantaneous_throughput(cos)
        )

    def test_type_rates_accumulate_multiplicity(self, smt_rates):
        cos = ("hmmer", "hmmer", "mcf", "mcf")
        rates = smt_rates.type_rates(cos)
        per_job = smt_rates.per_job_rate(cos, "hmmer")
        assert rates["hmmer"] == pytest.approx(2 * per_job)

    def test_per_job_rate_unknown_type(self, smt_rates):
        with pytest.raises(WorkloadError):
            smt_rates.per_job_rate(("hmmer", "mcf"), "bzip2")

    def test_wipc_at_most_one(self, smt_rates):
        """No job runs faster coscheduled than alone."""
        for wipc in smt_rates.wipcs(("bzip2", "hmmer", "libquantum", "mcf")):
            assert wipc <= 1.0 + 1e-6

    def test_result_cache_returns_same_object(self, smt_rates):
        a = smt_rates.result(("bzip2", "mcf"))
        b = smt_rates.result(("mcf", "bzip2"))
        assert a is b

    def test_returned_type_rates_are_copies(self, smt_rates):
        cos = ("bzip2", "mcf")
        first = smt_rates.type_rates(cos)
        first["bzip2"] = 999.0
        assert smt_rates.type_rates(cos)["bzip2"] != 999.0

    def test_snapshot(self, smt_rates):
        """``snapshot_rates`` freezes every multiset of the run's types
        up to the context count, and nothing else."""
        frozen = snapshot_rates(smt_rates, ["mcf", "bzip2", "mcf"], 2)
        assert frozen.coschedules() == sorted([
            ("bzip2",), ("mcf",),
            ("bzip2", "bzip2"), ("bzip2", "mcf"), ("mcf", "mcf"),
        ])
        for cos in frozen.coschedules():
            assert frozen.type_rates(cos) == smt_rates.type_rates(cos)
        with pytest.raises(WorkloadError):
            frozen.type_rates(("hmmer", "hmmer"))


class TestCheckedEntry:
    def test_returns_float_copy(self):
        raw = {"A": 1, "B": 0.5}
        entry = checked_entry(("A", "B", "B"), raw)
        assert entry == {"A": 1.0, "B": 0.5}
        assert type(entry["A"]) is float
        entry["A"] = 9.0
        assert raw["A"] == 1

    def test_empty_coschedule_takes_empty_entry(self):
        assert checked_entry((), {}) == {}
        with pytest.raises(WorkloadError):
            checked_entry((), {"A": 1.0})

    def test_simulated_rates_pass(self, smt_rates):
        """Every entry the simulator produces satisfies the rule."""
        types = ("bzip2", "hmmer", "libquantum", "mcf")
        for size in (1, 2):
            for cos in multisets(types, size):
                rates = smt_rates.type_rates(cos)
                assert checked_entry(cos, rates) == rates


class TestTableRates:
    def test_basic_lookup(self, synthetic_rates):
        assert synthetic_rates.type_rates(("A", "B")) == {"A": 0.9, "B": 0.5}

    def test_canonicalizes_queries(self, synthetic_rates):
        assert synthetic_rates.type_rates(("B", "A")) == {"A": 0.9, "B": 0.5}

    def test_missing_coschedule(self, synthetic_rates):
        with pytest.raises(WorkloadError):
            synthetic_rates.type_rates(("A", "C"))

    def test_mismatched_types_rejected(self):
        with pytest.raises(WorkloadError):
            TableRates({("A", "B"): {"A": 1.0}})

    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf, -math.inf])
    def test_negative_rates_rejected(self, bad):
        """Every rate is finite and non-negative (NaN fails ``r < 0``
        too, so it needs its own check)."""
        with pytest.raises(WorkloadError):
            TableRates({("A",): {"A": bad}})

    def test_with_rates_replaces_one_entry(self, synthetic_rates):
        updated = synthetic_rates.with_rates(("A", "B"), {"A": 0.7, "B": 0.7})
        assert updated.type_rates(("A", "B"))["A"] == 0.7
        # original untouched
        assert synthetic_rates.type_rates(("A", "B"))["A"] == 0.9

    def test_with_rates_rejects_nan(self, synthetic_rates):
        with pytest.raises(WorkloadError):
            synthetic_rates.with_rates(("A", "B"), {"A": math.nan, "B": 0.5})

    def test_with_rates_missing_entry(self, synthetic_rates):
        with pytest.raises(WorkloadError):
            synthetic_rates.with_rates(("A", "C"), {"A": 1.0, "C": 1.0})

    def test_per_job_rate(self, synthetic_rates):
        assert synthetic_rates.per_job_rate(("A", "A"), "A") == pytest.approx(0.8)

    def test_instantaneous_throughput(self, synthetic_rates):
        assert synthetic_rates.instantaneous_throughput(("A", "B")) == pytest.approx(1.4)
