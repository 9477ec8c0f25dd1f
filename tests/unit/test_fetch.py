"""Tests for fetch-policy weights and the water-filling allocator."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from repro.microarch.config import FetchPolicy
from repro.microarch.fetch import rival_weights, water_fill


class TestRivalWeights:
    def test_round_robin_wastes_slots_on_stalled_threads(self):
        """Under RR a stalled thread still eats a share of fetch slots."""
        rr = rival_weights(
            FetchPolicy.ROUND_ROBIN, [0.1, 0.9], rr_slot_waste=0.5
        )
        assert rr == pytest.approx([0.55, 0.95])

    def test_round_robin_full_waste(self):
        assert rival_weights(
            FetchPolicy.ROUND_ROBIN, [0.1, 0.9], rr_slot_waste=1.0
        ) == [1.0, 1.0]

    def test_icount_rivals_below_rr(self):
        activities = [0.2, 0.6]
        icount = rival_weights(FetchPolicy.ICOUNT, activities, strength=2.5)
        rr = rival_weights(
            FetchPolicy.ROUND_ROBIN, activities, rr_slot_waste=0.5
        )
        assert all(i < r for i, r in zip(icount, rr))

    def test_bad_rr_waste_rejected(self):
        with pytest.raises(ValueError):
            rival_weights(
                FetchPolicy.ROUND_ROBIN, [0.5], rr_slot_waste=1.5
            )

    def test_icount_discounts_stalled_threads(self):
        """Under ICOUNT a mostly-stalled thread is a weak rival."""
        weights = rival_weights(FetchPolicy.ICOUNT, [1.0, 0.2], strength=2.5)
        assert weights[0] == pytest.approx(1.0)
        assert weights[1] < 0.5

    def test_zero_strength_equals_round_robin(self):
        weights = rival_weights(FetchPolicy.ICOUNT, [0.2, 0.7], strength=0.0)
        assert weights == [1.0, 1.0]

    def test_high_strength_approaches_activity(self):
        weights = rival_weights(FetchPolicy.ICOUNT, [0.3], strength=1e9)
        assert weights[0] == pytest.approx(0.3, abs=1e-6)

    def test_invalid_activity_rejected(self):
        with pytest.raises(ValueError):
            rival_weights(FetchPolicy.ICOUNT, [1.5])

    def test_monotone_in_activity(self):
        weights = rival_weights(
            FetchPolicy.ICOUNT, [0.0, 0.25, 0.5, 0.75, 1.0]
        )
        assert weights == sorted(weights)

    def test_bounded(self):
        for weight in rival_weights(FetchPolicy.ICOUNT, [0.0, 0.5, 1.0]):
            assert 0.0 <= weight <= 1.0


demands_st = st.lists(
    st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
    min_size=1,
    max_size=6,
)


class TestWaterFill:
    def test_under_subscribed_grants_demands(self):
        alloc = water_fill([1.0, 0.5], [1.0, 1.0], 4.0)
        assert alloc == pytest.approx([1.0, 0.5])

    def test_over_subscribed_shares_capacity(self):
        alloc = water_fill([3.0, 3.0], [1.0, 1.0], 4.0)
        assert alloc == pytest.approx([2.0, 2.0])

    def test_weighted_split(self):
        alloc = water_fill([5.0, 5.0], [3.0, 1.0], 4.0)
        assert alloc == pytest.approx([3.0, 1.0])

    def test_leftover_redistributed(self):
        # Thread 0 only wants 0.5; thread 1 should absorb the rest.
        alloc = water_fill([0.5, 10.0], [1.0, 1.0], 4.0)
        assert alloc == pytest.approx([0.5, 3.5])

    def test_zero_capacity(self):
        assert water_fill([1.0, 2.0], [1.0, 1.0], 0.0) == [0.0, 0.0]

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            water_fill([1.0], [1.0, 2.0], 4.0)
        with pytest.raises(ValueError):
            water_fill([-1.0], [1.0], 4.0)
        with pytest.raises(ValueError):
            water_fill([1.0], [-1.0], 4.0)
        with pytest.raises(ValueError):
            water_fill([1.0], [1.0], -1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_inputs_raise(self, bad):
        with pytest.raises(ValueError, match="demands"):
            water_fill([bad, 1.0], [1, 1], 2.0)
        with pytest.raises(ValueError, match="weights"):
            water_fill([1.0, 1.0], [bad, 1.0], 2.0)
        with pytest.raises(ValueError, match="capacity"):
            water_fill([1.0, 1.0], [1, 1], bad)

    def test_weights_add_left_to_right(self):
        """The split is Python 3.11's on every version: 3.12's
        compensated ``sum()`` would give 0.16666666666666669,
        0.33333333333333337 and 0.5 here."""
        alloc = water_fill([5.0, 5.0, 5.0], [0.1, 0.2, 0.3], 1.0)
        assert alloc == [
            0.16666666666666666,
            0.3333333333333333,
            0.4999999999999999,
        ]

    @given(demands_st, st.floats(min_value=0.0, max_value=10.0))
    def test_capacity_and_demand_caps(self, demands, capacity):
        weights = [1.0] * len(demands)
        alloc = water_fill(demands, weights, capacity)
        assert sum(alloc) <= capacity + 1e-9
        for a, d in zip(alloc, demands):
            assert -1e-12 <= a <= d + 1e-9

    @given(demands_st)
    def test_work_conserving(self, demands):
        """If total demand exceeds capacity, all capacity is used."""
        capacity = 1.0
        if sum(demands) >= capacity:
            alloc = water_fill(demands, [1.0] * len(demands), capacity)
            assert sum(alloc) == pytest.approx(capacity, abs=1e-9)
