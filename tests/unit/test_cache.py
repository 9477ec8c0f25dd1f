"""Tests for the shared-cache contention model."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from repro.microarch.cache import cache_shares, share_allocator

pressures = st.lists(
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    min_size=1,
    max_size=8,
)


class TestCacheShares:
    def test_single_job_gets_everything(self):
        assert cache_shares([5.0], 4.0) == [4.0]

    def test_zero_pressure_splits_evenly(self):
        assert cache_shares([0.0, 0.0], 4.0) == [2.0, 2.0]

    def test_higher_pressure_gets_more(self):
        low, high = cache_shares([1.0, 4.0], 8.0)
        assert high > low

    def test_floor_respected(self):
        shares = cache_shares([0.0001, 100.0], 4.0, floor_fraction=0.1)
        assert min(shares) >= 0.1 * 4.0 - 1e-12

    def test_concave_exponent_softens_dominance(self):
        linear = cache_shares([1.0, 9.0], 10.0, exponent=1.0, floor_fraction=0.0)
        concave = cache_shares([1.0, 9.0], 10.0, exponent=0.5, floor_fraction=0.0)
        assert concave[0] > linear[0]

    def test_equal_pressures_split_evenly(self):
        shares = cache_shares([2.0, 2.0, 2.0, 2.0], 8.0)
        assert all(s == pytest.approx(2.0) for s in shares)

    def test_empty_input(self):
        assert cache_shares([], 4.0) == []

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_pressure_raises(self, bad):
        with pytest.raises(ValueError, match="finite"):
            cache_shares([bad, 1.0], 8.0)

    def test_allocator_passes_nan_through(self):
        """Inside a contention map a NaN is left to the fixed-point
        solver, whose non-finite-iterate error moves the damping ladder
        on to its next rung."""
        shares = share_allocator(2, 8.0)([math.nan, 1.0])
        assert all(math.isnan(share) for share in shares)

    def test_bad_inputs_rejected(self):
        with pytest.raises(ValueError):
            cache_shares([1.0], 0.0)
        with pytest.raises(ValueError):
            cache_shares([-1.0, 1.0], 4.0)
        with pytest.raises(ValueError):
            cache_shares([1.0, 1.0], 4.0, exponent=0.0)
        with pytest.raises(ValueError):
            cache_shares([1.0] * 4, 4.0, floor_fraction=0.3)

    @given(pressures, st.floats(min_value=0.1, max_value=64.0))
    def test_conservation(self, pressure_list, total):
        shares = cache_shares(pressure_list, total)
        assert sum(shares) == pytest.approx(total, rel=1e-9)

    @given(pressures, st.floats(min_value=0.1, max_value=64.0))
    def test_all_nonnegative(self, pressure_list, total):
        assert all(s >= 0.0 for s in cache_shares(pressure_list, total))

    @given(
        st.lists(
            st.floats(min_value=0.01, max_value=10.0, allow_nan=False),
            min_size=2,
            max_size=6,
        )
    )
    def test_order_preserved(self, pressure_list):
        """More pressure never yields less cache."""
        shares = cache_shares(pressure_list, 16.0)
        pairs = sorted(zip(pressure_list, shares))
        for (p1, s1), (p2, s2) in zip(pairs, pairs[1:]):
            if p2 > p1:
                assert s2 >= s1 - 1e-12
