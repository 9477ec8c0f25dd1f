"""Tests for repro.util.multiset."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from repro.util.multiset import (
    distinct_count,
    multiset_draw_probability,
    multisets,
    replace_one,
    sub_multisets,
)


class TestMultisets:
    def test_enumerates_combinations_with_repetition(self):
        assert list(multisets("AB", 2)) == [
            ("A", "A"),
            ("A", "B"),
            ("B", "B"),
        ]

    def test_paper_counts(self):
        # 4 types on 4 contexts -> 35 coschedules; 12 benchmarks -> 1365.
        assert len(list(multisets("ABCD", 4))) == 35
        assert len(list(multisets("ABCDEFGHIJKL", 4))) == 1365

    def test_size_zero_yields_empty_tuple(self):
        assert list(multisets("AB", 0)) == [()]

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            multisets("AB", -1)

    def test_duplicate_items_rejected(self):
        with pytest.raises(ValueError):
            multisets("AA", 2)

    def test_results_are_canonically_sorted(self):
        for combo in multisets(("a", "b", "c"), 3):
            assert tuple(sorted(combo)) == combo


class TestMultisetCount:
    def test_matches_enumeration(self):
        for n, k in [(1, 1), (2, 3), (4, 4), (5, 2)]:
            items = [str(i) for i in range(n)]
            assert len(list(multisets(items, k))) == math.comb(n + k - 1, k)

    def test_zero_items(self):
        assert list(multisets((), 0)) == [()]
        assert list(multisets((), 3)) == []


class TestDrawProbability:
    def test_homogeneous_four_of_four(self):
        # P(AAAA) = (1/4)^4; there are 4 such coschedules -> 4/256.
        assert multiset_draw_probability(("A",) * 4, 4) == pytest.approx(
            (1 / 4) ** 4
        )

    def test_fully_heterogeneous(self):
        # P(ABCD in any order) = 4! / 4^4.
        assert multiset_draw_probability(("A", "B", "C", "D"), 4) == pytest.approx(
            24 / 256
        )

    def test_paper_heterogeneity_percentages(self):
        """The paper's 2% / 33% / 56% / 9% FCFS draw mix at N=K=4."""
        by_heterogeneity = {1: 0.0, 2: 0.0, 3: 0.0, 4: 0.0}
        for combo in multisets("ABCD", 4):
            by_heterogeneity[distinct_count(combo)] += (
                multiset_draw_probability(combo, 4)
            )
        assert by_heterogeneity[1] == pytest.approx(0.0156, abs=1e-3)
        assert by_heterogeneity[2] == pytest.approx(0.3281, abs=1e-3)
        assert by_heterogeneity[3] == pytest.approx(0.5625, abs=1e-3)
        assert by_heterogeneity[4] == pytest.approx(0.0938, abs=1e-3)

    @given(st.integers(2, 6), st.integers(1, 5))
    def test_probabilities_sum_to_one(self, n_types, k):
        items = [str(i) for i in range(n_types)]
        total = sum(
            multiset_draw_probability(ms, n_types)
            for ms in multisets(items, k)
        )
        assert total == pytest.approx(1.0)

    def test_more_distinct_than_types_rejected(self):
        with pytest.raises(ValueError):
            multiset_draw_probability(("A", "B", "C"), 2)

    def test_bad_n_types_rejected(self):
        with pytest.raises(ValueError):
            multiset_draw_probability(("A",), 0)


class TestReplaceOne:
    def test_basic_replacement(self):
        assert replace_one(("A", "A", "B"), "A", "C") == ("A", "B", "C")

    def test_replacement_with_same_type_is_identity(self):
        assert replace_one(("A", "B"), "B", "B") == ("A", "B")

    def test_missing_element_rejected(self):
        with pytest.raises(ValueError):
            replace_one(("A", "B"), "C", "A")

    def test_result_is_canonical(self):
        result = replace_one(("A", "C"), "C", "B")
        assert result == tuple(sorted(result))


class TestSubMultisets:
    def test_distinct_submultisets(self):
        assert sorted(set(sub_multisets(("A", "A", "B"), 2))) == [
            ("A", "A"),
            ("A", "B"),
        ]

    def test_size_larger_than_multiset(self):
        assert list(sub_multisets(("A",), 2)) == []

    def test_full_size_returns_self(self):
        ms = ("A", "B", "B", "C")
        assert set(sub_multisets(ms, 4)) == {ms}

    def test_size_zero(self):
        assert set(sub_multisets(("A", "B"), 0)) == {()}

    @given(
        st.lists(st.sampled_from("ABC"), min_size=1, max_size=6),
        st.integers(0, 6),
    )
    def test_every_result_is_contained(self, items, size):
        ms = tuple(sorted(items))
        from collections import Counter

        outer = Counter(ms)
        for sub in sub_multisets(ms, size):
            assert len(sub) == size or size > len(ms)
            inner = Counter(sub)
            assert all(inner[key] <= outer[key] for key in inner)
