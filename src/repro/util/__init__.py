"""Shared utilities: multiset combinatorics, fixed points, statistics."""

from repro.util.multiset import (
    multisets,
    multiset_draw_probability,
    distinct_count,
    replace_one,
    sub_multisets,
)
from repro.util.fixedpoint import FixedPointResult, solve_fixed_point
from repro.util.stats import (
    pearson,
    slope_through_origin,
    spread,
    summarize,
    SummaryStats,
)
from repro.util.rng import make_rng
from repro.util.asciiplot import hbar, scatter

__all__ = [
    "hbar",
    "scatter",
    "multisets",
    "multiset_draw_probability",
    "distinct_count",
    "replace_one",
    "sub_multisets",
    "FixedPointResult",
    "solve_fixed_point",
    "pearson",
    "slope_through_origin",
    "spread",
    "summarize",
    "SummaryStats",
    "make_rng",
]
