"""Tests for repro.microarch.params."""

from __future__ import annotations

import dataclasses
import math

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigurationError
from repro.microarch.benchmarks import default_roster
from repro.microarch.params import JobTypeParams


NUMERIC_FIELDS = [
    field.name
    for field in dataclasses.fields(JobTypeParams)
    if field.type in ("int", "float")
]


def make_params(**overrides) -> JobTypeParams:
    base = dict(
        name="test",
        category="compute",
        cpi_base=0.4,
        ilp_sens=0.3,
        w_need=96,
        br_mpki=3.0,
        cpi_short=0.1,
        mpki_inf=1.0,
        mpki_amp=5.0,
        c_half_mb=1.0,
        gamma=1.2,
        mlp=2.0,
    )
    base.update(overrides)
    return JobTypeParams(**base)


class TestValidation:
    def test_valid_params_accepted(self):
        make_params()

    @pytest.mark.parametrize(
        "field,value",
        [
            ("cpi_base", 0.0),
            ("cpi_base", -0.1),
            ("w_need", 0),
            ("c_half_mb", 0.0),
            ("gamma", 0.0),
            ("mlp", 0.5),
            ("ilp_sens", -0.1),
            ("br_mpki", -1.0),
            ("mpki_inf", -0.5),
        ],
    )
    def test_invalid_values_rejected(self, field, value):
        with pytest.raises(ConfigurationError):
            make_params(**{field: value})

    def test_empty_name_rejected(self):
        with pytest.raises(ConfigurationError):
            make_params(name="")

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", NUMERIC_FIELDS)
    def test_non_finite_values_rejected(self, field, value):
        message = f"{field} must be finite"
        with pytest.raises(ConfigurationError, match=message):
            make_params(**{field: value})


class TestMissCurve:
    def test_infinite_cache_limit(self):
        job = make_params(mpki_inf=2.0, mpki_amp=10.0)
        assert job.llc_mpki(1e9) == pytest.approx(2.0, abs=1e-3)

    def test_zero_cache_maximum(self):
        job = make_params(mpki_inf=2.0, mpki_amp=10.0)
        assert job.llc_mpki(0.0) == pytest.approx(12.0)

    def test_half_point(self):
        job = make_params(mpki_inf=0.0, mpki_amp=10.0, c_half_mb=2.0, gamma=1.0)
        assert job.llc_mpki(2.0) == pytest.approx(5.0)

    def test_negative_cache_rejected(self):
        with pytest.raises(ValueError):
            make_params().llc_mpki(-1.0)

    @given(
        st.floats(min_value=0.0, max_value=64.0),
        st.floats(min_value=0.0, max_value=64.0),
    )
    def test_monotonically_decreasing(self, c1, c2):
        job = make_params()
        low, high = sorted((c1, c2))
        assert job.llc_mpki(low) >= job.llc_mpki(high) - 1e-12

    def test_all_roster_curves_monotone(self):
        sizes = [0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0]
        for job in default_roster().values():
            curve = [job.llc_mpki(c) for c in sizes]
            assert curve == sorted(curve, reverse=True)


class TestWindowScaling:
    def test_full_window(self):
        job = make_params(w_need=100)
        assert job.window_scaling(100.0) == 1.0
        assert job.window_scaling(500.0) == 1.0

    def test_partial_window(self):
        job = make_params(w_need=100)
        assert job.window_scaling(50.0) == pytest.approx(0.5)

    def test_zero_window(self):
        assert make_params().window_scaling(0.0) == 0.0


class TestRoster:
    def test_twelve_benchmarks(self):
        assert len(default_roster()) == 12

    def test_table1_names_present(self):
        roster = default_roster()
        for name in (
            "bzip2", "calculix", "gcc.cp-decl", "gcc.g23", "h264ref",
            "hmmer", "libquantum", "mcf", "perlbench", "sjeng", "tonto",
            "xalancbmk",
        ):
            assert name in roster

    def test_interference_coverage(self):
        """Roster spans low- to high-interference jobs (Table I intent)."""
        roster = default_roster()
        warm_mpki = [job.llc_mpki(4.0) for job in roster.values()]
        assert min(warm_mpki) < 1.0  # cache-friendly compute exists
        assert max(warm_mpki) > 20.0  # heavy memory job exists

    def test_memory_bound_flag(self):
        """mcf and libquantum miss a warm 4 MB LLC often; hmmer does
        not (the memory-bound / compute-bound split of Table I)."""
        roster = default_roster()
        assert roster["mcf"].llc_mpki(4.0) > 5.0
        assert roster["libquantum"].llc_mpki(4.0) > 5.0
        assert roster["hmmer"].llc_mpki(4.0) < 5.0

    def test_frozen(self):
        job = make_params()
        with pytest.raises(dataclasses.FrozenInstanceError):
            job.cpi_base = 1.0  # type: ignore[misc]
