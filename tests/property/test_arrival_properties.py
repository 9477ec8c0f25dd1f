"""Property-based tests of the scenario arrival processes.

Every arrival process, for any seed and any in-range parameters, must
produce monotone non-decreasing timestamps, hit its configured
long-run mean rate, and survive a record → serialize → replay
round-trip bit-identically.  The MMPP degeneracy property (equal state
rates ⇒ a plain Poisson process) is checked distributionally.
"""

from __future__ import annotations

import json
import statistics

import pytest
from hypothesis import given, settings, strategies as st

from repro.queueing.arrivals import (
    batch_arrivals,
    diurnal_arrivals,
    mmpp_arrivals,
    poisson_arrivals,
)
from repro.queueing.trace import (
    jobs_from_trace,
    trace_arrivals,
    trace_from_jobs,
)

TYPES = ("A", "B", "C")

seeds = st.integers(min_value=0, max_value=2**20)
rates = st.floats(min_value=0.5, max_value=4.0)


def build(kind, seed, rate, n_jobs):
    """One arrival stream of each kind at long-run mean rate ``rate``."""
    if kind == "poisson":
        return poisson_arrivals(
            TYPES, rate=rate, n_jobs=n_jobs,
            size_model={"kind": "exponential"}, seed=seed,
        )
    if kind == "mmpp":
        # Multipliers (3, 0.5) with dwells (4, 16): dwell-weighted mean
        # is (3*4 + 0.5*16) / 20 = 1.0, so the mean rate is `rate`.
        return mmpp_arrivals(
            TYPES,
            state_rates=(3.0 * rate, 0.5 * rate),
            mean_dwells=(4.0, 16.0),
            n_jobs=n_jobs,
            seed=seed,
        )
    if kind == "diurnal":
        return diurnal_arrivals(
            TYPES, base_rate=rate, amplitude=0.7, period=40.0,
            n_jobs=n_jobs, seed=seed,
        )
    if kind == "batch":
        return batch_arrivals(
            TYPES, batch_rate=rate / 4.0, mean_batch_size=4.0,
            n_jobs=n_jobs, seed=seed,
        )
    raise AssertionError(kind)


KINDS = ("poisson", "mmpp", "diurnal", "batch")
kinds = st.sampled_from(KINDS)


class TestArrivalProperties:
    @given(kinds, seeds, rates)
    @settings(max_examples=40, deadline=None)
    def test_times_monotone_ids_sequential_sizes_positive(
        self, kind, seed, rate
    ):
        jobs = list(build(kind, seed, rate, 300))
        assert len(jobs) == 300
        times = [j.arrival_time for j in jobs]
        assert times == sorted(times)
        assert all(t >= 0.0 for t in times)
        assert [j.job_id for j in jobs] == list(range(300))
        assert all(j.size > 0.0 for j in jobs)
        assert {j.job_type for j in jobs} <= set(TYPES)

    @given(kinds, seeds, rates)
    @settings(max_examples=12, deadline=None)
    def test_empirical_mean_rate_matches_configured(
        self, kind, seed, rate
    ):
        n_jobs = 8_000
        jobs = list(build(kind, seed, rate, n_jobs))
        measured = n_jobs / jobs[-1].arrival_time
        # MMPP/diurnal need many modulation cycles to average out; the
        # dwell/period choices above give dozens of cycles at n=8000.
        assert abs(measured / rate - 1.0) < 0.25

    @given(kinds, seeds, rates)
    @settings(max_examples=25, deadline=None)
    def test_record_serialize_replay_round_trip_bit_identical(
        self, kind, seed, rate
    ):
        jobs = list(build(kind, seed, rate, 120))
        original = [
            (j.job_id, j.job_type, j.size, j.arrival_time) for j in jobs
        ]
        # Through real JSON text and back, twice (replay → re-record).
        payload = json.loads(json.dumps(trace_from_jobs(jobs)))
        replayed = list(trace_arrivals(payload))
        again = jobs_from_trace(
            json.loads(json.dumps(trace_from_jobs(replayed)))
        )
        assert [
            (j.job_id, j.job_type, j.size, j.arrival_time)
            for j in again
        ] == original

    @given(seeds, rates)
    @settings(max_examples=8, deadline=None)
    def test_mmpp_equal_rates_degenerates_to_poisson(self, seed, rate):
        """With every state at the same rate the modulation is
        unobservable: inter-arrival gaps must look exponential(rate) —
        same mean AND coefficient of variation as the Poisson stream
        (burstiness would push the CV well above 1)."""
        n_jobs = 8_000
        degenerate = list(
            mmpp_arrivals(
                TYPES,
                state_rates=(rate, rate, rate),
                mean_dwells=(2.0, 5.0, 11.0),
                n_jobs=n_jobs,
                seed=seed,
            )
        )
        gaps = [
            b.arrival_time - a.arrival_time
            for a, b in zip(degenerate, degenerate[1:])
        ]
        mean = statistics.mean(gaps)
        cv = statistics.pstdev(gaps) / mean
        assert abs(mean * rate - 1.0) < 0.1  # exponential mean 1/rate
        assert abs(cv - 1.0) < 0.1  # exponential CV is exactly 1

        poisson = list(
            poisson_arrivals(
                TYPES, rate=rate, n_jobs=n_jobs,
                size_model={"kind": "exponential"}, seed=seed,
            )
        )
        poisson_gaps = [
            b.arrival_time - a.arrival_time
            for a, b in zip(poisson, poisson[1:])
        ]
        assert statistics.mean(gaps) == pytest.approx(
            statistics.mean(poisson_gaps), rel=0.1
        )
