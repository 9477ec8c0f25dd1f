"""Tests for workload-trace recording, serialization, and replay."""

from __future__ import annotations

import json

import pytest

from repro.errors import SimulationError
from repro.microarch.rates import TableRates
from repro.queueing.arrivals import poisson_arrivals
from repro.queueing.engine import run_system
from repro.queueing.job import Job
from repro.queueing.schedulers import FcfsScheduler
from repro.queueing.trace import (
    TRACE_FORMAT,
    jobs_from_trace,
    load_trace,
    save_trace,
    trace_arrivals,
    trace_from_jobs,
)


def stream(n=20, seed=5):
    return list(
        poisson_arrivals(("a", "b"), rate=1.5, n_jobs=n, seed=seed)
    )


def fields(jobs):
    return [
        (j.job_id, j.job_type, j.size, j.arrival_time) for j in jobs
    ]


class TestRoundTrip:
    def test_payload_round_trip_is_bit_identical(self):
        jobs = stream()
        payload = trace_from_jobs(jobs, metadata={"note": "test"})
        # Through actual JSON text, as the golden harness does.
        restored = jobs_from_trace(json.loads(json.dumps(payload)))
        assert fields(restored) == fields(jobs)

    def test_file_round_trip(self, tmp_path):
        jobs = stream()
        path = save_trace(
            tmp_path / "sub" / "t.json", jobs, metadata={"seed": 5}
        )
        assert path.exists()
        assert fields(load_trace(path)) == fields(jobs)
        assert json.loads(path.read_text())["metadata"] == {"seed": 5}

    def test_trace_arrivals_accepts_all_forms(self, tmp_path):
        jobs = stream(n=8)
        payload = trace_from_jobs(jobs)
        path = save_trace(tmp_path / "t.json", jobs)
        for source in (payload, jobs, path, str(path)):
            assert fields(trace_arrivals(source)) == fields(jobs)

    def test_trace_arrivals_yields_fresh_jobs(self):
        jobs = stream(n=4)
        replayed = list(trace_arrivals(jobs))
        assert fields(replayed) == fields(jobs)
        assert all(a is not b for a, b in zip(replayed, jobs))


class TestSnapshot:
    def test_trace_of_a_simulated_stream_is_pristine(self):
        """Simulation zeroes each job's ``remaining`` and stamps its
        completion; a trace taken afterwards still holds the workload."""
        rates = TableRates({("a",): {"a": 1.0}, ("a", "a"): {"a": 2.0}})
        jobs = list(poisson_arrivals(("a",), rate=0.5, n_jobs=6, seed=3))
        expected = fields(jobs)
        metrics = run_system(rates, FcfsScheduler(rates, 2), iter(jobs))
        assert metrics.completed == 6
        assert all(j.remaining == 0.0 for j in jobs)  # sim did mutate
        assert fields(jobs_from_trace(trace_from_jobs(jobs))) == expected


class TestValidation:
    def test_rejects_wrong_format(self):
        with pytest.raises(SimulationError, match="not a repro-trace"):
            jobs_from_trace({"format": "something-else", "jobs": []})

    def test_rejects_missing_jobs(self):
        with pytest.raises(SimulationError, match="no 'jobs' list"):
            jobs_from_trace({"format": TRACE_FORMAT})

    def test_rejects_missing_fields(self):
        payload = {
            "format": TRACE_FORMAT,
            "jobs": [{"job_id": 0, "job_type": "a", "size": 1.0}],
        }
        with pytest.raises(SimulationError, match="missing fields"):
            jobs_from_trace(payload)

    def test_rejects_out_of_order_arrivals(self):
        jobs = [
            Job(job_id=0, job_type="a", size=1.0, arrival_time=2.0),
            Job(job_id=1, job_type="a", size=1.0, arrival_time=1.0),
        ]
        with pytest.raises(SimulationError, match="before"):
            jobs_from_trace(trace_from_jobs(jobs))
