"""Workload traces: serialize any job stream to JSON and replay it.

A *trace* is the pristine arrival-side view of a workload — for every
job its id, type, size, and arrival time, before the simulator mutates
``remaining`` / ``completion_time``.  Traces close the loop between
the synthetic arrival processes and deterministic replay:

* :func:`trace_from_jobs` / :func:`jobs_from_trace` convert between
  job lists and the JSON-able payload;
* :func:`save_trace` / :func:`load_trace` persist the payload;
* :func:`trace_arrivals` is the arrival process that replays a trace.

Round-trips are **bit-identical**: JSON serializes floats via their
shortest round-trip repr, so record → save → load → replay reproduces
the exact timestamps and sizes, and the golden-trace regression
harness (``tests/golden/``) relies on that to pin engine behavior.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from repro.errors import SimulationError
from repro.queueing.job import Job

__all__ = [
    "TRACE_FORMAT",
    "trace_from_jobs",
    "jobs_from_trace",
    "save_trace",
    "load_trace",
    "trace_arrivals",
]

TRACE_FORMAT = "repro-trace-v1"

_JOB_FIELDS = ("job_id", "job_type", "size", "arrival_time")


def _job_record(job: Job) -> dict[str, object]:
    return {
        "job_id": job.job_id,
        "job_type": job.job_type,
        "size": job.size,
        "arrival_time": job.arrival_time,
    }


def trace_from_jobs(
    jobs: Iterable[Job], *, metadata: Mapping[str, object] | None = None
) -> dict[str, object]:
    """Snapshot a job stream as a JSON-able trace payload.

    Only the arrival-side fields are captured, so recording a stream
    that already ran through a simulator still yields the pristine
    workload (simulation mutates ``remaining``, never the snapshot
    fields).
    """
    return {
        "format": TRACE_FORMAT,
        "metadata": dict(metadata or {}),
        "jobs": [_job_record(job) for job in jobs],
    }


def jobs_from_trace(trace: Mapping[str, object]) -> list[Job]:
    """Materialize the jobs of a trace payload, validating as we go."""
    if trace.get("format") != TRACE_FORMAT:
        raise SimulationError(
            f"not a {TRACE_FORMAT} payload (format={trace.get('format')!r})"
        )
    records = trace.get("jobs")
    if not isinstance(records, Sequence):
        raise SimulationError("trace payload has no 'jobs' list")
    jobs: list[Job] = []
    previous = -1.0
    for i, record in enumerate(records):
        missing = [f for f in _JOB_FIELDS if f not in record]
        if missing:
            raise SimulationError(
                f"trace job #{i} is missing fields {missing}"
            )
        job = Job(
            job_id=int(record["job_id"]),
            job_type=str(record["job_type"]),
            size=float(record["size"]),
            arrival_time=float(record["arrival_time"]),
        )
        if job.arrival_time < previous:
            raise SimulationError(
                f"trace job #{i} arrives at {job.arrival_time} before "
                f"its predecessor at {previous}"
            )
        previous = job.arrival_time
        jobs.append(job)
    return jobs


def save_trace(
    path: str | Path,
    jobs: Iterable[Job],
    *,
    metadata: Mapping[str, object] | None = None,
) -> Path:
    """Write a trace JSON file; returns the path written."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = trace_from_jobs(jobs, metadata=metadata)
    with path.open("w") as fp:
        json.dump(payload, fp, indent=2, sort_keys=True)
        fp.write("\n")
    return path


def load_trace(path: str | Path) -> list[Job]:
    """Load a trace JSON file back into a replayable job list."""
    with Path(path).open() as fp:
        return jobs_from_trace(json.load(fp))


def trace_arrivals(
    trace: Mapping[str, object] | Sequence[Job] | str | Path,
) -> Iterator[Job]:
    """Arrival process that replays a trace deterministically.

    Accepts a payload dict, an already-materialized job list, or a
    path to a saved trace file.  Fresh :class:`Job` objects are
    yielded each call, so one trace can drive many simulations.
    """
    if isinstance(trace, (str, Path)):
        jobs = load_trace(trace)
    elif isinstance(trace, Mapping):
        jobs = jobs_from_trace(trace)
    else:
        jobs = [
            Job(
                job_id=job.job_id,
                job_type=job.job_type,
                size=job.size,
                arrival_time=job.arrival_time,
            )
            for job in trace
        ]
    yield from jobs
