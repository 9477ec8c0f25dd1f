"""In-memory span recorder for the benchmark's traced run.

Spans are recorded from the benchmark's own files only: the recorder
wraps the public calls the benchmark hands to the program (the arrival
iterator, ``Dispatcher.route``, ``Scheduler.reoptimize``,
``Dispatcher.rebuild``) and, for the traced phase only, patches two
class-level entry points (``SystemMetrics.observe_interval`` and the LP
layer's ``Model.solve``).  Nothing inside ``src/`` is edited.

Every span has a name, a start, an end and a parent.  A layer's self
time is its duration minus the part covered by its child spans; the
recorder folds both into per-name totals as spans close, so the
per-layer numbers cost nothing extra to compute.  Full spans are kept
only while ``keep_spans`` is on and are exported as Chrome trace-event
JSON, which Perfetto and ``chrome://tracing`` open directly.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterable, Iterator


class Tracer:
    """Nested span recorder with per-name count, total and self time.

    ``totals[name]`` is ``[calls, total_ns, self_ns]``.  Names listed in
    ``sampled`` also keep every call's duration (for percentiles).
    """

    active = True

    def __init__(self, sampled: Iterable[str] = ()) -> None:
        self.keep_spans = True
        #: (span_id, parent_id, name, start_ns, end_ns); parent_id -1 = root.
        self.spans: list[tuple[int, int, str, int, int]] = []
        self.totals: dict[str, list[int]] = {}
        self.samples: dict[str, list[int]] = {name: [] for name in sampled}
        self._stack: list[list] = []
        self._next_id = 0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _open(self, name: str) -> list:
        stack = self._stack
        span_id = self._next_id
        self._next_id = span_id + 1
        parent = stack[-1][3] if stack else -1
        frame = [name, time.perf_counter_ns(), 0, span_id, parent]
        stack.append(frame)
        return frame

    def _close(self) -> None:
        end = time.perf_counter_ns()
        stack = self._stack
        name, start, child_ns, span_id, parent = stack.pop()
        duration = end - start
        if stack:
            stack[-1][2] += duration
        agg = self.totals.get(name)
        if agg is None:
            agg = self.totals[name] = [0, 0, 0]
        agg[0] += 1
        agg[1] += duration
        agg[2] += duration - child_ns
        samples = self.samples.get(name)
        if samples is not None:
            samples.append(duration)
        if self.keep_spans:
            self.spans.append((span_id, parent, name, start, end))

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record the ``with`` body as one span."""
        self._open(name)
        try:
            yield
        finally:
            self._close()

    def wrap(self, fn: Callable, name: str) -> Callable:
        """``fn`` with every call recorded as a span named ``name``."""
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            open_(name)
            try:
                return fn(*args, **kwargs)
            finally:
                close()

        traced.__wrapped__ = fn
        return traced

    def wrap_iter(self, iterable: Iterable, name: str) -> Iterator:
        """An iterator whose every ``next`` is recorded as a span."""
        return _TracedIterator(iter(iterable), self, name)

    @contextmanager
    def patch(self, owner: type, attr: str, name: str) -> Iterator[None]:
        """Wrap a class attribute for the ``with`` body, then restore it."""
        original = owner.__dict__[attr]
        setattr(owner, attr, self.wrap(original, name))
        try:
            yield
        finally:
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def calls(self, name: str) -> int:
        return self.totals.get(name, (0, 0, 0))[0]

    def total_s(self, name: str) -> float:
        return self.totals.get(name, (0, 0, 0))[1] / 1e9

    def self_s(self, name: str) -> float:
        return self.totals.get(name, (0, 0, 0))[2] / 1e9

    def reset_totals(self) -> None:
        """Start a fresh aggregation window (spans kept so far stay)."""
        self.totals = {}
        self.samples = {name: [] for name in self.samples}

    def write_chrome(self, path: Path, process: str, pid: int = 1) -> int:
        """Write the kept spans as Chrome trace-event JSON.

        The workload is the process, the layers are slices on one
        thread; ``args`` carries each span's id and parent id.  Returns
        the number of spans written.
        """
        if not self.spans:
            return 0
        origin = min(span[3] for span in self.spans)
        events: list[dict] = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 1,
                "args": {"name": process},
            }
        ]
        for span_id, parent, name, start, end in self.spans:
            events.append({
                "name": name,
                "cat": name.split(".", 1)[0],
                "ph": "X",
                "pid": pid,
                "tid": 1,
                "ts": (start - origin) / 1e3,
                "dur": (end - start) / 1e3,
                "args": {"id": span_id, "parent": parent},
            })
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fp:
            json.dump(
                {"traceEvents": events, "displayTimeUnit": "ms"}, fp
            )
        return len(self.spans)


class _TracedIterator:
    """Iterator proxy timing each ``next`` of the wrapped iterator."""

    __slots__ = ("_inner", "_open", "_close", "_name")

    def __init__(self, inner: Iterator, tracer: Tracer, name: str) -> None:
        self._inner = inner
        self._open = tracer._open
        self._close = tracer._close
        self._name = name

    def __iter__(self) -> "_TracedIterator":
        return self

    def __next__(self):
        self._open(self._name)
        try:
            return next(self._inner)
        finally:
            self._close()
