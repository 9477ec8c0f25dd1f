"""System-level metrics accounting for the queueing experiments.

The paper argues (Section VI) that turnaround time alone is misleading
and that **processor utilization** and the **empty fraction** are the
honest indicators of a throughput improvement in a non-saturated
system.  :class:`SystemMetrics` accumulates all three, plus the achieved
throughput and per-coschedule time, over a simulation run.

**Streaming, mergeable, exact.**  A metrics object is a constant-memory
accumulator (its size is bounded by the number of *distinct
coschedules*, never by the number of jobs or events), and two metrics
objects covering disjoint measurement windows — or disjoint machine
partitions — reduce with :meth:`SystemMetrics.merge` to **bit-identical**
results whatever the grouping.  Plain float ``+=`` accumulation cannot
offer that (float addition is not associative), so every float
observation is accumulated *exactly*: a finite double is an integer
multiple of ``2**-1074``, so each contribution is converted to that
fixed-point integer (``as_integer_ratio`` is exact, the denominator is
a power of two) and summed with arbitrary-precision integer addition —
associative and commutative by construction.  Rendering back to a
float divides the integer sum by ``2**1074`` with CPython's
correctly-rounded ``int.__truediv__``, so the rendered value is the
correctly rounded exact sum of the contributions: the same float for
any split of the run into windows, including the no-split monolithic
run.

**Bounded coschedule split.**  ``time_by_coschedule`` holds at most
``coschedule_cap`` distinct keys; once the cap is reached, time for
*new* coschedules accumulates into a single overflow bucket
(``overflow_time``, with ``overflow_intervals`` counting the folded
observations).  The cap is a memory guard, not an expected regime: the
number of distinct coschedules is bounded by the type roster and the
context count (multisets of at most K types), so ordinary runs never
overflow.  :meth:`merge` takes the union of the two splits without
re-capping — dropping keys on merge would break associativity — so
window merges reproduce the monolithic split exactly whenever the
monolithic run itself stays under the cap.
"""

from __future__ import annotations

from repro.errors import SimulationError
from repro.microarch.rates import canonical_coschedule

__all__ = ["SystemMetrics"]

#: Every finite double is an integer multiple of 2**-1074 (the
#: subnormal ulp), so this scale makes float -> fixed-point exact.
_SCALE_BITS = 1074
_SCALE = 1 << _SCALE_BITS


def _non_finite(quantity: str, value: float) -> SimulationError:
    """The typed error for a NaN/inf observation (``as_integer_ratio``
    raises ``ValueError``/``OverflowError`` on those)."""
    return SimulationError(
        f"non-finite {quantity} {value!r} reached the run metrics"
    )


def _unfixed(accumulated: int) -> float:
    """Correctly rounded float of a fixed-point integer sum.

    CPython's ``int / int`` is correctly rounded, so equal exact sums
    render to equal floats regardless of how they were grouped.
    """
    if accumulated == 0:
        return 0.0
    return accumulated / _SCALE


class SystemMetrics:
    """Accumulated observations of one simulation run (or window).

    All time integrals start after the configured warm-up.  The public
    surface mirrors the historical dataclass: ``measured_time``,
    ``busy_context_time``, ``empty_time``, ``work_done``,
    ``turnaround_sum`` and ``time_by_coschedule`` render the exact
    internal accumulators as floats; ``completed`` stays an int.

    Attributes:
        completed: number of jobs that finished inside the window.
        coschedule_cap: maximum distinct ``time_by_coschedule`` keys
            before new coschedules fold into the overflow bucket.
        overflow_intervals: observations folded into the bucket.
    """

    #: Default bound on distinct coschedule keys per metrics object.
    COSCHEDULE_CAP = 4096

    __slots__ = (
        "_measured",
        "_busy",
        "_empty",
        "_work",
        "_turnaround",
        "_coschedule",
        "_overflow",
        "completed",
        "overflow_intervals",
        "coschedule_cap",
    )

    def __init__(self, *, coschedule_cap: int | None = None) -> None:
        self._measured = 0
        self._busy = 0
        self._empty = 0
        self._work = 0
        self._turnaround = 0
        #: exact fixed-point time per running type-multiset.
        self._coschedule: dict[tuple[str, ...], int] = {}
        self._overflow = 0
        self.completed = 0
        self.overflow_intervals = 0
        self.coschedule_cap = (
            self.COSCHEDULE_CAP if coschedule_cap is None else coschedule_cap
        )

    # ------------------------------------------------------------------
    # Accumulation (the engine hot path).
    # ------------------------------------------------------------------
    def observe_interval(
        self,
        dt: float,
        running_types: tuple[str, ...],
        jobs_in_system: int,
        work: float,
    ) -> None:
        """Account one inter-event interval.

        A NaN or infinite ``dt`` or ``work`` raises
        :class:`~repro.errors.SimulationError` before anything is
        accumulated.
        """
        if dt < 0.0:
            raise SimulationError(f"negative interval {dt}")
        if dt == 0.0:
            return
        # The exact conversions reject NaN/inf themselves, so the
        # finite case pays no extra comparison.
        try:
            n, d = dt.as_integer_ratio()
        except (ValueError, OverflowError):
            raise _non_finite("interval dt", dt) from None
        fixed_dt = n << (_SCALE_BITS + 1 - d.bit_length())
        if work != 0.0:
            try:
                n, d = work.as_integer_ratio()
            except (ValueError, OverflowError):
                raise _non_finite("work", work) from None
            self._work += n << (_SCALE_BITS + 1 - d.bit_length())
        self._measured += fixed_dt
        self._busy += len(running_types) * fixed_dt
        if jobs_in_system == 0:
            self._empty += fixed_dt
        if running_types:
            # The engine hands in canonical tuples, which
            # canonical_coschedule returns as-is (no re-sort, and the
            # dict key stays the same interned object).
            key = canonical_coschedule(running_types)
            split = self._coschedule
            present = split.get(key)
            if present is not None:
                split[key] = present + fixed_dt
            elif len(split) < self.coschedule_cap:
                split[key] = fixed_dt
            else:
                self._overflow += fixed_dt
                self.overflow_intervals += 1

    def observe_completion(self, turnaround: float) -> None:
        """Account one job completion (a NaN or infinite
        ``turnaround`` raises :class:`~repro.errors.SimulationError`
        before anything is counted)."""
        if turnaround < 0.0:
            raise SimulationError(f"negative turnaround {turnaround}")
        if turnaround != 0.0:
            try:
                n, d = turnaround.as_integer_ratio()
            except (ValueError, OverflowError):
                raise _non_finite("turnaround", turnaround) from None
            self._turnaround += n << (_SCALE_BITS + 1 - d.bit_length())
        self.completed += 1

    # ------------------------------------------------------------------
    # Merge algebra: associative, commutative, with SystemMetrics() as
    # the identity element (all pinned by property tests).
    # ------------------------------------------------------------------
    def merge(self, other: "SystemMetrics") -> "SystemMetrics":
        """Exact reduction of two disjoint windows (or partitions).

        Integer sums are associative, so any grouping of windows —
        including the monolithic no-split run — produces bit-identical
        rendered metrics.  The coschedule splits are unioned without
        re-capping (a merge never drops keys); the overflow buckets
        add.  The result uses the larger of the two caps for its own
        future observations.
        """
        merged = SystemMetrics(
            coschedule_cap=max(self.coschedule_cap, other.coschedule_cap)
        )
        merged._measured = self._measured + other._measured
        merged._busy = self._busy + other._busy
        merged._empty = self._empty + other._empty
        merged._work = self._work + other._work
        merged._turnaround = self._turnaround + other._turnaround
        merged.completed = self.completed + other.completed
        split = dict(self._coschedule)
        for key, fixed_dt in other._coschedule.items():
            present = split.get(key)
            split[key] = fixed_dt if present is None else present + fixed_dt
        merged._coschedule = split
        merged._overflow = self._overflow + other._overflow
        merged.overflow_intervals = (
            self.overflow_intervals + other.overflow_intervals
        )
        return merged

    # ------------------------------------------------------------------
    # Rendered views (the historical float surface).
    # ------------------------------------------------------------------
    @property
    def measured_time(self) -> float:
        """Total observed (post-warm-up) time."""
        return _unfixed(self._measured)

    @property
    def busy_context_time(self) -> float:
        """Integral of the number of running jobs over time."""
        return _unfixed(self._busy)

    @property
    def empty_time(self) -> float:
        """Time with no jobs in the system at all."""
        return _unfixed(self._empty)

    @property
    def work_done(self) -> float:
        """Weighted work executed."""
        return _unfixed(self._work)

    @property
    def turnaround_sum(self) -> float:
        """Sum of turnaround times of completed jobs."""
        return _unfixed(self._turnaround)

    @property
    def time_by_coschedule(self) -> dict[tuple[str, ...], float]:
        """Time spent per running type-multiset (rendered floats)."""
        return {key: _unfixed(t) for key, t in self._coschedule.items()}

    @property
    def overflow_time(self) -> float:
        """Time folded into the bounded-split overflow bucket."""
        return _unfixed(self._overflow)

    @property
    def mean_turnaround(self) -> float:
        """Average turnaround of jobs completed in the window."""
        if self.completed == 0:
            raise SimulationError("no completions observed")
        return self.turnaround_sum / self.completed

    @property
    def utilization(self) -> float:
        """Average number of busy contexts (the paper's utilization)."""
        measured = self.measured_time
        if measured == 0.0:
            raise SimulationError("no time observed")
        return self.busy_context_time / measured

    @property
    def empty_fraction(self) -> float:
        """Fraction of time the system held no jobs at all."""
        measured = self.measured_time
        if measured == 0.0:
            raise SimulationError("no time observed")
        return self.empty_time / measured

    @property
    def throughput(self) -> float:
        """Weighted work executed per unit time."""
        measured = self.measured_time
        if measured == 0.0:
            raise SimulationError("no time observed")
        return self.work_done / measured

    def coschedule_fractions(self) -> dict[tuple[str, ...], float]:
        """Time fraction per coschedule over the measured window."""
        measured = self.measured_time
        if measured == 0.0:
            raise SimulationError("no time observed")
        return {
            s: _unfixed(t) / measured for s, t in self._coschedule.items()
        }

    # ------------------------------------------------------------------
    # Serialization: results payloads and checkpoint round-trips.
    # ------------------------------------------------------------------
    def to_jsonable(self) -> dict[str, object]:
        """The historical results payload: rendered floats per field.

        Shape-compatible with the pre-streaming dataclass (the golden
        and differential harnesses compare this payload); the overflow
        bucket appears only when it holds anything, so ordinary runs
        keep the exact historical key set.
        """
        payload: dict[str, object] = {
            "measured_time": self.measured_time,
            "busy_context_time": self.busy_context_time,
            "empty_time": self.empty_time,
            "work_done": self.work_done,
            "completed": self.completed,
            "turnaround_sum": self.turnaround_sum,
            "time_by_coschedule": self.time_by_coschedule,
        }
        if self._overflow or self.overflow_intervals:
            payload["overflow_time"] = self.overflow_time
            payload["overflow_intervals"] = self.overflow_intervals
        return payload

    def to_state(self) -> dict[str, object]:
        """Exact internal state (arbitrary-precision ints, JSON-safe)."""
        return {
            "measured": self._measured,
            "busy": self._busy,
            "empty": self._empty,
            "work": self._work,
            "turnaround": self._turnaround,
            "completed": self.completed,
            "coschedule": [
                [list(key), t] for key, t in self._coschedule.items()
            ],
            "overflow": self._overflow,
            "overflow_intervals": self.overflow_intervals,
            "coschedule_cap": self.coschedule_cap,
        }

    @classmethod
    def from_state(cls, state: dict[str, object]) -> "SystemMetrics":
        """Rebuild a metrics object from :meth:`to_state` (bit-exact)."""
        metrics = cls(coschedule_cap=int(state["coschedule_cap"]))
        metrics._measured = int(state["measured"])
        metrics._busy = int(state["busy"])
        metrics._empty = int(state["empty"])
        metrics._work = int(state["work"])
        metrics._turnaround = int(state["turnaround"])
        metrics.completed = int(state["completed"])
        metrics._coschedule = {
            canonical_coschedule(tuple(key)): int(t)
            for key, t in state["coschedule"]
        }
        metrics._overflow = int(state["overflow"])
        metrics.overflow_intervals = int(state["overflow_intervals"])
        return metrics

    # ------------------------------------------------------------------
    # Value semantics (the historical dataclass compared field-wise).
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SystemMetrics):
            return NotImplemented
        return (
            self._measured == other._measured
            and self._busy == other._busy
            and self._empty == other._empty
            and self._work == other._work
            and self._turnaround == other._turnaround
            and self.completed == other.completed
            and self._coschedule == other._coschedule
            and self._overflow == other._overflow
            and self.overflow_intervals == other.overflow_intervals
        )

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return (
            "SystemMetrics("
            f"measured_time={self.measured_time!r}, "
            f"busy_context_time={self.busy_context_time!r}, "
            f"empty_time={self.empty_time!r}, "
            f"work_done={self.work_done!r}, "
            f"completed={self.completed!r}, "
            f"turnaround_sum={self.turnaround_sum!r}, "
            f"coschedules={len(self._coschedule)})"
        )
