"""Merge algebra of the streaming metrics, and split/merge exactness.

Two layers of properties lock the scale-out reduction down:

1. **Algebra** — :meth:`SystemMetrics.merge` is associative and
   commutative with the fresh accumulator as its identity, on *exact*
   internal state (not rendered floats).  This is what lets any
   partition of windows — shards, parallel partials, checkpointed
   prefixes — reduce in any grouping to one bit-identical result.
2. **Split/merge bit-identity** — pausing a real cluster run at
   arbitrary hypothesis-chosen event boundaries, detaching the metrics
   window per segment, and merging the windows reproduces the
   monolithic run's :class:`ClusterMetrics` payload bit for bit,
   along with the full scheduler pick sequence, on every engine.
"""

from __future__ import annotations

import math

from hypothesis import given, settings, strategies as st

from repro.core.workload import Workload
from repro.microarch.rates import TableRates
from repro.queueing.cluster import Cluster, ClusterMetrics
from repro.queueing.dispatch import JoinShortestQueueDispatcher
from repro.queueing.scenarios import get_scenario
from repro.queueing.schedulers import make_scheduler
from repro.queueing.system import SystemMetrics


# ----------------------------------------------------------------------
# Layer 1: the merge algebra on randomly observed accumulators.
# ----------------------------------------------------------------------

_TYPES = ("A", "B", "C")

_interval = st.tuples(
    st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
    st.lists(st.sampled_from(_TYPES), min_size=0, max_size=3),
    st.integers(min_value=0, max_value=6),
    st.floats(min_value=0.0, max_value=40.0, allow_nan=False),
)
_completion = st.floats(min_value=0.0, max_value=100.0, allow_nan=False)


@st.composite
def metrics_windows(draw, max_windows: int = 3) -> list[SystemMetrics]:
    """Up to ``max_windows`` independently observed accumulators."""
    windows = []
    for _ in range(draw(st.integers(min_value=1, max_value=max_windows))):
        metrics = SystemMetrics(coschedule_cap=draw(
            st.integers(min_value=1, max_value=8)
        ))
        for dt, running, in_system, work in draw(
            st.lists(_interval, min_size=0, max_size=8)
        ):
            metrics.observe_interval(
                dt, tuple(running), max(in_system, len(running)), work
            )
        for turnaround in draw(
            st.lists(_completion, min_size=0, max_size=4)
        ):
            metrics.observe_completion(turnaround)
        windows.append(metrics)
    return windows


@settings(max_examples=120, deadline=None)
@given(metrics_windows(max_windows=1))
def test_merge_identity(windows):
    """A fresh accumulator is the two-sided identity, exactly."""
    (metrics,) = windows
    identity = SystemMetrics(coschedule_cap=metrics.coschedule_cap)
    assert metrics.merge(identity) == metrics
    assert identity.merge(metrics) == metrics


@settings(max_examples=120, deadline=None)
@given(metrics_windows(max_windows=2))
def test_merge_commutative(windows):
    if len(windows) < 2:
        return
    a, b = windows[0], windows[1]
    assert a.merge(b) == b.merge(a)


@settings(max_examples=120, deadline=None)
@given(metrics_windows(max_windows=3))
def test_merge_associative(windows):
    if len(windows) < 3:
        return
    a, b, c = windows[0], windows[1], windows[2]
    assert a.merge(b).merge(c) == a.merge(b.merge(c))


@settings(max_examples=100, deadline=None)
@given(metrics_windows(max_windows=3))
def test_any_grouping_renders_identically(windows):
    """Rendered floats (not just internals) agree across groupings,
    including the JSON payload the golden harness diffs."""
    left = windows[0]
    for w in windows[1:]:
        left = left.merge(w)
    right = windows[-1]
    for w in reversed(windows[:-1]):
        right = w.merge(right)
    assert left == right
    assert left.to_jsonable() == right.to_jsonable()


@settings(max_examples=80, deadline=None)
@given(metrics_windows(max_windows=2))
def test_merge_never_drops_coschedule_keys(windows):
    """Unioned splits: overflow only ever *adds*; keys present in
    either window survive the merge even past the smaller cap."""
    if len(windows) < 2:
        return
    a, b = windows[0], windows[1]
    merged = a.merge(b)
    keys = set(a.time_by_coschedule) | set(b.time_by_coschedule)
    assert set(merged.time_by_coschedule) == keys
    assert merged.overflow_intervals == (
        a.overflow_intervals + b.overflow_intervals
    )
    assert merged.coschedule_cap == max(a.coschedule_cap, b.coschedule_cap)


@settings(max_examples=80, deadline=None)
@given(metrics_windows(max_windows=1))
def test_state_roundtrip_is_exact(windows):
    (metrics,) = windows
    assert SystemMetrics.from_state(metrics.to_state()) == metrics


# ----------------------------------------------------------------------
# Layer 2: splitting a real run at arbitrary boundaries.
# ----------------------------------------------------------------------

# The golden harness's frozen table (tests/golden/): three types, two
# contexts, symbiosis-sensitive mixed rates.
GOLDEN_RATES = TableRates(
    {
        ("A",): {"A": 1.0},
        ("B",): {"B": 0.7},
        ("C",): {"C": 0.5},
        ("A", "A"): {"A": 1.7},
        ("A", "B"): {"A": 0.85, "B": 0.6},
        ("A", "C"): {"A": 0.9, "C": 0.45},
        ("B", "B"): {"B": 1.15},
        ("B", "C"): {"B": 0.6, "C": 0.42},
        ("C", "C"): {"C": 0.8},
    }
)
GOLDEN_WORKLOAD = Workload.of("A", "B", "C")


def _golden_run(engine, boundaries):
    """One bursty golden-config run, paused at ``boundaries`` (possibly
    none), returning (merged metrics, pick log)."""
    scenario = get_scenario("bursty_mmpp")
    stream = scenario.build_jobs(
        GOLDEN_WORKLOAD.types, mean_rate=1.9, seed=11, n_jobs=150
    )
    cluster = Cluster(
        GOLDEN_RATES,
        [
            make_scheduler(
                "maxtp", GOLDEN_RATES, 2, workload=GOLDEN_WORKLOAD
            )
            for _ in range(2)
        ],
        JoinShortestQueueDispatcher(),
    )
    picks: list = []
    handle = cluster.start(stream, engine=engine, pick_log=picks)
    windows = []
    try:
        for boundary in boundaries:
            if handle.advance(pause_at=boundary):
                break
            windows.append(handle.take_window())
        else:
            handle.advance()
        windows.append(handle.take_window())
    finally:
        handle.close()
    return ClusterMetrics.reduce(windows), picks


@settings(max_examples=8, deadline=None)
@given(
    engine=st.sampled_from(["legacy", "compiled"]),
    cuts=st.lists(
        st.floats(min_value=0.1, max_value=120.0, allow_nan=False),
        min_size=1,
        max_size=6,
    ),
)
def test_split_anywhere_matches_monolithic(engine, cuts):
    """Pausing at arbitrary instants and merging the windows is
    bit-identical to never pausing: same rendered payload, same pick
    sequence."""
    mono, mono_picks = _golden_run(engine, [])
    split, split_picks = _golden_run(engine, sorted(cuts))
    assert split_picks == mono_picks
    assert [m.to_jsonable() for m in split.per_machine] == [
        m.to_jsonable() for m in mono.per_machine
    ]
    assert math.isclose(
        split.throughput, mono.throughput, rel_tol=0.0, abs_tol=0.0
    )
