"""Golden-trace regression harness for the cluster simulator.

``tests/golden/`` commits, for every (scenario, dispatcher) pair, a
small JSON workload trace plus the exact
:class:`~repro.queueing.cluster.ClusterMetrics` the engine produced on
it.  Two locks per pair:

* **generator lock** — rebuilding the scenario's stream from its
  pinned seed must reproduce the committed trace bit for bit (any
  drift in the arrival processes, size laws, or RNG stream derivation
  fails here);
* **engine lock** — running the *committed* trace through the cluster
  simulator must reproduce the committed metrics (any drift in the
  event loop, schedulers, or dispatch policies fails here, with a
  per-field diff naming exactly what moved).  The lock is parametrized
  over engines: every committed trace replays through both the
  reference engine (``engine="legacy"``) and the production
  count-vector engine (``engine="compiled"``) against the *same*
  expectation file — bit-identity across engines is part of the
  contract, not a separate suite.

Two extra goldens (``hotpath_saturated_{maxit,srpt}.json``) pin the
saturated hotpath benchmark workloads at reduced size on their own
frozen synthetic rate table, so the perf-trajectory workloads have
regression coverage independent of wall-clock gates.

The runs use a frozen synthetic rate table defined below, NOT the
microarch model — the harness pins the queueing/dispatch stack in
isolation, so evolving the simulator that *feeds* it rates never
churns these files.

Refreshing after an intentional engine change::

    python -m pytest tests/integration/test_golden_traces.py \
        --update-golden -q

then commit the rewritten ``tests/golden/*.json`` and explain the
drift in the PR description.  A refresh rewrites only the files whose
payload moved beyond the engine lock's ``REL_TOL``, so on an unchanged
engine it is a no-op (CI checks exactly that).  The ``--update-golden``
run still executes every pair (regenerate + simulate), so a
crash-level regression cannot silently produce fresh goldens.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.optimal import optimal_throughput
from repro.core.workload import Workload
from repro.experiments.registry import to_jsonable
from repro.microarch.rates import TableRates
from repro.queueing.cluster import Cluster, ClusterMetrics, run_cluster
from repro.queueing.dispatch import make_dispatcher
from repro.queueing.faults import FaultConfig
from repro.queueing.hotpath import saturated_jobs, synthetic_rates
from repro.queueing.job import Job
from repro.queueing.scenarios import get_scenario, scenario_names
from repro.queueing.schedulers import make_scheduler
from repro.queueing.trace import jobs_from_trace, trace_from_jobs

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "golden"

#: Frozen 3-type / 2-context rate table with real symbiosis structure:
#: mixed pairs beat same-type pairs, and C is the slow memory-bound
#: type.  Changing these values invalidates every golden file — don't.
GOLDEN_RATES = TableRates(
    {
        ("A",): {"A": 1.0},
        ("B",): {"B": 0.9},
        ("C",): {"C": 0.6},
        ("A", "A"): {"A": 1.5},
        ("B", "B"): {"B": 1.2},
        ("C", "C"): {"C": 0.7},
        ("A", "B"): {"A": 0.95, "B": 0.85},
        ("A", "C"): {"A": 0.9, "C": 0.55},
        ("B", "C"): {"B": 0.8, "C": 0.5},
    }
)
GOLDEN_WORKLOAD = Workload.of("A", "B", "C")
GOLDEN_CONTEXTS = 2
GOLDEN_MACHINES = 2
GOLDEN_JOBS = 60
GOLDEN_SEED = 0
DISPATCHERS = ("round_robin", "jsq", "affinity")
#: Relative tolerance for the engine lock: loose enough for libm noise
#: across platforms, tight enough that a single mis-stepped event (one
#: job, one interval) is far outside it.
REL_TOL = 1e-9

PAIRS = [
    (scenario, dispatcher)
    for scenario in scenario_names()
    for dispatcher in DISPATCHERS
]
#: Engines the committed expectations are replayed through — every
#: golden passes unchanged on both (bit-identity across engines).
ENGINES = ("legacy", "compiled")


def golden_path(scenario: str, dispatcher: str) -> Path:
    return GOLDEN_DIR / f"{scenario}__{dispatcher}.json"


def golden_mean_rate(scenario_name: str) -> float:
    """Offered rate on the frozen table (recomputed only on update)."""
    capacity = GOLDEN_MACHINES * optimal_throughput(
        GOLDEN_RATES, GOLDEN_WORKLOAD, contexts=GOLDEN_CONTEXTS
    ).throughput
    return get_scenario(scenario_name).offered_rate(capacity)


def build_golden_stream(scenario_name: str, mean_rate: float) -> list[Job]:
    return list(
        get_scenario(scenario_name).build_jobs(
            GOLDEN_WORKLOAD.types,
            mean_rate=mean_rate,
            seed=GOLDEN_SEED,
            n_jobs=GOLDEN_JOBS,
        )
    )


def run_golden_trace(
    jobs: list[Job],
    scenario_name: str,
    dispatcher: str,
    engine: str = "compiled",
) -> ClusterMetrics:
    """The frozen run configuration every golden file was made with."""
    schedulers = [
        make_scheduler(
            "maxtp", GOLDEN_RATES, GOLDEN_CONTEXTS,
            workload=GOLDEN_WORKLOAD,
        )
        for _ in range(GOLDEN_MACHINES)
    ]
    return run_cluster(
        GOLDEN_RATES,
        schedulers,
        make_dispatcher(
            dispatcher,
            rates=GOLDEN_RATES,
            workload=GOLDEN_WORKLOAD,
            contexts=GOLDEN_CONTEXTS,
        ),
        jobs,
        **get_scenario(scenario_name).admission_limits(
            GOLDEN_MACHINES, GOLDEN_CONTEXTS
        ),
        engine=engine,
    )


def diff_payload(
    expected: object, actual: object, path: str = ""
) -> list[str]:
    """Human-readable recursive diff of two JSON-able payloads."""
    lines: list[str] = []
    if isinstance(expected, dict) and isinstance(actual, dict):
        for key in sorted(set(expected) | set(actual)):
            where = f"{path}.{key}" if path else str(key)
            if key not in expected:
                lines.append(f"  {where}: unexpected new entry {actual[key]!r}")
            elif key not in actual:
                lines.append(f"  {where}: missing (expected {expected[key]!r})")
            else:
                lines.extend(diff_payload(expected[key], actual[key], where))
    elif isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            lines.append(
                f"  {path}: length {len(actual)} != expected {len(expected)}"
            )
        for i, (e, a) in enumerate(zip(expected, actual)):
            lines.extend(diff_payload(e, a, f"{path}[{i}]"))
    elif isinstance(expected, float) and isinstance(actual, (int, float)):
        scale = max(abs(expected), abs(actual), 1e-300)
        if abs(expected - actual) / scale > REL_TOL:
            lines.append(
                f"  {path}: {actual!r} != expected {expected!r} "
                f"(rel err {abs(expected - actual) / scale:.3e})"
            )
    elif expected != actual:
        lines.append(f"  {path}: {actual!r} != expected {expected!r}")
    return lines


def render_indented(payload: dict[str, object]) -> str:
    """The default golden file text: sorted keys, two-space indent."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_golden(
    path: Path, payload: dict[str, object], render=render_indented
) -> None:
    """Write a refreshed golden, leaving it untouched when the committed
    file already matches within ``REL_TOL`` — so a refresh on an
    unchanged engine never churns files over last-ulp libm noise.
    ``render`` turns the payload into the file's JSON text."""
    text = render(payload)
    if path.exists() and not diff_payload(
        json.loads(path.read_text()), json.loads(text)
    ):
        return
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def regenerate(scenario: str, dispatcher: str) -> dict[str, object]:
    mean_rate = golden_mean_rate(scenario)
    jobs = build_golden_stream(scenario, mean_rate)
    trace = trace_from_jobs(
        jobs,
        metadata={
            "scenario": scenario,
            "seed": GOLDEN_SEED,
            "mean_rate": mean_rate,
        },
    )
    # Replay from the serialized trace (not the generator's jobs) so
    # the committed expectation is exactly what verification will run.
    metrics = run_golden_trace(
        jobs_from_trace(json.loads(json.dumps(trace))),
        scenario,
        dispatcher,
    )
    return {
        "scenario": scenario,
        "dispatcher": dispatcher,
        "n_machines": GOLDEN_MACHINES,
        "contexts": GOLDEN_CONTEXTS,
        "seed": GOLDEN_SEED,
        "mean_rate": mean_rate,
        "trace": trace,
        "expected": to_jsonable(metrics),
    }


@pytest.fixture(scope="module")
def update_golden(request) -> bool:
    return bool(request.config.getoption("--update-golden"))


class TestGoldenTraces:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize(
        "scenario, dispatcher", PAIRS, ids=[f"{s}-{d}" for s, d in PAIRS]
    )
    def test_pair(self, scenario, dispatcher, engine, update_golden):
        path = golden_path(scenario, dispatcher)
        if update_golden:
            if engine != ENGINES[0]:
                # The expectation file is engine-independent (written
                # once, by the first engine's variant); the other
                # engines verify agreement before the fresh goldens
                # are committed, with no file-ordering dependency.
                mean_rate = golden_mean_rate(scenario)
                reference = run_golden_trace(
                    build_golden_stream(scenario, mean_rate),
                    scenario,
                    dispatcher,
                    engine=ENGINES[0],
                )
                metrics = run_golden_trace(
                    build_golden_stream(scenario, mean_rate),
                    scenario,
                    dispatcher,
                    engine=engine,
                )
                assert to_jsonable(metrics) == to_jsonable(reference)
                return
            write_golden(path, regenerate(scenario, dispatcher))
            return
        if not path.exists():
            pytest.fail(
                f"missing golden file {path.name}; run "
                "`python -m pytest tests/integration/test_golden_traces.py "
                "--update-golden` and commit the result"
            )
        golden = json.loads(path.read_text())

        if engine == ENGINES[0]:
            # Generator lock: the scenario must rebuild the committed
            # trace bit for bit from its pinned seed and rate (checked
            # once — the stream does not depend on the engine).
            rebuilt = trace_from_jobs(
                build_golden_stream(scenario, float(golden["mean_rate"])),
                metadata=golden["trace"]["metadata"],
            )
            drift = diff_payload(golden["trace"], rebuilt)
            if drift:
                pytest.fail(
                    f"[{path.name}] arrival-process drift — the generator "
                    "no longer reproduces the committed trace:\n"
                    + "\n".join(drift[:20])
                    + "\n(run --update-golden only if this drift is "
                    "intentional)"
                )

        # Engine lock: the committed trace must reproduce the
        # committed metrics through the cluster simulator, whichever
        # engine advances it.
        metrics = run_golden_trace(
            jobs_from_trace(golden["trace"]), scenario, dispatcher,
            engine=engine,
        )
        drift = diff_payload(golden["expected"], to_jsonable(metrics))
        if drift:
            pytest.fail(
                f"[{path.name}] engine drift — the {engine} engine "
                "no longer reproduces the committed metrics:\n"
                + "\n".join(drift[:20])
                + "\n(run --update-golden only if this drift is "
                "intentional)"
            )


# ----------------------------------------------------------------------
# Estimated-rate goldens: noisy-estimator runs pinned bit for bit.
# ----------------------------------------------------------------------
#: Three (scenario, dispatcher, noise, noise-seed) cells run with
#: ``rate_source="estimated"``: a realistic cold start (single_run
#: prior), nonzero observation noise from the pinned noise seed, and
#: frequent re-optimization rounds.  They freeze the *whole* estimated
#: stack — observation wiring, the noise RNG stream, EMA updates,
#: epoch publishing, and the re-optimization refresh of schedulers and
#: (for the affinity cell) the dispatcher's LP tables.  Like every
#: other golden, each replays through both engines against one
#: expectation file.
ESTIMATED_CELLS = (
    ("baseline_poisson", "round_robin", 0.3, 11),
    ("skewed_types", "jsq", 0.15, 23),
    ("heavy_tail", "affinity", 0.4, 37),
)
ESTIMATED_REOPT = 16


def estimated_golden_path(scenario: str, dispatcher: str) -> Path:
    return GOLDEN_DIR / f"estimated__{scenario}__{dispatcher}.json"


def run_estimated_golden(
    jobs: list[Job],
    scenario_name: str,
    dispatcher: str,
    noise: float,
    noise_seed: int,
    engine: str = "compiled",
) -> ClusterMetrics:
    """The frozen estimated-rate configuration of a golden cell."""
    from repro.queueing.estimation import EstimationConfig

    schedulers = [
        make_scheduler(
            "maxtp", GOLDEN_RATES, GOLDEN_CONTEXTS,
            workload=GOLDEN_WORKLOAD,
        )
        for _ in range(GOLDEN_MACHINES)
    ]
    return run_cluster(
        GOLDEN_RATES,
        schedulers,
        make_dispatcher(
            dispatcher,
            rates=GOLDEN_RATES,
            workload=GOLDEN_WORKLOAD,
            contexts=GOLDEN_CONTEXTS,
        ),
        jobs,
        **get_scenario(scenario_name).admission_limits(
            GOLDEN_MACHINES, GOLDEN_CONTEXTS
        ),
        engine=engine,
        rate_source="estimated",
        estimation=EstimationConfig(
            noise=noise,
            prior="single_run",
            reopt_observations=ESTIMATED_REOPT,
            seed=noise_seed,
        ),
    )


class TestEstimatedGoldens:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize(
        "scenario, dispatcher, noise, noise_seed",
        ESTIMATED_CELLS,
        ids=[f"{s}-{d}" for s, d, _, _ in ESTIMATED_CELLS],
    )
    def test_estimated_cell(
        self, scenario, dispatcher, noise, noise_seed, engine, update_golden
    ):
        path = estimated_golden_path(scenario, dispatcher)
        if update_golden:
            if engine != ENGINES[0]:
                mean_rate = golden_mean_rate(scenario)
                reference = run_estimated_golden(
                    build_golden_stream(scenario, mean_rate),
                    scenario, dispatcher, noise, noise_seed,
                    engine=ENGINES[0],
                )
                metrics = run_estimated_golden(
                    build_golden_stream(scenario, mean_rate),
                    scenario, dispatcher, noise, noise_seed,
                    engine=engine,
                )
                assert to_jsonable(metrics) == to_jsonable(reference)
                return
            mean_rate = golden_mean_rate(scenario)
            jobs = build_golden_stream(scenario, mean_rate)
            trace = trace_from_jobs(
                jobs,
                metadata={
                    "scenario": scenario,
                    "seed": GOLDEN_SEED,
                    "mean_rate": mean_rate,
                    "rate_source": "estimated",
                },
            )
            metrics = run_estimated_golden(
                jobs_from_trace(json.loads(json.dumps(trace))),
                scenario, dispatcher, noise, noise_seed,
            )
            payload = {
                "scenario": scenario,
                "dispatcher": dispatcher,
                "n_machines": GOLDEN_MACHINES,
                "contexts": GOLDEN_CONTEXTS,
                "seed": GOLDEN_SEED,
                "mean_rate": mean_rate,
                "noise": noise,
                "noise_seed": noise_seed,
                "prior": "single_run",
                "reopt_observations": ESTIMATED_REOPT,
                "trace": trace,
                "expected": to_jsonable(metrics),
            }
            write_golden(path, payload)
            return
        if not path.exists():
            pytest.fail(
                f"missing golden file {path.name}; run "
                "`python -m pytest tests/integration/test_golden_traces.py "
                "--update-golden` and commit the result"
            )
        golden = json.loads(path.read_text())

        if engine == ENGINES[0]:
            # Generator lock (same stream contract as the oracle pairs).
            rebuilt = trace_from_jobs(
                build_golden_stream(scenario, float(golden["mean_rate"])),
                metadata=golden["trace"]["metadata"],
            )
            drift = diff_payload(golden["trace"], rebuilt)
            if drift:
                pytest.fail(
                    f"[{path.name}] arrival-process drift — the generator "
                    "no longer reproduces the committed trace:\n"
                    + "\n".join(drift[:20])
                    + "\n(run --update-golden only if this drift is "
                    "intentional)"
                )

        # Engine lock over the full estimated stack.
        metrics = run_estimated_golden(
            jobs_from_trace(golden["trace"]),
            scenario,
            dispatcher,
            float(golden["noise"]),
            int(golden["noise_seed"]),
            engine=engine,
        )
        drift = diff_payload(golden["expected"], to_jsonable(metrics))
        if drift:
            pytest.fail(
                f"[{path.name}] estimated-stack drift — the {engine} "
                "engine no longer reproduces the committed metrics:\n"
                + "\n".join(drift[:20])
                + "\n(run --update-golden only if this drift is "
                "intentional)"
            )


# ----------------------------------------------------------------------
# Faulty-scenario goldens: chaos runs pinned bit for bit.
# ----------------------------------------------------------------------
#: Three (scenario, dispatcher, fault-flavour) cells run with an
#: *active* :class:`FaultConfig` on the fault stream's own pinned
#: seed.  Each flavour exercises a different slice of the fault layer
#: on golden timescales (runs last ~9-31 time units, see
#: ``golden_mean_rate``):
#:
#: * ``crashes``  — hard failures + restart-from-zero + retry/backoff;
#: * ``degraded`` — slowdown episodes only (no crashes), with
#:   degradation-aware dispatch steering;
#: * ``chaos``    — everything at once: crashes, degradation,
#:   correlated outages with drain grace, resume-fraction progress
#:   loss, and the shed valve.
#:
#: The goldens pin *both* the metrics and ``last_fault_stats``, so any
#: drift in the fault event stream (draw order, lifecycle transitions,
#: retry accounting) fails with a per-field diff.  Replayed through
#: both engines against one expectation file, like every other golden.
FAULT_FLAVOURS = {
    "crashes": FaultConfig(
        seed=101, mtbf=8.0, mttr=1.5,
        retry_budget=3, backoff_base=0.3, crash_policy="restart",
    ),
    "degraded": FaultConfig(
        seed=211, degraded_mtbf=6.0, degraded_duration=2.0,
        degraded_factor=0.5, degraded_dispatch="avoid",
    ),
    "chaos": FaultConfig(
        seed=307, mtbf=5.0, mttr=1.0,
        degraded_mtbf=6.0, degraded_duration=1.5, degraded_factor=0.5,
        correlated_mtbf=15.0, blast_fraction=0.5, drain_grace=0.3,
        crash_policy="resume_fraction", resume_fraction=0.5,
        retry_budget=2, backoff_base=0.2, shed_after=6.0,
    ),
}
FAULTY_CELLS = (
    ("baseline_poisson", "round_robin", "crashes"),
    ("skewed_types", "jsq", "degraded"),
    ("heavy_tail", "affinity", "chaos"),
)


def faulty_golden_path(scenario: str, dispatcher: str) -> Path:
    return GOLDEN_DIR / f"faulty__{scenario}__{dispatcher}.json"


def run_faulty_golden(
    jobs: list[Job],
    scenario_name: str,
    dispatcher: str,
    faults: FaultConfig | None,
    engine: str = "compiled",
) -> tuple[ClusterMetrics, dict | None]:
    """The frozen faulty configuration of a golden cell.

    Returns ``(metrics, last_fault_stats)`` — the stats are part of
    the pinned expectation, not just the metrics.
    """
    cluster = Cluster(
        GOLDEN_RATES,
        [
            make_scheduler(
                "maxtp", GOLDEN_RATES, GOLDEN_CONTEXTS,
                workload=GOLDEN_WORKLOAD,
            )
            for _ in range(GOLDEN_MACHINES)
        ],
        make_dispatcher(
            dispatcher,
            rates=GOLDEN_RATES,
            workload=GOLDEN_WORKLOAD,
            contexts=GOLDEN_CONTEXTS,
        ),
    )
    metrics = cluster.run(
        jobs,
        **get_scenario(scenario_name).admission_limits(
            GOLDEN_MACHINES, GOLDEN_CONTEXTS
        ),
        engine=engine,
        faults=faults,
    )
    return metrics, cluster.last_fault_stats


class TestFaultyGoldens:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize(
        "scenario, dispatcher, flavour",
        FAULTY_CELLS,
        ids=[f"{s}-{d}-{f}" for s, d, f in FAULTY_CELLS],
    )
    def test_faulty_cell(
        self, scenario, dispatcher, flavour, engine, update_golden
    ):
        faults = FAULT_FLAVOURS[flavour]
        path = faulty_golden_path(scenario, dispatcher)
        if update_golden:
            if engine != ENGINES[0]:
                mean_rate = golden_mean_rate(scenario)
                ref_metrics, ref_stats = run_faulty_golden(
                    build_golden_stream(scenario, mean_rate),
                    scenario, dispatcher, faults,
                    engine=ENGINES[0],
                )
                metrics, stats = run_faulty_golden(
                    build_golden_stream(scenario, mean_rate),
                    scenario, dispatcher, faults,
                    engine=engine,
                )
                assert to_jsonable(metrics) == to_jsonable(ref_metrics)
                assert stats == ref_stats
                return
            mean_rate = golden_mean_rate(scenario)
            jobs = build_golden_stream(scenario, mean_rate)
            trace = trace_from_jobs(
                jobs,
                metadata={
                    "scenario": scenario,
                    "seed": GOLDEN_SEED,
                    "mean_rate": mean_rate,
                    "faults": flavour,
                },
            )
            metrics, stats = run_faulty_golden(
                jobs_from_trace(json.loads(json.dumps(trace))),
                scenario, dispatcher, faults,
            )
            # A quiescent golden would pin nothing — the flavours must
            # actually fire on golden timescales.
            assert stats is not None
            if flavour in ("crashes", "chaos"):
                assert stats["crashes"] > 0, f"{flavour}: no crashes fired"
            if flavour in ("degraded", "chaos"):
                assert stats["degrade_episodes"] > 0, (
                    f"{flavour}: no degradation episodes fired"
                )
            payload = {
                "scenario": scenario,
                "dispatcher": dispatcher,
                "flavour": flavour,
                "n_machines": GOLDEN_MACHINES,
                "contexts": GOLDEN_CONTEXTS,
                "seed": GOLDEN_SEED,
                "mean_rate": mean_rate,
                "faults": faults.to_jsonable(),
                "trace": trace,
                "expected": to_jsonable(metrics),
                "fault_stats": stats,
            }
            write_golden(path, payload)
            return
        if not path.exists():
            pytest.fail(
                f"missing golden file {path.name}; run "
                "`python -m pytest tests/integration/test_golden_traces.py "
                "--update-golden` and commit the result"
            )
        golden = json.loads(path.read_text())

        if engine == ENGINES[0]:
            # Generator lock (same stream contract as the oracle pairs).
            rebuilt = trace_from_jobs(
                build_golden_stream(scenario, float(golden["mean_rate"])),
                metadata=golden["trace"]["metadata"],
            )
            drift = diff_payload(golden["trace"], rebuilt)
            if drift:
                pytest.fail(
                    f"[{path.name}] arrival-process drift — the generator "
                    "no longer reproduces the committed trace:\n"
                    + "\n".join(drift[:20])
                    + "\n(run --update-golden only if this drift is "
                    "intentional)"
                )

        # Engine lock over the fault layer: metrics AND fault stats.
        metrics, stats = run_faulty_golden(
            jobs_from_trace(golden["trace"]),
            scenario,
            dispatcher,
            FaultConfig.from_jsonable(golden["faults"]),
            engine=engine,
        )
        drift = diff_payload(golden["expected"], to_jsonable(metrics))
        drift += diff_payload(
            golden["fault_stats"], stats, path="fault_stats"
        )
        if drift:
            pytest.fail(
                f"[{path.name}] fault-layer drift — the {engine} engine "
                "no longer reproduces the committed chaos run:\n"
                + "\n".join(drift[:20])
                + "\n(run --update-golden only if this drift is "
                "intentional)"
            )


# ----------------------------------------------------------------------
# Hotpath saturated-workload goldens (perf-trajectory coverage).
# ----------------------------------------------------------------------
#: Reduced-size frozen replica of ``hotpath.saturated_cluster``: same
#: synthetic rate table (5 types, 4 contexts, seed 7), same backlog
#: cap and stop rule, fewer jobs — enough events to pin the probing
#: stack, small enough to stay a unit-speed test.
HOTPATH_GOLDEN_SCHEDULERS = ("maxit", "srpt")
HOTPATH_GOLDEN_JOBS = 300
HOTPATH_GOLDEN_MACHINES = 3
HOTPATH_GOLDEN_CONTEXTS = 4
HOTPATH_GOLDEN_BACKLOG = 10
HOTPATH_GOLDEN_SEED = 0


def hotpath_golden_path(scheduler: str) -> Path:
    return GOLDEN_DIR / f"hotpath_saturated_{scheduler}.json"


def build_hotpath_stream() -> list[Job]:
    _, names = synthetic_rates(contexts=HOTPATH_GOLDEN_CONTEXTS)
    return saturated_jobs(
        names, HOTPATH_GOLDEN_JOBS, seed=HOTPATH_GOLDEN_SEED
    )


def run_hotpath_golden(
    jobs: list[Job],
    scheduler: str,
    engine: str = "compiled",
    faults: FaultConfig | None = None,
) -> ClusterMetrics:
    rates, names = synthetic_rates(contexts=HOTPATH_GOLDEN_CONTEXTS)
    workload = Workload.of(*names)
    return run_cluster(
        rates,
        [
            make_scheduler(
                scheduler, rates, HOTPATH_GOLDEN_CONTEXTS,
                workload=workload,
            )
            for _ in range(HOTPATH_GOLDEN_MACHINES)
        ],
        make_dispatcher("round_robin"),
        jobs,
        stop_when_fewer_than=(
            HOTPATH_GOLDEN_MACHINES * HOTPATH_GOLDEN_CONTEXTS
        ),
        keep_in_system=HOTPATH_GOLDEN_BACKLOG,
        engine=engine,
        faults=faults,
    )


class TestHotpathGoldens:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("scheduler", HOTPATH_GOLDEN_SCHEDULERS)
    def test_hotpath_workload(self, scheduler, engine, update_golden):
        path = hotpath_golden_path(scheduler)
        if update_golden:
            if engine != ENGINES[0]:
                reference = run_hotpath_golden(
                    build_hotpath_stream(), scheduler, engine=ENGINES[0]
                )
                metrics = run_hotpath_golden(
                    build_hotpath_stream(), scheduler, engine=engine
                )
                assert to_jsonable(metrics) == to_jsonable(reference)
                return
            jobs = build_hotpath_stream()
            trace = trace_from_jobs(
                jobs,
                metadata={
                    "workload": f"hotpath_saturated_{scheduler}",
                    "seed": HOTPATH_GOLDEN_SEED,
                },
            )
            metrics = run_hotpath_golden(
                jobs_from_trace(json.loads(json.dumps(trace))), scheduler
            )
            payload = {
                "scheduler": scheduler,
                "n_machines": HOTPATH_GOLDEN_MACHINES,
                "contexts": HOTPATH_GOLDEN_CONTEXTS,
                "backlog": HOTPATH_GOLDEN_BACKLOG,
                "seed": HOTPATH_GOLDEN_SEED,
                "trace": trace,
                "expected": to_jsonable(metrics),
            }
            write_golden(path, payload)
            return
        if not path.exists():
            pytest.fail(
                f"missing golden file {path.name}; run "
                "`python -m pytest tests/integration/test_golden_traces.py "
                "--update-golden` and commit the result"
            )
        golden = json.loads(path.read_text())

        if engine == ENGINES[0]:
            rebuilt = trace_from_jobs(
                build_hotpath_stream(),
                metadata=golden["trace"]["metadata"],
            )
            drift = diff_payload(golden["trace"], rebuilt)
            if drift:
                pytest.fail(
                    f"[{path.name}] workload drift — the hotpath "
                    "generator no longer reproduces the committed "
                    "trace:\n" + "\n".join(drift[:20])
                )

        metrics = run_hotpath_golden(
            jobs_from_trace(golden["trace"]), scheduler, engine=engine
        )
        drift = diff_payload(golden["expected"], to_jsonable(metrics))
        if drift:
            pytest.fail(
                f"[{path.name}] engine drift — the {engine} engine no "
                "longer reproduces the committed metrics:\n"
                + "\n".join(drift[:20])
                + "\n(run --update-golden only if this drift is "
                "intentional)"
            )


class TestZeroFaultIdentity:
    """A declared-but-quiescent ``FaultConfig`` must be a perfect
    no-op: running any committed golden trace with
    ``FaultConfig(seed=...)`` (all fault processes disabled) must
    reproduce the plain ``faults=None`` run *bit for bit* — not within
    tolerance.  This is the contract that lets the fault layer ship
    inside the engines without invalidating a single golden."""

    @pytest.mark.parametrize(
        "scenario, dispatcher", PAIRS, ids=[f"{s}-{d}" for s, d in PAIRS]
    )
    def test_pair_zero_fault_identity(self, scenario, dispatcher):
        path = golden_path(scenario, dispatcher)
        if not path.exists():
            pytest.skip("golden files not generated yet")
        golden = json.loads(path.read_text())
        plain = run_golden_trace(
            jobs_from_trace(golden["trace"]), scenario, dispatcher
        )
        gated, stats = run_faulty_golden(
            jobs_from_trace(golden["trace"]),
            scenario,
            dispatcher,
            FaultConfig(seed=12345),
        )
        assert to_jsonable(gated) == to_jsonable(plain)
        assert stats is not None
        assert stats["crashes"] == 0
        assert stats["availability"] == 1.0

    @pytest.mark.parametrize("scheduler", HOTPATH_GOLDEN_SCHEDULERS)
    def test_hotpath_zero_fault_identity(self, scheduler):
        path = hotpath_golden_path(scheduler)
        if not path.exists():
            pytest.skip("golden files not generated yet")
        golden = json.loads(path.read_text())
        plain = run_hotpath_golden(
            jobs_from_trace(golden["trace"]), scheduler
        )
        gated = run_hotpath_golden(
            jobs_from_trace(golden["trace"]), scheduler,
            faults=FaultConfig(seed=12345),
        )
        assert to_jsonable(gated) == to_jsonable(plain)


class TestHarnessSensitivity:
    """The harness must actually catch drift: a single perturbed event
    produces a non-empty, readable diff."""

    def test_one_job_perturbation_is_detected(self):
        path = golden_path("baseline_poisson", "round_robin")
        if not path.exists():
            pytest.skip("golden files not generated yet")
        golden = json.loads(path.read_text())
        records = golden["trace"]["jobs"]
        records[len(records) // 2]["size"] += 1e-3  # one event, barely
        jobs = jobs_from_trace(golden["trace"])
        metrics = run_golden_trace(jobs, "baseline_poisson", "round_robin")
        drift = diff_payload(golden["expected"], to_jsonable(metrics))
        assert drift, "a perturbed job must move the metrics"
        assert any("work_done" in line or "turnaround" in line
                   for line in drift)

    def test_diff_is_readable(self):
        lines = diff_payload(
            {"a": 1.0, "b": {"c": [2.0]}},
            {"a": 1.0, "b": {"c": [2.5]}},
        )
        assert lines == [
            "  b.c[0]: 2.5 != expected 2.0 (rel err 2.000e-01)"
        ]

    def test_diff_tolerates_float_noise(self):
        assert not diff_payload({"x": 1.0}, {"x": 1.0 + 1e-12})


class TestWriteGolden:
    """A refresh rewrites only goldens whose payload moved beyond
    ``REL_TOL``, so refreshing an unchanged engine churns no file."""

    def test_creates_missing_file(self, tmp_path):
        path = tmp_path / "sub" / "new.json"
        write_golden(path, {"x": 1.0})
        assert json.loads(path.read_text()) == {"x": 1.0}

    def test_leaves_matching_file_untouched(self, tmp_path):
        path = tmp_path / "golden.json"
        committed = '{"x": 1.0, "y": [2.0]}'
        path.write_text(committed)
        write_golden(path, {"x": 1.0 + 1e-12, "y": [2.0]})
        assert path.read_text() == committed

    def test_rewrites_moved_payload(self, tmp_path):
        path = tmp_path / "golden.json"
        path.write_text('{"x": 1.0, "y": [2.0]}')
        write_golden(path, {"x": 1.0, "y": [2.5]})
        assert json.loads(path.read_text()) == {"x": 1.0, "y": [2.5]}
