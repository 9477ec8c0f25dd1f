"""Differential fuzz harness: the compiled engine vs the reference.

This is the equivalence contract that makes engine rewrites cheap to
attempt and hard to get wrong: a seeded fuzzer draws random cluster
configurations — scenario, dispatcher, scheduler, machine count,
contexts, horizon/warmup/backlog knobs, and the arrival stream's seed
— runs each through **both engines** (the reference string-keyed
engine, ``engine="legacy"``, and the production count-vector engine,
``engine="compiled"``), and asserts

* **bit-identical ClusterMetrics** — every float of every per-machine
  metric, compared through ``to_jsonable`` (exact equality, including
  the per-coschedule time-split dict keys); and
* **identical scheduler pick sequences** — each engine logs every
  scheduling decision as ``(machine_id, picked job ids in order)``;
  the logs must match element for element.  Order matters: the engine
  accumulates stepped work in running-set order, so a permuted pick
  that happened to finish the same jobs would still drift the floats.

Hypothesis drives the generation, so a failing draw **shrinks to a
minimal reproducing configuration** (fewest jobs, smallest cluster,
simplest knobs) and replays deterministically from the printed
blob/seed.  Locally the harness runs ``REPRO_DIFF_FUZZ_EXAMPLES``
configs (default 200 — the PR-6 acceptance budget); CI's required
``differential-fuzz`` job bounds the budget to stay ~30s.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.workload import Workload
from repro.experiments.registry import to_jsonable
from repro.queueing.cluster import Cluster
from repro.queueing.dispatch import make_dispatcher
from repro.queueing.estimation import EstimationConfig
from repro.queueing.faults import FaultConfig
from repro.queueing.hotpath import synthetic_rates
from repro.queueing.scenarios import get_scenario
from repro.queueing.schedulers import make_scheduler

MAX_EXAMPLES = int(os.environ.get("REPRO_DIFF_FUZZ_EXAMPLES", "200"))

#: Engines under differential test; the first is the reference.
ENGINES = ("legacy", "compiled")

SCENARIOS = (
    "baseline_poisson",
    "bursty_mmpp",
    "heavy_tail",
    "diurnal_cycle",
    "mice_elephants",
    "batch_storms",
    "skewed_types",
    "saturated_backlog",
)

#: Fault-axis presets (None = the historical fault-free loop).  Each
#: named preset exercises a different slice of the fault layer; the
#: absolute time constants sit well inside the fuzzed runs' durations
#: so failures actually fire on most draws.
FAULT_PRESETS: dict[str, dict] = {
    "crashy": dict(
        mtbf=5.0, mttr=1.5, retry_budget=2, backoff_base=0.3,
        crash_policy="restart",
    ),
    "flaky": dict(
        degraded_mtbf=4.0, degraded_duration=1.0, degraded_factor=0.5,
        degraded_dispatch="allow",
    ),
    "chaos": dict(
        mtbf=6.0, mttr=1.0, degraded_mtbf=8.0, degraded_duration=1.5,
        correlated_mtbf=20.0, blast_fraction=0.5, drain_grace=0.3,
        crash_policy="resume_fraction", resume_fraction=0.5,
        retry_budget=1, backoff_base=0.2, shed_after=4.0,
    ),
}


def fault_config_from(config) -> FaultConfig | None:
    """The draw's fault config (seeded off the arrival seed so the
    failure schedule varies across draws but not across engines)."""
    preset = config.get("faults")
    if preset is None:
        return None
    return FaultConfig(seed=config["seed"] + 1, **FAULT_PRESETS[preset])


configs = st.fixed_dictionaries(
    {
        "scenario": st.sampled_from(SCENARIOS),
        "scheduler": st.sampled_from(
            ("fcfs", "maxit", "srpt", "maxtp", "ljf", "random")
        ),
        "dispatcher": st.sampled_from(("round_robin", "jsq", "affinity")),
        "n_machines": st.integers(min_value=1, max_value=3),
        "contexts": st.integers(min_value=2, max_value=4),
        "n_types": st.integers(min_value=3, max_value=5),
        "n_jobs": st.integers(min_value=1, max_value=60),
        "mean_rate": st.floats(min_value=0.5, max_value=8.0),
        "seed": st.integers(min_value=0, max_value=2**16),
        # Rate-source axis: estimated mode (zero noise, warm oracle
        # prior, frequent re-optimization rounds) must stay
        # bit-identical across both engines — the estimation layer's
        # two-memo plumbing is part of the equivalence contract.
        "rate_source": st.sampled_from(("oracle", "estimated")),
        # Fault axis: failure/repair processes must not break the
        # equivalence — the one event loop calls the shared
        # FaultRuntime at the same iteration points, so crashes,
        # outages, degraded episodes, retries, and shedding land on
        # the same bits everywhere.
        "faults": st.sampled_from((None, "crashy", "flaky", "chaos")),
        "knobs": st.sampled_from(
            (
                {},
                {"warmup_time": 2.0},
                {"horizon": 6.0},
                {"horizon": 25.0, "warmup_time": 1.0},
                {"keep_in_system": 3, "stop_when_fewer_than": 2},
                {"keep_in_system": 8, "stop_when_fewer_than": 4},
            )
        ),
    }
)


def run_config(
    config, engine, rate_source=None, faults="axis", estimation=None
):
    """One full cluster run; returns (metrics payload, pick log,
    fault stats, estimator stats).

    ``rate_source`` overrides the config's axis (defaulting to
    "oracle" for configs without one).  Estimated runs default to zero
    noise, the warm oracle prior, and a small re-optimization interval,
    so many re-optimization rounds fire even on short streams; pass
    ``estimation`` to override.
    ``faults`` overrides the config's fault axis: pass a FaultConfig,
    ``None`` to force the fault-free loop, or leave the default to
    follow the draw's own axis.
    """
    contexts = config["contexts"]
    rates, names = synthetic_rates(
        n_types=config["n_types"], contexts=contexts
    )
    workload = Workload.of(*names)
    jobs = list(
        get_scenario(config["scenario"]).build_jobs(
            names,
            mean_rate=config["mean_rate"],
            seed=config["seed"],
            n_jobs=config["n_jobs"],
        )
    )
    dispatcher_kw = {}
    if config["dispatcher"] == "affinity":
        dispatcher_kw = dict(
            rates=rates, workload=workload, contexts=contexts
        )
    cluster = Cluster(
        rates,
        [
            make_scheduler(
                config["scheduler"], rates, contexts, workload=workload
            )
            for _ in range(config["n_machines"])
        ],
        make_dispatcher(config["dispatcher"], **dispatcher_kw),
    )
    if rate_source is None:
        rate_source = config.get("rate_source", "oracle")
    if rate_source == "estimated" and estimation is None:
        estimation = EstimationConfig(
            noise=0.0, prior="oracle", reopt_observations=8
        )
    if faults == "axis":
        faults = fault_config_from(config)
    picks: list[tuple[int, tuple[int, ...]]] = []
    metrics = cluster.run(
        jobs,
        engine=engine,
        pick_log=picks,
        rate_source=rate_source,
        estimation=estimation,
        faults=faults,
        **config["knobs"],
    )
    return (
        to_jsonable(metrics),
        picks,
        cluster.last_fault_stats,
        cluster.last_estimator_stats,
    )


class TestLargeClockStall:
    """Regression: the million-job stall past clock 2^14.

    Above ``clock = 2**14`` a double's ulp (3.6e-12) exceeds the
    ``remaining <= 1e-12`` done-threshold, so a completion whose
    absolute event time quantizes can leave a residual that re-fires
    with ``clock + dt == clock``.  The compiled engine's zero-span
    fusion used to swallow that positive exact span and spin forever
    (observed at ~950k jobs into a 64-machine run).  Shifting a small
    stream past the boundary reproduces it in milliseconds: with the
    fix, both engines finish within a normal event budget and stay
    bit-identical through the pathological completions.
    """

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_engines_finish_and_agree_past_two_pow_14(self, seed):
        def shifted_jobs():
            jobs = list(
                get_scenario("baseline_poisson").build_jobs(
                    ("A", "B", "C"), mean_rate=1.6, seed=seed, n_jobs=400
                )
            )
            for job in jobs:
                job.arrival_time += 16384.0
            return jobs

        rates, names = synthetic_rates(n_types=3, contexts=2)
        workload = Workload.of(*names)

        def run_engine(engine):
            cluster = Cluster(
                rates,
                [
                    make_scheduler(
                        "maxtp", rates, 2, workload=workload
                    )
                    for _ in range(2)
                ],
                make_dispatcher("jsq"),
            )
            picks: list = []
            metrics = cluster.run(
                shifted_jobs(),
                engine=engine,
                pick_log=picks,
                max_events=12_000,
            )
            return to_jsonable(metrics), picks

        reference = run_engine(ENGINES[0])
        for engine in ENGINES[1:]:
            assert run_engine(engine) == reference, (
                f"{engine} diverges past clock 2**14 (seed {seed})"
            )


class TestDifferentialEngines:
    @given(configs)
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_engines_bit_identical(self, config):
        reference = ENGINES[0]
        (
            reference_metrics,
            reference_picks,
            reference_stats,
            reference_estimator,
        ) = run_config(config, reference)
        if not config["knobs"]:
            # Job conservation, independent of the engines agreeing
            # (both run the one event loop, so a loop bug would be
            # shared): with no warmup, horizon or early stop, every
            # job ends exactly one of completed, abandoned, or shed.
            completed = sum(
                m["completed"] for m in reference_metrics["per_machine"]
            )
            lost = (
                reference_stats["abandoned"] + reference_stats["shed"]
                if reference_stats is not None
                else 0
            )
            assert completed + lost == config["n_jobs"], (
                f"{reference} lost track of jobs on {config}: "
                f"{completed} completed + {lost} abandoned/shed"
            )
        for engine in ENGINES[1:]:
            metrics, picks, stats, estimator = run_config(config, engine)
            assert metrics == reference_metrics, (
                f"{engine} metrics diverge from {reference} on {config}"
            )
            assert picks == reference_picks, (
                f"{engine} pick sequence diverges from {reference} "
                f"on {config}"
            )
            assert stats == reference_stats, (
                f"{engine} fault stats diverge from {reference} "
                f"on {config}"
            )
            assert estimator == reference_estimator, (
                f"{engine} estimator stats diverge from {reference} "
                f"on {config}"
            )


class TestZeroFaultIdentityFuzz:
    """A quiescent FaultConfig must not move a bit on any draw.

    The fault-aware loop branches everywhere — eligibility lists,
    wake computation, retry admission — so this class pins the
    structural claim that all of it is inert when no fault process is
    enabled: same metrics, same picks, on random configurations.
    """

    @given(configs)
    @settings(max_examples=max(25, MAX_EXAMPLES // 4), deadline=None)
    def test_inactive_config_matches_fault_free(self, config):
        inert = FaultConfig(seed=config["seed"] + 1)
        for engine in ENGINES:
            bare_metrics, bare_picks, _, _ = run_config(
                config, engine, faults=None
            )
            gated_metrics, gated_picks, stats, _ = run_config(
                config, engine, faults=inert
            )
            assert gated_metrics == bare_metrics, (
                f"{engine}: an inactive FaultConfig changed the metrics "
                f"on {config}"
            )
            assert gated_picks == bare_picks, (
                f"{engine}: an inactive FaultConfig changed the picks "
                f"on {config}"
            )
            assert stats["crashes"] == 0 and stats["availability"] == 1.0


class TestEstimatedOracleIdentity:
    """The zero-noise control: estimation must cost nothing.

    With ``noise=0`` and the warm oracle prior, every EMA update
    collapses to the true rate (``est + alpha*(true - est)`` is exact
    when ``est == true``), so a re-optimization round re-solves
    against the same numbers and every policy decision — pick
    sequence and ClusterMetrics alike — must be bit-identical to the
    oracle run, on both engines.  This pins the whole
    estimated-mode plumbing (observation wiring, epoch publishing,
    the policy-memo indirection) as a pure pass-through at zero
    noise.
    """

    POLICIES = (
        ("maxit", "round_robin"),
        ("srpt", "jsq"),
        ("maxit", "affinity"),
        ("maxtp", "round_robin"),
    )

    @pytest.mark.parametrize("scheduler,dispatcher", POLICIES)
    @pytest.mark.parametrize("engine", ENGINES)
    def test_estimated_matches_oracle(self, scheduler, dispatcher, engine):
        config = policy_config(scheduler, dispatcher)
        oracle = run_config(config, engine, rate_source="oracle")
        estimated = run_config(config, engine, rate_source="estimated")
        # Metrics, picks and fault stats; only estimated runs report
        # estimator stats.
        assert estimated[:3] == oracle[:3], (
            f"zero-noise estimated {scheduler}/{dispatcher} diverges "
            f"from oracle on {engine}"
        )


class TestNoisyEstimatesAgree:
    """Noisy estimates move decisions, identically on both engines.

    The zero-noise control above cannot see stale estimates: every
    epoch republishes the same numbers.  Here each epoch changes the
    rates the policies probe, so the compiled engine must drop its
    cached candidate sets and re-intern MAXTP's re-solved LP targets
    at every publish — exactly when the reference engine's string
    ``select`` starts reading the new epoch.
    """

    @pytest.mark.parametrize(
        "scheduler,dispatcher", TestEstimatedOracleIdentity.POLICIES
    )
    @pytest.mark.parametrize("faults", [None, "chaos"])
    def test_compiled_matches_reference(self, scheduler, dispatcher, faults):
        config = dict(policy_config(scheduler, dispatcher), faults=faults)
        noisy = EstimationConfig(
            noise=0.3, prior="single_run", reopt_observations=8, seed=5
        )
        runs = [
            run_config(
                config, engine, rate_source="estimated", estimation=noisy
            )
            for engine in ENGINES
        ]
        assert runs[1] == runs[0], (
            f"noisy estimated {scheduler}/{dispatcher} (faults={faults}) "
            "diverges between engines"
        )


def policy_config(scheduler: str, dispatcher: str) -> dict:
    """A fixed mid-size draw for the rate-source identity classes."""
    return {
        "scenario": "skewed_types",
        "scheduler": scheduler,
        "dispatcher": dispatcher,
        "n_machines": 2,
        "contexts": 3,
        "n_types": 4,
        "n_jobs": 48,
        "mean_rate": 3.0,
        "seed": 1234,
        "knobs": {},
    }
