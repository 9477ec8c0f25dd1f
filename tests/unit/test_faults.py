"""Unit tests for the fault layer (``repro.queueing.faults``).

Three contracts under test:

* **Zero-fault identity** — ``FaultConfig()`` (no process enabled)
  routed through the fault-aware code path is bit-identical to
  ``faults=None`` on metrics *and* pick sequences: the runtime draws
  nothing and gates nothing when quiescent.
* **Engine agreement under faults** — crashes, outages, degraded
  episodes, retries, and shedding produce the same bits on the
  reference and compiled engines: the one event loop fires fault
  events at the same iteration points whichever engine's operations
  it runs.
* **Recovery semantics** — retry budgets, backoff, abandonment, the
  restart/resume-fraction progress-loss policies, the shed valve, the
  livelock guard, and kill+resume checkpointing straight through a
  failure event.

Plus the robustness satellites: checkpoint-corruption diagnostics,
``JobQueue.remove_ids`` edge cases, and dispatcher behavior on an
empty machine set.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import (
    CheckpointError,
    ConfigurationError,
    EngineStallError,
    WorkloadError,
)
from repro.experiments.registry import to_jsonable
from repro.microarch.codec import TypeCodec
from repro.microarch.rates import TableRates
from repro.queueing import checkpoint
from repro.queueing.cluster import Cluster, JobQueue, Machine
from repro.queueing.dispatch import make_dispatcher
from repro.queueing.faults import FaultConfig, FaultRuntime
from repro.queueing.job import Job
from repro.queueing.schedulers import FcfsScheduler
from repro.core.workload import Workload


@pytest.fixture()
def pair_rates() -> TableRates:
    """Two types, two contexts, mild symbiosis (A|B beats the homo
    pairs per-job) — enough texture that scheduling decisions matter."""
    return TableRates(
        {
            ("A",): {"A": 1.0},
            ("B",): {"B": 0.8},
            ("A", "A"): {"A": 0.7},
            ("A", "B"): {"A": 0.9, "B": 0.7},
            ("B", "B"): {"B": 0.5},
        }
    )


def stream(n: int = 120, spacing: float = 0.25) -> list[Job]:
    """A deterministic two-type arrival stream (no RNG: the fault
    processes are the only stochastic element under test)."""
    sizes = (1.0, 2.0, 0.5)
    return [
        Job(
            job_id=i,
            job_type="AB"[i % 2],
            size=sizes[i % 3],
            arrival_time=i * spacing,
        )
        for i in range(n)
    ]


def make_machines(rates: TableRates, m: int) -> list[Machine]:
    return [
        Machine(machine_id=i, scheduler=FcfsScheduler(rates, 2))
        for i in range(m)
    ]


def make_cluster(rates: TableRates, m: int, dispatcher: str = "jsq") -> Cluster:
    return Cluster(
        rates,
        [FcfsScheduler(rates, 2) for _ in range(m)],
        make_dispatcher(
            dispatcher,
            rates=rates,
            workload=Workload.of("A", "B"),
            contexts=2,
        ),
    )


#: A fault config that exercises every process in a ~30-time-unit run:
#: frequent crashes, occasional correlated outages with a drain grace,
#: degraded episodes, retries with backoff, and a shed valve.
CHAOS = FaultConfig(
    seed=7,
    mtbf=4.0,
    mttr=1.0,
    degraded_mtbf=6.0,
    degraded_duration=1.5,
    degraded_factor=0.5,
    correlated_mtbf=15.0,
    blast_fraction=0.67,
    drain_grace=0.5,
    retry_budget=2,
    backoff_base=0.2,
    backoff_factor=2.0,
    crash_policy="resume_fraction",
    resume_fraction=0.5,
    shed_after=5.0,
)


def run_once(
    cluster: Cluster,
    *,
    faults: FaultConfig | None,
    engine: str,
    **kwargs,
) -> tuple[object, list, dict | None]:
    picks: list = []
    metrics = cluster.run(
        stream(),
        engine=engine,
        pick_log=picks,
        faults=faults,
        **kwargs,
    )
    return to_jsonable(metrics), picks, cluster.last_fault_stats


def run_metrics(
    cluster: Cluster,
    *,
    faults: FaultConfig | None,
    engine: str,
    **kwargs,
):
    """Like :func:`run_once` but keeps the live metrics object (the
    jsonable payload only carries per-machine windows)."""
    metrics = cluster.run(stream(), engine=engine, faults=faults, **kwargs)
    return metrics, cluster.last_fault_stats


class TestFaultConfig:
    def test_defaults_are_inactive(self):
        config = FaultConfig()
        assert not config.active

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mtbf": 0.0},
            {"mtbf": -1.0},
            {"degraded_mtbf": -2.0},
            {"correlated_mtbf": 0.0},
            {"mttr": 0.0},
            {"degraded_duration": -1.0},
            {"backoff_factor": 0.0},
            {"degraded_factor": 0.0},
            {"degraded_factor": 1.5},
            {"blast_fraction": 0.0},
            {"blast_fraction": 1.1},
            {"drain_grace": -0.1},
            {"retry_budget": -1},
            {"backoff_base": -0.5},
            {"crash_policy": "explode"},
            {"resume_fraction": 1.5},
            {"shed_after": -1.0},
            {"degraded_dispatch": "sometimes"},
        ],
    )
    def test_validation_rejects(self, kwargs):
        with pytest.raises(ConfigurationError):
            FaultConfig(**kwargs)

    def test_jsonable_round_trip(self):
        rebuilt = FaultConfig.from_jsonable(
            json.loads(json.dumps(CHAOS.to_jsonable()))
        )
        assert rebuilt == CHAOS

    def test_active_per_process(self):
        assert FaultConfig(mtbf=1.0).active
        assert FaultConfig(degraded_mtbf=1.0).active
        assert FaultConfig(correlated_mtbf=1.0).active
        # Recovery knobs alone enable nothing.
        assert not FaultConfig(retry_budget=0, shed_after=1.0).active


class TestZeroFaultIdentity:
    """An inactive FaultConfig must not move a single bit."""

    @pytest.mark.parametrize("engine", ["legacy", "compiled"])
    def test_inactive_config_is_bit_identical(self, pair_rates, engine):
        reference = run_once(
            make_cluster(pair_rates, 2), faults=None, engine=engine
        )
        gated = run_once(
            make_cluster(pair_rates, 2),
            faults=FaultConfig(seed=99),
            engine=engine,
        )
        assert gated[0] == reference[0]
        assert gated[1] == reference[1]
        # The fault-free run records no stats; the gated run records
        # a quiescent block.
        assert reference[2] is None
        assert gated[2] is not None
        assert gated[2]["crashes"] == 0
        assert gated[2]["availability"] == 1.0


class TestEngineAgreement:
    """The same chaos on both engines produces the same bits."""

    @pytest.mark.parametrize("dispatcher", ["round_robin", "jsq", "affinity"])
    def test_engines_agree_under_chaos(self, pair_rates, dispatcher):
        reference = run_once(
            make_cluster(pair_rates, 3, dispatcher),
            faults=CHAOS,
            engine="legacy",
        )
        metrics, picks, stats = run_once(
            make_cluster(pair_rates, 3, dispatcher),
            faults=CHAOS,
            engine="compiled",
        )
        label = f"compiled + {dispatcher}"
        assert metrics == reference[0], f"{label}: metrics diverge"
        assert picks == reference[1], f"{label}: picks diverge"
        assert stats == reference[2], f"{label}: fault stats diverge"

    def test_chaos_actually_happened(self, pair_rates):
        """Guard against the agreement test passing vacuously."""
        _, _, stats = run_once(
            make_cluster(pair_rates, 3), faults=CHAOS, engine="compiled"
        )
        assert stats["crashes"] > 0
        assert stats["retried"] > 0
        assert stats["availability"] < 1.0

    def test_same_seed_is_deterministic(self, pair_rates):
        first = run_once(
            make_cluster(pair_rates, 2), faults=CHAOS, engine="compiled"
        )
        second = run_once(
            make_cluster(pair_rates, 2), faults=CHAOS, engine="compiled"
        )
        assert first == second

    def test_different_seeds_diverge(self, pair_rates):
        base = run_once(
            make_cluster(pair_rates, 2), faults=CHAOS, engine="compiled"
        )
        other = run_once(
            make_cluster(pair_rates, 2),
            faults=FaultConfig(**{**CHAOS.to_jsonable(), "seed": 8}),
            engine="compiled",
        )
        assert base[2] != other[2]


class TestRecoverySemantics:
    def test_accounting_closes(self, pair_rates):
        """Every offered job ends as completed, abandoned, or shed."""
        metrics, stats = run_metrics(
            make_cluster(pair_rates, 2), faults=CHAOS, engine="compiled"
        )
        assert (
            metrics.completed + stats["abandoned"] + stats["shed"]
            == len(stream())
        )

    def test_zero_budget_abandons_every_kill(self, pair_rates):
        config = FaultConfig(seed=3, mtbf=4.0, mttr=1.0, retry_budget=0)
        _, stats = run_metrics(
            make_cluster(pair_rates, 2), faults=config, engine="compiled"
        )
        assert stats["jobs_killed"] > 0
        assert stats["retried"] == 0
        assert stats["abandoned"] == stats["jobs_killed"]

    def test_full_resume_loses_no_work(self, pair_rates):
        config = FaultConfig(
            seed=3, mtbf=4.0, mttr=1.0,
            crash_policy="resume_fraction", resume_fraction=1.0,
        )
        _, stats = run_metrics(
            make_cluster(pair_rates, 2), faults=config, engine="compiled"
        )
        assert stats["crashes"] > 0
        assert stats["lost_work"] == 0.0

    def test_restart_loses_at_least_resume_half(self, pair_rates):
        """Same seed → same failure timeline, so the loss policies are
        directly comparable: restart destroys everything the resume
        policy would have kept."""
        base = {**CHAOS.to_jsonable(), "correlated_mtbf": None}
        restart = FaultConfig(**{**base, "crash_policy": "restart"})
        resume = FaultConfig(
            **{
                **base,
                "crash_policy": "resume_fraction",
                "resume_fraction": 0.5,
            }
        )
        _, restart_stats = run_metrics(
            make_cluster(pair_rates, 2), faults=restart, engine="compiled"
        )
        _, resume_stats = run_metrics(
            make_cluster(pair_rates, 2), faults=resume, engine="compiled"
        )
        assert restart_stats["crashes"] > 0
        assert restart_stats["lost_work"] > resume_stats["lost_work"]

    def test_degraded_only_slows_but_never_kills(self, pair_rates):
        config = FaultConfig(
            seed=11, degraded_mtbf=3.0, degraded_duration=1.0,
            degraded_factor=0.5,
        )
        metrics, stats = run_metrics(
            make_cluster(pair_rates, 2), faults=config, engine="compiled"
        )
        assert stats["degrade_episodes"] > 0
        assert stats["degraded_fraction"] > 0.0
        assert stats["availability"] == 1.0
        assert stats["crashes"] == 0
        assert stats["lost_work"] == 0.0
        assert metrics.completed == len(stream())

    def test_degraded_run_is_slower(self, pair_rates):
        config = FaultConfig(
            seed=11, degraded_mtbf=3.0, degraded_duration=2.0,
            degraded_factor=0.25,
        )
        clean, _ = run_metrics(
            make_cluster(pair_rates, 2), faults=None, engine="compiled"
        )
        slowed, _ = run_metrics(
            make_cluster(pair_rates, 2), faults=config, engine="compiled"
        )
        assert slowed.mean_turnaround > clean.mean_turnaround

    def test_shed_valve_drops_blocked_arrivals(self, pair_rates):
        """One machine, long repairs, a short patience window: arrivals
        blocked behind the outage are shed instead of waiting forever."""
        config = FaultConfig(
            seed=2, mtbf=3.0, mttr=8.0, retry_budget=1, shed_after=0.5,
        )
        metrics, stats = run_metrics(
            make_cluster(pair_rates, 1), faults=config, engine="compiled"
        )
        assert stats["shed"] > 0
        assert (
            metrics.completed + stats["abandoned"] + stats["shed"]
            == len(stream())
        )

    def test_outages_with_drain_grace(self, pair_rates):
        config = FaultConfig(
            seed=5, correlated_mtbf=8.0, blast_fraction=1.0,
            drain_grace=0.5, mttr=1.0,
        )
        _, stats = run_metrics(
            make_cluster(pair_rates, 3), faults=config, engine="compiled"
        )
        assert stats["outages"] > 0
        assert stats["drains"] > 0
        # blast_fraction=1.0 targets every machine per outage; machines
        # still down from the previous outage are skipped, so the floor
        # is one fresh crash per outage, not three.
        assert stats["crashes"] >= stats["outages"]


class TestStallGuard:
    """Four identical jobs on four machines all complete at the same
    instant: the last three completion events advance the clock by
    exactly zero, the shape a livelock produces."""

    def burst(self) -> list[Job]:
        return [
            Job(job_id=i, job_type="A", size=1.0, arrival_time=0.0)
            for i in range(4)
        ]

    @pytest.mark.parametrize("engine", ["legacy", "compiled"])
    def test_simultaneous_completions_trip_a_tiny_budget(
        self, pair_rates, engine
    ):
        with pytest.raises(EngineStallError) as excinfo:
            make_cluster(pair_rates, 4, "round_robin").run(
                self.burst(), engine=engine, stall_events=2
            )
        message = str(excinfo.value)
        assert "no clock progress" in message
        assert "in_system" in message

    def test_default_budget_tolerates_coincidences(self, pair_rates):
        metrics = make_cluster(pair_rates, 4, "round_robin").run(
            self.burst(), engine="compiled"
        )
        assert metrics.completed == 4


class TestKillResumeThroughFailure:
    """Checkpoint mid-run — with failure events on both sides of the
    boundary — and resume bit-identically."""

    @pytest.mark.parametrize("engine", ["legacy", "compiled"])
    def test_round_trip_is_bit_identical(self, pair_rates, tmp_path, engine):
        reference = run_once(
            make_cluster(pair_rates, 2), faults=CHAOS, engine=engine
        )

        picks: list = []
        handle = make_cluster(pair_rates, 2).start(
            stream(), engine=engine, pick_log=picks, faults=CHAOS,
        )
        finished = handle.advance(pause_at=12.0)
        assert not finished, "pause must land mid-run for a real test"
        path = tmp_path / "ckpt.json"
        checkpoint.save(path, checkpoint.capture(handle))
        handle.close()

        resumed_cluster = make_cluster(pair_rates, 2)
        resumed_picks: list = []
        resumed = checkpoint.restore(
            resumed_cluster,
            stream(),
            checkpoint.load(path),
            pick_log=resumed_picks,
        )
        resumed.advance()
        resumed.close()
        assert to_jsonable(resumed.result()) == reference[0]
        assert resumed_picks == reference[1][len(picks):]
        assert resumed_cluster.last_fault_stats == reference[2]

    def test_resume_under_different_faults_is_refused(
        self, pair_rates, tmp_path
    ):
        from repro.errors import SimulationError
        from repro.queueing.sharding import run_sharded

        cluster = make_cluster(pair_rates, 2)
        run_sharded(
            cluster,
            stream,
            boundaries=[10.0, 20.0],
            checkpoint_dir=tmp_path,
            faults=CHAOS,
        )
        # Completed runs clean up; fabricate an interrupted one by
        # re-running with a kill switch via a mid-plan checkpoint.
        handle = make_cluster(pair_rates, 2).start(
            stream(), engine="compiled", faults=CHAOS
        )
        handle.advance(pause_at=10.0)
        payload = checkpoint.capture(
            handle,
            extra={
                "shard": 0,
                "boundaries": [10.0, 20.0],
                "accumulated": handle.take_window().to_state(),
            },
        )
        handle.close()
        checkpoint.save(tmp_path / "checkpoint.json", payload)
        with pytest.raises(
            SimulationError, match=r"differing fields: faults\)"
        ):
            run_sharded(
                make_cluster(pair_rates, 2),
                stream,
                boundaries=[10.0, 20.0],
                checkpoint_dir=tmp_path,
                faults=None,
            )


class TestCheckpointCorruption:
    """Satellite 2: short of a well-formed checkpoint, ``load`` raises
    a CheckpointError naming the file and expected format — never a
    bare JSONDecodeError/KeyError."""

    def make_payload(self, pair_rates, tmp_path):
        handle = make_cluster(pair_rates, 1).start(
            stream(20), engine="compiled"
        )
        handle.advance(pause_at=2.0)
        payload = checkpoint.capture(handle)
        handle.close()
        path = tmp_path / "ckpt.json"
        checkpoint.save(path, payload)
        return path

    def test_valid_payload_loads(self, pair_rates, tmp_path):
        path = self.make_payload(pair_rates, tmp_path)
        assert checkpoint.load(path)["format"] == (
            checkpoint.CHECKPOINT_FORMAT
        )

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            checkpoint.load(tmp_path / "absent.json")

    def test_truncated_file(self, pair_rates, tmp_path):
        path = self.make_payload(pair_rates, tmp_path)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(CheckpointError) as excinfo:
            checkpoint.load(path)
        message = str(excinfo.value)
        assert "truncated or corrupt" in message
        assert checkpoint.CHECKPOINT_FORMAT in message

    def test_not_json_object(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(CheckpointError, match="JSON object"):
            checkpoint.load(path)

    def test_wrong_format_version(self, pair_rates, tmp_path):
        path = self.make_payload(pair_rates, tmp_path)
        payload = json.loads(path.read_text())
        payload["format"] = "repro-checkpoint-v1"
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError) as excinfo:
            checkpoint.load(path)
        message = str(excinfo.value)
        assert "repro-checkpoint-v1" in message
        assert checkpoint.CHECKPOINT_FORMAT in message

    def test_missing_section(self, pair_rates, tmp_path):
        path = self.make_payload(pair_rates, tmp_path)
        payload = json.loads(path.read_text())
        del payload["machines"]
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match="machines"):
            checkpoint.load(path)

    def test_fault_run_requires_fault_state(self, pair_rates, tmp_path):
        """A payload declaring a fault config but stripped of its
        runtime state is refused, not silently re-seeded."""
        handle = make_cluster(pair_rates, 1).start(
            stream(60), engine="compiled", faults=CHAOS
        )
        handle.advance(pause_at=5.0)
        payload = checkpoint.capture(handle)
        handle.close()
        payload.pop("faults_state", None)
        path = tmp_path / "ckpt.json"
        checkpoint.save(path, payload)
        with pytest.raises(CheckpointError, match="fault"):
            checkpoint.restore(
                make_cluster(pair_rates, 1),
                stream(60),
                checkpoint.load(path),
            )


class TestJobQueueRemoveIds:
    """Satellite 3: ``remove_ids`` edge cases, with and without the
    per-type-code index."""

    def make_queue(self, *, indexed: bool) -> tuple[JobQueue, TypeCodec]:
        queue = JobQueue()
        codec = TypeCodec()
        if indexed:
            queue.enable_index()
        for i, job_type in enumerate("AABBA"):
            job = Job(
                job_id=i, job_type=job_type, size=1.0, arrival_time=0.0
            )
            job.type_code = codec.encode(job_type)
            queue.admit(job)
        return queue, codec

    @pytest.mark.parametrize("indexed", [False, True])
    def test_empty_id_set_is_a_no_op(self, indexed):
        queue, _ = self.make_queue(indexed=indexed)
        queue.remove_ids(set(), set())
        assert [job.job_id for job in queue] == [0, 1, 2, 3, 4]

    @pytest.mark.parametrize("indexed", [False, True])
    def test_unknown_ids_are_ignored(self, indexed):
        queue, codec = self.make_queue(indexed=indexed)
        queue.remove_ids({97, 98}, {codec.encode("A")})
        assert len(queue) == 5

    def test_removes_only_named_pools(self):
        queue, codec = self.make_queue(indexed=True)
        a, b = codec.encode("A"), codec.encode("B")
        # Job 2 is a B, but only pool A is named: the flat list drops
        # it while pool B keeps a stale entry — exactly the contract
        # (callers must name every affected code).
        queue.remove_ids({0, 2}, {a})
        assert [job.job_id for job in queue] == [1, 3, 4]
        assert [job.job_id for job in queue.by_code[a]] == [1, 4]
        assert [job.job_id for job in queue.by_code[b]] == [2, 3]

    def test_codes_absent_from_index_are_tolerated(self):
        queue, codec = self.make_queue(indexed=True)
        queue.remove_ids({0}, {codec.encode("A"), 999, None})
        assert [job.job_id for job in queue] == [1, 2, 3, 4]

    @pytest.mark.parametrize("indexed", [False, True])
    def test_removing_everything_empties_the_queue(self, indexed):
        queue, codec = self.make_queue(indexed=indexed)
        codes = {codec.encode("A"), codec.encode("B")}
        queue.remove_ids({0, 1, 2, 3, 4}, codes)
        assert len(queue) == 0
        if indexed:
            assert all(not pool for pool in queue.by_code.values())

    def test_enable_index_seeds_existing_jobs(self):
        queue, codec = self.make_queue(indexed=False)
        queue.enable_index()
        a = codec.encode("A")
        assert [job.job_id for job in queue.by_code[a]] == [0, 1, 4]


class TestDispatchersWithoutMachines:
    """Satellite 3: every dispatcher raises a WorkloadError — not an
    IndexError or ValueError from ``min()`` — when routing with no
    eligible machine (the state a fully-DOWN cluster presents)."""

    def job(self) -> Job:
        return Job(job_id=0, job_type="A", size=1.0, arrival_time=0.0)

    @pytest.mark.parametrize("name", ["round_robin", "jsq"])
    def test_simple_dispatchers_raise(self, name):
        dispatcher = make_dispatcher(name)
        with pytest.raises(WorkloadError, match="no eligible machine"):
            dispatcher.route(self.job(), [], [], 0.0)

    def test_affinity_raises(self, synthetic_rates):
        dispatcher = make_dispatcher(
            "affinity",
            rates=synthetic_rates,
            workload=Workload.of("A", "B"),
            contexts=2,
        )
        with pytest.raises(WorkloadError, match="no eligible machine"):
            dispatcher.route(self.job(), [], [], 0.0)

    def test_empty_eligible_with_machines_present(self, pair_rates):
        """Non-empty cluster, empty eligibility list — the fault-layer
        shape when every machine is DOWN or full."""
        machines = make_machines(pair_rates, 2)
        dispatcher = make_dispatcher("jsq")
        with pytest.raises(WorkloadError, match="no eligible machine"):
            dispatcher.route(self.job(), machines, [], 0.0)


class TestFaultRuntimeUnits:
    """Direct FaultRuntime mechanics not visible through a full run."""

    def test_quiescent_runtime_gates_nothing(self, pair_rates):
        machines = make_machines(pair_rates, 3)
        rt = FaultRuntime(FaultConfig(), machines)
        assert rt.dispatch_eligible() == [0, 1, 2]
        assert rt.any_dispatchable()
        assert rt.next_wake(0.0, True, 0) == float("inf")
        assert rt.idle()
        assert rt.retry_pending() == 0

    def test_state_round_trip(self, pair_rates):
        machines = make_machines(pair_rates, 2)
        rt = FaultRuntime(CHAOS, machines)
        state = json.loads(json.dumps(rt.state_dict()))
        fresh = FaultRuntime(CHAOS, machines)
        fresh.load_state(state)
        assert fresh.state_dict() == rt.state_dict()
