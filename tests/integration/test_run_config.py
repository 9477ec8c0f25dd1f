"""The run-config contract: one ``RunConfig`` declares, validates and
checkpoints the run knobs.

* every field survives ``to_jsonable`` → JSON → ``from_jsonable``;
* a ``repro-checkpoint-v2`` payload written before ``RunConfig``
  existed (``data/checkpoint_v2.json``: its ``run`` section lacks the
  newer keys) still restores and finishes bit-identically;
* every keyword entry point rejects an unknown knob with ``TypeError``
  and keeps the validation errors of the knobs it does know;
* checkpoints refuse estimated-rate runs (their estimator state is not
  serialized), and a sharded run resumes only under the run config
  its checkpoint was taken with.
"""

from __future__ import annotations

import json
from dataclasses import fields
from pathlib import Path

import pytest

from repro.core.workload import Workload
from repro.errors import CheckpointError, SimulationError
from repro.experiments.registry import to_jsonable
from repro.microarch.rates import TableRates
from repro.queueing import RunConfig, run_cluster, run_system
from repro.queueing.checkpoint import capture, restore, save
from repro.queueing.cluster import Cluster, ClusterMetrics
from repro.queueing.dispatch import JoinShortestQueueDispatcher
from repro.queueing.estimation import EstimationConfig
from repro.queueing.faults import DEFAULT_STALL_EVENTS, FaultConfig
from repro.queueing.scenarios import get_scenario
from repro.queueing.schedulers import FcfsScheduler, make_scheduler
from repro.queueing.sharding import CHECKPOINT_NAME, run_sharded

RATES = TableRates(
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
WORKLOAD = Workload.of("A", "B", "C")
MEAN_RATE = 1.8
SEED = 23
V2_PAYLOAD = Path(__file__).parent / "data" / "checkpoint_v2.json"


def build_cluster(policy: str = "maxtp") -> Cluster:
    return Cluster(
        RATES,
        [
            make_scheduler(policy, RATES, 2, workload=WORKLOAD)
            for _ in range(2)
        ],
        JoinShortestQueueDispatcher(),
    )


def build_stream(n_jobs: int = 250):
    return get_scenario("bursty_mmpp").build_jobs(
        WORKLOAD.types, mean_rate=MEAN_RATE, seed=SEED, n_jobs=n_jobs
    )


def payload_of(metrics) -> list:
    return [to_jsonable(m.to_jsonable()) for m in metrics.per_machine]


ESTIMATED = {
    "rate_source": "estimated",
    "estimation": EstimationConfig(noise=0.3, prior="single_run", seed=4),
}


class TestFields:
    def test_fields_and_defaults(self):
        assert {f.name: f.default for f in fields(RunConfig)} == {
            "warmup_time": 0.0,
            "horizon": None,
            "stop_when_fewer_than": None,
            "keep_in_system": None,
            "max_events": 5_000_000,
            "engine": "compiled",
            "engine_options": None,
            "rate_source": "oracle",
            "estimation": None,
            "faults": None,
            "stall_events": DEFAULT_STALL_EVENTS,
        }

    def test_every_field_round_trips_through_json(self):
        config = RunConfig(
            warmup_time=2.5,
            horizon=120.0,
            stop_when_fewer_than=4,
            keep_in_system=9,
            max_events=12_345,
            engine="legacy",
            engine_options={"fuse": False, "batch": True},
            rate_source="estimated",
            estimation=EstimationConfig(
                alpha=0.25, noise=0.3, prior="pessimistic", seed=8
            ),
            faults=FaultConfig(seed=3, mtbf=6.0, shed_after=2.0),
            stall_events=77,
        )
        # Every field is off its default, so each one is exercised.
        assert RunConfig().differing_fields(config) == [
            f.name for f in fields(RunConfig)
        ]
        wire = json.loads(json.dumps(config.to_jsonable()))
        assert RunConfig.from_jsonable(wire) == config

    def test_from_jsonable_defaults_missing_keys_and_drops_backend(self):
        config = RunConfig.from_jsonable(
            {"engine": "legacy", "horizon": 3.0, "backend": "numpy"}
        )
        assert config == RunConfig(engine="legacy", horizon=3.0)

    def test_config_replays_through_keywords(self):
        config = RunConfig(horizon=40.0, keep_in_system=5)
        handle = build_cluster().start(build_stream(), **vars(config))
        assert handle.config == config
        handle.close()

    def test_differing_fields_names_each_difference(self):
        assert RunConfig(horizon=1.0).differing_fields(
            RunConfig(max_events=10)
        ) == ["horizon", "max_events"]


class TestValidation:
    @pytest.mark.parametrize(
        "call",
        ["run", "start", "run_cluster", "run_sharded", "run_system"],
    )
    def test_unknown_keyword_is_a_type_error(self, call):
        cluster = build_cluster()
        calls = {
            "run": lambda: cluster.run(build_stream(), horizn=5.0),
            "start": lambda: cluster.start(build_stream(), horizn=5.0),
            "run_cluster": lambda: run_cluster(
                RATES,
                cluster.schedulers,
                cluster.dispatcher,
                build_stream(),
                horizn=5.0,
            ),
            "run_sharded": lambda: run_sharded(
                cluster, build_stream, boundaries=[10.0], horizn=5.0
            ),
            "run_system": lambda: run_system(
                RATES, FcfsScheduler(RATES, 2), build_stream(), horizn=5.0
            ),
        }
        with pytest.raises(TypeError, match="horizn"):
            calls[call]()

    @pytest.mark.parametrize(
        "knobs, message",
        [
            (
                {"engine": "fast"},
                "unknown engine 'fast'; choose compiled (the default) "
                "or legacy",
            ),
            (
                {"rate_source": "psychic"},
                "unknown rate_source 'psychic'; choose oracle or "
                "estimated",
            ),
            (
                {"faults": {"mtbf": 5.0}},
                "faults must be a FaultConfig (or None), got dict",
            ),
        ],
    )
    def test_bad_values_keep_their_simulation_error(self, knobs, message):
        with pytest.raises(SimulationError) as err:
            build_cluster().run(build_stream(), **knobs)
        assert str(err.value) == message
        with pytest.raises(SimulationError) as err:
            RunConfig(**knobs)
        assert str(err.value) == message


class TestV2PayloadCompatibility:
    """A checkpoint written before ``RunConfig`` existed: its ``run``
    section carries eight knobs and no ``rate_source``, ``estimation``
    or ``engine_options``."""

    KNOBS = {
        "warmup_time": 5.0,
        "horizon": 60.0,
        "keep_in_system": 6,
        "max_events": 100_000,
        "stall_events": 5_000,
        "faults": FaultConfig(seed=5, mtbf=20.0, mttr=2.0),
    }

    def test_old_run_section_lacks_the_new_keys(self):
        run = json.loads(V2_PAYLOAD.read_text())["run"]
        assert not {"rate_source", "estimation", "engine_options"} & set(
            run
        )
        assert RunConfig.from_jsonable(run) == RunConfig(**self.KNOBS)

    def test_old_payload_restores_bit_identically(self):
        mono_cluster = build_cluster()
        mono = mono_cluster.run(build_stream(120), **self.KNOBS)
        payload = json.loads(V2_PAYLOAD.read_text())
        cluster = build_cluster()
        handle = restore(cluster, build_stream(120), payload)
        assert handle.config == RunConfig(**self.KNOBS)
        assert handle.advance()
        # The payload was taken after its first window was detached
        # (as run_sharded does); that window rides under "extra".
        merged = ClusterMetrics.from_state(
            payload["extra"]["accumulated"]
        ).merge(handle.result())
        assert payload_of(merged) == payload_of(mono)
        assert cluster.last_fault_stats == mono_cluster.last_fault_stats


class TestEstimatedRunsAreNotCheckpointed:
    def test_capture_refuses_an_estimated_run(self):
        handle = build_cluster("maxit").start(build_stream(), **ESTIMATED)
        assert not handle.advance(pause_at=30.0)
        with pytest.raises(
            CheckpointError, match="estimator state is not serialized"
        ):
            capture(handle)
        handle.close()

    def test_run_sharded_refuses_before_the_first_shard(self, tmp_path):
        built: list[int] = []

        def factory():
            built.append(1)
            return build_stream()

        with pytest.raises(
            CheckpointError, match="estimator state is not serialized"
        ):
            run_sharded(
                build_cluster("maxit"),
                factory,
                boundaries=[30.0, 60.0],
                checkpoint_dir=tmp_path,
                **ESTIMATED,
            )
        assert built == []
        assert not (tmp_path / CHECKPOINT_NAME).exists()

    def test_in_process_shards_merge_bit_for_bit(self):
        mono = build_cluster("maxit").run(build_stream(), **ESTIMATED)
        sharded = run_sharded(
            build_cluster("maxit"),
            build_stream,
            boundaries=[30.0, 60.0, 90.0],
            **ESTIMATED,
        )
        assert payload_of(sharded.metrics) == payload_of(mono)


class TestResumeChecksTheWholeConfig:
    BOUNDARIES = [30.0, 60.0, 90.0]

    def write_checkpoint(self, directory: Path, **knobs) -> None:
        """The checkpoint a killed ``run_sharded(**knobs)`` leaves after
        its first shard."""
        handle = build_cluster().start(build_stream(), **knobs)
        assert not handle.advance(pause_at=self.BOUNDARIES[0])
        save(
            directory / CHECKPOINT_NAME,
            capture(
                handle,
                extra={
                    "shard": 0,
                    "boundaries": self.BOUNDARIES,
                    "accumulated": handle.take_window().to_state(),
                },
            ),
        )
        handle.close()

    def test_dropped_horizon_is_refused(self, tmp_path):
        self.write_checkpoint(tmp_path, horizon=120.0)
        with pytest.raises(
            SimulationError, match=r"differing fields: horizon\)"
        ):
            run_sharded(
                build_cluster(),
                build_stream,
                boundaries=self.BOUNDARIES,
                checkpoint_dir=tmp_path,
            )

    def test_every_differing_field_is_named(self, tmp_path):
        self.write_checkpoint(tmp_path, keep_in_system=8, engine="legacy")
        with pytest.raises(SimulationError) as err:
            run_sharded(
                build_cluster(),
                build_stream,
                boundaries=self.BOUNDARIES,
                checkpoint_dir=tmp_path,
                keep_in_system=9,
            )
        assert "differing fields: keep_in_system, engine)" in str(
            err.value
        )

    def test_matching_config_resumes_bit_identically(self, tmp_path):
        knobs = {"horizon": 120.0, "warmup_time": 10.0, "max_events": 9_999}
        mono = build_cluster().run(build_stream(), **knobs)
        self.write_checkpoint(tmp_path, **knobs)
        out = run_sharded(
            build_cluster(),
            build_stream,
            boundaries=self.BOUNDARIES,
            checkpoint_dir=tmp_path,
            **knobs,
        )
        assert out.resumed_from_shard == 0
        assert payload_of(out.metrics) == payload_of(mono)
