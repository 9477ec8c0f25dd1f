"""Sharded execution and checkpoint/restore, end to end.

The contract under test: shard boundaries and checkpoints choose only
where a run *pauses* — never what it computes.  A sharded run, a
checkpointed-then-killed-then-resumed run (in a fresh process), and the
plain monolithic run must all produce bit-identical
:class:`ClusterMetrics` and identical scheduler pick sequences, on
every engine.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.workload import Workload
from repro.errors import CheckpointError, SimulationError
from repro.experiments.registry import to_jsonable
from repro.experiments.scenario_sweep import run_scenario
from repro.microarch.rates import TableRates
from repro.queueing.checkpoint import CHECKPOINT_FORMAT, load
from repro.queueing.cluster import Cluster
from repro.queueing.dispatch import JoinShortestQueueDispatcher
from repro.queueing.hotpath import synthetic_rates
from repro.queueing.scenarios import get_scenario
from repro.queueing.schedulers import make_scheduler
from repro.queueing.sharding import (
    CHECKPOINT_NAME,
    parallel_map,
    plan_boundaries,
    run_sharded,
)

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
N_JOBS = 250
MEAN_RATE = 1.8
SEED = 23


def build_cluster() -> Cluster:
    return Cluster(
        RATES,
        [
            make_scheduler("maxtp", RATES, 2, workload=WORKLOAD)
            for _ in range(2)
        ],
        JoinShortestQueueDispatcher(),
    )


def build_stream():
    return get_scenario("bursty_mmpp").build_jobs(
        WORKLOAD.types, mean_rate=MEAN_RATE, seed=SEED, n_jobs=N_JOBS
    )


def payload_of(metrics) -> list:
    # registry.to_jsonable flattens the tuple coschedule keys, so the
    # payload survives json.dumps in the subprocess drivers unchanged.
    return [to_jsonable(m.to_jsonable()) for m in metrics.per_machine]


class TestShardedEqualsMonolithic:
    @pytest.mark.parametrize("engine", ["legacy", "compiled"])
    @pytest.mark.parametrize("n_shards", [2, 7])
    def test_bit_identical_metrics_and_picks(self, engine, n_shards):
        mono_picks: list = []
        mono = build_cluster().run(
            build_stream(), engine=engine, pick_log=mono_picks
        )
        sharded_picks: list = []
        sharded = run_sharded(
            build_cluster(),
            build_stream,
            boundaries=plan_boundaries(n_shards, N_JOBS / MEAN_RATE),
            engine=engine,
            pick_log=sharded_picks,
        )
        assert sharded.resumed_from_shard is None
        assert sharded_picks == mono_picks
        assert payload_of(sharded.metrics) == payload_of(mono)

    def test_completed_checkpoint_is_removed(self, tmp_path):
        out = run_sharded(
            build_cluster(),
            build_stream,
            boundaries=plan_boundaries(4, N_JOBS / MEAN_RATE),
            checkpoint_dir=tmp_path,
        )
        assert out.shards_run == 4
        assert not (tmp_path / CHECKPOINT_NAME).exists()

    def test_scenario_outcome_ignores_the_shard_count(self):
        # Engine and memo counters included: a pass that stops at a
        # shard boundary is counted once, by the segment that runs it.
        rates, names = synthetic_rates(n_types=4, contexts=2)
        outcomes = [
            dataclasses.asdict(
                run_scenario(
                    rates,
                    Workload.of(*names),
                    get_scenario("baseline_poisson"),
                    "round_robin",
                    n_jobs=200,
                    contexts=2,
                    shards=shards,
                )
            )
            for shards in (1, 2, 4)
        ]
        assert outcomes[0]["engine_stats"]["events"] == 401
        for outcome in outcomes:
            outcome.pop("shards")
        assert outcomes[1] == outcomes[0]
        assert outcomes[2] == outcomes[0]


# Driver executed in fresh subprocesses: "mono" runs the plain cluster,
# "sharded" runs the checkpointing sharded path (killed mid-run by
# REPRO_SHARD_DIE_AFTER on the first attempt, resumed by the second).
_DRIVER = """
import json, sys
sys.path.insert(0, {src!r})
from test_sharding_helpers import *

mode, engine = sys.argv[1], sys.argv[2]
if mode == "mono":
    metrics = build_cluster().run(build_stream(), engine=engine)
    resumed = None
else:
    out = run_sharded(
        build_cluster(),
        build_stream,
        boundaries=plan_boundaries(5, N_JOBS / MEAN_RATE),
        checkpoint_dir=sys.argv[3],
        engine=engine,
    )
    metrics, resumed = out.metrics, out.resumed_from_shard
print(json.dumps({{"resumed": resumed, "metrics": payload_of(metrics)}}))
"""


def _run_driver(tmp_path: Path, *args: str, die_after: str | None = None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(
        Path(__file__).resolve().parents[2] / "src"
    ) + os.pathsep + str(tmp_path)
    env.pop("REPRO_SHARD_DIE_AFTER", None)
    if die_after is not None:
        env["REPRO_SHARD_DIE_AFTER"] = die_after
    return subprocess.run(
        [sys.executable, str(tmp_path / "driver.py"), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.fixture()
def driver_dir(tmp_path: Path) -> Path:
    """Materialize the driver plus this module's builders as scripts."""
    helpers = (
        "import sys\n"
        f"sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
        "from test_sharding import (\n"
        "    N_JOBS, MEAN_RATE, build_cluster, build_stream, payload_of,\n"
        ")\n"
        "from repro.queueing.sharding import plan_boundaries, run_sharded\n"
    )
    (tmp_path / "test_sharding_helpers.py").write_text(helpers)
    (tmp_path / "driver.py").write_text(
        _DRIVER.format(
            src=str(Path(__file__).resolve().parents[2] / "src")
        )
    )
    return tmp_path


class TestKillAndResume:
    @pytest.mark.parametrize("engine", ["legacy", "compiled"])
    def test_killed_run_resumes_bit_identically(self, driver_dir, engine):
        """Hard-kill after shard 1's checkpoint (fresh process), resume
        in another fresh process: metrics match the monolithic run bit
        for bit and the checkpoint is consumed."""
        ckpt = driver_dir / "ckpt"
        ckpt.mkdir()

        mono = _run_driver(driver_dir, "mono", engine)
        assert mono.returncode == 0, mono.stderr

        killed = _run_driver(
            driver_dir, "sharded", engine, str(ckpt), die_after="1"
        )
        assert killed.returncode == 42, killed.stderr
        checkpoint = ckpt / CHECKPOINT_NAME
        assert checkpoint.exists()
        assert load(checkpoint)["format"] == CHECKPOINT_FORMAT

        resumed = _run_driver(driver_dir, "sharded", engine, str(ckpt))
        assert resumed.returncode == 0, resumed.stderr
        mono_out = json.loads(mono.stdout)
        resumed_out = json.loads(resumed.stdout)
        assert resumed_out["resumed"] == 1
        assert resumed_out["metrics"] == mono_out["metrics"]
        assert not checkpoint.exists()


class TestCheckpointValidation:
    def test_unknown_format_is_rejected(self, tmp_path):
        path = tmp_path / CHECKPOINT_NAME
        path.write_text(json.dumps({"format": "repro-checkpoint-v999"}))
        with pytest.raises(SimulationError, match="unsupported checkpoint"):
            load(path)

    def test_boundary_plan_mismatch(self, tmp_path):
        from repro.queueing.checkpoint import capture, save

        boundaries = plan_boundaries(5, N_JOBS / MEAN_RATE)
        handle = build_cluster().start(build_stream())
        assert not handle.advance(pause_at=boundaries[0])
        save(
            tmp_path / CHECKPOINT_NAME,
            capture(
                handle,
                extra={
                    "shard": 0,
                    "boundaries": boundaries,
                    "accumulated": handle.take_window().to_state(),
                },
            ),
        )
        handle.close()
        with pytest.raises(SimulationError, match="different shard"):
            run_sharded(
                build_cluster(),
                build_stream,
                boundaries=plan_boundaries(3, N_JOBS / MEAN_RATE),
                checkpoint_dir=tmp_path,
            )

    def test_capture_requires_a_paused_run(self):
        from repro.queueing.checkpoint import capture

        handle = build_cluster().start(build_stream())
        with pytest.raises(SimulationError, match="paused run"):
            capture(handle)
        handle.close()

    def test_restore_rejects_the_wrong_stream(self, tmp_path):
        from repro.queueing.checkpoint import capture, restore

        handle = build_cluster().start(build_stream())
        assert not handle.advance(pause_at=20.0)
        payload = capture(handle)
        handle.close()
        wrong = get_scenario("bursty_mmpp").build_jobs(
            WORKLOAD.types, mean_rate=MEAN_RATE, seed=SEED + 1, n_jobs=N_JOBS
        )
        with pytest.raises(SimulationError, match="stream"):
            restore(build_cluster(), wrong, payload)


class TestCheckpointEngineCompatibility:
    """Checkpoints name their engine; only the two live ones restore."""

    def paused_payload(self, engine: str = "compiled") -> dict:
        from repro.queueing.checkpoint import capture

        handle = build_cluster().start(build_stream(), engine=engine)
        assert not handle.advance(pause_at=20.0)
        payload = capture(handle)
        handle.close()
        return json.loads(json.dumps(payload))

    def test_new_payloads_carry_no_backend(self):
        assert "backend" not in self.paused_payload()["run"]

    def test_retired_backend_field_is_ignored(self):
        from repro.queueing.checkpoint import restore

        mono = build_cluster().run(build_stream())
        payload = self.paused_payload()
        payload["run"]["backend"] = "numpy"
        handle = restore(build_cluster(), build_stream(), payload)
        assert handle.advance()
        assert payload_of(handle.result()) == payload_of(mono)

    @pytest.mark.parametrize("engine", ["fast", "turbo"])
    def test_unknown_engine_is_refused(self, engine):
        from repro.queueing.checkpoint import restore

        payload = self.paused_payload()
        payload["run"]["engine"] = engine
        with pytest.raises(CheckpointError) as err:
            restore(build_cluster(), build_stream(), payload)
        message = str(err.value)
        assert repr(engine) in message
        assert "compiled" in message and "legacy" in message


class TestPlanBoundaries:
    def test_even_spacing(self):
        assert plan_boundaries(4, 100.0) == [25.0, 50.0, 75.0]

    def test_single_shard_has_no_boundaries(self):
        assert plan_boundaries(1, 100.0) == []

    def test_rejects_bad_inputs(self):
        with pytest.raises(SimulationError):
            plan_boundaries(0, 100.0)
        with pytest.raises(SimulationError):
            plan_boundaries(3, 0.0)

    def test_run_sharded_rejects_unsorted_boundaries(self):
        with pytest.raises(SimulationError, match="non-decreasing"):
            run_sharded(
                build_cluster(),
                build_stream,
                boundaries=[50.0, 10.0],
            )


class TestParallelMap:
    def test_serial_fallback_preserves_order(self):
        assert parallel_map(abs, [-3, 2, -1], jobs=1) == [3, 2, 1]

    def test_process_pool_preserves_order(self):
        assert parallel_map(abs, [-3, 2, -1, -7], jobs=2) == [3, 2, 1, 7]
