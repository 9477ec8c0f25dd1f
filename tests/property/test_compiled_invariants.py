"""Compiled-engine layer invariants: fusion and batching in isolation.

The differential harness (``test_differential_engines.py``) pins the
compiled engine as a whole against the other two engines; these
properties pin its two internal shortcuts **individually**, so a
differential failure localizes to a layer:

* **event fusion** — a fused advance (zero-span syncs skipped,
  same-multiset refills reusing the coschedule entry) must equal the
  N explicit single steps it replaced.  ``engine_options={"fuse":
  False}`` forces the unfused stepping; every metric float and every
  pick must survive the toggle.
* **machine batching** — machines flushed in the same dirty round
  share resolved scheduling decisions keyed by their (capped) count
  vectors.  ``engine_options={"batch": False}`` re-resolves every
  machine independently; batched and per-machine stepping must agree
  exactly.

Both toggles are debug knobs on :func:`repro.queueing.compiled.
compiled_ops` that exist precisely for these tests.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.queueing.cluster import Cluster
from repro.queueing.dispatch import make_dispatcher
from repro.queueing.hotpath import saturated_jobs, synthetic_rates
from repro.queueing.schedulers import make_scheduler
from repro.core.workload import Workload
from repro.experiments.registry import to_jsonable

from tests.property.test_differential_engines import configs


def run_compiled_config(config, engine_options):
    """``run_config`` but always the compiled engine, with knobs."""
    contexts = config["contexts"]
    rates, names = synthetic_rates(
        n_types=config["n_types"], contexts=contexts
    )
    workload = Workload.of(*names)
    from repro.queueing.scenarios import get_scenario

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
    picks: list[tuple[int, tuple[int, ...]]] = []
    metrics = cluster.run(
        jobs,
        engine="compiled",
        engine_options=engine_options,
        pick_log=picks,
        **config["knobs"],
    )
    return to_jsonable(metrics), picks, cluster.last_engine_stats


class TestFusionInvariant:
    @given(configs)
    @settings(max_examples=60, deadline=None)
    def test_fused_advance_equals_single_steps(self, config):
        fused = run_compiled_config(config, {"fuse": True})
        unfused = run_compiled_config(config, {"fuse": False})
        assert fused[0] == unfused[0], f"fusion changed metrics on {config}"
        assert fused[1] == unfused[1], f"fusion changed picks on {config}"
        # The toggle is real: the unfused run performs no fusion.
        assert unfused[2]["fused_syncs"] == 0
        assert unfused[2]["fused_entries"] == 0


class TestBatchingInvariant:
    @given(configs)
    @settings(max_examples=60, deadline=None)
    def test_batched_flush_equals_per_machine_stepping(self, config):
        batched = run_compiled_config(config, {"batch": True})
        independent = run_compiled_config(config, {"batch": False})
        assert batched[0] == independent[0], (
            f"batching changed metrics on {config}"
        )
        assert batched[1] == independent[1], (
            f"batching changed picks on {config}"
        )


def test_shortcuts_actually_engage_on_saturated_workload():
    """The knobs must gate real work: a saturated multi-machine MAXIT
    run fuses syncs and refills, and resolves its initial flush as one
    batch round over all machines."""
    rates, names = synthetic_rates()
    workload = Workload.of(*names)
    cluster = Cluster(
        rates,
        [
            make_scheduler("maxit", rates, 4, workload=workload)
            for _ in range(3)
        ],
        make_dispatcher("round_robin"),
    )
    cluster.run(
        saturated_jobs(names, 400),
        stop_when_fewer_than=12,
        keep_in_system=10,
        engine="compiled",
    )
    stats = cluster.last_engine_stats
    assert stats["fused_syncs"] > 0
    assert stats["fused_entries"] > 0
    assert stats["batch_rounds"] >= 1
    assert stats["max_batch"] == 3
    assert stats["probe_hits"] > stats["probe_builds"]
