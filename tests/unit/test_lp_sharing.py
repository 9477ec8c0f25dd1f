"""Every offline-solved policy of a run shares one Section-IV LP solve
per published estimate epoch, and the shared solve changes nothing.

MAXTP's ``reoptimize`` and the affinity dispatcher's ``rebuild`` both
get their schedule from :meth:`RunRateMemo.optimal` when handed the
run's memo.  The memo keys on (workload, inferred contexts) and is
dropped at every estimator publish together with the rates it was
solved from.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.core.optimal import optimal_throughput
from repro.core.workload import Workload
from repro.lp.model import Model
from repro.queueing.cluster import Cluster
from repro.queueing.dispatch import RoundRobinDispatcher, make_dispatcher
from repro.queueing.estimation import EstimationConfig
from repro.queueing.faults import FaultConfig
from repro.queueing.hotpath import synthetic_rates
from repro.queueing.ratememo import RunRateMemo
from repro.queueing.scenarios import get_scenario
from repro.queueing.schedulers import MaxTpScheduler, make_scheduler

CONTEXTS = 3
N_SCHEDULERS = 3


class _OnMachine:
    """A rate table that names its machine, so a policy built with
    ``contexts=None`` infers the context count from it."""

    def __init__(self, table, contexts: int) -> None:
        self.source = table
        self.machine = SimpleNamespace(contexts=contexts)

    def type_rates(self, coschedule):
        return self.source.type_rates(coschedule)


def _rates():
    table, names = synthetic_rates(n_types=4, contexts=CONTEXTS)
    return _OnMachine(table, CONTEXTS), names


def _jobs(names):
    return list(
        get_scenario("bursty_mmpp").build_jobs(
            names, mean_rate=3.0, seed=3, n_jobs=400
        )
    )


#: Noisy estimates published every 16 observations, so the LP's
#: optimum moves from epoch to epoch.
ESTIMATION = EstimationConfig(
    noise=0.2, prior="single_run", reopt_observations=16, seed=4
)
#: A few crashes over the ~130-unit run: every down and every repair
#: fires the membership hook between publishes.
FAULTS = FaultConfig(seed=5, mtbf=40.0, mttr=4.0)


@pytest.fixture()
def solves(monkeypatch):
    """Count every LP ``Model.solve`` of the test."""
    counter = {"n": 0}
    original = Model.solve

    def counting(self, *args, **kwargs):
        counter["n"] += 1
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Model, "solve", counting)
    return counter


@pytest.fixture()
def reopt_rounds(monkeypatch):
    """Count MAXTP ``reoptimize`` calls (one per scheduler per round)."""
    counter = {"n": 0}
    original = MaxTpScheduler.reoptimize

    def counting(self, rates):
        counter["n"] += 1
        original(self, rates)

    monkeypatch.setattr(MaxTpScheduler, "reoptimize", counting)
    return counter


def _maxtp_affinity_run(engine: str) -> dict[str, object]:
    """One estimated + faulty run of MAXTP machines behind affinity
    dispatch; the dispatcher infers its contexts, the schedulers are
    told them, so both ask for the same LP."""
    rates, names = _rates()
    workload = Workload.of(*names)
    cluster = Cluster(
        rates,
        [
            make_scheduler("maxtp", rates, CONTEXTS, workload=workload)
            for _ in range(N_SCHEDULERS)
        ],
        make_dispatcher("affinity", rates=rates, workload=workload),
    )
    picks: list = []
    metrics = cluster.run(
        _jobs(names),
        engine=engine,
        rate_source="estimated",
        estimation=ESTIMATION,
        faults=FAULTS,
        pick_log=picks,
    )
    return {
        "metrics": metrics.to_state(),
        "faults": cluster.last_fault_stats,
        "estimator": cluster.last_estimator_stats,
        "picks": picks,
    }


class TestSharedSolve:
    @pytest.mark.parametrize("engine", ["compiled", "legacy"])
    def test_one_solve_per_epoch_and_lp(self, engine, solves, reopt_rounds):
        run = _maxtp_affinity_run(engine)
        epochs = run["estimator"]["epoch"]
        assert epochs >= 3
        assert run["faults"]["crashes"] >= 1
        rounds = reopt_rounds["n"] // N_SCHEDULERS
        # The run-start round, one round per publish, the close()
        # restore -- and at least one membership-hook round between.
        assert rounds > 1 + epochs + 1
        # N + 1 constructor solves on the cluster's own rates, one
        # shared solve at run start, one per published epoch (the
        # membership-hook rounds are free), and N + 1 restore solves
        # on the cluster's own rates at close.
        consumers = N_SCHEDULERS + 1
        assert solves["n"] == consumers + 1 + epochs + consumers

    @pytest.mark.parametrize("engine", ["compiled", "legacy"])
    def test_same_run_as_solving_every_time(self, engine, monkeypatch):
        shared = _maxtp_affinity_run(engine)

        def always_solve(self, workload, contexts):
            return optimal_throughput(self, workload, contexts=contexts)

        monkeypatch.setattr(RunRateMemo, "optimal", always_solve)
        solved = _maxtp_affinity_run(engine)
        assert shared["metrics"] == solved["metrics"]
        assert shared["faults"] == solved["faults"]
        assert shared["estimator"] == solved["estimator"]
        assert shared["picks"] == solved["picks"]
        assert len(shared["picks"]) > 0


class TestMemoKey:
    def test_workload_and_contexts_key_the_solve(self, solves):
        rates, names = _rates()
        memo = RunRateMemo(rates)
        four = Workload.of(*names)
        three = Workload.of(*names[:3])
        base = memo.optimal(four, CONTEXTS)
        other_workload = memo.optimal(three, CONTEXTS)
        other_contexts = memo.optimal(four, 2)
        assert solves["n"] == 3
        assert len({id(base), id(other_workload), id(other_contexts)}) == 3
        for schedule, workload, contexts in (
            (base, four, CONTEXTS),
            (other_workload, three, CONTEXTS),
            (other_contexts, four, 2),
        ):
            fresh = optimal_throughput(rates, workload, contexts=contexts)
            assert schedule.fractions == fresh.fractions
        # Inferred contexts normalize onto the explicit count.
        assert memo.optimal(four, None) is base
        assert memo.optimal(Workload.of(*names), CONTEXTS) is base
        assert solves["n"] == 3 + 3

    def test_clear_drops_the_solve(self, solves):
        rates, names = _rates()
        memo = RunRateMemo(rates)
        workload = Workload.of(*names)
        first = memo.optimal(workload, CONTEXTS)
        memo.clear()
        assert solves["n"] == 1
        again = memo.optimal(workload, CONTEXTS)
        assert again is not first
        assert solves["n"] == 2
        assert again.fractions == first.fractions


class TestTargetsTrackEveryEpoch:
    """MAXTP machines that differ in workload or contexts each follow
    their own LP, re-solved on every publish: after every round, each
    scheduler's targets equal a fresh solve on the policy memo."""

    def test_targets_equal_a_fresh_solve(self):
        rates, names = _rates()
        four = Workload.of(*names)
        schedulers = [
            MaxTpScheduler(rates, CONTEXTS, four),
            MaxTpScheduler(rates, CONTEXTS, Workload.of(*names[:3])),
            MaxTpScheduler(rates, 2, four),
        ]
        cluster = Cluster(rates, schedulers, RoundRobinDispatcher())
        handle = cluster.start(
            _jobs(names),
            rate_source="estimated",
            estimation=ESTIMATION,
            faults=FAULTS,
        )
        seen: list[tuple] = []

        def check(*_args) -> None:
            targets = []
            for scheduler in schedulers:
                fresh = optimal_throughput(
                    handle.policy_memo,
                    scheduler.workload,
                    contexts=scheduler.contexts,
                )
                assert scheduler.target_fractions == fresh.fractions
                targets.append(tuple(sorted(fresh.fractions.items())))
            assert len(set(targets)) == len(schedulers)
            seen.append(tuple(targets))

        handle.estimator.add_listener(check)
        membership_hook = handle.fault_rt.membership_hook

        def hook_then_check() -> None:
            membership_hook()
            check()

        handle.fault_rt.membership_hook = hook_then_check
        while not handle.advance():
            pass
        assert cluster.last_estimator_stats["epoch"] >= 3
        assert cluster.last_fault_stats["crashes"] >= 1
        # The estimates moved the optimum: a memo surviving a publish
        # would have served stale targets.
        assert len(set(seen)) > 1
