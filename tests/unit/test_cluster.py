"""Unit tests for the heap-driven multi-machine event core."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.microarch.rates import TableRates
from repro.queueing.cluster import (
    Cluster,
    ClusterMetrics,
    RunRateMemo,
    run_cluster,
)
from repro.queueing.dispatch import (
    Dispatcher,
    JoinShortestQueueDispatcher,
    RoundRobinDispatcher,
)
from repro.queueing.job import Job
from repro.queueing.schedulers import FcfsScheduler, make_scheduler


@pytest.fixture()
def unit_rates() -> TableRates:
    """Every job progresses at rate 1 regardless of coschedule."""
    return TableRates(
        {
            ("A",): {"A": 1.0},
            ("B",): {"B": 1.0},
            ("A", "A"): {"A": 2.0},
            ("A", "B"): {"A": 1.0, "B": 1.0},
            ("B", "B"): {"B": 2.0},
        }
    )


def jobs_at(*specs) -> list[Job]:
    """specs: (type, arrival, size)."""
    return [
        Job(job_id=i, job_type=t, size=s, arrival_time=a)
        for i, (t, a, s) in enumerate(specs)
    ]


def fcfs_cluster(rates: TableRates, m: int, contexts: int = 2) -> Cluster:
    return Cluster(
        rates,
        [FcfsScheduler(rates, contexts) for _ in range(m)],
        RoundRobinDispatcher(),
    )


class TestClusterBasics:
    def test_round_robin_splits_batch(self, unit_rates):
        """Two simultaneous jobs land on different machines and finish
        in parallel at t=1."""
        metrics = fcfs_cluster(unit_rates, 2).run(
            jobs_at(("A", 0.0, 1.0), ("A", 0.0, 1.0))
        )
        assert metrics.completed == 2
        assert metrics.mean_turnaround == pytest.approx(1.0)
        for machine in metrics.per_machine:
            assert machine.completed == 1
            assert machine.measured_time == pytest.approx(1.0)

    def test_single_machine_cluster_behaves_like_engine(self, unit_rates):
        metrics = fcfs_cluster(unit_rates, 1).run(
            jobs_at(("A", 0.0, 2.0), ("B", 0.0, 1.0))
        )
        assert metrics.n_machines == 1
        assert metrics.completed == 2
        assert metrics.work_done == pytest.approx(3.0)

    def test_idle_machine_accumulates_empty_time(self, unit_rates):
        """With one job on a 2-machine cluster, the second machine is
        empty for the whole window (the flush covers its tail)."""
        metrics = fcfs_cluster(unit_rates, 2).run(
            jobs_at(("A", 0.0, 2.0))
        )
        busy, idle = metrics.per_machine
        assert busy.completed == 1
        assert idle.completed == 0
        assert idle.measured_time == pytest.approx(2.0)
        assert idle.empty_fraction == pytest.approx(1.0)
        assert metrics.empty_fraction == pytest.approx(0.5)

    def test_staggered_arrivals_cross_machines(self, unit_rates):
        """Arrivals while another machine is mid-job progress lazily."""
        metrics = fcfs_cluster(unit_rates, 2).run(
            jobs_at(("A", 0.0, 3.0), ("B", 1.0, 1.0), ("A", 1.5, 0.5))
        )
        assert metrics.completed == 3
        assert metrics.work_done == pytest.approx(4.5)
        # Machine 0 got jobs 0 and 2 (round-robin), machine 1 job 1.
        assert metrics.per_machine[0].completed == 2
        assert metrics.per_machine[1].completed == 1

    def test_per_machine_cap_bounds_concurrency(self, unit_rates):
        metrics = fcfs_cluster(unit_rates, 2).run(
            jobs_at(*[("A", 0.0, 1.0) for _ in range(8)]),
            keep_in_system=2,
        )
        assert metrics.completed == 8
        for machine in metrics.per_machine:
            assert machine.utilization <= 2.0 + 1e-9

    def test_stop_when_fewer_than_counts_cluster_wide(self, unit_rates):
        metrics = fcfs_cluster(unit_rates, 2, contexts=1).run(
            jobs_at(*[("A", 0.0, 1.0) for _ in range(6)]),
            stop_when_fewer_than=2,
        )
        # The threshold is cluster-wide: the run stops only when a
        # single job remains in the whole cluster, not per machine.
        assert metrics.completed == 5

    def test_horizon_stops_all_machines(self, unit_rates):
        metrics = fcfs_cluster(unit_rates, 2).run(
            jobs_at(("A", 0.0, 100.0), ("B", 0.0, 100.0)),
            horizon=5.0,
        )
        assert metrics.completed == 0
        for machine in metrics.per_machine:
            assert machine.measured_time == pytest.approx(5.0)

    def test_warmup_discards_early_observations(self, unit_rates):
        metrics = fcfs_cluster(unit_rates, 2).run(
            jobs_at(("A", 0.0, 1.0), ("A", 0.0, 1.0), ("A", 10.0, 1.0)),
            warmup_time=5.0,
        )
        assert metrics.completed == 1
        for machine in metrics.per_machine:
            assert machine.measured_time == pytest.approx(6.0)

    def test_many_machines_conserve_work(self, unit_rates):
        sizes = [0.3 * (i % 5 + 1) for i in range(40)]
        metrics = fcfs_cluster(unit_rates, 8).run(
            jobs_at(*[("A", 0.1 * i, s) for i, s in enumerate(sizes)])
        )
        assert metrics.completed == 40
        assert metrics.work_done == pytest.approx(sum(sizes), rel=1e-9)

    def test_cluster_throughput_sums_machines(self, unit_rates):
        metrics = fcfs_cluster(unit_rates, 2).run(
            jobs_at(("A", 0.0, 2.0), ("B", 0.0, 2.0))
        )
        assert metrics.throughput == pytest.approx(
            sum(m.throughput for m in metrics.per_machine)
        )
        assert metrics.utilization == pytest.approx(2.0)


ENGINES = ["legacy", "compiled"]

#: An arrival this far after an event is inside the loop's 1e-9
#: batching window.
NEAR = 1.0 + 1e-9


class TestEpsilonBatching:
    """An arrival up to 1e-9 after the clock joins a machine early only
    at that machine's own event, as a single-machine run batches it."""

    @pytest.mark.parametrize("engine", ENGINES)
    def test_arrival_after_another_machines_event_waits(
        self, unit_rates, engine
    ):
        metrics = fcfs_cluster(unit_rates, 2).run(
            jobs_at(("A", 1.0, 1.0), ("B", NEAR, 1.0)), engine=engine
        )
        other = metrics.per_machine[1]
        assert other.empty_time == NEAR
        assert other.turnaround_sum == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_arrival_after_own_completion_is_batched(
        self, unit_rates, engine
    ):
        # Machine 1 finishes job 1 at t=1 and takes job 3 right there.
        metrics = fcfs_cluster(unit_rates, 2).run(
            jobs_at(
                ("A", 0.0, 3.0),
                ("B", 0.0, 1.0),
                ("A", 0.5, 1.0),
                ("B", NEAR, 1.0),
            ),
            engine=engine,
        )
        assert metrics.per_machine[1].completed == 2
        # Job 3 starts at t=1 and finishes at t=2.
        assert metrics.per_machine[1].turnaround_sum == pytest.approx(
            2.0 - 1e-9, rel=1e-12
        )

    @pytest.mark.parametrize("engine", ENGINES)
    def test_single_machine_batches_at_the_clock(self, unit_rates, engine):
        metrics = fcfs_cluster(unit_rates, 1).run(
            jobs_at(("A", 1.0, 1.0), ("B", NEAR, 1.0)), engine=engine
        )
        # Both start at t=1 and finish at t=2.
        assert metrics.per_machine[0].turnaround_sum == pytest.approx(
            2.0 - 1e-9, rel=1e-12
        )

    @pytest.mark.parametrize("engine", ENGINES)
    def test_waiting_arrival_is_routed_once(self, unit_rates, engine):
        """The round-robin cursor advances once per job, so the jobs
        after a waiting arrival still alternate machines."""
        metrics = fcfs_cluster(unit_rates, 2).run(
            jobs_at(
                ("A", 1.0, 1.0),
                ("B", NEAR, 1.0),
                ("A", 1.5, 1.0),
                ("B", 2.5, 1.0),
            ),
            engine=engine,
        )
        assert [m.completed for m in metrics.per_machine] == [2, 2]

    @pytest.mark.parametrize("engine", ENGINES)
    def test_waiting_arrival_survives_a_pause(self, unit_rates, engine):
        stream = (("A", 1.0, 1.0), ("B", NEAR, 1.0), ("A", 1.5, 1.0))
        whole = fcfs_cluster(unit_rates, 2).run(
            jobs_at(*stream), engine=engine
        )
        handle = fcfs_cluster(unit_rates, 2).start(
            iter(jobs_at(*stream)), engine=engine
        )
        try:
            assert not handle.advance(pause_at=1.0 + 0.5e-9)
            assert handle.advance()
        finally:
            handle.close()
        assert handle.result() == whole


class TestClusterGuards:
    def test_needs_at_least_one_machine(self, unit_rates):
        with pytest.raises(SimulationError):
            Cluster(unit_rates, [], RoundRobinDispatcher())

    def test_out_of_order_arrivals_rejected(self, unit_rates):
        stream = [
            Job(job_id=0, job_type="A", size=1.0, arrival_time=5.0),
            Job(job_id=1, job_type="A", size=1.0, arrival_time=1.0),
        ]
        with pytest.raises(SimulationError, match="out of order"):
            fcfs_cluster(unit_rates, 2).run(stream)

    def test_zero_rate_rejected(self):
        rates = TableRates({("A",): {"A": 0.0}})
        with pytest.raises(SimulationError, match="zero rate"):
            run_cluster(
                rates,
                [FcfsScheduler(rates, 1)],
                RoundRobinDispatcher(),
                jobs_at(("A", 0.0, 1.0)),
            )

    def test_event_budget_enforced(self, unit_rates):
        with pytest.raises(SimulationError, match="exceeded"):
            fcfs_cluster(unit_rates, 2).run(
                jobs_at(*[("A", 0.0, 1.0) for _ in range(10)]),
                max_events=2,
            )

    def test_bad_dispatcher_target_rejected(self, unit_rates):
        class Elsewhere(Dispatcher):
            name = "elsewhere"

            def route(self, job, machines, eligible, clock):
                return len(machines)  # out of range

        with pytest.raises(SimulationError, match="routed to invalid"):
            run_cluster(
                unit_rates,
                [FcfsScheduler(unit_rates, 2) for _ in range(2)],
                Elsewhere(),
                jobs_at(("A", 0.0, 1.0)),
            )


class TestRunRateMemo:
    def test_memoizes_type_rates_per_canonical_key(self, unit_rates):
        calls = []

        class Counting:
            def type_rates(self, coschedule):
                calls.append(tuple(coschedule))
                return unit_rates.type_rates(coschedule)

        memo = RunRateMemo(Counting())
        assert memo.type_rates(("B", "A")) == {"A": 1.0, "B": 1.0}
        assert memo.type_rates(("A", "B")) == {"A": 1.0, "B": 1.0}
        assert calls == [("A", "B")]

    def test_per_job_rates_divide_by_multiplicity(self, unit_rates):
        memo = RunRateMemo(unit_rates)
        assert memo.per_job_rates(("A", "A")) == {"A": 1.0}
        assert memo.per_job_rates(()) == {}

    def test_delegates_unknown_attributes(self, unit_rates):
        memo = RunRateMemo(unit_rates)
        assert memo.coschedules() == unit_rates.coschedules()

    def test_schedulers_share_the_run_memo(self, unit_rates):
        """During a run, every scheduler probe goes through one memo:
        the underlying source sees each multiset at most once."""
        calls = []

        class Counting:
            def type_rates(self, coschedule):
                calls.append(tuple(coschedule))
                return unit_rates.type_rates(coschedule)

        source = Counting()
        schedulers = [make_scheduler("maxit", source, 2) for _ in range(2)]
        run_cluster(
            source,
            schedulers,
            RoundRobinDispatcher(),
            jobs_at(*[("A" if i % 2 else "B", 0.0, 1.0) for i in range(6)]),
        )
        assert len(calls) == len(set(calls))
        # The original source is restored once the run ends.
        assert all(s.rates is source for s in schedulers)


class TestJsqComposition:
    def test_jsq_balances_uneven_service(self, unit_rates):
        """JSQ sends newcomers to the machine that drained."""
        metrics = run_cluster(
            unit_rates,
            [FcfsScheduler(unit_rates, 1) for _ in range(2)],
            JoinShortestQueueDispatcher(),
            jobs_at(
                ("A", 0.0, 5.0),  # machine 0, long
                ("A", 0.0, 1.0),  # machine 1, short
                ("A", 1.5, 1.0),  # machine 1 is empty again -> goes there
            ),
        )
        assert metrics.per_machine[0].completed == 1
        assert metrics.per_machine[1].completed == 2


class TestClusterMetrics:
    def test_mean_turnaround_requires_completions(self):
        metrics = ClusterMetrics(per_machine=())
        with pytest.raises(SimulationError):
            metrics.mean_turnaround


class TestMachineJobQueuePath:
    """Regression: both engines keep machine queues as JobQueues, and
    the reference engine routes completions through JobQueue's
    incremental ``remove_ids`` — the O(queue)-per-completion plain-list
    rebuild path is gone and must stay gone."""

    def test_plain_list_jobs_normalized_to_jobqueue(self, unit_rates):
        from repro.queueing.cluster import JobQueue, Machine

        machine = Machine(
            machine_id=0,
            scheduler=FcfsScheduler(unit_rates, 2),
            jobs=jobs_at(("A", 0.0, 1.0), ("B", 0.0, 1.0)),
        )
        assert type(machine.jobs) is JobQueue
        assert [job.job_type for job in machine.jobs] == ["A", "B"]

    def test_completions_route_through_remove_ids(
        self, unit_rates, monkeypatch
    ):
        from repro.queueing.cluster import JobQueue

        removed: list[int] = []
        original = JobQueue.remove_ids

        def spy(self, ids, codes):
            removed.append(len(ids))
            return original(self, ids, codes)

        monkeypatch.setattr(JobQueue, "remove_ids", spy)
        metrics = fcfs_cluster(unit_rates, 2).run(
            jobs_at(("A", 0.0, 1.0), ("B", 0.0, 1.0), ("A", 0.5, 1.0)),
            engine="legacy",
        )
        assert metrics.completed == 3
        assert sum(removed) == 3

    @pytest.mark.parametrize("engine", ["legacy", "compiled"])
    def test_every_engine_keeps_the_queue_a_jobqueue(
        self, unit_rates, engine
    ):
        from repro.queueing.cluster import JobQueue

        cluster = fcfs_cluster(unit_rates, 2)
        stream = jobs_at(
            ("A", 0.0, 1.0), ("B", 0.2, 1.0), ("A", 0.4, 1.0),
            ("B", 0.6, 1.0),
        )
        handle = cluster.start(iter(stream), engine=engine)
        try:
            assert not handle.advance(pause_at=0.5)
            for machine in handle.machines:
                assert type(machine.jobs) is JobQueue
            assert handle.advance()
        finally:
            handle.close()


class TestEngineSwitch:
    """``engine=`` names the production loop or the reference, and
    nothing else — the retired interned "fast" loop included."""

    @pytest.mark.parametrize("engine", ["fast", "turbo"])
    def test_unknown_engine_names_both_choices(self, unit_rates, engine):
        with pytest.raises(SimulationError) as err:
            fcfs_cluster(unit_rates, 2).run(
                jobs_at(("A", 0.0, 1.0)), engine=engine
            )
        message = str(err.value)
        assert repr(engine) in message
        assert "compiled" in message and "legacy" in message

    def test_compiled_is_the_default(self, unit_rates):
        cluster = fcfs_cluster(unit_rates, 2)
        handle = cluster.start(iter(jobs_at(("A", 0.0, 1.0))))
        assert handle.config.engine == "compiled"
        handle.advance()
        assert cluster.last_engine_stats is not None


class TestOneLoop:
    """The one event loop drives an engine only through its
    :class:`MachineOps`, built once per run, and every offline-policy
    re-solve goes through one helper."""

    def test_mark_dirty_queues_each_machine_once(self, unit_rates):
        from repro.queueing.cluster import Machine, RunConfig, reference_ops

        machines = [
            Machine(machine_id=i, scheduler=FcfsScheduler(unit_rates, 2))
            for i in range(3)
        ]
        for machine in machines:
            machine.dirty = False
        ops = reference_ops(machines, RunRateMemo(unit_rates), RunConfig())
        ops.mark_dirty(2)
        ops.mark_dirty(0)
        ops.mark_dirty(2)
        assert ops.dirty == [2, 0]
        assert [m.dirty for m in machines] == [True, False, True]

    def test_reference_ops_admit_marks_dirty_and_logs_picks(
        self, unit_rates
    ):
        from repro.queueing.cluster import Machine, RunConfig, reference_ops

        machines = [
            Machine(machine_id=i, scheduler=FcfsScheduler(unit_rates, 2))
            for i in range(2)
        ]
        for machine in machines:
            machine.dirty = False
        pick_log: list = []
        ops = reference_ops(
            machines,
            RunRateMemo(unit_rates),
            RunConfig(),
            pick_log=pick_log,
        )
        for job in jobs_at(("A", 0.0, 1.0), ("B", 0.0, 1.0)):
            ops.admit(1, job)
        assert ops.dirty == [1]
        ops.reschedule(ops.dirty, 0.0)
        assert pick_log == [(1, (0, 1))]
        assert machines[1].coschedule == ("A", "B")

    @pytest.mark.parametrize("engine", ["legacy", "compiled"])
    def test_ops_built_once_across_segments(
        self, unit_rates, engine, monkeypatch
    ):
        from repro.queueing.cluster import ClusterRunHandle

        built: list[str] = []
        original = ClusterRunHandle._build_ops

        def spy(self):
            built.append(self.config.engine)
            return original(self)

        monkeypatch.setattr(ClusterRunHandle, "_build_ops", spy)
        stream = jobs_at(
            ("A", 0.0, 1.0), ("B", 0.3, 1.0), ("A", 0.6, 1.0),
            ("B", 0.9, 1.0), ("A", 1.2, 1.0),
        )
        handle = fcfs_cluster(unit_rates, 2).start(
            iter(stream), engine=engine
        )
        assert not handle.advance(pause_at=0.5)
        assert not handle.advance(pause_at=1.0)
        assert handle.advance()
        assert built == [engine]
        assert handle.result().completed == len(stream)

    def test_fault_run_resolves_schedulers_then_dispatcher(
        self, unit_rates
    ):
        from repro.queueing.faults import FaultConfig

        calls: list[tuple[str, object]] = []

        class CountingScheduler(FcfsScheduler):
            def reoptimize(self, rates):
                calls.append(("scheduler", rates))

        class RebuildingDispatcher(RoundRobinDispatcher):
            uses_rates = True

            def rebuild(self, rates):
                calls.append(("dispatcher", rates))

        cluster = Cluster(
            unit_rates,
            [CountingScheduler(unit_rates, 2) for _ in range(2)],
            RebuildingDispatcher(),
        )
        stream = [
            Job(job_id=i, job_type="AB"[i % 2], size=1.0,
                arrival_time=0.5 * i)
            for i in range(40)
        ]
        fault_free = cluster.run(iter(stream))
        assert fault_free.completed == len(stream)
        assert calls == []
        cluster.run(iter(stream), faults=FaultConfig(seed=3, mtbf=2.0))
        assert cluster.last_fault_stats["crashes"] > 0
        # Every re-solve re-optimizes both schedulers, then rebuilds the
        # dispatcher, against one source; the close() restore is last
        # and solves against the cluster's own rates.
        assert calls and len(calls) % 3 == 0
        for i in range(0, len(calls), 3):
            kinds = [kind for kind, _ in calls[i:i + 3]]
            assert kinds == ["scheduler", "scheduler", "dispatcher"]
            assert len({id(src) for _, src in calls[i:i + 3]}) == 1
        assert calls[-1] == ("dispatcher", unit_rates)
