"""The benchmark's three workloads, driven only through public APIs.

Each workload is a closed loop on the host side (one caller advances
the run window after window, or solves the sweep multiset after
multiset) and, for the cluster workloads, an open loop on the
simulated side (arrivals at a fixed offered load).  A *round* is one complete unit of work:

* ``setup(seed)`` builds the rate source, the cluster (schedulers and
  dispatcher, whose offline LPs solve here) and the arrival stream —
  timed as one ``setup_s`` sample;
* ``run(state, tracer)`` is the timed phase; it returns the round's
  host timings, its step latencies and the raw outputs;
* ``check(state, result)`` verifies the outputs and digests the
  simulated statistics — outside every timed region.

The seed only shapes the generated inputs (job types, sizes and
arrival times; estimator noise and fault draws); rate tables and
sizing are fixed so that every seed asks for the same amount of work.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from itertools import combinations, count
from pathlib import Path
from typing import Callable

from repro.core.optimal import optimal_throughput, worst_throughput
from repro.core.workload import Workload
from repro.microarch.benchmarks import default_roster
from repro.microarch.config import quad_core_machine, smt_machine
from repro.microarch.rate_cache import RateCacheStore
from repro.microarch.rates import RateTable
from repro.queueing.arrivals import poisson_arrivals
from repro.queueing.cluster import Cluster, ClusterMetrics
from repro.queueing.dispatch import RoundRobinDispatcher, make_dispatcher
from repro.queueing.estimation import EstimationConfig
from repro.queueing.faults import FaultConfig
from repro.queueing.hotpath import synthetic_rates
from repro.queueing.scenarios import get_scenario
from repro.queueing.schedulers import make_scheduler
from repro.util.multiset import multisets

#: Relative slack on the LP cap: the cap is exact, the floats are not.
LP_CAP_SLACK = 1e-9


@dataclass
class RoundResult:
    """What one timed phase produced.

    Attributes:
        wall_s: host time of the timed phase.
        items: completed simulated jobs (cluster workloads) or cold
            coschedules solved (``rate_build``).
        steps_ms: per-step host latencies: one window's ``advance`` +
            ``take_window`` + ``merge``, or one multiset solved cold on
            every machine.
        layers: per-layer values the workload measures itself (counters
            read from the program's stats, directly timed phases).
        outputs: raw outputs handed to :meth:`BenchWorkload.check`.
    """

    wall_s: float
    items: int
    steps_ms: list[float]
    layers: dict[str, float] = field(default_factory=dict)
    outputs: dict[str, object] = field(default_factory=dict)


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


def digest(payload: object) -> str:
    """sha256 of a canonical JSON rendering (floats print exactly)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _rates_ok(table: dict) -> bool:
    return all(
        math.isfinite(r) and r > 0.0
        for rates in table.values()
        for r in rates.values()
    )


def _table_payload(table: dict) -> dict:
    return {"|".join(key): rates for key, rates in sorted(table.items())}


def _synthetic_table(rates) -> tuple[Check, dict]:
    """The positivity check and digest payload of a synthetic table."""
    table = {c: rates.type_rates(c) for c in rates.coschedules()}
    return Check("rates_finite_positive", _rates_ok(table)), _table_payload(table)


class NullTracer:
    """Stand-in for :class:`tracing.Tracer` in untraced rounds."""

    active = False
    _nothing = nullcontext()

    def span(self, name: str):
        return self._nothing


class BenchWorkload:
    def setup(self, seed: int):
        raise NotImplementedError

    def run(self, state, tracer) -> RoundResult:
        raise NotImplementedError

    def check(self, state, result: RoundResult) -> tuple[list[Check], str]:
        raise NotImplementedError

    def once_checks(self, seed: int, results: list[RoundResult]) -> list[Check]:
        """Checks made once per invocation, outside the timed rounds."""
        return []


# ----------------------------------------------------------------------
# rate_build: microarch sweep -> rate cache round trip -> Section-IV LP
# ----------------------------------------------------------------------


class RateBuild(BenchWorkload):
    """Cold sweep of every 1..K multiset on ``smt4`` and ``quad``, cache
    save + warm reload + full lookup pass, then the LP optimum and worst
    case of every 4-type workload of the roster on each machine.

    The roster keeps ``libquantum``: its bus-saturated quad coschedules
    exhaust the first damping rung and dominate the cold quad sweep.
    """

    #: Six types give 209 multisets of 1..4 jobs (>= 200 steps for a
    #: p95 with ten steps beyond it); 21 of them are libquantum quad
    #: coschedules that saturate the bus.
    TYPES = ("calculix", "h264ref", "hmmer", "libquantum", "sjeng", "tonto")
    #: The LP bounds run on every 4-type workload, the paper's size.
    LP_TYPES = 4

    def __init__(self, out_dir: Path) -> None:
        self.cache_path = out_dir / "rate_build.rates.json"

    def setup(self, seed: int):
        roster = {
            name: params
            for name, params in default_roster().items()
            if name in self.TYPES
        }
        machines = (smt_machine(), quad_core_machine())
        coschedules = [
            combo
            for size in range(1, 5)
            for combo in multisets(sorted(self.TYPES), size)
        ]
        workloads = [
            Workload.of(*types)
            for types in combinations(sorted(self.TYPES), self.LP_TYPES)
        ]
        self.cache_path.parent.mkdir(parents=True, exist_ok=True)
        self.cache_path.unlink(missing_ok=True)
        return roster, machines, coschedules, workloads

    def run(self, state, tracer) -> RoundResult:
        roster, machines, coschedules, workloads = state
        clock = time.perf_counter
        layers: dict[str, float] = {}
        steps_ms: list[float] = []
        cold_tables: dict[str, dict] = {}
        iterations = 0
        start = clock()
        with tracer.span("microarch.sweep"):
            store = RateCacheStore(self.cache_path)
            tables = [RateTable(machine, roster) for machine in machines]
            cold = [store.wrap(table) for table in tables]
            solve_ms: dict[str, list[float]] = {m.name: [] for m in machines}
            # One step solves a multiset on every machine, so the step
            # latencies form one population per multiset instead of a
            # mix of two machines' populations around the median.
            for combo in coschedules:
                step = clock()
                for machine, source in zip(machines, cold):
                    t0 = clock()
                    with tracer.span(f"microarch.{machine.name}.solve"):
                        source.type_rates(combo)
                    solve_ms[machine.name].append((clock() - t0) * 1e3)
                steps_ms.append((clock() - step) * 1e3)
            for machine, table, source in zip(machines, tables, cold):
                times = solve_ms[machine.name]
                layers[f"microarch.{machine.name}.solve_s"] = sum(times) / 1e3
                iterations += sum(
                    table.result(combo).iterations for combo in coschedules
                )
                cold_tables[machine.name] = source.entries()
            layers["microarch.quad.solve_ms_p50"] = quantile(solve_ms["quad"], 0.5)
            layers["microarch.quad.solve_ms_p95"] = quantile(solve_ms["quad"], 0.95)
        t0 = clock()
        with tracer.span("rate_cache.save"):
            store.save()
        layers["rate_cache.save_s"] = clock() - t0
        t0 = clock()
        with tracer.span("rate_cache.load"):
            warm_store = RateCacheStore(self.cache_path)
            warm = [warm_store.wrap(RateTable(m, roster)) for m in machines]
        layers["rate_cache.load_s"] = clock() - t0
        t0 = clock()
        with tracer.span("rate_cache.lookup"):
            warm_tables = {
                source.machine.name: {c: source.type_rates(c) for c in coschedules}
                for source in warm
            }
        lookups = len(coschedules) * len(warm)
        layers["rate_cache.warm_lookup_us"] = (clock() - t0) * 1e6 / lookups
        stats = warm_store.stats()
        layers["rate_cache.warm_hit_rate"] = stats.hits / stats.lookups
        bounds = []
        with tracer.span("lp.bounds"):
            for source in warm:
                for workload in workloads:
                    best = optimal_throughput(source, workload).throughput
                    worst = worst_throughput(source, workload).throughput
                    bounds.append((source.machine.name, workload.label(), best, worst))
        wall = clock() - start
        layers["microarch.coschedules"] = len(coschedules) * len(machines)
        layers["microarch.iterations"] = iterations
        return RoundResult(
            wall_s=wall,
            items=len(coschedules) * len(machines),
            steps_ms=steps_ms,
            layers=layers,
            outputs={"cold": cold_tables, "warm": warm_tables, "bounds": bounds},
        )

    def check(self, state, result):
        cold, warm = result.outputs["cold"], result.outputs["warm"]
        bounds = result.outputs["bounds"]
        coschedules = state[2]
        checks = [
            Check(
                "rates_finite_positive",
                all(_rates_ok(table) for table in cold.values()),
            ),
            Check(
                "cold_sweep_complete",
                all(len(table) == len(coschedules) for table in cold.values()),
            ),
            Check(
                "warm_reload_identical",
                all(warm[m] == cold[m] for m in cold),
                "warm lookups must return the cold rates bit for bit",
            ),
            Check(
                "warm_all_hits",
                result.layers["rate_cache.warm_hit_rate"] == 1.0,
            ),
            Check(
                "lp_optimum_ge_worst",
                all(best >= worst for _, _, best, worst in bounds),
            ),
        ]
        payload = {
            "rates": {m: _table_payload(t) for m, t in sorted(cold.items())},
            "lp": bounds,
        }
        return checks, digest(payload)


# ----------------------------------------------------------------------
# Cluster workloads
# ----------------------------------------------------------------------


def instrument(cluster: Cluster, tracer) -> None:
    """Route the cluster's policy calls through the tracer's spans."""
    dispatcher = cluster.dispatcher
    dispatcher.route = tracer.wrap(dispatcher.route, "dispatch.route")
    if getattr(dispatcher, "rebuild", None) is not None:
        dispatcher.rebuild = tracer.wrap(dispatcher.rebuild, "lp.rebuild")
    for scheduler in cluster.schedulers:
        scheduler.reoptimize = tracer.wrap(
            scheduler.reoptimize, "lp.reoptimize"
        )


def drive_windows(
    cluster: Cluster, jobs, pauses, tracer, steps_ms: list[float],
    **run_kwargs,
) -> tuple[ClusterMetrics, int]:
    """Advance one run to each pause time in turn (``None`` = to the
    end); return the merged metrics and the number of jobs pulled."""
    if tracer.active:
        instrument(cluster, tracer)
        jobs = tracer.wrap_iter(jobs, "arrivals.next")
    clock = time.perf_counter
    handle = cluster.start(jobs, engine="compiled", **run_kwargs)
    merged: ClusterMetrics | None = None
    for pause in pauses:
        t0 = clock()
        with tracer.span("window"):
            with tracer.span("engine.advance"):
                done = handle.advance(pause_at=pause)
            with tracer.span("sharding.take_window"):
                part = handle.take_window()
            with tracer.span("sharding.merge"):
                merged = part if merged is None else merged.merge(part)
        steps_ms.append((clock() - t0) * 1e3)
        if done:
            return merged, handle.jobs_pulled
    raise RuntimeError("the pause times ran out before the run finished")


def engine_layers(cluster: Cluster) -> dict[str, float]:
    """Per-layer counters the program records on the cluster's last run."""
    stats = cluster.last_engine_stats
    memo = cluster.last_memo_stats
    probes = stats["probe_hits"] + stats["probe_builds"]
    lookups = memo["hits"] + memo["misses"]
    return {
        "engine.events": stats["events"],
        "engine.reschedules": stats["reschedules"],
        "engine.probe_builds": stats["probe_builds"],
        "engine.fused_syncs": stats["fused_syncs"],
        "engine.max_batch": stats["max_batch"],
        "engine.probe_hit_rate": stats["probe_hits"] / probes if probes else 0.0,
        "memo.hit_rate": memo["hits"] / lookups if lookups else 0.0,
    }


def work_by_type(jobs) -> dict[str, float]:
    work: dict[str, float] = {}
    for job in jobs:
        work[job.job_type] = work.get(job.job_type, 0.0) + job.size
    return work


def lp_cap_check(rates, names, contexts, machines, metrics, jobs) -> tuple[Check, float]:
    """Throughput of a run that executes all offered work stays at or
    below M x the Section-IV LP optimum for the offered work shares."""
    cap = machines * optimal_throughput(
        rates, Workload.of(*names), contexts=contexts,
        type_weights=work_by_type(jobs),
    ).throughput
    ok = metrics.throughput <= cap * (1.0 + LP_CAP_SLACK)
    return Check(
        "throughput_le_lp_cap", ok,
        f"throughput {metrics.throughput!r} vs M x LP optimum {cap!r}",
    ), cap


class OpenStream(BenchWorkload):
    """64 two-context MAXIT machines behind round-robin under Poisson
    arrivals at 0.9 jobs per machine, advanced in fixed windows."""

    MACHINES = 64
    CONTEXTS = 2
    RATE_PER_MACHINE = 0.9
    N_JOBS = 12_000
    #: About 210 windows per round (the run lasts ~210).
    WINDOW = 1.0

    def _stream(self, names, seed):
        return poisson_arrivals(
            names,
            rate=self.RATE_PER_MACHINE * self.MACHINES,
            n_jobs=self.N_JOBS,
            seed=seed,
        )

    def setup(self, seed: int):
        rates, names = synthetic_rates(n_types=5, contexts=self.CONTEXTS, seed=7)
        cluster = Cluster(
            rates,
            [
                make_scheduler("maxit", rates, self.CONTEXTS)
                for _ in range(self.MACHINES)
            ],
            RoundRobinDispatcher(),
        )
        return rates, names, cluster, self._stream(names, seed), seed

    def run(self, state, tracer) -> RoundResult:
        _, _, cluster, stream, _ = state
        steps_ms: list[float] = []
        start = time.perf_counter()
        metrics, pulled = drive_windows(
            cluster, stream, count(self.WINDOW, self.WINDOW), tracer, steps_ms
        )
        wall = time.perf_counter() - start
        layers = engine_layers(cluster)
        layers["arrivals.jobs"] = pulled
        return RoundResult(
            wall_s=wall,
            items=metrics.completed,
            steps_ms=steps_ms,
            layers=layers,
            outputs={"metrics": metrics, "pulled": pulled},
        )

    def check(self, state, result):
        rates, names, _, _, seed = state
        metrics = result.outputs["metrics"]
        jobs = list(self._stream(names, seed))
        check, cap = lp_cap_check(
            rates, names, self.CONTEXTS, self.MACHINES, metrics, jobs
        )
        rates_check, table = _synthetic_table(rates)
        checks = [
            rates_check,
            Check(
                "every_job_completes_once",
                metrics.completed == result.outputs["pulled"] == len(jobs),
                f"{metrics.completed} completed of {len(jobs)} offered",
            ),
            check,
        ]
        payload = {
            "rates": table,
            "metrics": metrics.to_state(),
            "lp": cap,
        }
        return checks, digest(payload)

    def once_checks(self, seed, results):
        """The merged windows equal one monolithic ``Cluster.run``."""
        _, _, cluster, stream, _ = self.setup(seed)
        mono = cluster.run(stream, engine="compiled")
        windowed = results[0].outputs["metrics"]
        return [Check(
            "windows_merge_to_monolithic_run",
            mono.to_state() == windowed.to_state(),
            "merged window metrics differ from one Cluster.run",
        )]


class AdaptiveChaos(BenchWorkload):
    """Bursty MMPP arrivals into MAXTP machines behind LP-affinity
    dispatch, with estimated rates (noisy observations, single-run
    prior, LP re-solved at every estimator epoch) and crash + degrade
    faults, advanced in windows."""

    MACHINES = 4
    CONTEXTS = 4
    N_TYPES = 4
    N_JOBS = 3000
    #: Five arrivals per window: most windows hold no estimator epoch
    #: (one per 64 observations), so p50 and p95 each sit inside one
    #: mode of the window costs instead of on the edge between them.
    WINDOWS = 600
    NOISE = 0.1
    #: Offered load as a fraction of the fault-free LP capacity; at 0.5
    #: the bursts' backlogs, and with them a seed's drain tail, stay short.
    LOAD = 0.5
    #: Expected crashes per machine per round.  Bursts and crashes make
    #: one seed's round costlier than another's: a round spans ~20
    #: burst cycles, and few enough crashes (~16) that retries and
    #: abandoned jobs stay a small share of the work.
    CRASHES = 4

    def setup(self, seed: int):
        rates, names = synthetic_rates(
            n_types=self.N_TYPES, contexts=self.CONTEXTS, seed=7
        )
        workload = Workload.of(*names)
        scenario = get_scenario("bursty_mmpp")
        capacity = self.MACHINES * optimal_throughput(
            rates, workload, contexts=self.CONTEXTS
        ).throughput
        mean_rate = self.LOAD * capacity / scenario.mean_size
        cluster = Cluster(
            rates,
            [
                make_scheduler("maxtp", rates, self.CONTEXTS, workload=workload)
                for _ in range(self.MACHINES)
            ],
            make_dispatcher(
                "affinity", rates=rates, workload=workload,
                contexts=self.CONTEXTS,
            ),
        )
        jobs = list(scenario.build_jobs(
            names, mean_rate=mean_rate, seed=seed, n_jobs=self.N_JOBS
        ))
        # Windows end at every k-th arrival, so a window in a burst and
        # one in a lull carry the same arrivals; the last one drains.
        k = len(jobs) // self.WINDOWS
        pauses = [job.arrival_time for job in jobs[k - 1::k]] + [None]
        mtbf = jobs[-1].arrival_time / self.CRASHES
        faults = FaultConfig(
            seed=seed,
            mtbf=mtbf,
            mttr=mtbf / 20,
            degraded_mtbf=mtbf,
            degraded_duration=mtbf / 10,
            degraded_factor=0.5,
            crash_policy="resume_fraction",
            resume_fraction=0.5,
            retry_budget=3,
            backoff_base=mtbf / 50,
            shed_after=mtbf,
        )
        estimation = EstimationConfig(
            noise=self.NOISE, prior="single_run", seed=seed
        )
        return rates, cluster, jobs, pauses, faults, estimation

    def run(self, state, tracer) -> RoundResult:
        _, cluster, jobs, pauses, faults, estimation = state
        steps_ms: list[float] = []
        start = time.perf_counter()
        metrics, pulled = drive_windows(
            cluster, iter(jobs), pauses, tracer, steps_ms,
            rate_source="estimated", estimation=estimation, faults=faults,
        )
        wall = time.perf_counter() - start
        layers = engine_layers(cluster)
        fault_stats = cluster.last_fault_stats
        estimator = cluster.last_estimator_stats
        layers.update({
            "arrivals.jobs": pulled,
            "estimator.epochs": estimator["epoch"],
            "estimator.observations": estimator["observations"],
            "faults.crashes": fault_stats["crashes"],
            "faults.jobs_killed": fault_stats["jobs_killed"],
            "faults.retried": fault_stats["retried"],
            "faults.availability": fault_stats["availability"],
        })
        return RoundResult(
            wall_s=wall,
            items=metrics.completed,
            steps_ms=steps_ms,
            layers=layers,
            outputs={
                "metrics": metrics,
                "pulled": pulled,
                "faults": fault_stats,
                "estimator": estimator,
            },
        )

    def check(self, state, result):
        rates = state[0]
        metrics = result.outputs["metrics"]
        faults = result.outputs["faults"]
        ended = metrics.completed + faults["abandoned"] + faults["shed"]
        rates_check, table = _synthetic_table(rates)
        checks = [
            rates_check,
            Check(
                "every_job_ends_once",
                ended == result.outputs["pulled"] == self.N_JOBS
                and faults["retry_pending"] == 0,
                f"{metrics.completed} completed + {faults['abandoned']} "
                f"abandoned + {faults['shed']} shed vs {self.N_JOBS} offered",
            ),
            Check(
                "availability_in_unit_interval",
                0.0 < faults["availability"] <= 1.0,
            ),
        ]
        payload = {
            "rates": table,
            "metrics": metrics.to_state(),
            "faults": {
                k: v for k, v in faults.items() if k != "machine_states"
            },
            "estimator": result.outputs["estimator"],
        }
        return checks, digest(payload)


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile."""
    ordered = sorted(values)
    return ordered[min(len(ordered), max(1, math.ceil(q * len(ordered)))) - 1]


def make_workloads(out_dir: Path) -> dict[str, Callable[[], BenchWorkload]]:
    return {
        "rate_build": lambda: RateBuild(out_dir),
        "open_stream": OpenStream,
        "adaptive_chaos": AdaptiveChaos,
    }
