"""Policy tournament: oracle rates vs. estimated rates, head to head.

Every queueing experiment so far hands the schedulers the *oracle*
coschedule rates — the exact per-type throughputs the microarch
simulator measured.  The paper's deployment story (Section VI) has no
such oracle: symbiosis must be estimated online from noisy progress
observations.  This experiment quantifies the *price of information*:
for each symbiosis-aware policy it runs every named scenario twice on
identical arrival streams — once with oracle rates, once with a
:class:`~repro.queueing.estimation.ThroughputEstimator` fed noisy
observations — and reports the throughput / latency / fairness
degradation as a function of the observation-noise level and the
measurement warm-up horizon.

Pairing is per seed: the oracle and estimated runs of a cell replay
one :func:`repro.experiments.common.scenario_cell` stream, so every
degradation number is a paired difference, not a difference of
independent samples.  The zero-noise cells use the estimator's warm
oracle prior and are pinned bit-identical to the oracle runs (the
differential harness enforces the same identity per engine); cells
with noise use the realistic ``single_run`` cold-start prior.

Summary rows aggregate each (policy, noise, warm-up) group: mean and
standard deviation of the paired throughput degradation, a paired
t-statistic, and the *sign stability* — the fraction of cells where
the oracle run is at least as good, i.e. how often information
actually pays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Mapping, Sequence

from repro.core.workload import Workload
from repro.experiments.common import (
    ExperimentContext,
    cluster_capacity,
    format_table,
    run_cells,
    sample_workloads,
    scenario_cell,
    utilization_fairness,
)
from repro.experiments.registry import Experiment, RunOptions, register
from repro.microarch.rates import RateSource, infer_contexts
from repro.queueing.estimation import EstimationConfig
from repro.queueing.scenarios import Scenario, all_scenarios, get_scenario

__all__ = [
    "POLICIES",
    "NOISE_LEVELS",
    "WARMUP_FRACS",
    "TournamentCell",
    "SummaryRow",
    "compute_tournament",
    "run",
    "render",
]

#: The symbiosis-aware contenders: policy name -> (scheduler,
#: dispatcher).  Each consumes rates somewhere — in the per-machine
#: packing decision (MAXIT, SRPT) or in cluster-level routing
#: (the affinity dispatcher) — so each can lose when the rates lie.
POLICIES: dict[str, tuple[str, str]] = {
    "maxit": ("maxit", "round_robin"),
    "srpt": ("srpt", "round_robin"),
    "affinity": ("maxit", "affinity"),
}

#: Observation-noise levels (relative sigma of the multiplicative
#: model).  0.0 is the control: the estimator must reproduce the
#: oracle bit for bit.
NOISE_LEVELS: tuple[float, ...] = (0.0, 0.15, 0.4)

#: Measurement warm-up horizons as fractions of the expected run
#: duration; metrics before the horizon are discarded, so the longer
#: horizon scores the estimator after it has had time to converge.
WARMUP_FRACS: tuple[float, ...] = (0.0, 0.25)

#: Observations between estimator re-optimization rounds.
REOPT_OBSERVATIONS = 32


@dataclass(frozen=True)
class TournamentCell:
    """One paired (oracle, estimated) comparison.

    Attributes:
        scenario: scenario name.
        policy: tournament policy name (see :data:`POLICIES`).
        scheduler: per-machine scheduler of the policy.
        dispatcher: dispatch policy of the policy.
        noise: observation-noise sigma of the estimated run.
        warmup_frac: warm-up horizon as a fraction of the expected
            run duration (applies to both runs of the pair).
        rep: paired-replication index; oracle and estimated runs of
            the same ``rep`` share the exact arrival stream.
        prior: estimator cold-start prior used ("oracle" at zero
            noise, "single_run" otherwise).
        oracle_throughput / est_throughput: cluster work rate.
        tp_degradation: ``(oracle - est) / oracle`` (0.0 when the
            oracle throughput is 0).
        oracle_turnaround / est_turnaround: mean turnaround of
            completed jobs; ``None`` when nothing completed in the
            measurement window.
        turnaround_inflation: ``est / oracle - 1`` (``None`` when
            either side is undefined).
        oracle_fairness / est_fairness: min/max per-machine
            utilization (1.0 = even).
        fairness_delta: ``oracle - est`` (positive = estimates made
            the cluster less balanced).
        oracle_completed / est_completed: jobs completed.
        estimator: the estimated run's
            :meth:`~repro.queueing.estimation.ThroughputEstimator.stats_dict`.
    """

    scenario: str
    policy: str
    scheduler: str
    dispatcher: str
    noise: float
    warmup_frac: float
    rep: int
    prior: str
    oracle_throughput: float
    est_throughput: float
    tp_degradation: float
    oracle_turnaround: float | None
    est_turnaround: float | None
    turnaround_inflation: float | None
    oracle_fairness: float
    est_fairness: float
    fairness_delta: float
    oracle_completed: int
    est_completed: int
    estimator: dict | None


@dataclass(frozen=True)
class SummaryRow:
    """Aggregate of one (policy, noise, warm-up) tournament group.

    Attributes:
        policy / noise / warmup_frac: the group key.
        n_cells: paired comparisons aggregated.
        mean_tp_degradation / std_tp_degradation: paired throughput
            degradation statistics across the group's cells.
        t_stat: paired t-statistic of the degradation (``None`` when
            the group has fewer than two cells or zero variance —
            notably every zero-noise group, where all degradations
            are exactly 0.0).
        sign_stability: fraction of cells with degradation >= 0,
            i.e. how often the oracle is at least as good.
        mean_turnaround_inflation: mean of the defined turnaround
            inflations (``None`` if none are defined).
        mean_fairness_delta: mean oracle-minus-estimated fairness.
    """

    policy: str
    noise: float
    warmup_frac: float
    n_cells: int
    mean_tp_degradation: float
    std_tp_degradation: float
    t_stat: float | None
    sign_stability: float
    mean_turnaround_inflation: float | None
    mean_fairness_delta: float


def _run_group(
    rates: RateSource,
    workload: Workload,
    scenario: Scenario,
    policy: str,
    *,
    noise_levels: Sequence[float],
    warmup_fracs: Sequence[float],
    n_seeds: int,
    n_machines: int,
    n_jobs: int,
    seed: int,
    contexts: int,
    capacity: float,
) -> list[TournamentCell]:
    """Every paired cell of one (scenario, policy) group, the
    tournament's grid cell.

    Replication ``rep`` runs the
    :func:`~repro.experiments.common.scenario_cell` of seed
    ``seed + 7919 * rep``: the oracle and estimated runs of a pair
    replay its stream, and only the rate source differs.  Zero-noise
    runs use the warm oracle prior — by construction they replay the
    oracle decisions bit for bit, so their degradation is exactly 0.0
    — and noisy runs the realistic ``single_run`` cold start.  The
    oracle run of a (warm-up, rep) pair does not depend on the noise,
    so a group costs ``warmups x reps x (1 + len(noise_levels))`` runs.
    """
    scheduler, dispatcher = POLICIES[policy]
    cells: list[TournamentCell] = []
    for warmup_frac in warmup_fracs:
        for rep in range(n_seeds):
            cell = scenario_cell(
                rates,
                workload,
                scenario,
                n_machines=n_machines,
                n_jobs=n_jobs,
                seed=seed + 7919 * rep,
                contexts=contexts,
                capacity=capacity,
            )
            warmup = warmup_frac * cell.duration
            oracle, _ = cell.run(scheduler, dispatcher, warmup_time=warmup)
            oracle_fair = utilization_fairness(oracle)
            o_tp = oracle.throughput
            o_turn = oracle.mean_turnaround if oracle.completed else None
            for noise in noise_levels:
                prior = "oracle" if noise == 0.0 else "single_run"
                est, cluster = cell.run(
                    scheduler,
                    dispatcher,
                    warmup_time=warmup,
                    rate_source="estimated",
                    estimation=EstimationConfig(
                        noise=noise,
                        prior=prior,
                        reopt_observations=REOPT_OBSERVATIONS,
                        seed=cell.stream_seed,
                    ),
                )
                est_fair = utilization_fairness(est)
                e_tp = est.throughput
                e_turn = est.mean_turnaround if est.completed else None
                cells.append(TournamentCell(
                    scenario=scenario.name,
                    policy=policy,
                    scheduler=scheduler,
                    dispatcher=dispatcher,
                    noise=noise,
                    warmup_frac=warmup_frac,
                    rep=rep,
                    prior=prior,
                    oracle_throughput=o_tp,
                    est_throughput=e_tp,
                    tp_degradation=(
                        (o_tp - e_tp) / o_tp if o_tp > 0.0 else 0.0
                    ),
                    oracle_turnaround=o_turn,
                    est_turnaround=e_turn,
                    turnaround_inflation=(
                        e_turn / o_turn - 1.0
                        if o_turn is not None
                        and e_turn is not None
                        and o_turn > 0.0
                        else None
                    ),
                    oracle_fairness=oracle_fair,
                    est_fairness=est_fair,
                    fairness_delta=oracle_fair - est_fair,
                    oracle_completed=oracle.completed,
                    est_completed=est.completed,
                    estimator=cluster.last_estimator_stats,
                ))
    return cells


def _summarize(
    cells: Sequence[TournamentCell],
    policies: Sequence[str],
    noise_levels: Sequence[float],
    warmup_fracs: Sequence[float],
) -> list[SummaryRow]:
    """One row per (policy, noise, warm-up) group."""
    rows: list[SummaryRow] = []
    for policy in policies:
        for noise in noise_levels:
            for warmup_frac in warmup_fracs:
                group = [
                    c for c in cells
                    if c.policy == policy
                    and c.noise == noise
                    and c.warmup_frac == warmup_frac
                ]
                if not group:
                    continue
                degradations = [c.tp_degradation for c in group]
                n = len(degradations)
                mean = sum(degradations) / n
                var = (
                    sum((d - mean) ** 2 for d in degradations) / (n - 1)
                    if n > 1
                    else 0.0
                )
                std = math.sqrt(var)
                t_stat = (
                    mean / (std / math.sqrt(n)) if n > 1 and std > 0.0
                    else None
                )
                inflations = [
                    c.turnaround_inflation
                    for c in group
                    if c.turnaround_inflation is not None
                ]
                rows.append(SummaryRow(
                    policy=policy,
                    noise=noise,
                    warmup_frac=warmup_frac,
                    n_cells=n,
                    mean_tp_degradation=mean,
                    std_tp_degradation=std,
                    t_stat=t_stat,
                    sign_stability=(
                        sum(1 for d in degradations if d >= 0.0) / n
                    ),
                    mean_turnaround_inflation=(
                        sum(inflations) / len(inflations)
                        if inflations
                        else None
                    ),
                    mean_fairness_delta=(
                        sum(c.fairness_delta for c in group) / n
                    ),
                ))
    return rows


def compute_tournament(
    rates: RateSource,
    workload: Workload,
    *,
    scenarios: Sequence[Scenario] | None = None,
    policies: Sequence[str] | None = None,
    noise_levels: Sequence[float] = NOISE_LEVELS,
    warmup_fracs: Sequence[float] = WARMUP_FRACS,
    n_seeds: int = 2,
    n_machines: int = 2,
    n_jobs: int = 240,
    seed: int = 0,
    contexts: int | None = None,
    jobs: int = 1,
) -> dict:
    """The full tournament grid on one workload.

    Returns a JSON-ready payload: the grid axes, every paired cell,
    and the per-(policy, noise, warm-up) summary rows.  ``jobs > 1``
    fans the independent (scenario, policy) groups out through
    :func:`~repro.experiments.common.run_cells` (cells keep grid order
    and every float matches a serial run).  Grouping by (scenario,
    policy) keeps each oracle run shared across its noise levels.
    """
    k = infer_contexts(rates, contexts)
    capacity = cluster_capacity(rates, workload, n_machines, k)
    scenario_list = list(
        scenarios if scenarios is not None else all_scenarios()
    )
    policy_list = list(policies if policies is not None else POLICIES)
    group = partial(
        _run_group,
        noise_levels=tuple(noise_levels),
        warmup_fracs=tuple(warmup_fracs),
        n_seeds=n_seeds,
        n_machines=n_machines,
        n_jobs=n_jobs,
        seed=seed,
        contexts=k,
        capacity=capacity,
    )
    groups = [
        (workload, scenario, policy)
        for scenario in scenario_list
        for policy in policy_list
    ]
    results = run_cells(group, rates, groups, contexts=k, jobs=jobs)
    cells = [cell for group_cells in results for cell in group_cells]
    return {
        "policies": {p: POLICIES[p] for p in policy_list},
        "scenarios": [s.name for s in scenario_list],
        "noise_levels": list(noise_levels),
        "warmup_fracs": list(warmup_fracs),
        "n_seeds": n_seeds,
        "n_machines": n_machines,
        "n_jobs": n_jobs,
        "cells": cells,
        "summary": _summarize(
            cells, policy_list, noise_levels, warmup_fracs
        ),
    }


def run(context: ExperimentContext, options: RunOptions) -> dict:
    """The tournament on one deterministically sampled workload; the
    quick grid is two scenarios, the control and the loudest noise,
    one warm-up and one seed."""
    seed = options.seed_for("policy_tournament")
    workload = sample_workloads(context.workloads, 1, seed=seed)[0]
    if not options.quick:
        return compute_tournament(
            context.smt_rates, workload, seed=seed, jobs=options.jobs
        )
    return compute_tournament(
        context.smt_rates,
        workload,
        scenarios=[
            get_scenario(name) for name in ("baseline_poisson", "skewed_types")
        ],
        noise_levels=(0.0, 0.4),
        warmup_fracs=(0.0,),
        n_seeds=1,
        n_jobs=120,
        seed=seed,
        jobs=options.jobs,
    )


def render(result: Mapping) -> str:
    """Summary table + noise/degradation ascii scatter."""
    from repro.util.asciiplot import scatter

    summary: Sequence = result["summary"]
    cells: Sequence = result["cells"]
    if not summary:
        return "no tournament cells"

    def field(row, name):
        return getattr(row, name) if hasattr(row, name) else row[name]

    def fmt(value, spec):
        return format(value, spec) if value is not None else "n/a"

    rows = [
        (
            field(r, "policy"),
            f"{field(r, 'noise'):.2f}",
            f"{field(r, 'warmup_frac'):.2f}",
            str(field(r, "n_cells")),
            f"{field(r, 'mean_tp_degradation'):+.2%}",
            f"{field(r, 'std_tp_degradation'):.2%}",
            fmt(field(r, "t_stat"), "+.2f"),
            f"{field(r, 'sign_stability'):.0%}",
            fmt(field(r, "mean_turnaround_inflation"), "+.1%"),
            f"{field(r, 'mean_fairness_delta'):+.3f}",
        )
        for r in summary
    ]
    table = format_table(
        [
            "policy",
            "noise",
            "warmup",
            "cells",
            "dTP mean",
            "dTP std",
            "t",
            "sign+",
            "dTurn",
            "dFair",
        ],
        rows,
    )

    # Mean degradation vs noise, one glyph per policy (warm-ups and
    # reps pooled): the price-of-information curve.
    policies = list(result["policies"])
    curves: dict[str, tuple[list[float], list[float]]] = {}
    for policy in policies:
        xs, ys = [], []
        for noise in result["noise_levels"]:
            group = [
                field(c, "tp_degradation")
                for c in cells
                if field(c, "policy") == policy
                and field(c, "noise") == noise
            ]
            if group:
                xs.append(noise)
                ys.append(100.0 * sum(group) / len(group))
        curves[policy] = (xs, ys)
    glyphs = {"maxit": "m", "srpt": "s", "affinity": "a"}
    first = policies[0]
    extra = {
        glyphs.get(p, p[0]): curves[p] for p in policies[1:] if curves[p][0]
    }
    plot = scatter(
        curves[first][0],
        curves[first][1],
        marker=glyphs.get(first, first[0]),
        x_label="observation noise (sigma)",
        y_label="mean TP degradation (%)",
        extra=extra,
    )
    legend = ", ".join(
        f"{glyphs.get(p, p[0])}={p}" for p in policies
    )
    zero = [
        field(c, "tp_degradation")
        for c in cells
        if field(c, "noise") == 0.0
    ]
    pinned = (
        "every zero-noise cell is bit-identical to its oracle twin"
        if zero and all(d == 0.0 for d in zero)
        else "WARNING: zero-noise cells deviate from oracle"
    )
    return (
        table
        + "\n\n"
        + plot
        + f"\n  {legend}\n\n"
        + f"{len(cells)} paired cells over {len(result['scenarios'])} "
        f"scenarios; {pinned}."
    )


register(Experiment(
    name="policy_tournament",
    kind="analysis",
    title="Policy tournament — oracle vs. estimated rates, price of "
    "information",
    run=run,
    render=render,
))
