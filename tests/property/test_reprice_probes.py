"""Candidate sets re-priced from a kept enumeration equal fresh builds.

At every estimator publish the policy memo's :meth:`RunRateMemo.clear`
drops the prices (rate entries, priced candidates, candidate sets) and
keeps each probe key's enumeration.  Here every candidate set it serves
after a publish is compared, field by field and in order, with the set
a fresh memo over the same estimator state builds from scratch; and the
coschedules an estimated run makes the estimator track, in the order it
first looks them up, are pinned to what rebuilding every set produced.
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.core.workload import Workload
from repro.queueing.cluster import Cluster
from repro.queueing.dispatch import RoundRobinDispatcher, make_dispatcher
from repro.queueing.estimation import EstimationConfig, ThroughputEstimator
from repro.queueing.faults import FaultConfig
from repro.queueing.hotpath import synthetic_rates
from repro.queueing.ratememo import CandidateSet, RunRateMemo
from repro.queueing.scenarios import get_scenario
from repro.queueing.schedulers import make_scheduler
from repro.util.multiset import multisets

CONTEXTS = 3


def _fields(candidate_set: CandidateSet) -> list[tuple]:
    return [
        (
            c.names,
            c.count_items,
            repr(c.it),
            [repr(rate) for rate in c.per_job_rates],
            [(code, count, repr(rate)) for code, count, rate in c.srpt_items],
            c.codes_key,
        )
        for c in candidate_set.candidates
    ]


def assert_same_set(served: CandidateSet, fresh: CandidateSet) -> None:
    assert _fields(served) == _fields(fresh)
    assert [c.names for c in served.max_it_group] == [
        c.names for c in fresh.max_it_group
    ]
    assert [c.names for c in served.feasible] == [
        c.names for c in fresh.feasible
    ]


def test_repriced_sets_equal_fresh_builds():
    table, names = synthetic_rates(n_types=4, contexts=CONTEXTS, seed=7)
    estimator = ThroughputEstimator(
        table,
        EstimationConfig(
            noise=0.3, prior="single_run", reopt_observations=0, seed=11
        ),
    )
    memo = RunRateMemo(estimator)
    codes = [memo.codec.encode(name) for name in names]
    # Every capped count vector over the four types, at every size.
    keys = [
        (tuple((code, n) for code, n in zip(codes, counts) if n), size)
        for size in range(1, CONTEXTS + 1)
        for counts in itertools.product(range(size + 1), repeat=len(codes))
        if any(counts)
    ]
    observed = [
        s
        for size in range(1, CONTEXTS + 1)
        for s in multisets(names, size)
    ]
    rng = random.Random(5)
    best_its = []
    for epoch in range(4):
        if epoch:
            for _ in range(300):
                estimator.observe_interval(rng.choice(observed), 1.0)
            estimator.publish()
            memo.clear()
        for key, size in keys:
            fresh = RunRateMemo(estimator, codec=memo.codec)
            assert_same_set(
                memo.probe_candidates(key, size),
                fresh.probe_candidates(key, size),
            )
        full = memo.probe_candidates(keys[-1][0], CONTEXTS)
        best_its.append(repr(full.max_it_group[0].it))
    assert estimator.epoch == 3
    # Every set served after a publish came from a kept enumeration...
    assert memo.repriced_sets == 3 * len(keys)
    assert memo.sizes()["probe_enumerations"] == len(keys)
    # ...and the prices really moved, so stale ones would have shown.
    assert len(set(best_its)) == len(best_its)


#: The coschedules the estimator tracked, in first-lookup order, on the
#: run below when every epoch rebuilt every candidate set.  MAXTP's LP
#: reads the 20 three-job coschedules first; the rest come from probes
#: (MAXTP falls back to MAXIT below K jobs) and observations.
TRACKED = {
    "maxtp": (
        "AAA AAB AAC AAD ABB ABC ABD ACC ACD ADD BBB BBC BBD BCC BCD BDD "
        "CCC CCD CDD DDD A AA C AB CD BB AC D DD BD B"
    ),
    "maxit": (
        "A AC AB AA ABC ABD AAB ACC ACD BCD CCD BCC ABB BBD ADD CDD AAC "
        "AAD BBC BDD BBB DDD AAA CCC C CC D B BD DD BB"
    ),
}


def _estimated_run(policy: str, engine: str) -> tuple[Cluster, list]:
    table, names = synthetic_rates(n_types=4, contexts=CONTEXTS)
    workload = Workload.of(*names)
    dispatcher = (
        make_dispatcher(
            "affinity", rates=table, workload=workload, contexts=CONTEXTS
        )
        if policy == "maxtp"
        else RoundRobinDispatcher()
    )
    cluster = Cluster(
        table,
        [
            make_scheduler(policy, table, CONTEXTS, workload=workload)
            for _ in range(3)
        ],
        dispatcher,
    )
    jobs = get_scenario("bursty_mmpp").build_jobs(
        names, mean_rate=3.0, seed=3, n_jobs=400
    )
    handle = cluster.start(
        jobs,
        engine=engine,
        rate_source="estimated",
        estimation=EstimationConfig(
            noise=0.2, prior="single_run", reopt_observations=16, seed=4
        ),
        faults=FaultConfig(seed=5, mtbf=40.0, mttr=4.0),
    )
    while not handle.advance():
        pass
    return cluster, list(handle.estimator._published)


@pytest.mark.parametrize("engine", ["compiled", "legacy"])
@pytest.mark.parametrize("policy", sorted(TRACKED))
def test_estimator_tracks_the_same_coschedules(policy, engine):
    cluster, published = _estimated_run(policy, engine)
    assert " ".join("".join(s) for s in published) == TRACKED[policy]
    epochs = cluster.last_estimator_stats["epoch"]
    assert epochs == 47
    policy_stats = cluster.last_memo_stats["policy"]
    # The run-start solve plus one per publish; none without an LP.
    assert policy_stats["lp_solves"] == (1 + epochs if policy == "maxtp" else 0)
    if engine == "compiled":
        assert policy_stats["repriced_sets"] > 0
    else:  # the string ``select`` enumerates per decision, no probe layer
        assert policy_stats["repriced_sets"] == 0


def test_oracle_runs_report_no_policy_memo():
    table, names = synthetic_rates(n_types=4, contexts=CONTEXTS)
    cluster = Cluster(
        table,
        [make_scheduler("maxit", table, CONTEXTS) for _ in range(2)],
        RoundRobinDispatcher(),
    )
    jobs = get_scenario("bursty_mmpp").build_jobs(
        names, mean_rate=2.0, seed=3, n_jobs=100
    )
    cluster.run(jobs)
    assert cluster.last_memo_stats["policy"] is None
    assert cluster.last_memo_stats["repriced_sets"] == 0
