"""Unit coverage for :mod:`repro.queueing.estimation`.

The configuration validation, the cold-start priors, the EMA/publish
mechanics, and — most importantly — the *hard-error* contract of
estimated runs: a configuration that could only ever silently fall
back to oracle rates (a scheduler probing a foreign source, a
rate-consuming dispatcher with no refresh hook) must be rejected at
run start, not papered over.
"""

from __future__ import annotations

import math

import pytest

from repro.core.workload import Workload
from repro.errors import EstimationError, SimulationError
from repro.queueing.cluster import Cluster
from repro.queueing.dispatch import Dispatcher, make_dispatcher
from repro.queueing.estimation import (
    EstimationConfig,
    ThroughputEstimator,
)
from repro.queueing.hotpath import synthetic_rates
from repro.queueing.scenarios import get_scenario
from repro.queueing.schedulers import make_scheduler

CONTEXTS = 2
N_MACHINES = 2


def build_rates():
    return synthetic_rates(n_types=3, contexts=CONTEXTS)


def build_jobs(names, n_jobs=20, seed=3):
    return list(
        get_scenario("baseline_poisson").build_jobs(
            names, mean_rate=2.0, seed=seed, n_jobs=n_jobs
        )
    )


def build_cluster(rates, names, dispatcher=None, scheduler_rates=None):
    workload = Workload.of(*names)
    probe = scheduler_rates if scheduler_rates is not None else rates
    return Cluster(
        rates,
        [
            make_scheduler("maxit", probe, CONTEXTS, workload=workload)
            for _ in range(N_MACHINES)
        ],
        dispatcher if dispatcher is not None else make_dispatcher("jsq"),
    )


class TestConfigValidation:
    def test_defaults_are_valid(self):
        EstimationConfig()

    @pytest.mark.parametrize("alpha", [0.0, -0.1, 1.5, float("nan")])
    def test_bad_alpha(self, alpha):
        with pytest.raises(EstimationError, match="alpha"):
            EstimationConfig(alpha=alpha)

    @pytest.mark.parametrize("noise", [-0.1, float("nan")])
    def test_bad_noise(self, noise):
        with pytest.raises(EstimationError, match="noise"):
            EstimationConfig(noise=noise)

    def test_bad_noise_model(self):
        with pytest.raises(EstimationError, match="noise model"):
            EstimationConfig(noise_model="heteroscedastic")

    def test_bad_prior(self):
        with pytest.raises(EstimationError, match="prior"):
            EstimationConfig(prior="psychic")

    def test_bad_reopt(self):
        with pytest.raises(EstimationError, match="reopt"):
            EstimationConfig(reopt_observations=-1)

    def test_bad_confidence_scale(self):
        with pytest.raises(EstimationError, match="confidence_scale"):
            EstimationConfig(confidence_scale=0.0)


class TestEstimatorMechanics:
    def test_oracle_prior_serves_truth(self):
        rates, names = build_rates()
        est = ThroughputEstimator(rates)
        cos = (names[0], names[2])
        assert est.type_rates(cos) == rates.type_rates(cos)

    def test_prior_modes_are_ordered(self):
        """Optimistic >= single_run >= pessimistic for shared jobs."""
        rates, names = build_rates()
        cos = (names[0], names[1])
        totals = {}
        for prior in ("optimistic", "single_run", "pessimistic"):
            est = ThroughputEstimator(
                rates, EstimationConfig(prior=prior)
            )
            totals[prior] = sum(est.type_rates(cos).values())
        assert (
            totals["optimistic"]
            >= totals["single_run"]
            >= totals["pessimistic"]
        )

    def test_zero_and_negative_spans_are_ignored(self):
        rates, names = build_rates()
        est = ThroughputEstimator(rates)
        est.observe_interval((names[0],), 0.0)
        est.observe_interval((names[0],), -1.0)
        est.observe_interval((), 1.0)
        assert est.total_observations == 0

    def test_publish_exposes_pending_and_fires_listeners(self):
        rates, names = build_rates()
        est = ThroughputEstimator(
            rates,
            EstimationConfig(
                prior="pessimistic", noise=0.0, reopt_observations=0
            ),
        )
        cos = (names[0], names[1])
        before = dict(est.type_rates(cos))
        est.observe_interval(cos, 1.0)
        # Not published yet: policies still see the prior.
        assert est.type_rates(cos) == before
        fired = []
        est.add_listener(fired.append)
        est.publish()
        assert fired == [est]
        after = est.type_rates(cos)
        assert after != before

    def test_reopt_interval_auto_publishes(self):
        rates, names = build_rates()
        est = ThroughputEstimator(
            rates, EstimationConfig(reopt_observations=3)
        )
        cos = (names[0],)
        for _ in range(7):
            est.observe_interval(cos, 1.0)
        assert est.epoch == 2

    def test_confidence_saturates(self):
        rates, names = build_rates()
        est = ThroughputEstimator(
            rates, EstimationConfig(confidence_scale=2.0)
        )
        cos = (names[0],)
        assert est.confidence(cos) == 0.0
        est.observe_interval(cos, 1.0)
        assert est.confidence(cos) == pytest.approx(1.0 / 3.0)
        for _ in range(100):
            est.observe_interval(cos, 1.0)
        assert 0.9 < est.confidence(cos) < 1.0

    def test_stats_dict_shape(self):
        rates, names = build_rates()
        est = ThroughputEstimator(rates, EstimationConfig(noise=0.2))
        est.observe_interval((names[0],), 1.0)
        stats = est.stats_dict()
        assert stats["observations"] == 1
        assert stats["noise"] == 0.2
        assert stats["noise_model"] == "multiplicative"
        assert not math.isnan(stats["mean_relative_error"])

    def test_noise_streams_are_seed_deterministic(self):
        rates, names = build_rates()
        cos = (names[0], names[1])

        def run(seed):
            est = ThroughputEstimator(
                rates,
                EstimationConfig(
                    noise=0.3, prior="single_run", seed=seed
                ),
            )
            for _ in range(10):
                est.observe_interval(cos, 1.0)
            est.publish()
            return est.type_rates(cos)

        assert run(7) == run(7)
        assert run(7) != run(8)


class TestHardErrors:
    """Estimated mode must refuse configurations that could only ever
    silently read oracle rates."""

    def test_invalid_rate_source_name(self):
        rates, names = build_rates()
        cluster = build_cluster(rates, names)
        with pytest.raises(SimulationError, match="rate_source"):
            cluster.run(build_jobs(names), rate_source="psychic")

    def test_foreign_scheduler_rates_raise(self):
        """A scheduler probing a source other than the cluster's own
        cannot be rebound to the estimates — hard error, not a silent
        oracle fallback."""
        rates, names = build_rates()
        other_rates, _ = build_rates()
        cluster = build_cluster(
            rates, names, scheduler_rates=other_rates
        )
        with pytest.raises(EstimationError, match="different source"):
            cluster.run(build_jobs(names), rate_source="estimated")
        # The same cluster still runs fine on oracle rates.
        cluster = build_cluster(
            rates, names, scheduler_rates=other_rates
        )
        cluster.run(build_jobs(names), rate_source="oracle")

    def test_rate_consuming_dispatcher_without_rebuild_raises(self):
        class FrozenTableDispatcher(Dispatcher):
            """Consumes rates at construction, never refreshes."""

            name = "frozen_table"
            uses_rates = True

            def route(self, job, machines, eligible, clock):
                return eligible[0]

        rates, names = build_rates()
        cluster = build_cluster(
            rates, names, dispatcher=FrozenTableDispatcher()
        )
        with pytest.raises(EstimationError, match="rebuild"):
            cluster.run(build_jobs(names), rate_source="estimated")

    def test_rate_consuming_dispatcher_with_rebuild_is_accepted(self):
        """The rebuild() hook is called at run start and at every
        publish round, with the policy-side memo."""
        calls = []

        class RefreshingDispatcher(Dispatcher):
            name = "refreshing"
            uses_rates = True

            def route(self, job, machines, eligible, clock):
                return eligible[0]

            def rebuild(self, rates):
                calls.append(rates)

        rates, names = build_rates()
        cluster = build_cluster(
            rates, names, dispatcher=RefreshingDispatcher()
        )
        cluster.run(
            build_jobs(names),
            rate_source="estimated",
            estimation=EstimationConfig(reopt_observations=4),
        )
        # >= 2: the run-start refresh plus the run-end restore; noisy
        # streams add one call per publish round in between.
        assert len(calls) >= 2
        # The final call restores the dispatcher to the true source.
        assert calls[-1] is cluster.rates

    def test_affinity_dispatcher_passes_the_gate(self):
        rates, names = build_rates()
        workload = Workload.of(*names)
        cluster = build_cluster(
            rates,
            names,
            dispatcher=make_dispatcher(
                "affinity",
                rates=rates,
                workload=workload,
                contexts=CONTEXTS,
            ),
        )
        metrics = cluster.run(
            build_jobs(names), rate_source="estimated"
        )
        assert metrics.completed > 0
        assert cluster.last_estimator_stats is not None


class TestRunIntegration:
    def test_estimator_stats_recorded_after_estimated_run(self):
        rates, names = build_rates()
        cluster = build_cluster(rates, names)
        cluster.run(
            build_jobs(names),
            rate_source="estimated",
            estimation=EstimationConfig(
                noise=0.25, prior="single_run", reopt_observations=8
            ),
        )
        stats = cluster.last_estimator_stats
        assert stats is not None
        assert stats["observations"] > 0
        assert stats["prior"] == "single_run"

    def test_oracle_run_records_no_estimator_stats(self):
        rates, names = build_rates()
        cluster = build_cluster(rates, names)
        cluster.run(build_jobs(names), rate_source="oracle")
        assert cluster.last_estimator_stats is None

    def test_observers_are_detached_after_the_run(self):
        """The rate observers and policy bindings are run-scoped: after
        close() the schedulers probe the true source again and a second
        oracle run is untouched by the first estimated one."""
        rates, names = build_rates()
        cluster = build_cluster(rates, names)
        oracle_metrics = cluster.run(build_jobs(names))

        cluster2 = build_cluster(rates, names)
        cluster2.run(
            build_jobs(names),
            rate_source="estimated",
            estimation=EstimationConfig(
                noise=0.4, prior="single_run", seed=9
            ),
        )
        for scheduler in cluster2.schedulers:
            assert scheduler.rates is cluster2.rates
        again = cluster2.run(build_jobs(names))
        from repro.experiments.registry import to_jsonable

        assert to_jsonable(again) == to_jsonable(oracle_metrics)


#: Runs one noisy estimated MAXTP run and prints its metrics digest.
_HASH_SEED_SCRIPT = """
import hashlib, json
from repro.core.workload import Workload
from repro.queueing.cluster import Cluster
from repro.queueing.dispatch import make_dispatcher
from repro.queueing.estimation import EstimationConfig
from repro.queueing.hotpath import synthetic_rates
from repro.queueing.scenarios import get_scenario
from repro.queueing.schedulers import make_scheduler

rates, names = synthetic_rates(n_types=4, contexts=3)
workload = Workload.of(*names)
cluster = Cluster(
    rates,
    [make_scheduler("maxtp", rates, 3, workload=workload) for _ in range(2)],
    make_dispatcher("affinity", rates=rates, workload=workload, contexts=3),
)
jobs = get_scenario("bursty_mmpp").build_jobs(
    names, mean_rate=3.0, seed=3, n_jobs=300
)
metrics = cluster.run(
    jobs,
    rate_source="estimated",
    estimation=EstimationConfig(
        noise=0.2, prior="single_run", reopt_observations=16, seed=4
    ),
)
state = json.dumps(metrics.to_state(), sort_keys=True)
print(hashlib.sha256(state.encode()).hexdigest())
"""


class TestHashSeedIndependence:
    def test_noisy_estimated_run_ignores_pythonhashseed(self):
        """String hashing must never reach the noise draws: the same
        seeded estimated run gives the same metrics under any
        ``PYTHONHASHSEED`` (each run in a fresh interpreter)."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = str(Path(__file__).resolve().parents[2] / "src")
        digests = set()
        for hash_seed in ("0", "1"):
            env = {**os.environ, "PYTHONHASHSEED": hash_seed}
            env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
            out = subprocess.run(
                [sys.executable, "-c", _HASH_SEED_SCRIPT],
                env=env, capture_output=True, text=True, check=True,
            )
            digests.add(out.stdout.strip())
        assert len(digests) == 1, digests
