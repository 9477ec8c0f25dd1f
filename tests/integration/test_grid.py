"""The experiments' one grid runner: seed rule and fan-out path.

Every fanned-out experiment sends its cells through
:func:`repro.experiments.common.run_cells` and seeds them with
:func:`repro.experiments.registry.cell_seed`.  These tests hold a
``jobs=2`` grid equal to a serial one for each ported experiment, pin
the seed rule to its historical integers, and check that cells meant to
share an arrival stream do.
"""

from __future__ import annotations

import json
import math
from dataclasses import replace

import pytest

from repro.core.workload import Workload
from repro.experiments.cluster_exp import compute_cluster
from repro.experiments.fault_sweep import compute_fault_sweep, run_fault_cell
from repro.experiments.figure5 import compute_figure5
from repro.experiments.figure6 import compute_figure6
from repro.experiments.policy_tournament import POLICIES, compute_tournament
from repro.experiments.registry import RunOptions, cell_seed, to_jsonable
from repro.experiments.scenario_sweep import (
    compute_scenario_sweep,
    run_scenario,
)
from repro.queueing.hotpath import synthetic_rates
from repro.queueing.scenarios import get_scenario

K = 2
RATES, TYPES = synthetic_rates(n_types=4, contexts=K)
WORKLOAD = Workload.of(*TYPES)
WORKLOADS = [Workload.of(*TYPES[:2]), Workload.of(*TYPES[1:])]
TWO_SCENARIOS = [get_scenario(n) for n in ("baseline_poisson", "bursty_mmpp")]


def payload(result) -> str:
    """A result as comparable text (NaN-safe, unlike ``==``)."""
    return json.dumps(to_jsonable(result), sort_keys=True)


#: One tiny grid per ported experiment: ``jobs`` -> result.
GRIDS = {
    "scenario_sweep": lambda jobs: compute_scenario_sweep(
        RATES,
        WORKLOAD,
        scenarios=TWO_SCENARIOS,
        dispatchers=("round_robin", "affinity"),
        n_jobs=120,
        contexts=K,
        jobs=jobs,
    ),
    "fault_sweep": lambda jobs: compute_fault_sweep(
        RATES,
        WORKLOAD,
        scenarios=("baseline_poisson",),
        dispatchers=("round_robin", "jsq"),
        mtbf_fractions=(0.25,),
        n_jobs=120,
        contexts=K,
        jobs=jobs,
    ),
    "policy_tournament": lambda jobs: compute_tournament(
        RATES,
        WORKLOAD,
        scenarios=TWO_SCENARIOS,
        policies=["maxit"],
        noise_levels=(0.0, 0.4),
        warmup_fracs=(0.0,),
        n_seeds=1,
        n_jobs=100,
        contexts=K,
        jobs=jobs,
    ),
    "cluster_exp": lambda jobs: compute_cluster(
        RATES,
        WORKLOADS,
        n_machines=2,
        jobs_per_machine=60,
        contexts=K,
        jobs=jobs,
    ),
    "figure5": lambda jobs: compute_figure5(
        RATES,
        WORKLOADS,
        loads=(0.8, 0.95),
        n_jobs=200,
        contexts=K,
        jobs=jobs,
    ),
    "figure6": lambda jobs: compute_figure6(
        RATES, WORKLOADS, n_jobs=300, contexts=K, jobs=jobs
    ),
}


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_fan_out_equals_serial(name):
    grid = GRIDS[name]
    assert payload(grid(2)) == payload(grid(1))


class TestTournamentShipsTheCallersScenario:
    """A fanned-out tournament runs the scenario object it was given,
    not the registry entry of the same name."""

    def tournament(self, scenario, jobs):
        return compute_tournament(
            RATES,
            WORKLOAD,
            scenarios=[scenario],
            policies=["maxit", "srpt"],
            noise_levels=(0.0,),
            warmup_fracs=(0.0,),
            n_seeds=1,
            n_jobs=100,
            contexts=K,
            jobs=jobs,
        )

    def test_modified_registered_scenario(self):
        registered = get_scenario("baseline_poisson")
        heavier = replace(registered, load=0.95)
        serial = self.tournament(heavier, jobs=1)
        assert payload(self.tournament(heavier, jobs=2)) == payload(serial)
        assert payload(serial) != payload(self.tournament(registered, 1))

    def test_unregistered_scenario(self):
        custom = replace(get_scenario("baseline_poisson"), name="custom")
        serial = self.tournament(custom, jobs=1)
        assert payload(self.tournament(custom, jobs=2)) == payload(serial)


class TestCellSeed:
    """The one seed rule keeps the integers every experiment used
    before it was shared."""

    def test_experiment_seeds(self):
        assert RunOptions(seed=0).seed_for("figure5") == 877585471
        assert RunOptions(seed=7).seed_for("figure5") == 884585492

    def test_scenario_seed(self):
        assert cell_seed(11, "bursty_mmpp") == 2022505350

    def test_tournament_pair_seed(self):
        # Replication ``rep`` offsets the base by 7919 * rep.
        assert cell_seed(11 + 7919, "bursty_mmpp") == 1351594515


@pytest.mark.parametrize(
    "scenario, dispatcher, policy",
    [
        ("baseline_poisson", "round_robin", "maxit"),
        ("bursty_mmpp", "jsq", "srpt"),
        ("heavy_tail", "affinity", "affinity"),
    ],
)
def test_fault_free_cell_matches_scenario_sweep(scenario, dispatcher, policy):
    args = (RATES, WORKLOAD, get_scenario(scenario), dispatcher)
    kwargs = dict(n_jobs=120, seed=5, contexts=K)
    faulted = run_fault_cell(*args, "none", **kwargs)
    swept = run_scenario(*args, **kwargs)
    for name in ("scenario", "dispatcher", "n_machines", "n_jobs",
                 "throughput", "completed"):
        assert getattr(faulted, name) == getattr(swept, name), name
    assert same_turnaround(faulted.mean_turnaround, swept.mean_turnaround)

    # The tournament's oracle half is the scenario sweep's cell for the
    # policy's scheduler and dispatcher (its rep 0 seeds with ``seed``).
    scheduler, policy_dispatcher = POLICIES[policy]
    oracle = compute_tournament(
        RATES,
        WORKLOAD,
        scenarios=[get_scenario(scenario)],
        policies=[policy],
        noise_levels=(0.0,),
        warmup_fracs=(0.0,),
        n_seeds=1,
        n_machines=2,
        **kwargs,
    )["cells"][0]
    swept = run_scenario(
        RATES,
        WORKLOAD,
        get_scenario(scenario),
        policy_dispatcher,
        scheduler=scheduler,
        n_machines=2,
        **kwargs,
    )
    assert oracle.oracle_throughput == swept.throughput
    assert oracle.oracle_completed == swept.completed
    assert oracle.oracle_fairness == swept.fairness
    assert same_turnaround(
        math.nan if oracle.oracle_turnaround is None
        else oracle.oracle_turnaround,
        swept.mean_turnaround,
    )


def same_turnaround(a: float, b: float) -> bool:
    """Equal, or both NaN (no job completed)."""
    return a == b or math.isnan(a) and math.isnan(b)
