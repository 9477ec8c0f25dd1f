"""Workload scenarios: named traffic regimes for the cluster simulator.

The paper's queueing study runs one operating point — Poisson arrivals,
exponential sizes, uniform types.  Scheduler conclusions are known to
flip under bursty, diurnal, batchy, and heavy-tailed traffic, so this
module packages those regimes as named, seeded, serializable
:class:`Scenario` objects that every experiment can sweep over:

* an **arrival shape** (Poisson, cyclic MMPP bursts, sinusoidal
  diurnal swing, Poisson batch storms, saturated backlog, or a replay
  of another scenario through the trace subsystem);
* a **size law** (:mod:`repro.queueing.sizes`): exponential, fixed,
  bounded-Pareto heavy tail, or a bimodal mice/elephants mixture;
* a **type mix** (uniform or skewed weights over the workload's types).

Scenarios are *rate-free*: they describe traffic **shape**, and the
caller supplies the absolute mean job rate at build time (experiments
derive it from offered load × cluster capacity ÷ mean job size).  MMPP
state rates are stored as multipliers and normalized so the long-run
mean equals the requested rate exactly, whatever the burst ratio.

The module-level registry (:func:`register_scenario`,
:func:`get_scenario`) ships the named scenarios in :data:`SCENARIOS`;
``python -m repro.experiments scenario_sweep`` runs every one of them
against all three dispatchers, and the
golden-trace harness (``tests/golden/``) pins a small trace and its
:class:`~repro.queueing.cluster.ClusterMetrics` per (scenario,
dispatcher) pair.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

from repro.errors import WorkloadError
from repro.queueing.arrivals import (
    batch_arrivals,
    diurnal_arrivals,
    mmpp_arrivals,
    poisson_arrivals,
    saturated_arrivals,
)
from repro.queueing.job import Job
from repro.queueing.sizes import SizeModel, make_size_model
from repro.queueing.trace import trace_arrivals, trace_from_jobs

__all__ = [
    "Scenario",
    "SCENARIOS",
    "register_scenario",
    "get_scenario",
    "all_scenarios",
]

_ARRIVAL_KINDS = (
    "poisson",
    "mmpp",
    "diurnal",
    "batch",
    "saturated",
    "replay",
)


@dataclass(frozen=True)
class Scenario:
    """One named traffic regime: arrival shape × size law × type mix.

    Attributes:
        name: registry key.
        description: one-line summary for tables and docs.
        stress: what the scenario is designed to stress-test.
        arrival: arrival-shape kind (one of poisson / mmpp / diurnal /
            batch / saturated / replay).
        arrival_params: shape parameters (rate-free; see
            :meth:`build_jobs`).  For ``replay`` this holds the name of
            the scenario being replayed under ``"base"``.
        size_spec: :meth:`~repro.queueing.sizes.SizeModel.spec` payload
            (None = unit-mean exponential).
        type_weights: optional *rank* → weight map applied
            positionally to whatever types the caller passes (types
            beyond the rank list weigh 0 — see :meth:`weights_for`);
            None = uniform.
        n_jobs: default stream length (experiments may scale it).
        load: default offered load as a fraction of cluster capacity
            (ignored for saturated scenarios).
        backlog_per_machine: admission cap used by saturated runs.
    """

    name: str
    description: str
    stress: str
    arrival: str
    arrival_params: Mapping[str, object] = field(default_factory=dict)
    size_spec: Mapping[str, object] | None = None
    type_weights: Mapping[str, float] | None = None
    n_jobs: int = 2_000
    load: float = 0.7
    backlog_per_machine: int = 12

    def __post_init__(self) -> None:
        if self.arrival not in _ARRIVAL_KINDS:
            raise WorkloadError(
                f"unknown arrival kind {self.arrival!r}; "
                f"choose one of {_ARRIVAL_KINDS}"
            )
        if self.n_jobs <= 0:
            raise WorkloadError(f"n_jobs must be positive, got {self.n_jobs}")
        if not 0.0 < self.load <= 1.0:
            raise WorkloadError(
                f"load must be in (0, 1], got {self.load}"
            )

    @property
    def saturated(self) -> bool:
        """True when every job is available at time zero."""
        return self.arrival == "saturated"

    def offered_rate(self, capacity: float) -> float:
        """Mean arrival rate offering ``load`` of a cluster whose work
        rate is ``capacity`` (0 for saturated scenarios)."""
        if self.saturated:
            return 0.0
        return self.load * capacity / self.mean_size

    def expected_duration(self, n_jobs: int, capacity: float) -> float:
        """Expected length of an ``n_jobs`` run on a cluster whose work
        rate is ``capacity``: the jobs over the offered rate or, when
        saturated, the backlog's work over the work rate."""
        if self.saturated:
            return n_jobs * self.mean_size / capacity
        return n_jobs / self.offered_rate(capacity)

    def admission_limits(
        self, n_machines: int, contexts: int
    ) -> dict[str, int | None]:
        """The run's admission knobs, as
        :class:`~repro.queueing.cluster.RunConfig` keywords: a
        saturated run stops once fewer jobs than contexts remain and
        caps each machine's backlog at ``backlog_per_machine``; other
        runs set neither."""
        if not self.saturated:
            return {"stop_when_fewer_than": None, "keep_in_system": None}
        return {
            "stop_when_fewer_than": n_machines * contexts,
            "keep_in_system": self.backlog_per_machine,
        }

    def size_model(self) -> SizeModel:
        """The scenario's size law as a sampler object."""
        return make_size_model(self.size_spec)

    @property
    def mean_size(self) -> float:
        """Mean job size of the scenario's size law."""
        return self.size_model().mean

    def weights_for(
        self, types: Sequence[str]
    ) -> Mapping[str, float] | None:
        """Type weights projected onto the caller's type roster.

        A skewed scenario names *ranks* rather than concrete types:
        its weights apply positionally to however many types the
        caller brings, so one scenario serves the synthetic roster and
        the golden harness's tiny alphabets alike.  Types beyond the
        rank list weigh 0 (they never arrive) — the skew shape is
        preserved, never recycled, on larger rosters.
        """
        if self.type_weights is None:
            return None
        # Length-first ordering keeps rank10 after rank9 (plain
        # lexicographic sorting would scramble double-digit ranks).
        ordered = sorted(
            self.type_weights.items(), key=lambda kv: (len(kv[0]), kv[0])
        )
        return {
            job_type: ordered[i][1] if i < len(ordered) else 0.0
            for i, job_type in enumerate(types)
        }

    def build_jobs(
        self,
        types: Sequence[str],
        *,
        mean_rate: float,
        seed: int | random.Random = 0,
        n_jobs: int | None = None,
    ) -> Iterator[Job]:
        """Generate the scenario's job stream.

        Args:
            types: job types of the target workload.
            mean_rate: long-run mean arrival rate in jobs per unit
                time (ignored by saturated scenarios).
            seed: base RNG seed; every internal purpose derives its
                own stream from it.
            n_jobs: stream length override (default ``self.n_jobs``).
        """
        count = self.n_jobs if n_jobs is None else n_jobs
        params = dict(self.arrival_params)
        weights = self.weights_for(types)
        common = {
            "size_model": self.size_spec or {"kind": "exponential"},
            "type_weights": weights,
            "seed": seed,
            "n_jobs": count,
        }
        if self.arrival == "saturated":
            return saturated_arrivals(types, **common)
        if self.arrival == "poisson":
            return poisson_arrivals(types, rate=mean_rate, **common)
        if self.arrival == "mmpp":
            multipliers = params["rate_multipliers"]
            dwells = params["mean_dwells"]
            weighted = sum(m * d for m, d in zip(multipliers, dwells))
            scale = sum(dwells) / weighted
            return mmpp_arrivals(
                types,
                state_rates=[m * mean_rate * scale for m in multipliers],
                mean_dwells=list(dwells),
                **common,
            )
        if self.arrival == "diurnal":
            return diurnal_arrivals(
                types,
                base_rate=mean_rate,
                amplitude=float(params["amplitude"]),
                period=float(params["period"]),
                **common,
            )
        if self.arrival == "batch":
            mean_batch = float(params["mean_batch_size"])
            return batch_arrivals(
                types,
                batch_rate=mean_rate / mean_batch,
                mean_batch_size=mean_batch,
                **common,
            )
        # replay: generate the base scenario's stream, round-trip it
        # through the trace payload, and replay — every sweep exercises
        # the record → serialize → replay path and must land on the
        # exact jobs of the base scenario (pinned by a unit test).
        base = get_scenario(str(params["base"]))
        jobs = list(
            base.build_jobs(
                types, mean_rate=mean_rate, seed=seed, n_jobs=count
            )
        )
        return trace_arrivals(trace_from_jobs(jobs))

    def to_jsonable(self) -> dict[str, object]:
        """JSON-able description (for results files and docs tables)."""
        return {
            "name": self.name,
            "description": self.description,
            "stress": self.stress,
            "arrival": self.arrival,
            "arrival_params": dict(self.arrival_params),
            "size_spec": dict(self.size_spec) if self.size_spec else None,
            "type_weights": (
                dict(self.type_weights) if self.type_weights else None
            ),
            "n_jobs": self.n_jobs,
            "load": self.load,
            "backlog_per_machine": self.backlog_per_machine,
        }


SCENARIOS: dict[str, Scenario] = {}


def register_scenario(scenario: Scenario) -> Scenario:
    """Add a scenario to the registry (same-name re-registration
    replaces, keeping module reloads idempotent)."""
    SCENARIOS[scenario.name] = scenario
    return scenario


def get_scenario(name: str) -> Scenario:
    """Look up one scenario by name."""
    try:
        return SCENARIOS[name]
    except KeyError:
        raise WorkloadError(
            f"unknown scenario {name!r}; registered: {sorted(SCENARIOS)}"
        ) from None


def all_scenarios() -> list[Scenario]:
    """All registered scenarios in registration order."""
    return list(SCENARIOS.values())


# ----------------------------------------------------------------------
# The shipped scenarios.  Each stresses one departure from the paper's
# operating point; `baseline_poisson` *is* that operating point, so
# every other row of a sweep reads as a delta against the paper.
# ----------------------------------------------------------------------

register_scenario(Scenario(
    name="baseline_poisson",
    description="Poisson arrivals, exponential sizes, uniform types",
    stress="the paper's operating point — the control row",
    arrival="poisson",
))

register_scenario(Scenario(
    name="heavy_tail",
    description="Poisson arrivals, bounded-Pareto sizes (alpha 1.5)",
    stress="heavy-tailed work: a few elephants dominate the backlog",
    arrival="poisson",
    size_spec={
        "kind": "bounded_pareto", "alpha": 1.5,
        "lower": 0.1, "upper": 50.0,
    },
))

register_scenario(Scenario(
    name="mice_elephants",
    description="Poisson arrivals, bimodal sizes (5% elephants, 20x)",
    stress="bimodal size mix: size-aware policies vs size-blind ones",
    arrival="poisson",
    size_spec={
        "kind": "bimodal", "small_mean": 0.5,
        "large_mean": 10.0, "large_fraction": 0.05,
    },
))

register_scenario(Scenario(
    name="bursty_mmpp",
    description="2-state MMPP (8x burst vs lull), exponential sizes",
    stress="correlated bursts: queue buildup and drain transients",
    arrival="mmpp",
    arrival_params={
        "rate_multipliers": (8.0, 1.0),
        "mean_dwells": (5.0, 40.0),
    },
))

register_scenario(Scenario(
    name="diurnal_cycle",
    description="sinusoidal rate (amplitude 0.8), exponential sizes",
    stress="slow nonstationarity: day/night swing around the mean",
    arrival="diurnal",
    arrival_params={"amplitude": 0.8, "period": 200.0},
))

register_scenario(Scenario(
    name="batch_storms",
    description="Poisson batch epochs, geometric batches (mean 6)",
    stress="simultaneous arrivals: dispatch against one queue snapshot",
    arrival="batch",
    arrival_params={"mean_batch_size": 6.0},
))

register_scenario(Scenario(
    name="skewed_types",
    description="Poisson arrivals, one dominant type (weight 8:1:1:...)",
    stress="type imbalance: symbiosis has few partners to pair with",
    arrival="poisson",
    type_weights={"rank0": 8.0, "rank1": 1.0, "rank2": 1.0, "rank3": 1.0},
))

register_scenario(Scenario(
    name="saturated_backlog",
    description="all jobs at time zero, fixed unit sizes",
    stress="maximum-throughput regime: pure packing, no idling",
    arrival="saturated",
    size_spec={"kind": "fixed", "size": 1.0},
    n_jobs=1_200,
))

register_scenario(Scenario(
    name="replayed_burst",
    description="bursty_mmpp recorded to a trace and replayed",
    stress="trace-driven replay: the record/serialize/replay path",
    arrival="replay",
    arrival_params={"base": "bursty_mmpp"},
))
