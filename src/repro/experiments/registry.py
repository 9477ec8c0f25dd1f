"""Experiment registry: the runner's single source of truth.

Every experiment module registers one :class:`Experiment` describing
the paper artifact it reproduces — its name, kind (figure / table /
section / analysis), paper reference, and two callables:

* ``run(context, options)`` — compute the artifact's result object
  from an :class:`~repro.experiments.common.ExperimentContext` and the
  CLI-level :class:`RunOptions` (the module's only entry; its
  ``compute_*`` functions are the library API);
* ``render(result)`` — produce the textual rows/series the paper
  reports.

The registry is what makes ``python -m repro.experiments`` work:
:func:`discover` imports every experiment module (each calls
:func:`register` at import time), ``--list`` walks :func:`all_experiments`,
and the parallel runner fans registered names out to worker processes.
Results additionally pass through :func:`to_jsonable` so every artifact
can be emitted as structured JSON (``--results-dir``).
"""

from __future__ import annotations

import dataclasses
import importlib
import zlib
from dataclasses import dataclass
from typing import Callable, Mapping

__all__ = [
    "Experiment",
    "RunOptions",
    "cell_seed",
    "register",
    "get",
    "names",
    "all_experiments",
    "discover",
    "to_jsonable",
]

#: Modules imported by :func:`discover`; importing each one registers
#: its experiment(s).  Order here fixes ``--list`` / ``all`` order.
EXPERIMENT_MODULES: tuple[str, ...] = (
    "repro.experiments.table1",
    "repro.experiments.figure1",
    "repro.experiments.figure2",
    "repro.experiments.figure3",
    "repro.experiments.table2",
    "repro.experiments.figure4",
    "repro.experiments.figure5",
    "repro.experiments.figure6",
    "repro.experiments.section7",
    "repro.experiments.ntypes",
    "repro.experiments.fairness_cf",
    "repro.experiments.makespan_exp",
    "repro.experiments.units_exp",
    "repro.experiments.skew_exp",
    "repro.experiments.cluster_exp",
    "repro.experiments.scenario_sweep",
    "repro.experiments.fault_sweep",
    "repro.experiments.policy_tournament",
    "repro.experiments.summary",
)

_KINDS = ("figure", "table", "section", "analysis")


def cell_seed(base: int, label: str) -> int:
    """The one seed rule: experiments seed from (CLI seed, name), grid
    cells from (experiment seed, label), so no seed depends on cell
    order or on the worker process that runs the cell."""
    return (base * 1_000_003 + zlib.crc32(label.encode())) % 2**31


@dataclass(frozen=True)
class RunOptions:
    """CLI-level knobs shared by every experiment.

    Attributes:
        max_workloads: optional cap on sampled workloads (None = each
            experiment's own default).
        seed: base sampling seed; per-experiment seeds derive from it
            via :meth:`seed_for` so parallel workers stay deterministic
            regardless of scheduling order.
        quick: smoke-test mode (small subsamples everywhere).
        jobs: worker processes for *within*-experiment fan-out (the
            runner only sets this above 1 when a single experiment is
            named — otherwise ``--jobs`` parallelizes across
            experiments and each one runs its cells serially).
        shards: time-slice shards per simulated run (scale-out
            experiments pass this to
            :func:`repro.queueing.sharding.run_sharded`; results are
            bit-identical for every value).
        checkpoint_dir: directory for crash-safe per-run checkpoints
            (``None`` disables checkpointing).
    """

    max_workloads: int | None = None
    seed: int = 0
    quick: bool = False
    jobs: int = 1
    shards: int = 1
    checkpoint_dir: str | None = None

    def seed_for(self, name: str) -> int:
        """Deterministic per-experiment seed (stable across runs and
        across ``--jobs`` worker assignment)."""
        return cell_seed(self.seed, name)

    def workloads(self, default: int | None) -> int | None:
        """Effective workload cap given an experiment's default."""
        if self.max_workloads is not None:
            if default is not None and self.quick:
                return min(self.max_workloads, default)
            return self.max_workloads
        return default


@dataclass(frozen=True)
class Experiment:
    """One registered paper artifact."""

    name: str
    kind: str
    title: str
    run: Callable[[object, RunOptions], object]
    render: Callable[[object], str]

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(
                f"kind must be one of {_KINDS}, got {self.kind!r}"
            )


_REGISTRY: dict[str, Experiment] = {}


def register(experiment: Experiment) -> Experiment:
    """Add an experiment; re-registration with the same name replaces
    it (keeps module reloads idempotent)."""
    _REGISTRY[experiment.name] = experiment
    return experiment


def get(name: str) -> Experiment:
    """Look up one experiment (after :func:`discover`)."""
    discover()
    return _REGISTRY[name]


def names() -> list[str]:
    """Registered experiment names in registration (paper) order."""
    discover()
    return list(_REGISTRY)


def all_experiments() -> list[Experiment]:
    """All registered experiments in registration order."""
    discover()
    return list(_REGISTRY.values())


def discover() -> None:
    """Import every experiment module, populating the registry."""
    for module in EXPERIMENT_MODULES:
        importlib.import_module(module)


def to_jsonable(obj: object) -> object:
    """Recursively convert an experiment result to JSON-safe data.

    Objects exposing a ``to_jsonable()`` method (streaming metrics,
    scenarios) emit their own payload, dataclasses become dicts of
    their fields, mappings/sequences recurse, objects with a
    ``label()`` method (workloads) collapse to that label, and
    anything else falls back to ``str``.
    """
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    emit = getattr(obj, "to_jsonable", None)
    if callable(emit) and not isinstance(obj, type):
        return to_jsonable(emit())
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: to_jsonable(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, Mapping):
        return {
            "|".join(k) if isinstance(k, tuple) else str(k): to_jsonable(v)
            for k, v in obj.items()
        }
    if isinstance(obj, (list, tuple, set, frozenset)):
        return [to_jsonable(item) for item in obj]
    label = getattr(obj, "label", None)
    if callable(label):
        return label()
    return str(obj)
