"""Artifact rows golden: the paper artifacts' numbers, not only their shape.

``tests/golden/artifacts/rows__<experiment>.json`` commits the ``rows``
that ``python -m repro.experiments <experiment> --quick`` writes with
``--results-dir``: ``to_jsonable`` of what the registered
``run(context, options)`` returns on the quick context (30 workloads
sampled at seed 0).  The shape tests assert directions on small
samples; this golden pins every field of every row, so a change to the
microarch model, the LP, the engine or an experiment's own sampling or
folding shows up here by experiment and field.

The 15 experiments in :data:`ROWS_EXPERIMENTS` run in seconds together
on a cold rate table.  ntypes, section7, figure5 and figure6
(:data:`SLOW_ROWS_EXPERIMENTS`, about a minute together cold, most of
it figure5) stay out of tier-1: they run only under ``--slow-rows``, on the
same quick context and rate tables.  Fields compare at the engine
lock's ``REL_TOL``; NaN matches only NaN.  Refreshing after an
intentional change::

    python -m pytest tests/integration/test_artifact_rows.py \
        --slow-rows --update-golden -q

which, like every golden refresh, rewrites only files that moved.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.experiments import registry
from repro.experiments.common import ExperimentContext, default_context
from repro.experiments.registry import RunOptions, to_jsonable
from test_golden_traces import GOLDEN_DIR, diff_payload, write_golden

ROWS_EXPERIMENTS: tuple[str, ...] = (
    "table1",
    "figure1",
    "figure2",
    "figure3",
    "figure4",
    "table2",
    "fairness",
    "makespan",
    "units",
    "skew",
    "cluster_exp",
    "scenario_sweep",
    "fault_sweep",
    "policy_tournament",
    "summary",
)

#: Minutes-scale experiments, checked only under ``--slow-rows``.
SLOW_ROWS_EXPERIMENTS: tuple[str, ...] = (
    "ntypes",
    "section7",
    "figure5",
    "figure6",
)

#: The runner's ``--quick`` options and context.
QUICK = RunOptions(max_workloads=30, quick=True)


def rows_golden_path(name: str) -> Path:
    return GOLDEN_DIR / "artifacts" / f"rows__{name}.json"


@pytest.fixture(scope="module")
def quick_context() -> ExperimentContext:
    return default_context(max_workloads=QUICK.max_workloads, seed=QUICK.seed)


@pytest.mark.parametrize("name", ROWS_EXPERIMENTS)
def test_artifact_rows(name, quick_context, request):
    check_rows(name, quick_context, request)


@pytest.mark.parametrize("name", SLOW_ROWS_EXPERIMENTS)
def test_slow_artifact_rows(name, quick_context, request):
    if not request.config.getoption("--slow-rows"):
        pytest.skip("slow rows golden: run with --slow-rows")
    check_rows(name, quick_context, request)


def check_rows(name, quick_context, request):
    result = registry.get(name).run(quick_context, QUICK)
    # Through JSON text, as the runner writes it: tuples become lists.
    payload = json.loads(
        json.dumps({"experiment": name, "rows": to_jsonable(result)})
    )
    path = rows_golden_path(name)
    if request.config.getoption("--update-golden"):
        write_golden(path, payload)
        return
    if not path.exists():
        pytest.fail(
            f"missing golden file {path.name}; run "
            "`python -m pytest tests/integration/test_artifact_rows.py "
            "--slow-rows --update-golden` and commit the result"
        )
    drift = diff_payload(json.loads(path.read_text()), payload)
    if drift:
        pytest.fail(
            f"[{path.name}] {name} rows drifted in {len(drift)} "
            "fields:\n"
            + "\n".join(drift[:20])
            + "\n(run --update-golden only if this drift is intentional)"
        )
