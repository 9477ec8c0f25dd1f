"""Rate-table golden: the microarch model's full default-roster tables.

``tests/golden/artifacts/rates__<machine>.json`` commits, for every
coschedule of 1..4 jobs drawn from the 12-type default roster (1,819
multisets), the per-slot IPCs, the fixed-point iteration count and the
map evaluations over every damping rung that
:func:`~repro.microarch.simulator.simulate_coschedule` produced.  The
machines are ``quad``, ``smt4`` (ICOUNT fetch, dynamic ROB) and the
three other fetch/ROB pairs of ``smt4`` that Section VII compares
(``smt4-<fetch>-<rob>``), so the round-robin rival weights and the
static ROB split are pinned as well as ICOUNT's water-filling.  Every
``r_b(s)`` the paper artifacts use comes from these tables, so any
change to the model's equations, its constants or the fixed-point
solver shows up here by coschedule, while the engine goldens
(``test_golden_traces.py``) run on frozen synthetic tables and never
see it.

IPCs compare at the engine lock's ``REL_TOL``; iteration and
evaluation counts compare exactly.  Bit identity is the contention
kernel oracle's job (``tests/property/test_contention_kernel.py``):
within ``REL_TOL`` a refresh leaves a file as it is.  Refreshing after
an intentional model change::

    python -m pytest tests/integration/test_rate_table_golden.py \
        --update-golden -q

which, like every golden refresh, rewrites only files that moved.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.microarch.benchmarks import default_roster
from repro.microarch.config import (
    FetchPolicy,
    RobPolicy,
    quad_core_machine,
    smt_machine,
)
from repro.microarch.simulator import simulate_coschedule
from repro.util.multiset import multisets
from test_golden_traces import GOLDEN_DIR, diff_payload, write_golden

ARTIFACT_DIR = GOLDEN_DIR / "artifacts"
MACHINES = {
    "quad": quad_core_machine(),
    "smt4": smt_machine(),
    **{
        f"smt4-{fetch.value}-{rob.value}": smt_machine(
            fetch_policy=fetch, rob_policy=rob
        )
        for fetch, rob in (
            (FetchPolicy.ROUND_ROBIN, RobPolicy.DYNAMIC),
            (FetchPolicy.ICOUNT, RobPolicy.STATIC),
            (FetchPolicy.ROUND_ROBIN, RobPolicy.STATIC),
        )
    },
}


def rate_golden_path(machine_name: str) -> Path:
    return ARTIFACT_DIR / f"rates__{machine_name}.json"


def build_rate_payload(machine_name: str) -> dict[str, object]:
    """Every default-roster coschedule's IPCs, iterations and
    evaluations."""
    machine = MACHINES[machine_name]
    roster = default_roster()
    types = sorted(roster)
    coschedules = {}
    for size in range(1, machine.contexts + 1):
        for names in multisets(types, size):
            result = simulate_coschedule(machine, roster, names)
            coschedules["|".join(names)] = {
                "ipcs": list(result.ipcs),
                "iterations": result.iterations,
                "evaluations": result.evaluations,
            }
    return {"machine": machine_name, "coschedules": coschedules}


def render_one_per_line(payload: dict[str, object]) -> str:
    """Valid JSON with one line per coschedule, so a drift diffs by row."""
    rows = ",\n".join(
        f"    {json.dumps(key)}: {json.dumps(entry, sort_keys=True)}"
        for key, entry in sorted(payload["coschedules"].items())
    )
    return (
        "{\n"
        f'  "coschedules": {{\n{rows}\n  }},\n'
        f'  "machine": {json.dumps(payload["machine"])}\n'
        "}\n"
    )


@pytest.mark.parametrize("machine_name", sorted(MACHINES))
def test_rate_table(machine_name, request):
    path = rate_golden_path(machine_name)
    payload = build_rate_payload(machine_name)
    if request.config.getoption("--update-golden"):
        write_golden(path, payload, render=render_one_per_line)
        return
    if not path.exists():
        pytest.fail(
            f"missing golden file {path.name}; run "
            "`python -m pytest tests/integration/test_rate_table_golden.py "
            "--update-golden` and commit the result"
        )
    drift = diff_payload(json.loads(path.read_text()), payload)
    if drift:
        pytest.fail(
            f"[{path.name}] rate-table drift: the microarch model no "
            f"longer reproduces {len(drift)} committed values:\n"
            + "\n".join(drift[:20])
            + "\n(run --update-golden only if this drift is intentional)"
        )
