"""Unit tests for the CI gate (``tools/compare_bench.py``).

The gate is a table of rows (label, measured value, comparator,
bound), so its tests are a table too: for every row a gate builds,
one case mutates a healthy payload so that row fails, and checks that
the failure names the row.  ``test_every_row_has_a_failing_case``
keeps the two tables in step.
"""

from __future__ import annotations

import copy
import json
import re
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "tools"))

import compare_bench  # noqa: E402

# ----------------------------------------------------------------------
# Healthy payloads, one file set per gate.
# ----------------------------------------------------------------------

BASELINE_POINT = {
    "point": 1,
    "benchmarks": {
        "saturated_demo": {
            "legacy_s": 1.0,
            "compiled_s": 0.1,
            "completed": 100,
        }
    },
    "scale": {
        "max_shard_overhead": 1.5,
        "tracemalloc_ceiling_mb": 16.0,
        "rss_ceiling_mb": 80.0,
        "max_heap_growth": 3.0,
    },
}


def bench(engine: str, seconds: float, completed: int = 100,
          workload: str = "saturated_demo") -> dict:
    """One pytest-benchmark entry with the gate's naming scheme."""
    return {
        "name": f"test_hotpath_{engine}[{workload}]",
        "stats": {"min": seconds},
        "extra_info": {"completed": completed},
    }


def scale_case(n_jobs, *, heap_mb=2.2):
    wall_s = n_jobs / 40_000
    return {
        "n_jobs": n_jobs,
        "wall_s": wall_s,
        "sharded_s": wall_s * 1.05,
        "shards": 8,
        "completed": n_jobs,
        "jobs_per_s": 40_000,
        "tracemalloc_peak_mb": heap_mb,
        "peak_rss_mb": 34.0,
    }


def tournament_cell(noise, degradation, *, rep=0, est_completed=50):
    return {
        "scenario": "baseline_poisson",
        "policy": "maxit",
        "noise": noise,
        "warmup_frac": 0.0,
        "rep": rep,
        "oracle_throughput": 2.0,
        "est_throughput": 2.0 * (1.0 - degradation),
        "tp_degradation": degradation,
        "oracle_completed": 50,
        "est_completed": est_completed,
    }


def fault_row(mode, *, dispatcher="jsq", availability=1.0):
    faulty = mode.startswith("mtbf=")
    return {
        "scenario": "baseline_poisson",
        "dispatcher": dispatcher,
        "mode": mode,
        "mtbf": float(mode[len("mtbf="):]) * 100.0 if faulty else 0.0,
        "mttr": 5.0 if faulty else 0.0,
        "n_machines": 3,
        "n_jobs": 250,
        "throughput": 1.8 if faulty else 2.0,
        "goodput": 1.72 if faulty else 2.0,
        "mean_turnaround": 12.5,
        "availability": availability,
        "degraded_fraction": 0.0,
        "lost_work": 8.0 if faulty else 0.0,
        "crashes": 4 if faulty else 0,
        "retried": 6 if faulty else 0,
        "abandoned": 1 if faulty else 0,
        "shed": 0,
        "completed": 240 if faulty else 250,
        "engine": "compiled",
    }


def healthy(gate: str) -> dict:
    """``{"baseline": ..., gate: ...}``: the files one gate reads."""
    inputs = {
        "hotpath": {"benchmarks": [bench("legacy", 1.0),
                                   bench("compiled", 0.1)]},
        "scale": {"config": {},
                  "cases": [scale_case(100_000), scale_case(1_000_000)]},
        "tournament": {"noise_levels": [0.0, 0.4], "cells": [
            tournament_cell(0.0, 0.0),
            tournament_cell(0.0, 0.0, rep=1),
            tournament_cell(0.4, 0.02),
            tournament_cell(0.4, -0.01, rep=1),
        ]},
        "faults": [
            fault_row(mode, dispatcher=dispatcher, availability=avail)
            for dispatcher in ("round_robin", "jsq")
            for mode, avail in (("none", 1.0), ("zero", 1.0),
                                ("mtbf=0.08", 0.70), ("mtbf=0.25", 0.85),
                                ("mtbf=0.75", 0.95))
        ],
    }
    baseline = {"version": 1, "trajectory": [copy.deepcopy(BASELINE_POINT)]}
    return {"baseline": baseline, gate: inputs[gate]}


def run_gate(tmp_path: Path, files: dict) -> int:
    argv = []
    for name, payload in files.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(payload))
        argv += [f"--{name}", str(path)]
    return compare_bench.main(argv)


def row_kind(label: str) -> str:
    """A row label without its workload, case or noise level."""
    return re.sub(r"\[[^\]]*\]", "[]", label)


def row_kinds(out: str) -> set[str]:
    """Row kinds of the gate's report lines."""
    return {
        row_kind(line.split(": ")[0])
        for line in out.splitlines()
        if line.endswith(("   ok", "   REGRESSED"))
    }


# ----------------------------------------------------------------------
# One failing case per row.
# ----------------------------------------------------------------------


class Case(NamedTuple):
    gate: str
    row: str
    mutate: Callable[[dict], None]


def _set(*path_and_value):
    """A mutation that assigns ``value`` at ``files[path...]``."""
    *path, key, value = path_and_value

    def mutate(files):
        target = files
        for step in path:
            target = target[step]
        target[key] = value

    return mutate


def _faults_where(mode, dispatcher=None, **changes):
    def mutate(files):
        for row in files["faults"]:
            if row["mode"] == mode and dispatcher in (None, row["dispatcher"]):
                row.update(changes)
    return mutate


def _drop_faults(keep):
    def mutate(files):
        files["faults"] = [r for r in files["faults"] if keep(r)]
    return mutate


def _tournament_cells(*cells):
    return _set("tournament", "cells", list(cells))


D = "hotpath[saturated_demo]"
S = "scale[100,000 jobs]"

CASES = {
    # --hotpath
    "no-workloads": Case("hotpath", "hotpath workloads",
                         _set("hotpath", "benchmarks", [])),
    "completed-differs": Case(
        "hotpath", f"{D} completed",
        _set("hotpath", "benchmarks", 1, bench("compiled", 0.1, 99))),
    "legacy-completed-differs": Case(
        "hotpath", f"{D} legacy completed",
        _set("hotpath", "benchmarks", 0, bench("legacy", 1.0, 99))),
    "speedup-below-floor": Case(
        "hotpath", f"{D} speedup",
        _set("hotpath", "benchmarks", 0, bench("legacy", 0.1))),
    "legacy-drift-past-cap": Case(
        "hotpath", f"{D} legacy_s",
        _set("hotpath", "benchmarks", 0, bench("legacy", 5.0))),
    "compiled-over-budget": Case(
        "hotpath", f"{D} compiled_s",
        _set("hotpath", "benchmarks", 1, bench("compiled", 0.5))),
    "compiled-missing": Case(
        "hotpath", f"{D} compiled_s",
        _set("hotpath", "benchmarks", [bench("legacy", 1.0)])),
    "baseline-without-compiled_s": Case(
        "hotpath", f"{D} compiled_s",
        _set("baseline", "trajectory", 0, "benchmarks", "saturated_demo",
             {"completed": 100})),
    "workload-unknown-to-baseline": Case(
        "hotpath", "hotpath[brand_new] compiled_s",
        _set("hotpath", "benchmarks", [
            bench("legacy", 1.0), bench("compiled", 0.1),
            bench("compiled", 0.5, workload="brand_new"),
        ])),
    "empty-trajectory": Case(
        "hotpath", f"{D} completed", _set("baseline", "trajectory", [])),
    "point-without-benchmarks": Case(
        "hotpath", f"{D} completed",
        _set("baseline", "trajectory", [{"point": 0}])),
    # --scale
    "no-cases": Case("scale", "scale cases", _set("scale", "cases", [])),
    "shard-overhead": Case(
        "scale", f"{S} shard overhead",
        _set("scale", "cases", 0, "sharded_s", 100_000 / 40_000 * 2.0)),
    "heap-ceiling": Case(
        "scale", f"{S} heap peak MB",
        _set("scale", "cases", 0, "tracemalloc_peak_mb", 16.5)),
    "rss-ceiling": Case(
        "scale", f"{S} rss peak MB",
        _set("scale", "cases", 0, "peak_rss_mb", 81.0)),
    "truncated-run": Case(
        "scale", f"{S} completed",
        _set("scale", "cases", 0, "completed", 99_000)),
    "heap-grows-with-jobs": Case(
        "scale", "scale[flatness] heap growth",
        _set("scale", "cases", 1, "tracemalloc_peak_mb", 12.0)),
    "no-scale-block": Case(
        "scale", f"{S} shard overhead",
        _set("baseline", "trajectory", 0, "scale", None)),
    # --tournament
    "no-cells": Case("tournament", "tournament cells",
                     _tournament_cells()),
    "no-controls": Case("tournament", "tournament[noise=0] control cells",
                        _tournament_cells(tournament_cell(0.4, 0.02))),
    "zero-noise-drift": Case(
        "tournament", "tournament[noise=0] cells deviating from oracle",
        _set("tournament", "cells", 0, tournament_cell(0.0, 1e-4))),
    "zero-noise-completion-drift": Case(
        "tournament", "tournament[noise=0] cells deviating from oracle",
        _set("tournament", "cells", 1,
             tournament_cell(0.0, 0.0, rep=1, est_completed=49))),
    "zero-noise-nan": Case(
        "tournament", "tournament[noise=0] cells deviating from oracle",
        _set("tournament", "cells", 0, tournament_cell(0.0, float("nan")))),
    "no-noisy-cells": Case("tournament", "tournament noisy cells",
                           _tournament_cells(tournament_cell(0.0, 0.0))),
    "estimates-beat-oracle": Case(
        "tournament", "tournament[noise=0.4] mean degradation",
        _tournament_cells(tournament_cell(0.0, 0.0),
                          tournament_cell(0.4, -0.10),
                          tournament_cell(0.4, -0.12, rep=1))),
    # --faults
    "no-rows": Case("faults", "faults rows", _set("faults", [])),
    "missing-control-row": Case(
        "faults", "faults[controls] cells missing a none/zero row",
        _drop_faults(
            lambda r: (r["mode"], r["dispatcher"]) != ("none", "jsq")
        )),
    "zero-identity-drift": Case(
        "faults", "faults[zero identity] cells diverging from none",
        _faults_where("zero", "jsq", throughput=1.999999)),
    "zero-identity-counter-drift": Case(
        "faults", "faults[zero identity] cells diverging from none",
        _faults_where("zero", "round_robin", retried=1)),
    "single-grid-point": Case(
        "faults", "faults[availability] MTBF grid points",
        _drop_faults(lambda r: r["mode"] in ("none", "zero", "mtbf=0.25"))),
    "availability-falls-with-mtbf": Case(
        "faults", "faults[availability] worst step up the MTBF grid",
        _faults_where("mtbf=0.75", availability=0.80)),
}


@pytest.mark.parametrize("gate", list(compare_bench.GATES))
def test_healthy_payload_passes(tmp_path, capsys, gate):
    assert run_gate(tmp_path, healthy(gate)) == 0
    title = compare_bench.GATES[gate][2]
    assert f"{title} ok" in capsys.readouterr().out


@pytest.mark.parametrize("name", list(CASES))
def test_mutated_payload_fails_naming_its_row(tmp_path, capsys, name):
    case = CASES[name]
    files = healthy(case.gate)
    case.mutate(files)
    assert run_gate(tmp_path, files) == 1
    err = capsys.readouterr().err
    assert f"FAIL: {case.row}: " in err
    assert f"{compare_bench.GATES[case.gate][2]} FAILED" in err


@pytest.mark.parametrize("gate", list(compare_bench.GATES))
def test_every_row_has_a_failing_case(tmp_path, capsys, gate):
    run_gate(tmp_path, healthy(gate))
    covered = {row_kind(c.row) for c in CASES.values() if c.gate == gate}
    assert row_kinds(capsys.readouterr().out) == covered


# ----------------------------------------------------------------------
# Inputs, bounds and composition.
# ----------------------------------------------------------------------


def test_failure_detail_names_the_deviation(tmp_path, capsys):
    files = healthy("faults")
    _faults_where("zero", "jsq", throughput=1.999999)(files)
    run_gate(tmp_path, files)
    assert "baseline_poisson/jsq throughput none=2.0 zero=1.999999" in (
        capsys.readouterr().err
    )


def test_nan_turnaround_matches_itself(tmp_path):
    """Saturated cells report turnaround as NaN on both sides of the
    identity; NaN != NaN must not produce a spurious failure."""
    files = healthy("faults")
    for mode in ("none", "zero"):
        _faults_where(mode, mean_turnaround=float("nan"))(files)
    assert run_gate(tmp_path, files) == 0


def test_availability_dip_inside_slack_passes(tmp_path):
    files = healthy("faults")
    dip = compare_bench.FAULTS_SLACK / 2
    _faults_where("mtbf=0.75", availability=0.85 - dip)(files)
    assert run_gate(tmp_path, files) == 0


def test_estimates_beating_oracle_inside_slack_passes(tmp_path):
    files = healthy("tournament")
    margin = compare_bench.TOURNAMENT_SLACK / 2
    _tournament_cells(tournament_cell(0.0, 0.0),
                      tournament_cell(0.4, -margin))(files)
    assert run_gate(tmp_path, files) == 0


def test_slow_machine_scales_the_compiled_budget(tmp_path, capsys):
    """A runner 1.8x slower on both engines passes; the row notes the
    machine factor it applied."""
    files = healthy("hotpath")
    files["hotpath"]["benchmarks"] = [bench("legacy", 1.8),
                                      bench("compiled", 0.35)]
    assert run_gate(tmp_path, files) == 0
    assert "machine factor 1.80" in capsys.readouterr().out


@pytest.mark.parametrize("gate", ["tournament", "faults"])
def test_results_dir_wrapper_is_accepted(tmp_path, gate):
    """The runner's --results-dir file nests the payload under rows."""
    files = healthy(gate)
    files[gate] = {"name": gate, "rows": files[gate]}
    assert run_gate(tmp_path, files) == 0


def test_historical_fast_entries_stay_readable(tmp_path):
    """Points recorded with the retired fast loop (``fast_s`` in the
    baseline, ``test_hotpath[...]`` in old results) are ignored, not
    rejected."""
    files = healthy("hotpath")
    files["hotpath"]["benchmarks"].append(
        {"name": "test_hotpath[saturated_demo]", "stats": {"min": 0.25}}
    )
    files["baseline"]["trajectory"][0]["benchmarks"]["saturated_demo"][
        "fast_s"
    ] = 0.25
    assert run_gate(tmp_path, files) == 0


@pytest.mark.parametrize("gate", ["tournament", "faults"])
def test_gate_without_baseline_reads_none(tmp_path, gate):
    files = healthy(gate)
    del files["baseline"]
    path = tmp_path / "input.json"
    path.write_text(json.dumps(files[gate]))
    argv = [f"--{gate}", str(path), "--baseline", str(tmp_path / "absent")]
    assert compare_bench.main(argv) == 0


def test_gates_compose_and_all_report(tmp_path, capsys):
    """One invocation runs every gate it is given; a failing gate does
    not hide the verdicts of the others."""
    files = {}
    for gate in compare_bench.GATES:
        files.update(healthy(gate))
    assert run_gate(tmp_path, files) == 0
    CASES["zero-noise-nan"].mutate(files)
    assert run_gate(tmp_path, files) == 1
    captured = capsys.readouterr()
    for title in ("perf smoke", "scale smoke", "fault smoke"):
        assert captured.out.count(f"{title} ok") == 2
    assert "tournament sanity FAILED" in captured.err


def test_unreadable_input_exits_with_clear_message(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(SystemExit) as excinfo:
        compare_bench.main(["--faults", str(path)])
    assert f"cannot read {path}" in str(excinfo.value)


def test_no_gate_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        compare_bench.main([])
    assert excinfo.value.code == 2
    assert "nothing to gate" in capsys.readouterr().err
