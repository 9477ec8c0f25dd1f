"""Unit tests for the CI perf-smoke gate (``tools/compare_bench.py``).

The gate is the last line of defense for the committed perf
trajectory, so its *failure modes* are part of its contract: a
half-landed change (new benchmark without a refreshed baseline, or a
baseline file with no usable trajectory point) must produce a clear
one-line diagnostic — never a bare ``KeyError``/``IndexError`` that
reads like the gate itself is broken.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "tools"))

import compare_bench  # noqa: E402


def write_results(path: Path, workloads: dict[str, dict[str, float]]):
    """A minimal pytest-benchmark JSON with the gate's naming scheme."""
    benches = []
    for workload, modes in workloads.items():
        for mode, seconds in modes.items():
            prefix = {
                "legacy": "test_hotpath_legacy",
                "compiled": "test_hotpath_compiled",
            }[mode]
            benches.append(
                {
                    "name": f"{prefix}[{workload}]",
                    "stats": {"min": seconds},
                }
            )
    path.write_text(json.dumps({"benchmarks": benches}))


def write_baseline(path: Path, trajectory: list[dict]):
    path.write_text(json.dumps({"version": 1, "trajectory": trajectory}))


BASELINE_POINT = {
    "point": 1,
    "benchmarks": {
        "saturated_demo": {
            "legacy_s": 1.0,
            "compiled_s": 0.1,
            "completed": 100,
        }
    },
}


def test_matching_results_pass(tmp_path):
    results = tmp_path / "results.json"
    baseline = tmp_path / "baseline.json"
    write_results(
        results,
        {"saturated_demo": {"legacy": 1.0, "compiled": 0.1}},
    )
    write_baseline(baseline, [BASELINE_POINT])
    assert compare_bench.main([str(results), str(baseline)]) == 0


def test_empty_trajectory_fails_with_clear_message(tmp_path):
    """An empty trajectory must exit with a diagnostic, not IndexError."""
    results = tmp_path / "results.json"
    baseline = tmp_path / "baseline.json"
    write_results(results, {"saturated_demo": {"compiled": 0.1}})
    write_baseline(baseline, [])
    with pytest.raises(SystemExit) as excinfo:
        compare_bench.main([str(results), str(baseline)])
    assert "empty trajectory" in str(excinfo.value)


def test_pointless_trajectory_fails_with_clear_message(tmp_path):
    """A trajectory point with no benchmarks must not KeyError."""
    results = tmp_path / "results.json"
    baseline = tmp_path / "baseline.json"
    write_results(results, {"saturated_demo": {"compiled": 0.1}})
    write_baseline(baseline, [{"point": 0}])
    with pytest.raises(SystemExit) as excinfo:
        compare_bench.main([str(results), str(baseline)])
    assert "records no benchmarks" in str(excinfo.value)


def test_unknown_benchmark_name_fails_with_clear_message(tmp_path, capsys):
    """A measured workload the trajectory has never seen is a
    half-landed change — named explicitly, not silently skipped."""
    results = tmp_path / "results.json"
    baseline = tmp_path / "baseline.json"
    write_results(
        results,
        {
            "saturated_demo": {"legacy": 1.0, "compiled": 0.1},
            "brand_new_workload": {"compiled": 0.5},
        },
    )
    write_baseline(baseline, [BASELINE_POINT])
    assert compare_bench.main([str(results), str(baseline)]) == 1
    err = capsys.readouterr().err
    assert "brand_new_workload" in err
    assert "missing from the committed trajectory" in err


def test_workload_missing_from_results_fails(tmp_path, capsys):
    results = tmp_path / "results.json"
    baseline = tmp_path / "baseline.json"
    write_results(results, {})
    write_baseline(baseline, [BASELINE_POINT])
    assert compare_bench.main([str(results), str(baseline)]) == 1
    assert "missing from results" in capsys.readouterr().err


def test_compiled_regression_fails(tmp_path, capsys):
    """Compiled time over tolerance x baseline fails even when the
    legacy/compiled speedup still clears its floor."""
    results = tmp_path / "results.json"
    baseline = tmp_path / "baseline.json"
    write_results(
        results,
        {"saturated_demo": {"legacy": 1.0, "compiled": 0.5}},
    )
    write_baseline(baseline, [BASELINE_POINT])
    assert (
        compare_bench.main(
            [str(results), str(baseline), "--tolerance", "2.0"]
        )
        == 1
    )
    assert "saturated_demo" in capsys.readouterr().err


def test_missing_compiled_measurement_fails(tmp_path, capsys):
    """A legacy timing alone is only a calibration, never a pass."""
    results = tmp_path / "results.json"
    baseline = tmp_path / "baseline.json"
    write_results(results, {"saturated_demo": {"legacy": 1.0}})
    write_baseline(baseline, [BASELINE_POINT])
    assert compare_bench.main([str(results), str(baseline)]) == 1
    assert "missing from results" in capsys.readouterr().err


def test_speedup_below_floor_fails(tmp_path, capsys):
    """Within budget but no faster than the reference engine: the
    same-machine speedup floor catches it."""
    results = tmp_path / "results.json"
    baseline = tmp_path / "baseline.json"
    write_results(
        results, {"saturated_demo": {"legacy": 0.1, "compiled": 0.1}}
    )
    write_baseline(baseline, [BASELINE_POINT])
    assert compare_bench.main([str(results), str(baseline)]) == 1
    assert "REGRESSED" in capsys.readouterr().out


def test_baseline_entry_without_compiled_s_fails(tmp_path, capsys):
    results = tmp_path / "results.json"
    baseline = tmp_path / "baseline.json"
    write_results(results, {"saturated_demo": {"compiled": 0.1}})
    write_baseline(
        baseline,
        [{"point": 0, "benchmarks": {"saturated_demo": {"completed": 1}}}],
    )
    assert compare_bench.main([str(results), str(baseline)]) == 1
    assert "no compiled_s" in capsys.readouterr().err


def test_historical_fast_entries_stay_readable(tmp_path):
    """Points recorded with the retired fast loop (``fast_s`` in the
    baseline, ``test_hotpath[...]`` in old results) are ignored, not
    rejected."""
    results = tmp_path / "results.json"
    baseline = tmp_path / "baseline.json"
    write_results(
        results, {"saturated_demo": {"legacy": 1.0, "compiled": 0.1}}
    )
    payload = json.loads(results.read_text())
    payload["benchmarks"].append(
        {"name": "test_hotpath[saturated_demo]", "stats": {"min": 0.25}}
    )
    results.write_text(json.dumps(payload))
    point = json.loads(json.dumps(BASELINE_POINT))
    point["benchmarks"]["saturated_demo"]["fast_s"] = 0.25
    write_baseline(baseline, [point])
    assert compare_bench.main([str(results), str(baseline)]) == 0


# ----------------------------------------------------------------------
# The --scale gate (perf point 2: bench_scale.py payloads).
# ----------------------------------------------------------------------

SCALE_POINT = {
    "point": 2,
    "benchmarks": BASELINE_POINT["benchmarks"],
    "scale": {
        "max_shard_overhead": 1.5,
        "tracemalloc_ceiling_mb": 16.0,
        "rss_ceiling_mb": 80.0,
        "max_heap_growth": 3.0,
    },
}


def scale_case(n_jobs, *, sharded_s=None, heap_mb=2.2, rss_mb=34.0,
               completed=None):
    wall_s = n_jobs / 40_000
    return {
        "n_jobs": n_jobs,
        "wall_s": wall_s,
        "sharded_s": wall_s * 1.05 if sharded_s is None else sharded_s,
        "shards": 8,
        "completed": n_jobs if completed is None else completed,
        "jobs_per_s": 40_000,
        "tracemalloc_peak_mb": heap_mb,
        "peak_rss_mb": rss_mb,
    }


def write_scale(path: Path, cases: list[dict]):
    path.write_text(json.dumps({"config": {}, "cases": cases}))


def test_scale_only_invocation_passes(tmp_path, capsys):
    """--scale works without a pytest-benchmark results file."""
    baseline = tmp_path / "baseline.json"
    scale = tmp_path / "scale.json"
    write_baseline(baseline, [SCALE_POINT])
    write_scale(scale, [scale_case(100_000), scale_case(1_000_000)])
    assert compare_bench.main(
        [str(baseline), "--scale", str(scale)]
    ) == 0
    assert "scale smoke ok" in capsys.readouterr().out


def test_scale_gate_composes_with_perf_gate(tmp_path):
    """Both positional results and --scale in one invocation."""
    results = tmp_path / "results.json"
    baseline = tmp_path / "baseline.json"
    scale = tmp_path / "scale.json"
    write_results(
        results,
        {"saturated_demo": {"legacy": 1.0, "compiled": 0.1}},
    )
    write_baseline(baseline, [SCALE_POINT])
    write_scale(scale, [scale_case(100_000)])
    assert compare_bench.main(
        [str(results), str(baseline), "--scale", str(scale)]
    ) == 0


def test_scale_shard_overhead_regression_fails(tmp_path, capsys):
    baseline = tmp_path / "baseline.json"
    scale = tmp_path / "scale.json"
    write_baseline(baseline, [SCALE_POINT])
    write_scale(
        scale, [scale_case(100_000, sharded_s=100_000 / 40_000 * 2.0)]
    )
    assert compare_bench.main(
        [str(baseline), "--scale", str(scale)]
    ) == 1
    assert "shard overhead" in capsys.readouterr().err


def test_scale_memory_ceiling_regression_fails(tmp_path, capsys):
    """A heap peak past the committed ceiling fails — the constant-
    memory contract, gated absolutely."""
    baseline = tmp_path / "baseline.json"
    scale = tmp_path / "scale.json"
    write_baseline(baseline, [SCALE_POINT])
    write_scale(scale, [scale_case(100_000, heap_mb=64.0)])
    assert compare_bench.main(
        [str(baseline), "--scale", str(scale)]
    ) == 1
    assert "heap peak" in capsys.readouterr().err


def test_scale_flatness_regression_fails(tmp_path, capsys):
    """Heap growing with the job count — even under the ceiling — is a
    streaming regression (completed jobs being retained again)."""
    baseline = tmp_path / "baseline.json"
    scale = tmp_path / "scale.json"
    write_baseline(baseline, [SCALE_POINT])
    write_scale(
        scale,
        [
            scale_case(100_000, heap_mb=2.0),
            scale_case(1_000_000, heap_mb=12.0),
        ],
    )
    assert compare_bench.main(
        [str(baseline), "--scale", str(scale)]
    ) == 1
    assert "flatness" in capsys.readouterr().err


def test_scale_truncated_run_fails(tmp_path, capsys):
    baseline = tmp_path / "baseline.json"
    scale = tmp_path / "scale.json"
    write_baseline(baseline, [SCALE_POINT])
    write_scale(scale, [scale_case(100_000, completed=99_000)])
    assert compare_bench.main(
        [str(baseline), "--scale", str(scale)]
    ) == 1
    assert "completed" in capsys.readouterr().err


def test_scale_block_missing_fails_with_clear_message(tmp_path):
    baseline = tmp_path / "baseline.json"
    scale = tmp_path / "scale.json"
    write_baseline(baseline, [BASELINE_POINT])
    write_scale(scale, [scale_case(100_000)])
    with pytest.raises(SystemExit) as excinfo:
        compare_bench.main([str(baseline), "--scale", str(scale)])
    assert "records no scale block" in str(excinfo.value)


# ----------------------------------------------------------------------
# The --tournament gate (estimation sanity invariants).
# ----------------------------------------------------------------------


def tournament_cell(noise, degradation, *, policy="maxit",
                    scenario="baseline_poisson", rep=0, completed=50,
                    est_completed=None):
    oracle_tp = 2.0
    return {
        "scenario": scenario,
        "policy": policy,
        "noise": noise,
        "warmup_frac": 0.0,
        "rep": rep,
        "oracle_throughput": oracle_tp,
        "est_throughput": oracle_tp * (1.0 - degradation),
        "tp_degradation": degradation,
        "oracle_completed": completed,
        "est_completed": (
            completed if est_completed is None else est_completed
        ),
    }


def write_tournament(path: Path, cells: list[dict], *, wrap=False):
    payload = {"noise_levels": sorted({c["noise"] for c in cells}),
               "cells": cells}
    if wrap:
        payload = {"name": "policy_tournament", "rows": payload}
    path.write_text(json.dumps(payload))


def healthy_cells():
    return [
        tournament_cell(0.0, 0.0),
        tournament_cell(0.0, 0.0, rep=1),
        tournament_cell(0.4, 0.02),
        tournament_cell(0.4, -0.01, rep=1),
    ]


def test_tournament_healthy_passes(tmp_path, capsys):
    baseline = tmp_path / "baseline.json"
    tournament = tmp_path / "tournament.json"
    write_baseline(baseline, [BASELINE_POINT])
    write_tournament(tournament, healthy_cells())
    assert compare_bench.main(
        [str(baseline), "--tournament", str(tournament)]
    ) == 0
    assert "tournament sanity ok" in capsys.readouterr().out


def test_tournament_accepts_results_dir_wrapper(tmp_path):
    """The runner's --results-dir file nests the payload under rows."""
    baseline = tmp_path / "baseline.json"
    tournament = tmp_path / "tournament.json"
    write_baseline(baseline, [BASELINE_POINT])
    write_tournament(tournament, healthy_cells(), wrap=True)
    assert compare_bench.main(
        [str(baseline), "--tournament", str(tournament)]
    ) == 0


def test_tournament_zero_noise_drift_fails(tmp_path, capsys):
    """A zero-noise cell that is not bit-identical to its oracle twin
    is an estimation-stack bug, whatever its sign."""
    baseline = tmp_path / "baseline.json"
    tournament = tmp_path / "tournament.json"
    write_baseline(baseline, [BASELINE_POINT])
    cells = healthy_cells()
    cells[0] = tournament_cell(0.0, 1e-4)
    write_tournament(tournament, cells)
    assert compare_bench.main(
        [str(baseline), "--tournament", str(tournament)]
    ) == 1
    assert "bit-identical" in capsys.readouterr().err


def test_tournament_zero_noise_completion_drift_fails(tmp_path, capsys):
    baseline = tmp_path / "baseline.json"
    tournament = tmp_path / "tournament.json"
    write_baseline(baseline, [BASELINE_POINT])
    cells = healthy_cells()
    cells[1] = tournament_cell(0.0, 0.0, rep=1, est_completed=49)
    write_tournament(tournament, cells)
    assert compare_bench.main(
        [str(baseline), "--tournament", str(tournament)]
    ) == 1
    assert "49 vs 50" in capsys.readouterr().err


def test_tournament_inverted_price_of_information_fails(tmp_path, capsys):
    """Estimates systematically beating the oracle at high noise means
    the oracle side of the pairing is broken."""
    baseline = tmp_path / "baseline.json"
    tournament = tmp_path / "tournament.json"
    write_baseline(baseline, [BASELINE_POINT])
    cells = [
        tournament_cell(0.0, 0.0),
        tournament_cell(0.4, -0.10),
        tournament_cell(0.4, -0.12, rep=1),
    ]
    write_tournament(tournament, cells)
    assert compare_bench.main(
        [str(baseline), "--tournament", str(tournament)]
    ) == 1
    assert "beat the oracle" in capsys.readouterr().err


def test_tournament_slack_is_configurable(tmp_path):
    baseline = tmp_path / "baseline.json"
    tournament = tmp_path / "tournament.json"
    write_baseline(baseline, [BASELINE_POINT])
    cells = [
        tournament_cell(0.0, 0.0),
        tournament_cell(0.4, -0.10),
    ]
    write_tournament(tournament, cells)
    assert compare_bench.main(
        [str(baseline), "--tournament", str(tournament),
         "--tournament-slack", "0.2"]
    ) == 0


def test_tournament_without_controls_fails(tmp_path, capsys):
    baseline = tmp_path / "baseline.json"
    tournament = tmp_path / "tournament.json"
    write_baseline(baseline, [BASELINE_POINT])
    write_tournament(tournament, [tournament_cell(0.4, 0.02)])
    assert compare_bench.main(
        [str(baseline), "--tournament", str(tournament)]
    ) == 1
    assert "no zero-noise control cells" in capsys.readouterr().err


def test_tournament_without_noise_fails(tmp_path, capsys):
    baseline = tmp_path / "baseline.json"
    tournament = tmp_path / "tournament.json"
    write_baseline(baseline, [BASELINE_POINT])
    write_tournament(tournament, [tournament_cell(0.0, 0.0)])
    assert compare_bench.main(
        [str(baseline), "--tournament", str(tournament)]
    ) == 1
    assert "no noisy cells" in capsys.readouterr().err


def test_tournament_empty_fails_with_clear_message(tmp_path):
    baseline = tmp_path / "baseline.json"
    tournament = tmp_path / "tournament.json"
    write_baseline(baseline, [BASELINE_POINT])
    tournament.write_text(json.dumps({"cells": []}))
    with pytest.raises(SystemExit) as excinfo:
        compare_bench.main([str(baseline), "--tournament", str(tournament)])
    assert "no cells" in str(excinfo.value)


# ----------------------------------------------------------------------
# The --faults gate (fault-layer structural invariants).
# ----------------------------------------------------------------------


def fault_row(mode, *, scenario="baseline_poisson", dispatcher="jsq",
              throughput=2.0, availability=1.0, completed=250,
              turnaround=12.5, lost_work=0.0, crashes=0, retried=0,
              abandoned=0, shed=0):
    if mode.startswith("mtbf="):
        fraction = float(mode[len("mtbf="):])
        mtbf, mttr = fraction * 100.0, 5.0
    else:
        mtbf = mttr = 0.0
    return {
        "scenario": scenario,
        "dispatcher": dispatcher,
        "mode": mode,
        "mtbf": mtbf,
        "mttr": mttr,
        "n_machines": 3,
        "n_jobs": 250,
        "throughput": throughput,
        "goodput": throughput - lost_work / 100.0,
        "mean_turnaround": turnaround,
        "availability": availability,
        "degraded_fraction": 0.0,
        "lost_work": lost_work,
        "crashes": crashes,
        "retried": retried,
        "abandoned": abandoned,
        "shed": shed,
        "completed": completed,
        "engine": "compiled",
    }


def healthy_fault_rows():
    rows = []
    for dispatcher in ("round_robin", "jsq"):
        rows.append(fault_row("none", dispatcher=dispatcher))
        rows.append(fault_row("zero", dispatcher=dispatcher))
        for fraction, avail in ((0.08, 0.70), (0.25, 0.85), (0.75, 0.95)):
            rows.append(fault_row(
                f"mtbf={fraction:g}", dispatcher=dispatcher,
                throughput=1.8, availability=avail, completed=240,
                lost_work=8.0, crashes=4, retried=6, abandoned=1,
            ))
    return rows


def write_faults(path: Path, rows: list[dict], *, wrap=False):
    payload = {"name": "fault_sweep", "rows": rows} if wrap else rows
    path.write_text(json.dumps(payload))


def test_faults_healthy_passes(tmp_path, capsys):
    baseline = tmp_path / "baseline.json"
    faults = tmp_path / "faults.json"
    write_baseline(baseline, [BASELINE_POINT])
    write_faults(faults, healthy_fault_rows())
    assert compare_bench.main(
        [str(baseline), "--faults", str(faults)]
    ) == 0
    assert "fault smoke ok" in capsys.readouterr().out


def test_faults_accepts_results_dir_wrapper(tmp_path):
    """The runner's --results-dir file nests the rows under "rows"."""
    baseline = tmp_path / "baseline.json"
    faults = tmp_path / "faults.json"
    write_baseline(baseline, [BASELINE_POINT])
    write_faults(faults, healthy_fault_rows(), wrap=True)
    assert compare_bench.main(
        [str(baseline), "--faults", str(faults)]
    ) == 0


def test_faults_zero_identity_drift_fails(tmp_path, capsys):
    """A "zero" row deviating from its "none" twin on any outcome
    column is an engine bug — the identity is structural."""
    baseline = tmp_path / "baseline.json"
    faults = tmp_path / "faults.json"
    write_baseline(baseline, [BASELINE_POINT])
    rows = healthy_fault_rows()
    for row in rows:
        if row["mode"] == "zero" and row["dispatcher"] == "jsq":
            row["throughput"] = 1.999999
    write_faults(faults, rows)
    assert compare_bench.main(
        [str(baseline), "--faults", str(faults)]
    ) == 1
    err = capsys.readouterr().err
    assert "bit-identical" in err
    assert "throughput" in err


def test_faults_zero_identity_counter_drift_fails(tmp_path, capsys):
    """Even a single spurious retry under a default FaultConfig breaks
    the identity — the counters are part of the contract."""
    baseline = tmp_path / "baseline.json"
    faults = tmp_path / "faults.json"
    write_baseline(baseline, [BASELINE_POINT])
    rows = healthy_fault_rows()
    for row in rows:
        if row["mode"] == "zero" and row["dispatcher"] == "round_robin":
            row["retried"] = 1
    write_faults(faults, rows)
    assert compare_bench.main(
        [str(baseline), "--faults", str(faults)]
    ) == 1
    assert "retried" in capsys.readouterr().err


def test_faults_nan_turnaround_matches_itself(tmp_path):
    """Saturated cells report turnaround as NaN on both sides of the
    identity; NaN != NaN must not produce a spurious failure."""
    baseline = tmp_path / "baseline.json"
    faults = tmp_path / "faults.json"
    write_baseline(baseline, [BASELINE_POINT])
    rows = healthy_fault_rows()
    for row in rows:
        if row["mode"] in ("none", "zero"):
            row["mean_turnaround"] = float("nan")
    write_faults(faults, rows)
    assert compare_bench.main(
        [str(baseline), "--faults", str(faults)]
    ) == 0


def test_faults_missing_control_row_fails(tmp_path, capsys):
    baseline = tmp_path / "baseline.json"
    faults = tmp_path / "faults.json"
    write_baseline(baseline, [BASELINE_POINT])
    rows = [r for r in healthy_fault_rows()
            if not (r["mode"] == "none" and r["dispatcher"] == "jsq")]
    write_faults(faults, rows)
    assert compare_bench.main(
        [str(baseline), "--faults", str(faults)]
    ) == 1
    assert "missing its 'none' and/or 'zero' control row" in (
        capsys.readouterr().err
    )


def test_faults_non_monotone_availability_fails(tmp_path, capsys):
    """Mean availability dropping as MTBF grows (beyond the slack)
    means the failure/repair processes are miscalibrated."""
    baseline = tmp_path / "baseline.json"
    faults = tmp_path / "faults.json"
    write_baseline(baseline, [BASELINE_POINT])
    rows = healthy_fault_rows()
    for row in rows:
        if row["mode"] == "mtbf=0.75":
            row["availability"] = 0.60
    write_faults(faults, rows)
    assert compare_bench.main(
        [str(baseline), "--faults", str(faults)]
    ) == 1
    assert "not monotone" in capsys.readouterr().err


def test_faults_slack_is_configurable(tmp_path):
    """A small availability dip inside the slack is stochastic wiggle,
    not a regression."""
    baseline = tmp_path / "baseline.json"
    faults = tmp_path / "faults.json"
    write_baseline(baseline, [BASELINE_POINT])
    rows = healthy_fault_rows()
    for row in rows:
        if row["mode"] == "mtbf=0.75":
            row["availability"] = 0.80  # 0.05 below the 0.25 point
    write_faults(faults, rows)
    assert compare_bench.main(
        [str(baseline), "--faults", str(faults)]
    ) == 1
    assert compare_bench.main(
        [str(baseline), "--faults", str(faults), "--faults-slack", "0.1"]
    ) == 0


def test_faults_single_grid_point_fails(tmp_path, capsys):
    """Monotonicity over one point is vacuous — the gate says so
    instead of silently passing."""
    baseline = tmp_path / "baseline.json"
    faults = tmp_path / "faults.json"
    write_baseline(baseline, [BASELINE_POINT])
    rows = [r for r in healthy_fault_rows()
            if r["mode"] in ("none", "zero", "mtbf=0.25")]
    write_faults(faults, rows)
    assert compare_bench.main(
        [str(baseline), "--faults", str(faults)]
    ) == 1
    assert "at least two MTBF grid points" in capsys.readouterr().err


def test_faults_empty_fails_with_clear_message(tmp_path):
    baseline = tmp_path / "baseline.json"
    faults = tmp_path / "faults.json"
    write_baseline(baseline, [BASELINE_POINT])
    faults.write_text(json.dumps([]))
    with pytest.raises(SystemExit) as excinfo:
        compare_bench.main([str(baseline), "--faults", str(faults)])
    assert "no rows" in str(excinfo.value)


def test_faults_composes_with_perf_gate(tmp_path):
    results = tmp_path / "results.json"
    baseline = tmp_path / "baseline.json"
    faults = tmp_path / "faults.json"
    write_results(
        results,
        {"saturated_demo": {"legacy": 1.0, "compiled": 0.1}},
    )
    write_baseline(baseline, [BASELINE_POINT])
    write_faults(faults, healthy_fault_rows())
    assert compare_bench.main(
        [str(results), str(baseline), "--faults", str(faults)]
    ) == 0


def test_tournament_composes_with_perf_gate(tmp_path):
    results = tmp_path / "results.json"
    baseline = tmp_path / "baseline.json"
    tournament = tmp_path / "tournament.json"
    write_results(
        results,
        {"saturated_demo": {"legacy": 1.0, "compiled": 0.1}},
    )
    write_baseline(baseline, [BASELINE_POINT])
    write_tournament(tournament, healthy_cells())
    assert compare_bench.main(
        [str(results), str(baseline), "--tournament", str(tournament)]
    ) == 0
