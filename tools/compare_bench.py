#!/usr/bin/env python
"""CI gate: fresh results against BENCH_CORE.json and the layer invariants.

Every check is one row of a table: label, measured value, comparator,
bound.  One loop evaluates and reports the rows; a row whose value or
bound is missing fails.  Four gates build rows from their input file.

``--hotpath FILE`` (``pytest benchmarks/bench_hotpath.py
--benchmark-json FILE``) checks each workload of the committed
trajectory's last point.  The production engine (``compiled``) is
calibrated by the reference engine (``legacy``) timed in the same run:

* ``completed``, ``legacy completed``: both engines complete exactly
  the committed job count, whatever the hardware.
* ``compiled_s``: at most ``TOLERANCE`` times the committed
  ``compiled_s``, scaled by the machine factor.  The factor is the
  observed legacy time over the committed ``legacy_s``, floored at 1
  and capped at ``MAX_MACHINE_FACTOR``, so a uniformly slower runner
  does not fail while an engine regression does.
* ``legacy_s``: at most ``TOLERANCE * MAX_MACHINE_FACTOR`` times the
  committed ``legacy_s``.  Drift past the factor cap is a regression
  in shared event-core code, not a slower machine; drift past
  ``TOLERANCE`` alone is flagged in the row's note.
* ``speedup``: the same-machine legacy/compiled ratio stays at least
  ``MIN_SPEEDUP``.

``--scale FILE`` (``benchmarks/bench_scale.py --json FILE``) checks
each case against the last point's ``scale`` block: the sharded over
monolithic wall ratio, the heap and RSS peaks under their ceilings,
and every job completed.  With two or more cases, the largest peak
heap over the smallest stays under ``max_heap_growth``: ten times the
jobs must not cost ten times the memory.

``--tournament FILE`` (``policy_tournament`` results) checks that
every zero-noise cell is bit-identical to its oracle twin (degradation
exactly 0.0, equal completions).  At the highest noise the mean
degradation stays at least ``-TOURNAMENT_SLACK``: the oracle is at
least as good as the estimates in aggregate.

``--faults FILE`` (``fault_sweep`` results) checks that every ``zero``
row equals its ``none`` twin on every outcome column, and that mean
availability across cells does not fall by more than ``FAULTS_SLACK``
from one MTBF grid point to the next.

Only ``--hotpath`` and ``--scale`` read ``--baseline``.  The bounds
are the constants below, the same in CI and on a laptop.

Usage::

    python tools/compare_bench.py --hotpath results/bench_hotpath.json
    python tools/compare_bench.py --scale results/bench_scale.json
    python tools/compare_bench.py --tournament results/policy_tournament.json
    python tools/compare_bench.py --faults results/fault_sweep.json
"""

from __future__ import annotations

import argparse
import json
import math
import operator
import sys
from pathlib import Path
from typing import NamedTuple

BASELINE = Path(__file__).resolve().parents[1] / "BENCH_CORE.json"

#: ``compiled_s`` may take this many times its committed baseline.
TOLERANCE = 2.0
#: Cap on the machine factor the legacy timings measure.
MAX_MACHINE_FACTOR = 2.0
#: Floor on the same-machine legacy/compiled speedup.
MIN_SPEEDUP = 1.3
#: How far the mean high-noise degradation may dip below zero.
TOURNAMENT_SLACK = 0.05
#: How far mean availability may dip between successive MTBF points.
FAULTS_SLACK = 0.02

#: Outcome columns a ``zero`` row must match on its ``none`` twin
#: exactly: everything except the mode label and the inactive
#: mtbf/mttr knobs.
FAULT_IDENTITY_FIELDS = (
    "throughput",
    "goodput",
    "mean_turnaround",
    "availability",
    "degraded_fraction",
    "lost_work",
    "crashes",
    "retried",
    "abandoned",
    "shed",
    "completed",
)


class Row(NamedTuple):
    """One check, ``value <op> bound``."""

    label: str
    value: object
    op: str
    bound: object
    note: str = ""


def _same(a: object, b: object) -> bool:
    """Exact equality with NaN equal to itself (saturated fault cells
    report turnaround as NaN on both sides of the identity)."""
    if isinstance(a, float) and isinstance(b, float):
        if math.isnan(a) and math.isnan(b):
            return True
    return a == b


COMPARATORS = {"<=": operator.le, ">=": operator.ge, "==": _same}


def load_json(path: Path) -> object:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise SystemExit(f"cannot read {path}: {exc}")


def hotpath_rows(payload: dict, point: dict) -> list[Row]:
    measured: dict[str, dict[str, dict]] = {}
    for bench in payload.get("benchmarks", []):
        name = bench.get("name", "")
        if "[" not in name or not name.endswith("]"):
            continue
        workload = name[name.index("[") + 1 : -1]
        prefix = name.split("[")[0]
        for engine in ("legacy", "compiled"):
            if engine in prefix:
                measured.setdefault(workload, {})[engine] = {
                    "s": bench["stats"]["min"],
                    "completed": bench.get("extra_info", {}).get(
                        "completed"
                    ),
                }

    committed = point.get("benchmarks") or {}
    rows = [Row("hotpath workloads", len(measured), ">=", 1)]
    for workload in sorted(set(measured) | set(committed)):
        label = f"hotpath[{workload}]"
        base = committed.get(workload, {})
        compiled = measured.get(workload, {}).get("compiled", {})
        legacy = measured.get(workload, {}).get("legacy")
        rows.append(
            Row(f"{label} completed", compiled.get("completed"), "==",
                base.get("completed"))
        )
        factor = 1.0
        if legacy is not None:
            rows.append(
                Row(f"{label} legacy completed", legacy["completed"], "==",
                    base.get("completed"))
            )
            if compiled:
                rows.append(
                    Row(f"{label} speedup", legacy["s"] / compiled["s"],
                        ">=", MIN_SPEEDUP)
                )
            if base.get("legacy_s"):
                drift = legacy["s"] / base["legacy_s"]
                factor = min(max(1.0, drift), MAX_MACHINE_FACTOR)
                note = f"x{drift:.2f} the committed {base['legacy_s']}s"
                if drift > TOLERANCE:
                    note += (": a slow machine, or shared event-core "
                             "code regressed")
                rows.append(
                    Row(f"{label} legacy_s", legacy["s"], "<=",
                        base["legacy_s"] * TOLERANCE * MAX_MACHINE_FACTOR,
                        note)
                )
        if base.get("compiled_s"):
            budget = base["compiled_s"] * TOLERANCE * factor
            note = (f"{TOLERANCE}x the committed {base['compiled_s']}s, "
                    f"machine factor {factor:.2f}")
        else:
            budget = None
            note = ("no committed compiled_s" if base
                    else "not in the committed trajectory")
        rows.append(Row(f"{label} compiled_s", compiled.get("s"), "<=",
                        budget, note))
    return rows


def scale_rows(payload: dict, point: dict) -> list[Row]:
    bounds = point.get("scale") or {}
    cases = payload.get("cases") or []
    rows = [Row("scale cases", len(cases), ">=", 1)]
    for case in cases:
        label = f"scale[{case['n_jobs']:,} jobs]"
        rows += [
            Row(f"{label} shard overhead", case["sharded_s"] / case["wall_s"],
                "<=", bounds.get("max_shard_overhead")),
            Row(f"{label} heap peak MB", case["tracemalloc_peak_mb"], "<=",
                bounds.get("tracemalloc_ceiling_mb")),
            Row(f"{label} rss peak MB", case["peak_rss_mb"], "<=",
                bounds.get("rss_ceiling_mb")),
            Row(f"{label} completed", case["completed"], "==",
                case["n_jobs"]),
        ]
    if len(cases) > 1:
        peaks = [c["tracemalloc_peak_mb"] for c in cases]
        jobs = [c["n_jobs"] for c in cases]
        rows.append(
            Row("scale[flatness] heap growth", max(peaks) / min(peaks), "<=",
                bounds.get("max_heap_growth"),
                f"over {max(jobs) / min(jobs):.0f}x the jobs")
        )
    return rows


def tournament_rows(payload: dict, point: dict) -> list[Row]:
    payload = payload.get("rows", payload)
    cells = payload.get("cells") if isinstance(payload, dict) else None
    cells = cells or []
    zero = [c for c in cells if c["noise"] == 0.0]
    deviating = [
        c
        for c in zero
        if not (c["tp_degradation"] == 0.0
                and c["est_completed"] == c["oracle_completed"])
    ]
    noisy = [c for c in cells if c["noise"] > 0.0]
    rows = [
        Row("tournament cells", len(cells), ">=", 1),
        Row("tournament[noise=0] control cells", len(zero), ">=", 1),
        Row("tournament[noise=0] cells deviating from oracle",
            len(deviating), "==", 0,
            "; ".join(
                f"{c['policy']}/{c['scenario']} rep {c['rep']}: degradation "
                f"{c['tp_degradation']!r}, completed {c['est_completed']} "
                f"vs {c['oracle_completed']}"
                for c in deviating[:5]
            )),
        Row("tournament noisy cells", len(noisy), ">=", 1),
    ]
    if noisy:
        high = max(c["noise"] for c in noisy)
        at_high = [c["tp_degradation"] for c in noisy if c["noise"] == high]
        rows.append(
            Row(f"tournament[noise={high:g}] mean degradation",
                sum(at_high) / len(at_high), ">=", -TOURNAMENT_SLACK,
                f"over {len(at_high)} cells; below the bound the "
                "estimates beat the oracle")
        )
    return rows


def fault_rows(payload: object, point: dict) -> list[Row]:
    if isinstance(payload, dict):
        payload = payload.get("rows", payload)
    rows_in = payload if isinstance(payload, list) else []
    cells: dict[tuple[str, str], dict[str, dict]] = {}
    availability: dict[float, list[float]] = {}
    for row in rows_in:
        cell = cells.setdefault((row["scenario"], row["dispatcher"]), {})
        cell[row["mode"]] = row
        if row["mode"].startswith("mtbf="):
            fraction = float(row["mode"][len("mtbf="):])
            availability.setdefault(fraction, []).append(row["availability"])

    incomplete, diverging = [], []
    for (scenario, dispatcher), modes in sorted(cells.items()):
        if "none" not in modes or "zero" not in modes:
            incomplete.append(f"{scenario}/{dispatcher}")
            continue
        none, zero = modes["none"], modes["zero"]
        fields = [
            f for f in FAULT_IDENTITY_FIELDS if not _same(none[f], zero[f])
        ]
        if fields:
            diverging.append(f"{scenario}/{dispatcher} " + ", ".join(
                f"{f} none={none[f]!r} zero={zero[f]!r}" for f in fields[:3]
            ))

    fractions = sorted(availability)
    means = [sum(availability[f]) / len(availability[f]) for f in fractions]
    rows = [
        Row("faults rows", len(rows_in), ">=", 1),
        Row("faults[controls] cells missing a none/zero row",
            len(incomplete), "==", 0, ", ".join(incomplete)),
        Row("faults[zero identity] cells diverging from none",
            len(diverging), "==", 0,
            "; ".join(diverging)
            or f"{len(cells) - len(incomplete)} cells checked"),
        Row("faults[availability] MTBF grid points", len(fractions), ">=", 2),
    ]
    if len(means) > 1:
        steps = [later - earlier for earlier, later in zip(means, means[1:])]
        worst = math.nan if any(map(math.isnan, steps)) else min(steps)
        rows.append(
            Row("faults[availability] worst step up the MTBF grid", worst,
                ">=", -FAULTS_SLACK,
                "  ".join(
                    f"mtbf={f:g}: {m:.3f}" for f, m in zip(fractions, means)
                ))
        )
    return rows


#: option -> (row builder, reads --baseline, verdict title)
GATES = {
    "hotpath": (hotpath_rows, True, "perf smoke"),
    "scale": (scale_rows, True, "scale smoke"),
    "tournament": (tournament_rows, False, "tournament sanity"),
    "faults": (fault_rows, False, "fault smoke"),
}


def _fmt(x: object) -> str:
    if x is None:
        return "missing"
    return f"{x:.4g}" if isinstance(x, float) else str(x)


def report(rows: list[Row], title: str) -> bool:
    """Print every row with its verdict; True when all hold."""
    failed = []
    for row in rows:
        ok = (row.value is not None and row.bound is not None
              and COMPARATORS[row.op](row.value, row.bound))
        line = f"{row.label}: {_fmt(row.value)} {row.op} {_fmt(row.bound)}"
        if row.note:
            line += f" ({row.note})"
        print(f"{line}   {'ok' if ok else 'REGRESSED'}")
        if not ok:
            failed.append(line)
    for line in failed:
        print(f"FAIL: {line}", file=sys.stderr)
    if failed:
        print(f"{title} FAILED", file=sys.stderr)
    else:
        print(f"{title} ok ({len(rows)} checks)")
    return not failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    for name in GATES:
        parser.add_argument(f"--{name}", type=Path, metavar="FILE")
    parser.add_argument(
        "--baseline",
        type=Path,
        default=BASELINE,
        help="committed trajectory for --hotpath and --scale "
        "(default: %(default)s)",
    )
    args = parser.parse_args(argv)
    chosen = [name for name in GATES if getattr(args, name) is not None]
    if not chosen:
        parser.error("nothing to gate: give --hotpath, --scale, "
                     "--tournament and/or --faults")

    point: dict = {}
    if any(GATES[name][1] for name in chosen):
        point = (load_json(args.baseline).get("trajectory") or [{}])[-1]
    passed = True
    for name in chosen:
        build, _, title = GATES[name]
        rows = build(load_json(getattr(args, name)), point)
        passed = report(rows, title) and passed
    return 0 if passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
