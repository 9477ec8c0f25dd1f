#!/usr/bin/env python
"""CI perf-smoke gate: fresh hot-path timings vs the committed baseline.

Reads a pytest-benchmark ``--benchmark-json`` results file (from
``benchmarks/bench_hotpath.py``) and the committed ``BENCH_CORE.json``
trajectory, and applies two checks per workload to the production
engine (``engine="compiled"``), calibrated by the reference engine
(``engine="legacy"``) timed in the same run:

* **speedup** — the fresh, same-machine legacy vs compiled ratio (both
  measured in this run) must stay above ``--min-speedup``.  This is
  hardware-independent: a slow CI runner is slow on both engines.
* **absolute** — the compiled time must stay under ``--tolerance``
  times its committed ``compiled_s`` baseline, *scaled by the machine
  factor* (observed legacy time over committed ``legacy_s``, floored
  at 1 and capped at ``--max-machine-factor``), so a runner that is
  uniformly slower than the baseline machine does not fail spuriously
  while a genuine compiled-engine regression still does.

The factor cap bounds the gate's blind spot for regressions to
*shared* event-core code (which slow both engines and inflate the
factor with them): legacy drift beyond ``tolerance`` prints a loud
warning, and drift beyond ``tolerance * max_machine_factor`` is a
hard failure.  Without pinned CI hardware the window between those
two is irreducible — absolute timing cannot distinguish "uniformly
slower machine" from "uniformly slower code" — but engine-specific
regressions are caught at any machine speed by the budget check and
the speedup floor.  Trajectory points recorded before the interned
"fast" loop was removed keep their ``fast_s`` entries; the gate
reads them no more.

Both tolerances are deliberately generous: only a wholesale regression
— the kind the engine rewrites exist to prevent — should trip them.

With ``--scale`` the gate additionally (or instead — the positional
results file is optional) checks a ``benchmarks/bench_scale.py --json``
payload against the committed trajectory point's ``scale`` block
(perf point 2):

* **shard overhead** — ``sharded_s / wall_s`` per case must stay under
  the committed ``max_shard_overhead``.  Like the speedup floor this
  is a same-machine ratio, so it is hardware-independent.
* **memory ceilings** — each case's ``tracemalloc_peak_mb`` and
  ``peak_rss_mb`` must stay under the committed ceilings.  Peak memory
  is a property of the code, not the machine speed, so these are
  absolute.
* **flatness** — with two or more cases, the largest case's peak heap
  over the smallest case's must stay under ``max_heap_growth``: the
  streaming-metrics contract that 10x the jobs must not cost 10x the
  memory.
* **completion** — every case must complete exactly its ``n_jobs``
  (a silently truncated run would make every other number meaningless).

With ``--tournament`` the gate additionally (or instead) checks a
``policy_tournament`` experiment result file (the ``--results-dir``
payload or its raw ``rows``) for the estimation layer's two
sanity invariants:

* **zero-noise identity** — every ``noise == 0`` cell must show
  exactly zero throughput degradation and identical completion
  counts: the estimator's warm-prior control is pinned bit-identical
  to the oracle, so any deviation is an estimation-stack bug, not
  statistics.
* **price of information** — at the highest swept noise level the
  *mean* paired throughput degradation must stay above
  ``-(--tournament-slack)``: the oracle must be at least as good as
  the estimates in aggregate.  The slack absorbs the paired-noise
  wobble of small samples (a lucky estimated run can beat its oracle
  twin on a finite stream); a systematic inversion — estimates
  reliably *beating* the truth — means the oracle plumbing is broken.

With ``--faults`` the gate additionally (or instead) checks a
``fault_sweep`` experiment result file (the ``--results-dir`` payload
or its raw rows) for the fault layer's two structural invariants:

* **zero-fault identity** — every ``zero`` mode row (a default
  ``FaultConfig`` routed through the fault-aware code path) must be
  exactly equal to its ``none`` mode twin (``faults=None``, the
  historical engine) on every outcome column: throughput, turnaround,
  completions, and all fault counters at their quiescent values.  The
  identity is structural — the fault runtime draws nothing and gates
  nothing when no fault process is configured — so any deviation is
  an engine bug, not noise.
* **availability monotone in MTBF** — the *mean* availability across
  cells at each swept MTBF fraction must be non-decreasing in MTBF
  within ``--faults-slack``: machines that fail less often are up
  more (``availability ~ mtbf / (mtbf + mttr)`` with MTTR fixed).
  The mean across cells (not per-cell ordering) keeps the check
  robust to a single lucky/unlucky failure draw.

Usage::

    python tools/compare_bench.py results/bench_hotpath.json \
        BENCH_CORE.json --tolerance 2.0 --min-speedup 1.3
    python tools/compare_bench.py BENCH_CORE.json \
        --scale results/bench_scale.json
    python tools/compare_bench.py BENCH_CORE.json \
        --tournament results/policy_tournament.json
    python tools/compare_bench.py BENCH_CORE.json \
        --faults results/fault_sweep.json
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path


def parse_results(path: Path) -> dict[str, dict[str, float]]:
    """``{workload: {"legacy"|"compiled": min_s}}`` from the
    pytest-benchmark JSON (either engine's entry may be absent)."""
    out: dict[str, dict[str, float]] = {}
    for bench in json.loads(path.read_text()).get("benchmarks", []):
        name = bench.get("name", "")
        if "[" not in name or not name.endswith("]"):
            continue
        workload = name[name.index("[") + 1 : -1]
        prefix = name.split("[")[0]
        for mode in ("legacy", "compiled"):
            if mode in prefix:
                out.setdefault(workload, {})[mode] = bench["stats"]["min"]
    return out


def latest_benchmarks(baseline_path: Path) -> dict[str, dict]:
    """The most recent trajectory point's per-workload baselines, with
    a clear diagnostic (not a KeyError/IndexError) when the committed
    file has no usable point."""
    try:
        payload = json.loads(baseline_path.read_text())
    except (OSError, ValueError) as exc:
        raise SystemExit(f"cannot read baseline {baseline_path}: {exc}")
    trajectory = payload.get("trajectory") or []
    if not trajectory:
        raise SystemExit(
            f"baseline {baseline_path} has an empty trajectory — "
            "nothing to compare; refresh it with "
            "tools/profile_hotpaths.py --json"
        )
    benchmarks = trajectory[-1].get("benchmarks")
    if not benchmarks:
        raise SystemExit(
            f"baseline {baseline_path} trajectory point "
            f"{trajectory[-1].get('point')} records no benchmarks — "
            "refresh it with tools/profile_hotpaths.py --json"
        )
    return benchmarks


def latest_scale(baseline_path: Path) -> dict:
    """The most recent trajectory point's ``scale`` block (committed
    shard-overhead bound, memory ceilings, and reference cases)."""
    try:
        payload = json.loads(baseline_path.read_text())
    except (OSError, ValueError) as exc:
        raise SystemExit(f"cannot read baseline {baseline_path}: {exc}")
    trajectory = payload.get("trajectory") or []
    if not trajectory:
        raise SystemExit(
            f"baseline {baseline_path} has an empty trajectory — "
            "nothing to compare"
        )
    scale = trajectory[-1].get("scale")
    if not scale:
        raise SystemExit(
            f"baseline {baseline_path} trajectory point "
            f"{trajectory[-1].get('point')} records no scale block — "
            "refresh it with benchmarks/bench_scale.py --json"
        )
    return scale


def check_scale(scale_path: Path, baseline_path: Path) -> list[str]:
    """Scale-out gate; returns failure descriptions (empty = pass)."""
    committed = latest_scale(baseline_path)
    try:
        cases = json.loads(scale_path.read_text()).get("cases") or []
    except (OSError, ValueError) as exc:
        raise SystemExit(f"cannot read scale results {scale_path}: {exc}")
    if not cases:
        raise SystemExit(f"scale results {scale_path} contain no cases")

    max_overhead = committed["max_shard_overhead"]
    heap_ceiling = committed["tracemalloc_ceiling_mb"]
    rss_ceiling = committed["rss_ceiling_mb"]
    failures: list[str] = []
    for case in cases:
        n_jobs = case["n_jobs"]
        label = f"scale[{n_jobs:,} jobs]"
        overhead = case["sharded_s"] / case["wall_s"]
        checks = [
            (
                overhead <= max_overhead,
                f"shard overhead x{overhead:.2f} (max x{max_overhead})",
            ),
            (
                case["tracemalloc_peak_mb"] <= heap_ceiling,
                f"heap peak {case['tracemalloc_peak_mb']:.1f} MB "
                f"(ceiling {heap_ceiling} MB)",
            ),
            (
                case["peak_rss_mb"] <= rss_ceiling,
                f"rss peak {case['peak_rss_mb']:.1f} MB "
                f"(ceiling {rss_ceiling} MB)",
            ),
            (
                case["completed"] == n_jobs,
                f"completed {case['completed']:,}/{n_jobs:,}",
            ),
        ]
        bad = [text for ok, text in checks if not ok]
        verdict = "ok" if not bad else "REGRESSED"
        detail = "   ".join(text for _, text in checks)
        print(f"{label:26s} {detail}   {verdict}")
        failures.extend(f"{label}: {text}" for text in bad)

    if len(cases) > 1:
        max_growth = committed["max_heap_growth"]
        peaks = [c["tracemalloc_peak_mb"] for c in cases]
        jobs = [c["n_jobs"] for c in cases]
        growth = max(peaks) / min(peaks)
        jobs_growth = max(jobs) / min(jobs)
        flat = growth <= max_growth
        print(
            f"{'scale[flatness]':26s} {jobs_growth:.0f}x the jobs cost "
            f"{growth:.2f}x the peak heap (max {max_growth}x)   "
            f"{'ok' if flat else 'REGRESSED'}"
        )
        if not flat:
            failures.append(
                f"scale[flatness]: heap grew {growth:.2f}x over a "
                f"{jobs_growth:.0f}x job range (max {max_growth}x)"
            )
    return failures


def check_tournament(
    tournament_path: Path,
    *,
    zero_tol: float = 1e-9,
    slack: float = 0.05,
) -> list[str]:
    """Tournament gate; returns failure descriptions (empty = pass).

    Accepts either the ``--results-dir`` wrapper written by
    ``python -m repro.experiments policy_tournament`` or the raw
    payload (its ``rows``).
    """
    try:
        data = json.loads(tournament_path.read_text())
    except (OSError, ValueError) as exc:
        raise SystemExit(
            f"cannot read tournament results {tournament_path}: {exc}"
        )
    payload = data.get("rows", data)
    cells = payload.get("cells") if isinstance(payload, dict) else None
    if not cells:
        raise SystemExit(
            f"tournament results {tournament_path} contain no cells"
        )
    noise_levels = sorted({c["noise"] for c in cells})

    failures: list[str] = []

    zero_cells = [c for c in cells if c["noise"] == 0.0]
    if not zero_cells:
        failures.append("no zero-noise control cells in the tournament")
    bad_zero = [
        c
        for c in zero_cells
        if abs(c["tp_degradation"]) > zero_tol
        or c["est_completed"] != c["oracle_completed"]
    ]
    verdict = "ok" if not (bad_zero or not zero_cells) else "REGRESSED"
    print(
        f"{'tournament[noise=0]':26s} {len(zero_cells)} control cells, "
        f"{len(bad_zero)} deviate from oracle (tol {zero_tol:g})   "
        f"{verdict}"
    )
    for c in bad_zero[:5]:
        failures.append(
            f"tournament[noise=0]: {c['policy']}/{c['scenario']} "
            f"rep {c['rep']} deviates from its oracle twin "
            f"(degradation {c['tp_degradation']:.3e}, completed "
            f"{c['est_completed']} vs {c['oracle_completed']}) — "
            "zero-noise estimated runs must be bit-identical"
        )
    if len(bad_zero) > 5:
        failures.append(
            f"tournament[noise=0]: ... and {len(bad_zero) - 5} more "
            "deviating cells"
        )

    high = max(noise_levels)
    if high <= 0.0:
        failures.append(
            "tournament has no noisy cells — the price-of-information "
            "check needs at least one noise level > 0"
        )
    else:
        noisy = [
            c["tp_degradation"] for c in cells if c["noise"] == high
        ]
        mean = sum(noisy) / len(noisy)
        ok = mean >= -slack
        print(
            f"{'tournament[high noise]':26s} noise {high:g}: mean TP "
            f"degradation {mean:+.2%} over {len(noisy)} cells "
            f"(floor {-slack:+.0%})   {'ok' if ok else 'REGRESSED'}"
        )
        if not ok:
            failures.append(
                f"tournament[high noise]: estimates beat the oracle by "
                f"{-mean:.2%} on average at noise {high:g} (slack "
                f"{slack:.0%}) — the oracle side of the pairing is "
                "broken"
            )
    return failures


#: Outcome columns a ``zero`` row must match on its ``none`` twin
#: exactly.  Everything except the mode label and the (inactive)
#: mtbf/mttr knobs — the zero-fault identity is bit-level.
_FAULT_IDENTITY_FIELDS = (
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


def _fault_values_equal(a: object, b: object) -> bool:
    """Exact equality, treating NaN == NaN (saturated cells report
    turnaround as NaN on both sides of the identity)."""
    if (
        isinstance(a, float)
        and isinstance(b, float)
        and math.isnan(a)
        and math.isnan(b)
    ):
        return True
    return a == b


def check_faults(
    faults_path: Path, *, slack: float = 0.02
) -> list[str]:
    """Fault-sweep gate; returns failure descriptions (empty = pass).

    Accepts either the ``--results-dir`` wrapper written by
    ``python -m repro.experiments fault_sweep`` or the raw payload
    (its ``rows`` — a list of ``FaultOutcome`` dicts).
    """
    try:
        data = json.loads(faults_path.read_text())
    except (OSError, ValueError) as exc:
        raise SystemExit(
            f"cannot read fault results {faults_path}: {exc}"
        )
    rows = data.get("rows", data) if isinstance(data, dict) else data
    if not isinstance(rows, list) or not rows:
        raise SystemExit(f"fault results {faults_path} contain no rows")

    failures: list[str] = []

    # Zero-fault identity: every cell's "zero" row == its "none" twin.
    by_cell: dict[tuple[str, str], dict[str, dict]] = {}
    for row in rows:
        cell = by_cell.setdefault(
            (row["scenario"], row["dispatcher"]), {}
        )
        cell[row["mode"]] = row
    checked = 0
    bad_cells: list[str] = []
    for (scenario, dispatcher), modes in sorted(by_cell.items()):
        none_row = modes.get("none")
        zero_row = modes.get("zero")
        if none_row is None or zero_row is None:
            failures.append(
                f"faults[identity]: cell {scenario}/{dispatcher} is "
                "missing its 'none' and/or 'zero' control row"
            )
            continue
        checked += 1
        mismatched = [
            field
            for field in _FAULT_IDENTITY_FIELDS
            if not _fault_values_equal(none_row[field], zero_row[field])
        ]
        if mismatched:
            bad_cells.append(f"{scenario}/{dispatcher}")
            for field in mismatched[:3]:
                failures.append(
                    f"faults[identity]: {scenario}/{dispatcher} "
                    f"{field} diverges — none={none_row[field]!r} vs "
                    f"zero={zero_row[field]!r}; a default FaultConfig "
                    "must be bit-identical to the fault-free engine"
                )
    verdict = "ok" if not (bad_cells or not checked) else "REGRESSED"
    print(
        f"{'faults[zero identity]':26s} {checked} cells, "
        f"{len(bad_cells)} deviate from the fault-free engine   "
        f"{verdict}"
    )
    if checked == 0:
        failures.append(
            "faults[identity]: no cells had both control rows — "
            "nothing to gate"
        )

    # Availability law: mean availability across cells must be
    # monotone non-decreasing in the MTBF fraction (MTTR is fixed).
    by_fraction: dict[float, list[float]] = {}
    for row in rows:
        mode = row["mode"]
        if isinstance(mode, str) and mode.startswith("mtbf="):
            by_fraction.setdefault(
                float(mode[len("mtbf="):]), []
            ).append(row["availability"])
    if len(by_fraction) < 2:
        failures.append(
            "faults[monotone]: need at least two MTBF grid points to "
            f"check monotonicity, found {len(by_fraction)}"
        )
    else:
        fractions = sorted(by_fraction)
        means = [
            sum(by_fraction[f]) / len(by_fraction[f]) for f in fractions
        ]
        monotone = all(
            later >= earlier - slack
            for earlier, later in zip(means, means[1:])
        )
        trend = "  ".join(
            f"mtbf={f:g}: {m:.3f}" for f, m in zip(fractions, means)
        )
        print(
            f"{'faults[availability]':26s} {trend} "
            f"(slack {slack:g})   {'ok' if monotone else 'REGRESSED'}"
        )
        if not monotone:
            failures.append(
                f"faults[monotone]: mean availability is not monotone "
                f"in MTBF ({trend}) — machines failing less often must "
                "not be down more; the failure/repair processes are "
                "miscalibrated"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "results",
        type=Path,
        nargs="?",
        default=None,
        help="pytest-benchmark JSON (optional with --scale)",
    )
    parser.add_argument("baseline", type=Path, help="BENCH_CORE.json")
    parser.add_argument("--tolerance", type=float, default=2.0)
    parser.add_argument("--min-speedup", type=float, default=1.3)
    parser.add_argument("--max-machine-factor", type=float, default=2.0)
    parser.add_argument(
        "--scale",
        type=Path,
        default=None,
        metavar="FILE",
        help="bench_scale.py --json payload to gate against the "
        "committed scale block",
    )
    parser.add_argument(
        "--tournament",
        type=Path,
        default=None,
        metavar="FILE",
        help="policy_tournament result JSON to sanity-gate (zero-noise "
        "identity, oracle >= estimates at high noise)",
    )
    parser.add_argument(
        "--tournament-slack",
        type=float,
        default=0.05,
        metavar="FRAC",
        help="how far the mean high-noise degradation may dip below "
        "zero before the gate fails (default: %(default)s)",
    )
    parser.add_argument(
        "--faults",
        type=Path,
        default=None,
        metavar="FILE",
        help="fault_sweep result JSON to sanity-gate (zero-fault "
        "bit-identity, availability monotone in MTBF)",
    )
    parser.add_argument(
        "--faults-slack",
        type=float,
        default=0.02,
        metavar="FRAC",
        help="how far mean availability may dip between successive "
        "MTBF grid points before the monotonicity gate fails "
        "(default: %(default)s)",
    )
    args = parser.parse_args(argv)

    extra_gates = (args.scale, args.tournament, args.faults)
    if args.results is None and all(g is None for g in extra_gates):
        parser.error("nothing to compare: give a results file, --scale, "
                     "--tournament, --faults, or any combination")

    if args.faults is not None:
        fault_failures = check_faults(args.faults, slack=args.faults_slack)
        if fault_failures:
            for failure in fault_failures:
                print(f"FAIL: {failure}", file=sys.stderr)
            print("fault smoke FAILED", file=sys.stderr)
            return 1
        print("fault smoke ok")
        if args.results is None and args.scale is None and args.tournament is None:
            return 0

    if args.tournament is not None:
        tournament_failures = check_tournament(
            args.tournament, slack=args.tournament_slack
        )
        if tournament_failures:
            for failure in tournament_failures:
                print(f"FAIL: {failure}", file=sys.stderr)
            print("tournament sanity FAILED", file=sys.stderr)
            return 1
        print("tournament sanity ok")
        if args.results is None and args.scale is None:
            return 0

    if args.scale is not None:
        scale_failures = check_scale(args.scale, args.baseline)
        if scale_failures:
            for failure in scale_failures:
                print(f"FAIL: {failure}", file=sys.stderr)
            print("scale smoke FAILED", file=sys.stderr)
            return 1
        print("scale smoke ok")
        if args.results is None:
            return 0

    measured = parse_results(args.results)
    committed = latest_benchmarks(args.baseline)

    unknown = sorted(set(measured) - set(committed))
    if unknown:
        # A benchmark the trajectory has never seen is a half-landed
        # change (new workload without a refreshed baseline): say so
        # instead of silently skipping it.
        print(
            f"benchmark name(s) missing from the committed trajectory: "
            f"{', '.join(unknown)} — refresh {args.baseline} with "
            "tools/profile_hotpaths.py --json",
            file=sys.stderr,
        )
        return 1

    failures = []
    compared = 0
    for workload, baseline in sorted(committed.items()):
        if "compiled_s" not in baseline:
            print(
                f"{workload:34s} baseline entry has no compiled_s — "
                f"refresh {args.baseline}",
                file=sys.stderr,
            )
            failures.append(workload)
            continue
        modes = measured.get(workload)
        if modes is None or "compiled" not in modes:
            print(f"{workload:34s} missing from results", file=sys.stderr)
            failures.append(workload)
            continue
        compared += 1
        compiled = modes["compiled"]
        legacy = modes.get("legacy")

        factor = 1.0
        drift_ok = True
        if legacy is not None and baseline.get("legacy_s"):
            drift = legacy / baseline["legacy_s"]
            factor = min(max(1.0, drift), args.max_machine_factor)
            if drift > args.tolerance * args.max_machine_factor:
                drift_ok = False
                print(
                    f"FAIL: {workload} legacy engine ran {drift:.2f}x its "
                    f"committed {baseline['legacy_s']:.4f}s — beyond any "
                    "plausible machine difference; shared event-core "
                    "code has regressed"
                )
            elif drift > args.tolerance:
                print(
                    f"WARNING: {workload} legacy engine ran {drift:.2f}x "
                    f"its committed {baseline['legacy_s']:.4f}s — slow "
                    "machine, or a regression to shared event-core code"
                )
        budget = baseline["compiled_s"] * args.tolerance * factor
        absolute_ok = compiled <= budget and drift_ok

        speedup = legacy / compiled if legacy is not None else None
        speedup_ok = speedup is None or speedup >= args.min_speedup

        ok = absolute_ok and speedup_ok
        verdict = "ok" if ok else "REGRESSED"
        speedup_text = (
            f"speedup {speedup:5.2f}x (floor {args.min_speedup}x)"
            if speedup is not None
            else "speedup n/a"
        )
        print(
            f"{workload:34s} compiled {compiled:8.4f}s   budget "
            f"{budget:8.4f}s ({args.tolerance}x of "
            f"{baseline['compiled_s']:.4f}s, machine factor "
            f"{factor:.2f})   {speedup_text}   {verdict}"
        )
        if not ok:
            failures.append(workload)

    if compared == 0:
        print("no hot-path benchmarks found in results", file=sys.stderr)
        return 1
    if failures:
        print(
            f"perf smoke FAILED for: {', '.join(failures)}", file=sys.stderr
        )
        return 1
    print(f"perf smoke ok ({compared} workloads within tolerance)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
