#!/usr/bin/env python
"""Profile the event-core hot paths on both engines.

For each workload in :data:`repro.queueing.hotpath.HOTPATH_WORKLOADS`
this tool times (and cProfiles) the two engines —

* **legacy** (``engine="legacy"``): the string-keyed reference engine,
  kept bit-identical in-tree, so "before" stays measurable on today's
  hardware instead of living only in an old commit;
* **compiled** (``engine="compiled"``): the production engine —
  count-vector state, event fusion, machine batching, and filtered,
  memoized probe resolution —

and prints the top stacks of each (so you can *see* the sort/dict
churn leave the profile) plus a speedup table.  ``--json`` writes the
measurements in the ``BENCH_CORE.json`` trajectory format; refresh
the committed baseline with::

    PYTHONPATH=src python tools/profile_hotpaths.py --json BENCH_CORE.json

Usage::

    PYTHONPATH=src python tools/profile_hotpaths.py [--workload NAME]
        [--top N] [--repeats N] [--json PATH] [--note TEXT]
"""

from __future__ import annotations

import argparse
import cProfile
import io
import json
import pstats
import sys
from datetime import date
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.queueing.cluster import ENGINES  # noqa: E402
from repro.queueing.hotpath import HOTPATH_WORKLOADS, measure  # noqa: E402


def top_stacks(workload: str, *, engine: str, top: int) -> str:
    """Top-``top`` functions by internal time for one engine."""
    runner = HOTPATH_WORKLOADS[workload]
    profiler = cProfile.Profile()
    profiler.enable()
    runner(engine=engine)
    profiler.disable()
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.sort_stats("tottime").print_stats(top)
    lines = buffer.getvalue().splitlines()
    try:
        start = next(i for i, l in enumerate(lines) if "ncalls" in l)
    except StopIteration:
        return buffer.getvalue()
    return "\n".join(lines[start : start + top + 1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        choices=sorted(HOTPATH_WORKLOADS),
        action="append",
        help="workload(s) to profile (default: all)",
    )
    parser.add_argument("--top", type=int, default=10)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--json",
        type=Path,
        help="write a BENCH_CORE.json-format trajectory to this path",
    )
    parser.add_argument(
        "--note",
        default="count-vector compiled engine (fusion + batching + "
        "filtered probes)",
        help="trajectory-point annotation for --json",
    )
    args = parser.parse_args(argv)
    workloads = args.workload or sorted(HOTPATH_WORKLOADS)

    results: dict[str, dict[str, object]] = {}
    for workload in workloads:
        timed = {
            engine: measure(workload, engine=engine, repeats=args.repeats)
            for engine in ENGINES
        }
        completions = {
            engine: run["completed"] for engine, run in timed.items()
        }
        if len(set(completions.values())) != 1:
            raise SystemExit(
                f"{workload}: engines completed different job counts "
                f"({completions}) — the engines diverged; run the "
                "differential property tests"
            )
        legacy, compiled = timed["legacy"], timed["compiled"]
        speedup = legacy["seconds"] / compiled["seconds"]
        stats = dict(compiled["memo_stats"] or {})
        engine_stats = stats.pop("engine", None)
        results[workload] = {
            "legacy_s": round(legacy["seconds"], 4),
            "compiled_s": round(compiled["seconds"], 4),
            "speedup": round(speedup, 2),
            "completed": compiled["completed"],
            "memo_stats": stats,
            "engine_stats": engine_stats,
        }

        print(f"== {workload} ==")
        print(
            f"legacy {legacy['seconds']:.4f}s   compiled "
            f"{compiled['seconds']:.4f}s ({speedup:.2f}x)   "
            f"({compiled['completed']} completions)"
        )
        print(f"memo stats (compiled): {stats}")
        print(f"engine stats (compiled): {engine_stats}")
        for engine in ENGINES:
            print(f"\n-- top stacks, {engine} engine --")
            print(top_stacks(workload, engine=engine, top=args.top))
        print()

    print("== summary ==")
    for workload, entry in results.items():
        print(
            f"{workload:34s} {entry['legacy_s']:>8.4f}s -> "
            f"{entry['compiled_s']:>8.4f}s ({entry['speedup']:.2f}x)"
        )

    if args.json:
        payload = {
            "version": 1,
            "workloads": "repro.queueing.hotpath.HOTPATH_WORKLOADS",
            "units": "wall-clock seconds, best of --repeats",
            "trajectory": [
                {
                    "point": 0,
                    "recorded": date.today().isoformat(),
                    "note": args.note,
                    "benchmarks": results,
                }
            ],
        }
        existing = None
        if args.json.exists():
            # The trajectory is committed perf history that CI gates
            # on — never silently replace a file we cannot parse.
            try:
                existing = json.loads(args.json.read_text())
            except (OSError, ValueError) as exc:
                raise SystemExit(
                    f"{args.json} exists but cannot be parsed ({exc}); "
                    "fix or remove it explicitly before refreshing — "
                    "refusing to overwrite the committed trajectory"
                )
            if not existing.get("trajectory"):
                raise SystemExit(
                    f"{args.json} exists but has no trajectory points; "
                    "fix or remove it explicitly before refreshing"
                )
        if existing and existing.get("trajectory"):
            trajectory = existing["trajectory"]
            # A partial refresh (--workload X) must not shrink the
            # gate's coverage: both perf gates read trajectory[-1], so
            # carry unprofiled workloads forward from the last point.
            benchmarks = dict(trajectory[-1].get("benchmarks", {}))
            benchmarks.update(results)
            point = trajectory[-1]["point"] + 1
            trajectory.append(
                {
                    "point": point,
                    "recorded": date.today().isoformat(),
                    "note": args.note,
                    "benchmarks": benchmarks,
                }
            )
            payload = existing
        args.json.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"\nwrote {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
