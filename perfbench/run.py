#!/usr/bin/env python3
"""The repo benchmark: three workloads, host-time metrics, a layer trace.

Run from the repository root::

    python3 perfbench/run.py --workload open_stream --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload open_stream --seed 1 --seconds 12 --trace 1

Workloads, metric names and units are declared in ``BENCHMARK.json``;
``perfbench/workloads.py`` says what each workload drives and why.

``--trace 0`` reports the end-to-end metrics.  After one warm-up round
it repeats identical rounds (set-up, timed phase, output checks) for
``--seconds`` seconds.  On a shared host, interference only ever adds
time and switches on and off within a second: the median round of a
run swings by about 30% between runs, the fastest round by about 14%.
So every step of a round (one window, or one multiset of the sweep)
counts at its fastest repetition across the identical rounds:
``window_ms_p50``/``window_ms_p95`` are quantiles over those steps, and
``wall_s`` is their sum plus the fastest remainder of the timed phase
(about 7% between runs); ``items_per_s`` is a round's items over
``wall_s``.  ``setup_s`` adds the median import time of seven fresh
interpreters to the median per-round construction time;
``peak_rss_mb`` comes from one more fresh interpreter running a single
round.

``--trace 1`` reports the per-layer metrics.  Half the budget runs
untraced rounds, half runs traced rounds in which the benchmark wraps
the public calls it hands to the program (see ``tracing.py``); each
layer reports its fastest traced round, and the ratio of the fastest
traced to the fastest untraced round is ``trace.overhead_frac``.  A
separate fresh interpreter measures ``memory.heap_peak_mb`` under
tracemalloc.  The first traced round's spans are written as Chrome
trace-event JSON.

Every round's outputs are checked and digested; a failed check, an
exception or a digest that differs from the invocation's first counts
as a failed operation.  The last line of standard output is the JSON
result; a results file with full provenance and a trace file go to
``.perfbench_out/``.  Without the program's sources (``src/repro``)
the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import ExitStack
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
IMPORT_SAMPLES = 7
MIN_ROUNDS = 3
WORKER_TIMEOUT_S = 60
HASH_SEED = "0"


class Ledger:
    """Operations attempted and failed, with the first digest seen."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.digest: str | None = None
        self.failures: list[str] = []
        self.checks: dict[str, bool] = {}

    def record(self, name: str, checks, digest: str | None) -> bool:
        self.attempted += 1
        problems = [f"{c.name}: {c.detail}" for c in checks if not c.ok]
        for check in checks:
            self.checks[check.name] = self.checks.get(check.name, True) and check.ok
        if digest is not None:
            if self.digest is None:
                self.digest = digest
            elif digest != self.digest:
                problems.append(f"digest {digest} != first digest {self.digest}")
        if problems:
            self.fail(name, "; ".join(problems))
            return False
        return True

    def fail(self, name: str, why: str) -> None:
        self.failed += 1
        self.failures.append(f"{name}: {why}")
        print(f"perfbench: FAILED {name}: {why}", file=sys.stderr)


# ----------------------------------------------------------------------
# Fresh-interpreter workers (imports, peak RSS, tracemalloc heap)
# ----------------------------------------------------------------------


def spawn(kind: str, args: argparse.Namespace) -> dict:
    command = [
        sys.executable, str(Path(__file__).resolve()), "--worker", kind,
        "--workload", args.workload, "--seed", str(args.seed),
    ]
    proc = subprocess.run(
        command, capture_output=True, text=True, cwd=ROOT,
        timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{kind} worker exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_worker(args: argparse.Namespace) -> int:
    start = time.perf_counter()
    import workloads

    import_s = time.perf_counter() - start
    if args.worker == "import":
        print(json.dumps({"import_s": import_s}))
        return 0
    workload = workloads.make_workloads(OUT_DIR / "worker")[args.workload]()
    if args.worker == "heap":
        import tracemalloc

        tracemalloc.start()
    state = workload.setup(args.seed)
    result = workload.run(state, workloads.NullTracer())
    out: dict[str, object] = {
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if args.worker == "heap":
        out["heap_peak_mb"] = tracemalloc.get_traced_memory()[1] / 1e6
        tracemalloc.stop()
    checks, digest = workload.check(state, result)
    out["failed_checks"] = [c.name for c in checks if not c.ok]
    out["digest"] = digest
    print(json.dumps(out))
    return 0


def worker_op(kind: str, args, ledger: Ledger) -> dict | None:
    """One fresh-interpreter round, counted as one operation."""
    try:
        out = spawn(kind, args)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        ledger.attempted += 1
        ledger.fail(f"{kind} worker", repr(exc))
        return None
    from workloads import Check

    checks = [Check(name, False, "in worker") for name in out["failed_checks"]]
    ledger.record(f"{kind} worker", checks, out["digest"])
    return out


# ----------------------------------------------------------------------
# Rounds
# ----------------------------------------------------------------------


def one_round(workload, seed: int, tracer, ledger: Ledger, label: str):
    """Set up, run and check one round; ``(setup_s, result)`` or None."""
    from repro.lp.model import Model
    from repro.queueing.system import SystemMetrics

    gc.collect()  # the previous round's garbage is not this round's cost
    try:
        with ExitStack() as traced:
            if tracer.active:
                traced.enter_context(tracer.patch(Model, "solve", "lp.solve"))
                traced.enter_context(tracer.patch(
                    SystemMetrics, "observe_interval", "metrics.observe_interval"
                ))
                traced.enter_context(tracer.span("round"))
            t0 = time.perf_counter()
            with tracer.span("setup"):
                state = workload.setup(seed)
            setup_s = time.perf_counter() - t0
            with tracer.span("run"):
                result = workload.run(state, tracer)
        checks, digest = workload.check(state, result)
    except Exception:  # a broken round is a failed operation, not a crash
        ledger.attempted += 1
        ledger.fail(label, traceback.format_exc())
        return None
    if not ledger.record(label, checks, digest):
        return None
    return setup_s, result


def timed_rounds(workload, seed, budget_s, ledger, tracer_for=None, on_round=None):
    """Rounds for ``budget_s`` seconds (at least ``MIN_ROUNDS``)."""
    from workloads import NullTracer

    rounds = []
    start = time.perf_counter()
    index = 0
    while index < MIN_ROUNDS or time.perf_counter() - start < budget_s:
        tracer = tracer_for(index) if tracer_for else NullTracer()
        done = one_round(workload, seed, tracer, ledger, f"round {index}")
        if done is not None:
            rounds.append(done)
            if on_round is not None:
                on_round(tracer, done[1])
        index += 1
    return rounds


# ----------------------------------------------------------------------
# The two kinds of run
# ----------------------------------------------------------------------


def end_to_end(args, workload, ledger: Ledger) -> tuple[dict, dict]:
    import workloads

    imports = []
    for _ in range(IMPORT_SAMPLES):
        try:
            imports.append(spawn("import", args)["import_s"])
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            ledger.attempted += 1
            ledger.fail("import worker", repr(exc))
    one_round(workload, args.seed, workloads.NullTracer(), ledger, "warm-up")
    rounds = timed_rounds(workload, args.seed, args.seconds, ledger)
    first = [r for _, r in rounds[:1]]
    for check in workload.once_checks(args.seed, first) if first else []:
        ledger.record(f"once: {check.name}", [check], None)
    rss = worker_op("rss", args, ledger)
    if not rounds or not imports or rss is None:
        return {}, {}
    results = [r for _, r in rounds]
    steps = [min(reps) for reps in zip(*(r.steps_ms for r in results))]
    rest_s = min(r.wall_s - sum(r.steps_ms) / 1e3 for r in results)
    wall_s = sum(steps) / 1e3 + rest_s
    values = {
        "setup_s": statistics.median(imports)
        + statistics.median(s for s, _ in rounds),
        "wall_s": wall_s,
        "items_per_s": results[0].items / wall_s,
        "window_ms_p50": workloads.quantile(steps, 0.50),
        "window_ms_p95": workloads.quantile(steps, 0.95),
        "peak_rss_mb": rss["rss_mb"],
    }
    detail = {
        "rounds": len(rounds),
        "import_s": imports,
        "setup_round_s": [s for s, _ in rounds],
        "wall_round_s": [r.wall_s for _, r in rounds],
        "median_wall_s": statistics.median(r.wall_s for _, r in rounds),
        "items_per_round": [r.items for _, r in rounds],
        "steps_per_round": len(steps),
        "steps_beyond_p95": sum(ms > values["window_ms_p95"] for ms in steps),
    }
    return values, detail


def layer_values(tracer, result, names) -> dict[str, float]:
    """Per-layer metrics of one traced round (0 where a layer is idle)."""
    values = dict.fromkeys(names, 0.0)
    values.update(result.layers)
    solves = tracer.samples["lp.solve"]
    if solves:
        values["lp.solves"] = len(solves)
        values["lp.solve_s"] = sum(solves) / 1e9
        values["lp.solve_ms_p50"] = statistics.median(solves) / 1e6
    values["lp.reopt_calls"] = tracer.calls("lp.reoptimize") + tracer.calls("lp.rebuild")
    values["lp.reopt_s"] = tracer.total_s("lp.reoptimize") + tracer.total_s("lp.rebuild")
    values["arrivals.gen_s"] = tracer.total_s("arrivals.next")
    routes = tracer.calls("dispatch.route")
    if routes:
        values["dispatch.calls"] = routes
        values["dispatch.route_us"] = tracer.total_s("dispatch.route") * 1e6 / routes
    values["metrics.intervals"] = tracer.calls("metrics.observe_interval")
    values["metrics.fold_s"] = tracer.total_s("metrics.observe_interval")
    values["metrics.merge_ms"] = tracer.total_s("sharding.merge") * 1e3
    values["engine.self_s"] = tracer.self_s("engine.advance")
    return values


def per_layer(args, workload, ledger: Ledger, names) -> tuple[dict, dict]:
    import workloads
    from tracing import Tracer

    one_round(workload, args.seed, workloads.NullTracer(), ledger, "warm-up")
    base = timed_rounds(workload, args.seed, args.seconds / 2, ledger)
    tracer = Tracer(sampled=("lp.solve",))
    samples: list[dict[str, float]] = []
    walls: list[float] = []

    def fresh(index):
        tracer.reset_totals()
        tracer.keep_spans = index == 0
        return tracer

    def collect(tracer, result):
        samples.append(layer_values(tracer, result, names))
        walls.append(result.wall_s)

    timed_rounds(workload, args.seed, args.seconds / 2, ledger, fresh, collect)
    heap = worker_op("heap", args, ledger)
    if not base or not samples or heap is None:
        return {}, {}
    values = {name: min(s[name] for s in samples) for name in names}
    base_wall = min(r.wall_s for _, r in base)
    events = base[0][1].layers.get("engine.events", 0)
    values["engine.us_per_event"] = base_wall * 1e6 / events if events else 0.0
    values["trace.overhead_frac"] = min(walls) / base_wall - 1.0
    values["memory.heap_peak_mb"] = heap["heap_peak_mb"]
    trace_path = OUT_DIR / f"{args.workload}-seed{args.seed}.trace.json"
    spans = tracer.write_chrome(trace_path, args.workload)
    largest = max(
        ("lp.reopt", values["lp.reopt_s"]),
        ("arrivals", values["arrivals.gen_s"]),
        ("dispatch", values["dispatch.route_us"] * values["dispatch.calls"] / 1e6),
        ("metrics", values["metrics.fold_s"]),
        key=lambda kv: kv[1],
    )
    detail = {
        "untraced_rounds": len(base),
        "traced_rounds": len(samples),
        "untraced_wall_s": base_wall,
        "traced_wall_s": min(walls),
        "largest_wrapped_layer": largest[0],
        "trace_file": str(trace_path.relative_to(ROOT)),
        "trace_spans": spans,
        "self_s_by_span": {
            name: agg[2] / 1e9 for name, agg in sorted(tracer.totals.items())
        },
    }
    return values, detail


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def version(package: str) -> str | None:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def provenance(args, spec) -> dict:
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    return {
        "workload": args.workload,
        "why": why[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "platform": platform.platform(),
    }


# ----------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--worker", choices=("import", "rss", "heap"), help=argparse.SUPPRESS
    )
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # The estimated-rate and fault paths iterate hash-ordered sets,
        # so a fixed hash seed is what makes the digest reproducible
        # across interpreters (workers inherit it).
        os.execve(
            sys.executable,
            [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]],
            {**os.environ, "PYTHONHASHSEED": HASH_SEED},
        )
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.worker:
        return run_worker(args)

    import catalog
    import workloads

    workload = workloads.make_workloads(OUT_DIR)[args.workload]()
    ledger = Ledger()
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    names = [m["name"] for m in declared]
    if args.trace:
        values, detail = per_layer(args, workload, ledger, names)
    else:
        values, detail = end_to_end(args, workload, ledger)
    if not values:
        print("perfbench: no round completed; no result", file=sys.stderr)
        return 1

    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared
    }
    results = {
        "provenance": provenance(args, spec),
        "metrics": {
            m["name"]: {
                **metrics[m["name"]],
                "better": m["better"],
                "layer": catalog.PER_LAYER[m["name"]][0] if args.trace else "end_to_end",
                "moves": catalog.PER_LAYER[m["name"]][1] if args.trace
                else catalog.END_TO_END[m["name"]],
            }
            for m in declared
        },
        "layers": catalog.LAYERS,
        "digest": ledger.digest,
        "checks": ledger.checks,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "failures": ledger.failures,
        "detail": detail,
    }
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    results_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    results_path.write_text(json.dumps(results, indent=2, sort_keys=True))

    for name, metric in metrics.items():
        print(f"{args.workload:16s} {name:28s} {metric['value']:14.6g} {metric['unit']}")
    print(f"digest {ledger.digest}  results {results_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
