"""Registry-driven CLI: regenerate any paper artifact, in parallel.

Usage::

    python -m repro.experiments --list
    python -m repro.experiments figure1
    python -m repro.experiments all --jobs 4 --results-dir results/
    python -m repro.experiments figure5 figure6 --max-workloads 8

Experiments come from :mod:`repro.experiments.registry` (one entry per
paper figure/table/section).  All runs share one persisted
coschedule-rate cache (default ``.repro-cache/rates.json``; disable
with ``--no-cache``): the first run pays for the microarch simulator
sweep, every later run — including each ``--jobs`` worker process —
reloads the entries and skips the simulator entirely.  Cache hit/miss
statistics are printed after every artifact, and ``--results-dir``
additionally emits one structured JSON file per artifact.

The full 495-workload run of the analytic artifacts (table1/figure1/
figure2/figure3/table2/ntypes/fairness) takes tens of seconds; the
discrete-event artifacts (figure5/figure6) and the four-machine policy
study (section7) use deterministic workload subsamples by default.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.experiments import common, registry
from repro.experiments.registry import RunOptions

__all__ = [
    "DEFAULT_CACHE_PATH",
    "ExperimentOutcome",
    "build_context",
    "run_experiment",
    "main",
]

DEFAULT_CACHE_PATH = Path(".repro-cache") / "rates.json"


@dataclass
class ExperimentOutcome:
    """Everything one experiment run produced (picklable, so parallel
    workers can ship it back to the parent process)."""

    name: str
    kind: str
    title: str
    text: str
    rows: object
    seconds: float
    cache_stats: dict[str, object]
    new_entries: dict[str, dict[tuple[str, ...], dict[str, float]]] = field(
        default_factory=dict
    )

    def as_json(self, options: RunOptions) -> dict[str, object]:
        """The structured payload written by ``--results-dir``."""
        return {
            "name": self.name,
            "kind": self.kind,
            "title": self.title,
            "seconds": round(self.seconds, 3),
            "seed": options.seed_for(self.name),
            "max_workloads": options.max_workloads,
            "quick": options.quick,
            "cache_stats": self.cache_stats,
            "rows": self.rows,
        }


def build_context(
    options: RunOptions, cache_path: str | Path | None
) -> common.ExperimentContext:
    """One shared context for a batch of experiments."""
    return common.default_context(
        max_workloads=options.max_workloads,
        seed=options.seed,
        cache_path=cache_path,
    )


def run_experiment(
    name: str, context: common.ExperimentContext, options: RunOptions
) -> ExperimentOutcome:
    """Run one registered experiment and package its outcome.

    ``cache_stats`` hits/misses are the *delta* for this experiment, so
    cumulative stats on a shared context don't blur per-artifact
    numbers; ``preloaded`` stays session-scoped (preloading happens
    once, when the context is built).
    """
    experiment = registry.get(name)
    before = context.cache_stats()
    start = time.perf_counter()
    result = experiment.run(context, options)
    seconds = time.perf_counter() - start
    after = context.cache_stats()
    stats = common.CacheStats(
        hits=after.hits - before.hits,
        misses=after.misses - before.misses,
        preloaded=after.preloaded,
        label=after.label,
    ).as_dict()
    return ExperimentOutcome(
        name=name,
        kind=experiment.kind,
        title=experiment.title,
        text=experiment.render(result),
        rows=registry.to_jsonable(result),
        seconds=seconds,
        cache_stats=stats,
        new_entries=context.drain_new_entries(),
    )


# ----------------------------------------------------------------------
# Parallel workers: each process builds its own context preloaded from
# the shared cache file, runs the assigned experiments, and ships the
# freshly computed entries back for the parent to merge and persist.
# ----------------------------------------------------------------------
_WORKER_CONTEXT: common.ExperimentContext | None = None
_WORKER_OPTIONS: RunOptions | None = None


def _worker_init(cache_path: str | None, options: RunOptions) -> None:
    global _WORKER_CONTEXT, _WORKER_OPTIONS
    _WORKER_CONTEXT = build_context(options, cache_path)
    _WORKER_OPTIONS = options


def _worker_run(name: str) -> ExperimentOutcome:
    assert _WORKER_CONTEXT is not None and _WORKER_OPTIONS is not None
    return run_experiment(name, _WORKER_CONTEXT, _WORKER_OPTIONS)


def _run_parallel(
    names: list[str],
    options: RunOptions,
    cache_path: Path | None,
    jobs: int,
) -> list[ExperimentOutcome]:
    mp = multiprocessing.get_context("spawn")
    with mp.Pool(
        processes=min(jobs, len(names)),
        initializer=_worker_init,
        initargs=(str(cache_path) if cache_path else None, options),
    ) as pool:
        return pool.map(_worker_run, names)


def _print_outcome(outcome: ExperimentOutcome) -> None:
    print(f"==== {outcome.name} " + "=" * max(0, 60 - len(outcome.name)))
    print(outcome.text)
    stats = outcome.cache_stats
    print(
        f"rate cache: {stats['hits']} hits, {stats['misses']} misses "
        f"({stats['hit_rate']:.1%} hit rate, {stats['preloaded']} preloaded)"
    )
    print(f"---- {outcome.name} done in {outcome.seconds:.1f}s\n")


def _write_results(
    outcomes: list[ExperimentOutcome],
    options: RunOptions,
    results_dir: Path,
) -> None:
    results_dir.mkdir(parents=True, exist_ok=True)
    for outcome in outcomes:
        path = results_dir / f"{outcome.name}.json"
        with path.open("w") as fp:
            json.dump(outcome.as_json(options), fp, indent=2, sort_keys=True)
    print(f"wrote {len(outcomes)} result file(s) to {results_dir}/")


def _list_experiments() -> None:
    print("available experiments:")
    width = max(len(e.name) for e in registry.all_experiments())
    for experiment in registry.all_experiments():
        print(
            f"  {experiment.name.ljust(width)}  "
            f"[{experiment.kind}] {experiment.title}"
        )
    print("  all")


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate tables/figures from 'Revisiting Symbiotic "
        "Job Scheduling' (ISPASS 2015).",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        metavar="EXPERIMENT",
        help="experiment names (see --list), or 'all'",
    )
    parser.add_argument("--list", action="store_true", help="list experiments")
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes; each shares the persisted rate cache. "
        "With several experiments named, workers split the experiments; "
        "with exactly one, they split its independent cells (e.g. the "
        "scenario_sweep (scenario, dispatcher) grid) — results are "
        "bit-identical either way",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=1,
        metavar="N",
        help="split each simulated run into N deterministic time-slice "
        "shards (scale-out experiments only; metrics are bit-identical "
        "for every N, shards just bound memory and give --checkpoint-dir "
        "its save points)",
    )
    parser.add_argument(
        "--checkpoint-dir",
        type=Path,
        default=None,
        metavar="DIR",
        help="write a crash-safe checkpoint after every shard and resume "
        "from one left by a killed run (requires --shards > 1 to "
        "checkpoint mid-run; the run resumes bit-identically)",
    )
    parser.add_argument(
        "--max-workloads",
        type=int,
        default=None,
        help="cap the number of workloads (analytic artifacts use all "
        "495 by default)",
    )
    parser.add_argument("--seed", type=int, default=0, help="sampling seed")
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small subsamples everywhere (smoke-test mode)",
    )
    parser.add_argument(
        "--cache",
        type=Path,
        default=DEFAULT_CACHE_PATH,
        metavar="FILE",
        help="persisted rate-cache file (default: %(default)s)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="run without the persisted rate cache",
    )
    parser.add_argument(
        "--results-dir",
        type=Path,
        default=None,
        metavar="DIR",
        help="write one structured JSON result file per experiment",
    )
    args = parser.parse_args(argv)

    registry.discover()
    if args.list or not args.experiments:
        _list_experiments()
        return 0

    names = (
        registry.names()
        if args.experiments == ["all"]
        else list(dict.fromkeys(args.experiments))
    )
    unknown = [n for n in names if n not in registry.names()]
    if unknown:
        print(f"unknown experiment(s): {unknown}", file=sys.stderr)
        return 2
    if args.jobs < 1:
        print("--jobs must be at least 1", file=sys.stderr)
        return 2

    if args.shards < 1:
        print("--shards must be at least 1", file=sys.stderr)
        return 2

    max_workloads = args.max_workloads
    if args.quick and max_workloads is None:
        max_workloads = 30
    options = RunOptions(
        max_workloads=max_workloads,
        seed=args.seed,
        quick=args.quick,
        # With one experiment the worker pool moves inside it (cell
        # fan-out); with several, the pool splits the experiments and
        # each runs its cells serially.
        jobs=args.jobs if len(names) == 1 else 1,
        shards=args.shards,
        checkpoint_dir=(
            str(args.checkpoint_dir)
            if args.checkpoint_dir is not None
            else None
        ),
    )
    cache_path: Path | None = None if args.no_cache else args.cache

    start = time.perf_counter()
    if args.jobs > 1 and len(names) > 1:
        outcomes = _run_parallel(names, options, cache_path, args.jobs)
        for outcome in outcomes:
            _print_outcome(outcome)
        if cache_path is not None:
            store = common.RateCacheStore(cache_path)
            for outcome in outcomes:
                for section, entries in outcome.new_entries.items():
                    store.merge(section, entries)
            saved = store.save()
            print(f"rate cache: saved {saved} entries to {cache_path}")
    else:
        context = build_context(options, cache_path)
        outcomes = []
        for name in names:
            outcome = run_experiment(name, context, options)
            _print_outcome(outcome)
            outcomes.append(outcome)
        saved = context.save_cache()
        if saved is not None:
            print(f"rate cache: saved {saved} entries to {cache_path}")

    if args.results_dir is not None:
        _write_results(outcomes, options, args.results_dir)
    print(f"total: {len(names)} experiment(s) in {time.perf_counter() - start:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
