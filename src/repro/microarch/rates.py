"""Per-coschedule execution rates — the paper's ``r_b(s)`` abstraction.

Everything in Section IV and beyond consumes one object: the total
execution rate ``r_b(s)`` of each job type *b* in each coschedule *s*,
expressed in **weighted instructions per cycle** (WIPC = IPC divided by
the job's IPC alone on the reference machine; Section III-B).  This
module provides:

* :class:`RateSource` — the minimal protocol the analysis layers need;
* :class:`RateTable` — lazily simulates coschedules on a machine via
  :func:`repro.microarch.simulator.simulate_coschedule` and caches the
  results (the analogue of the paper's 1,365-combination Sniper sweep);
* :class:`TableRates` — an immutable in-memory table, used for frozen
  snapshots, counterfactual rate edits (Section V.D), and test doubles;
* :func:`checked_entry` — the one rule for a valid ``r_b(s)`` entry,
  applied to every table built here and every entry loaded from disk.

For memoization across rate sources (plus hit/miss statistics), wrap
any of these in :class:`repro.microarch.rate_cache.CachedRateSource`;
:class:`repro.microarch.rate_cache.RateCacheStore` is the one reader
and writer of persisted rates.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Iterable, Mapping, Protocol, Sequence, runtime_checkable

from repro.errors import WorkloadError
from repro.microarch.benchmarks import default_roster
from repro.microarch.config import MachineConfig
from repro.microarch.params import JobTypeParams
from repro.microarch.simulator import SimulationResult, simulate_coschedule

__all__ = [
    "RateSource",
    "RateTable",
    "TableRates",
    "canonical_coschedule",
    "checked_entry",
    "infer_contexts",
    "instantaneous_throughput",
]


def canonical_coschedule(names: Iterable[str]) -> tuple[str, ...]:
    """Canonical (sorted-tuple) form of a job-name multiset.

    Fast path: a tuple that is already sorted is returned *as-is*
    (same object, no sort, no copy).  Memo layers canonicalize on
    every lookup and their hits overwhelmingly arrive as canonical
    tuples they handed out earlier, so the common case is a linear
    scan instead of a sort plus a fresh tuple — and reusing the object
    keeps downstream dict keys interned.
    """
    if type(names) is tuple:
        for i in range(len(names) - 1):
            if names[i] > names[i + 1]:
                return tuple(sorted(names))
        return names
    return tuple(sorted(names))


def checked_entry(
    coschedule: tuple[str, ...], rates: Mapping[str, float]
) -> dict[str, float]:
    """A validated copy of one ``r_b(s)`` entry for ``coschedule``.

    The entry names exactly the coschedule's distinct types, and every
    rate is finite and non-negative.  Raises :class:`WorkloadError`
    otherwise, so neither a hand-built table nor a persisted file can
    serve rates no simulation could have produced.
    """
    entry = {str(b): float(r) for b, r in rates.items()}
    if entry.keys() != set(coschedule):
        raise WorkloadError(
            f"rate entry for {coschedule} names types {sorted(entry)}, "
            f"expected {sorted(set(coschedule))}"
        )
    for b, r in entry.items():
        if not 0.0 <= r < math.inf:  # also false for NaN
            raise WorkloadError(
                f"rate {r!r} of {b!r} in entry for {coschedule} is not "
                "finite and non-negative"
            )
    return entry


def infer_contexts(rates: object, contexts: int | None = None) -> int:
    """Context count from an explicit argument or the rate source.

    With ``contexts`` given, validates and returns it.  Otherwise the
    source (and any chain of wrappers exposing ``source``) is probed
    for a machine-bearing object — a
    :class:`RateTable`-style source carries its
    :class:`~repro.microarch.config.MachineConfig`, and cache/memo
    wrappers delegate or expose the wrapped source.  The one shared
    implementation behind every ``contexts=K`` default in the
    analysis and queueing layers.
    """
    if contexts is not None:
        if contexts <= 0:
            raise WorkloadError(f"contexts must be positive, got {contexts}")
        return contexts
    probe: object | None = rates
    while probe is not None:
        machine = getattr(probe, "machine", None)
        if machine is not None:
            return machine.contexts
        probe = getattr(probe, "source", None)
    raise WorkloadError(
        "cannot infer the number of contexts from this rate source; "
        "pass contexts=K explicitly"
    )


@runtime_checkable
class RateSource(Protocol):
    """What the analysis layers need to know about a machine+workload.

    ``type_rates(s)`` returns the paper's ``r_b(s)``: for every job type
    *b* present in coschedule *s*, the **total** execution rate of the
    type-b jobs in *s* (WIPC).  The instantaneous throughput ``it(s)``
    is the sum of these values (Equation 1).
    """

    def type_rates(self, coschedule: Sequence[str]) -> Mapping[str, float]:
        """Total WIPC per job type in ``coschedule``."""
        ...  # pragma: no cover - protocol definition


def instantaneous_throughput(
    source: RateSource, coschedule: Sequence[str]
) -> float:
    """``it(s)``: total WIPC of a coschedule (Equation 1 of the paper)."""
    return sum(source.type_rates(coschedule).values())


class RateTable:
    """Lazily simulated, cached rates for one machine configuration.

    Args:
        machine: the machine to simulate.
        roster: job-type definitions; defaults to the 12-entry
            Table-I-style roster.
    """

    def __init__(
        self,
        machine: MachineConfig,
        roster: Mapping[str, JobTypeParams] | None = None,
    ) -> None:
        self.machine = machine
        self.roster: dict[str, JobTypeParams] = dict(
            roster if roster is not None else default_roster()
        )
        self._results: dict[tuple[str, ...], SimulationResult] = {}
        self._alone: dict[str, float] = {}
        self._type_rates: dict[tuple[str, ...], dict[str, float]] = {}

    @classmethod
    def for_machine(
        cls,
        machine: MachineConfig,
        roster: Mapping[str, JobTypeParams] | None = None,
    ) -> "RateTable":
        """Convenience constructor mirroring the docs/quickstart."""
        return cls(machine, roster)

    # ------------------------------------------------------------------
    # Simulation access
    # ------------------------------------------------------------------
    def result(self, names: Sequence[str]) -> SimulationResult:
        """Cached simulation result for a coschedule multiset."""
        key = canonical_coschedule(names)
        cached = self._results.get(key)
        if cached is None:
            cached = simulate_coschedule(self.machine, self.roster, key)
            self._results[key] = cached
        return cached

    def alone_ipc(self, name: str) -> float:
        """IPC of a job type running alone (the WIPC reference)."""
        cached = self._alone.get(name)
        if cached is None:
            cached = self.result((name,)).ipcs[0]
            self._alone[name] = cached
        return cached

    def ipcs(self, names: Sequence[str]) -> tuple[float, ...]:
        """Per-slot raw IPCs, aligned with the canonical multiset order."""
        return self.result(names).ipcs

    def wipcs(self, names: Sequence[str]) -> tuple[float, ...]:
        """Per-slot WIPCs (IPC / alone IPC), canonical order."""
        result = self.result(names)
        return tuple(
            ipc / self.alone_ipc(job)
            for job, ipc in zip(result.job_names, result.ipcs)
        )

    # ------------------------------------------------------------------
    # RateSource interface
    # ------------------------------------------------------------------
    def type_rates(self, coschedule: Sequence[str]) -> dict[str, float]:
        """Total WIPC per job type in ``coschedule`` (the paper's r_b(s))."""
        key = canonical_coschedule(coschedule)
        cached = self._type_rates.get(key)
        if cached is None:
            result = self.result(key)
            cached = {}
            for job, ipc in zip(result.job_names, result.ipcs):
                cached[job] = cached.get(job, 0.0) + ipc / self.alone_ipc(job)
            self._type_rates[key] = cached
        return dict(cached)

    def instantaneous_throughput(self, coschedule: Sequence[str]) -> float:
        """``it(s)``: total WIPC of the coschedule."""
        return sum(self.type_rates(coschedule).values())

    def per_job_rate(self, coschedule: Sequence[str], name: str) -> float:
        """WIPC of **one** job of type ``name`` in the coschedule.

        Jobs of the same type are symmetric, so this is the type total
        divided by the multiplicity.
        """
        rates = self.type_rates(coschedule)
        if name not in rates:
            raise WorkloadError(f"{name!r} not in coschedule {tuple(coschedule)}")
        return rates[name] / Counter(coschedule)[name]


class TableRates:
    """An immutable rate table: ``{coschedule: {type: total WIPC}}``.

    Satisfies :class:`RateSource`.  Built from a live source by
    :func:`repro.experiments.common.snapshot_rates` (picklable worker
    payloads), rebuilt with edited entries by
    :func:`repro.core.fairness.equalize_heterogeneous_rates` (the
    Section-V.D counterfactual), or written out directly (tests).  Every
    entry passes :func:`checked_entry`.
    """

    def __init__(
        self, table: Mapping[Sequence[str], Mapping[str, float]]
    ) -> None:
        self._table: dict[tuple[str, ...], dict[str, float]] = {}
        for coschedule, rates in table.items():
            key = canonical_coschedule(coschedule)
            self._table[key] = checked_entry(key, rates)

    def type_rates(self, coschedule: Sequence[str]) -> dict[str, float]:
        """Total WIPC per job type in ``coschedule``."""
        key = canonical_coschedule(coschedule)
        try:
            return dict(self._table[key])
        except KeyError:
            raise WorkloadError(
                f"no rates recorded for coschedule {key}"
            ) from None

    def instantaneous_throughput(self, coschedule: Sequence[str]) -> float:
        """``it(s)``: total WIPC of the coschedule."""
        return sum(self.type_rates(coschedule).values())

    def per_job_rate(self, coschedule: Sequence[str], name: str) -> float:
        """WIPC of one job of type ``name`` in the coschedule."""
        rates = self.type_rates(coschedule)
        if name not in rates:
            raise WorkloadError(f"{name!r} not in coschedule {tuple(coschedule)}")
        return rates[name] / Counter(coschedule)[name]

    def coschedules(self) -> list[tuple[str, ...]]:
        """All coschedules with recorded rates, in canonical order."""
        return sorted(self._table)
