"""Memoized coschedule-rate cache and its one persisted file format.

The symbiotic scheduler re-evaluates per-coschedule execution rates at
every scheduling event, and every figure/table experiment asks the
microarch simulator for the same ``r_b(s)`` entries over and over.
:class:`~repro.microarch.rates.RateTable` already memoizes within one
object, but nothing shares those entries *across* rate sources,
processes, or repository runs.  This module adds that layer:

* :class:`CachedRateSource` — wraps **any**
  :class:`~repro.microarch.rates.RateSource` (a live
  :class:`~repro.microarch.rates.RateTable`, a frozen
  :class:`~repro.microarch.rates.TableRates`, a test double, ...),
  keyed on canonical coschedule tuples, with hit/miss statistics.
  Unknown attributes delegate to the wrapped source, so a wrapped
  :class:`RateTable` still exposes ``machine``, ``alone_ipc``, etc.
* :class:`RateCacheStore` — a single JSON file holding one entry
  section per machine configuration, so one persisted sweep (the
  analogue of the paper's 1,365-combination Sniper run) serves the SMT
  and quad-core rate tables of every experiment, benchmark session,
  and parallel worker process.  It is the only reader and writer of
  persisted rates; every loaded entry passes
  :func:`~repro.microarch.rates.checked_entry`.
* :class:`CacheStats` — hit/miss/preload accounting with a one-line
  :meth:`~CacheStats.render` used by the experiment runner CLI.

A worked example (see ``docs/architecture.md`` for the full data
flow)::

    from repro.microarch.config import smt_machine
    from repro.microarch.rates import RateTable
    from repro.microarch.rate_cache import RateCacheStore

    store = RateCacheStore("rates.json")      # empty on first run
    rates = store.wrap(RateTable(smt_machine()))
    rates.type_rates(("mcf", "hmmer"))        # miss -> simulate
    rates.type_rates(("hmmer", "mcf"))        # hit (canonical key)
    store.save()                              # persist for next process
    print(rates.stats.render())
    # rate cache [smt4]: 1 hits, 1 misses (50.0% hit rate), 0 preloaded
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from repro.errors import WorkloadError
from repro.microarch.rates import RateSource, canonical_coschedule, checked_entry

__all__ = ["CacheStats", "CachedRateSource", "RateCacheStore"]

_KEY_SEPARATOR = "|"


def _join_key(key: tuple[str, ...]) -> str:
    for name in key:
        if _KEY_SEPARATOR in name:
            raise WorkloadError(
                f"job type {name!r} contains the reserved separator "
                f"{_KEY_SEPARATOR!r}"
            )
    return _KEY_SEPARATOR.join(key)


def _split_key(key: str) -> tuple[str, ...]:
    # The empty coschedule serializes to "" and must round-trip to (),
    # not ("",).
    return tuple(key.split(_KEY_SEPARATOR)) if key else ()


def _atomic_dump(path: Path, write) -> None:
    """Write a file crash-safely: dump to a sibling temp file, then
    ``os.replace`` into place.

    ``write`` receives the temp file object.  If it raises midway (a
    full disk, an unserializable rate, a KeyboardInterrupt), the temp
    file is removed and any existing file at ``path`` is left exactly
    as it was — a failed dump must never truncate a good cache.

    Durable against power loss, not just process death: the temp
    file's contents are fsynced before the rename (so the new name can
    never point at an unwritten file) and the parent directory is
    fsynced after it (so the rename itself survives a crash).  That
    ordering is what lets simulation checkpoints trust whatever file
    the restore path finds.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=path.name, suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as fp:
            write(fp)
            fp.flush()
            os.fsync(fp.fileno())
        os.replace(tmp_name, path)
        dir_fd = os.open(path.parent, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


#: Everything a malformed-but-valid-JSON cache payload can raise while
#: being normalized; the store catches these and starts cold instead.
_LOAD_ERRORS = (
    OSError, ValueError, TypeError, AttributeError, KeyError, WorkloadError
)


def _parse_entries(raw: object) -> dict[tuple[str, ...], dict[str, float]]:
    """Normalize one persisted section; raises on bad shapes and on
    entries that fail :func:`~repro.microarch.rates.checked_entry`."""
    if not isinstance(raw, dict):
        raise ValueError(f"entries must be a mapping, got {type(raw).__name__}")
    entries: dict[tuple[str, ...], dict[str, float]] = {}
    for raw_key, rates in raw.items():
        key = canonical_coschedule(_split_key(raw_key))
        entries[key] = checked_entry(key, rates)
    return entries


@dataclass
class CacheStats:
    """Hit/miss accounting for one :class:`CachedRateSource`.

    Attributes:
        hits: ``type_rates`` calls answered from the memo.
        misses: calls that fell through to the wrapped source.
        preloaded: entries seeded from persistence (or a warm sibling)
            before the first lookup.
        label: short origin tag (usually the machine name) used in
            :meth:`render`.
    """

    hits: int = 0
    misses: int = 0
    preloaded: int = 0
    label: str = ""

    @property
    def lookups(self) -> int:
        """Total ``type_rates`` lookups."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from the memo (0.0 when idle)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def merge(self, other: "CacheStats") -> "CacheStats":
        """Elementwise sum (labels joined); used to aggregate workers."""
        labels = sorted({s for s in (self.label, other.label) if s})
        return CacheStats(
            hits=self.hits + other.hits,
            misses=self.misses + other.misses,
            preloaded=self.preloaded + other.preloaded,
            label="+".join(labels),
        )

    def as_dict(self) -> dict[str, object]:
        """JSON-friendly form (emitted in runner result files)."""
        return {
            "label": self.label,
            "hits": self.hits,
            "misses": self.misses,
            "preloaded": self.preloaded,
            "hit_rate": round(self.hit_rate, 4),
        }

    def render(self) -> str:
        """One-line human-readable summary."""
        tag = f" [{self.label}]" if self.label else ""
        return (
            f"rate cache{tag}: {self.hits} hits, {self.misses} misses "
            f"({self.hit_rate:.1%} hit rate), {self.preloaded} preloaded"
        )


class CachedRateSource:
    """A memoizing wrapper around any :class:`RateSource`.

    Lookups are keyed on :func:`canonical_coschedule`, so permutations
    of the same multiset share one entry.  ``per_job_rate`` and
    ``instantaneous_throughput`` are derived from the memoized
    ``type_rates`` entry, which means even bare sources that only
    implement the minimal protocol gain both helpers.  Persist the
    memo by handing out wrappers from a :class:`RateCacheStore`.

    Args:
        source: the wrapped rate source.
        entries: optional pre-seeded ``{coschedule: {type: rate}}``
            mapping (counted as ``preloaded`` in the stats).
        label: stats label; defaults to the source machine's name.
    """

    def __init__(
        self,
        source: RateSource,
        *,
        entries: Mapping[Sequence[str], Mapping[str, float]] | None = None,
        label: str | None = None,
    ) -> None:
        self._source = source
        self._entries: dict[tuple[str, ...], dict[str, float]] = {}
        self._fresh: set[tuple[str, ...]] = set()
        if label is None:
            machine = getattr(source, "machine", None)
            label = getattr(machine, "name", "") if machine else ""
        self.stats = CacheStats(label=label)
        if entries:
            for coschedule, rates in entries.items():
                key = canonical_coschedule(coschedule)
                self._entries[key] = {
                    str(b): float(r) for b, r in rates.items()
                }
            self.stats.preloaded += len(self._entries)

    # ------------------------------------------------------------------
    # RateSource interface (memoized)
    # ------------------------------------------------------------------
    def type_rates(self, coschedule: Sequence[str]) -> dict[str, float]:
        """Total WIPC per job type in ``coschedule`` (memoized)."""
        key = canonical_coschedule(coschedule)
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            entry = dict(self._source.type_rates(key))
            self._entries[key] = entry
            self._fresh.add(key)
        else:
            self.stats.hits += 1
        return dict(entry)

    def instantaneous_throughput(self, coschedule: Sequence[str]) -> float:
        """``it(s)``: total WIPC of the coschedule."""
        return sum(self.type_rates(coschedule).values())

    def per_job_rate(self, coschedule: Sequence[str], name: str) -> float:
        """WIPC of one job of type ``name`` in the coschedule."""
        rates = self.type_rates(coschedule)
        if name not in rates:
            raise WorkloadError(
                f"{name!r} not in coschedule {tuple(coschedule)}"
            )
        return rates[name] / Counter(coschedule)[name]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def source(self) -> RateSource:
        """The wrapped rate source."""
        return self._source

    def coschedules(self) -> list[tuple[str, ...]]:
        """All memoized coschedules, in canonical order."""
        return sorted(self._entries)

    def entries(self) -> dict[tuple[str, ...], dict[str, float]]:
        """A copy of every memoized entry."""
        return {key: dict(rates) for key, rates in self._entries.items()}

    def new_entries(self) -> dict[tuple[str, ...], dict[str, float]]:
        """Entries computed (missed) by *this* wrapper — the delta a
        worker process ships back to the parent for merging."""
        return {key: dict(self._entries[key]) for key in sorted(self._fresh)}

    def drain_new_entries(self) -> dict[tuple[str, ...], dict[str, float]]:
        """Like :meth:`new_entries`, but resets the fresh-set so the
        next call only reports entries computed after this one.  Lets a
        runner ship per-experiment deltas instead of re-shipping the
        whole session's misses with every outcome."""
        delta = self.new_entries()
        self._fresh.clear()
        return delta

    def __getattr__(self, name: str):
        # Delegate everything else (machine, roster, alone_ipc, ...) to
        # the wrapped source so a cached RateTable keeps its full API.
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self._source, name)


class RateCacheStore:
    """One JSON file holding rate entries for several machines.

    The file maps a machine name (the *section*) to its persisted
    entries, so a single ``.repro-cache/rates.json`` serves both the
    SMT and quad-core rate tables of every experiment::

        {"version": 1,
         "sections": {"smt4": {"hmmer|mcf": {"hmmer": 0.9, ...}}, ...}}

    ``wrap()`` hands out :class:`CachedRateSource` wrappers preloaded
    from the matching section; ``save()`` collects everything the
    wrappers have learned and rewrites the file atomically.  A file
    that is unreadable, not of this shape, or holds an entry failing
    :func:`~repro.microarch.rates.checked_entry` is a cold start with
    a warning.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._sections: dict[str, dict[tuple[str, ...], dict[str, float]]] = {}
        self._wrappers: list[tuple[str, CachedRateSource]] = []
        if self.path.exists():
            # A cache is disposable: a corrupt or unreadable file means
            # a cold start, never a crash.
            try:
                with self.path.open() as fp:
                    payload = json.load(fp)
                self._sections = {
                    str(section): _parse_entries(entries)
                    for section, entries in payload["sections"].items()
                }
            except _LOAD_ERRORS as exc:
                print(
                    f"warning: ignoring unreadable rate cache "
                    f"{self.path}: {exc!r}",
                    file=sys.stderr,
                )
                self._sections = {}

    def sections(self) -> list[str]:
        """Names of all persisted sections."""
        return sorted(self._sections)

    def entries_for(
        self, section: str
    ) -> dict[tuple[str, ...], dict[str, float]]:
        """A copy of one section's entries (empty if absent)."""
        return {
            key: dict(rates)
            for key, rates in self._sections.get(section, {}).items()
        }

    def wrap(
        self, source: RateSource, *, section: str | None = None
    ) -> CachedRateSource:
        """A :class:`CachedRateSource` preloaded from ``section``.

        The section defaults to the source machine's name.  The store
        keeps a reference to the wrapper so :meth:`save` picks up
        whatever it computes later.
        """
        if section is None:
            machine = getattr(source, "machine", None)
            section = getattr(machine, "name", None)
            if section is None:
                raise WorkloadError(
                    "source has no machine name; pass section= explicitly"
                )
        wrapper = CachedRateSource(
            source, entries=self._sections.get(section), label=section
        )
        self._wrappers.append((section, wrapper))
        return wrapper

    def merge(
        self,
        section: str,
        entries: Mapping[Sequence[str], Mapping[str, float]],
    ) -> int:
        """Merge externally computed entries (e.g. from a worker
        process) into a section; returns the section's new size."""
        bucket = self._sections.setdefault(section, {})
        for coschedule, rates in entries.items():
            key = canonical_coschedule(coschedule)
            bucket[key] = {str(b): float(r) for b, r in rates.items()}
        return len(bucket)

    def stats(self) -> CacheStats:
        """Aggregated stats over every wrapper handed out."""
        total = CacheStats()
        for _, wrapper in self._wrappers:
            total = total.merge(wrapper.stats)
        return total

    def total_entries(self) -> int:
        """Number of persisted entries across all sections (as of the
        last load/merge/save; live wrapper entries count after save)."""
        return sum(len(entries) for entries in self._sections.values())

    def save(self) -> int:
        """Atomically rewrite the file; returns total entries saved."""
        for section, wrapper in self._wrappers:
            self.merge(section, wrapper.entries())
        payload = {
            "version": 1,
            "sections": {
                section: {
                    _join_key(key): rates
                    for key, rates in sorted(entries.items())
                }
                for section, entries in sorted(self._sections.items())
            },
        }
        _atomic_dump(
            self.path,
            lambda fp: json.dump(payload, fp, indent=2, sort_keys=True),
        )
        return self.total_entries()
