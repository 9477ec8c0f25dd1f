"""Per-run rate memo: string-keyed rates plus interned-type entries.

:class:`RunRateMemo` is the one per-run cache that serves every
machine's stepping, every scheduler's candidate probing, and the
dispatch layer.  Each engine reads its own layer of it:

* the **string layer** (:meth:`~RunRateMemo.type_rates`,
  :meth:`~RunRateMemo.per_job_rates`) — string multisets in,
  string-keyed rate dicts out.  The reference engine
  (``engine="legacy"``) and every scheduler's string ``select`` read
  only this layer.
* the **interned layer** (:meth:`~RunRateMemo.compiled_entry`,
  :meth:`~RunRateMemo.probe_filtered`) — a
  :class:`~repro.microarch.codec.TypeCodec` interns job-type names to
  dense int ids once per run; coschedules become small sorted int
  tuples, and every lookup the compiled engine performs resolves to
  one dict hit on an int-tuple key returning *flat per-type arrays*
  (``rates_by_code`` lists indexed by type id) — zero per-event string
  sorting, zero per-event ``Counter``/dict churn.

Bit-identity is load-bearing: the interned structures are *derived
from* the string layer (same ``type_rates`` dicts, same division by
multiplicity, same candidate enumeration order via
:func:`repro.util.multiset.sub_multisets`), so every float the compiled
engine reads is the exact float the reference engine computes, and the
golden traces in ``tests/golden/`` pass unchanged on both engines.

The probe layer (:meth:`probe_candidates`) memoizes, per (present-jobs
count vector, coschedule size), the full candidate multiset list with
precomputed instantaneous throughput and per-job rates.  Saturated
MAXIT/SRPT machines revisit a handful of count vectors for thousands
of events, so candidate enumeration amortizes to a dict hit — the
"delta-update" replacement for rebuilding every multiset per decision.

Cache efficacy is observable: ``stats`` mirrors
:class:`repro.microarch.rate_cache.CacheStats` (hits/misses over every
memoized layer), and :meth:`stats_dict` adds per-layer entry counts.
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence

import numpy as np

from repro.microarch.codec import TypeCodec
from repro.microarch.rate_cache import CacheStats
from repro.microarch.rates import RateSource
from repro.util.multiset import sub_multisets

__all__ = ["RunRateMemo", "ProbeCandidate", "CandidateSet"]


def _per_job_type_rates(
    rates: RateSource, coschedule: tuple[str, ...]
) -> dict[str, float]:
    """Execution rate (work per unit time) of one job of each type.

    Same-type jobs are symmetric, so the rate depends only on the
    coschedule multiset — which is what makes per-run memoization by
    coschedule exact.
    """
    if not coschedule:
        return {}
    type_rates = rates.type_rates(coschedule)
    counts = Counter(coschedule)
    return {
        job_type: type_rates.get(job_type, 0.0) / count
        for job_type, count in counts.items()
    }


class _CompiledEntry:
    """One coded coschedule, pre-flattened for the event loop.

    ``rates_by_code[type_id]`` is the per-job rate of that type in
    this coschedule (0.0 for types not present), so stepping is a list
    index per running job instead of a string-keyed dict hit.
    """

    __slots__ = ("names", "per_job", "rates_by_code")

    def __init__(
        self,
        names: tuple[str, ...],
        per_job: dict[str, float],
        rates_by_code: list[float],
    ) -> None:
        self.names = names
        self.per_job = per_job
        self.rates_by_code = rates_by_code


class ProbeCandidate:
    """One candidate coschedule of a scheduler probe, precomputed.

    Attributes:
        names: canonical name tuple (the legacy probe key).
        count_items: ``((type_id, count), ...)`` in the legacy
            ``Counter(names).items()`` order — the order schedulers
            instantiate jobs in, which fixes float-summation order.
        it: instantaneous throughput ``it(s)`` (MAXIT's objective).
        per_job_rates: per-job rate aligned with ``count_items``
            (SRPT's divisor); 0.0 marks an infeasible type.
        srpt_items: ``count_items`` zipped with ``per_job_rates``
            (``(type_id, count, rate)`` triples) — SRPT's inner loop,
            pre-zipped so the hot path allocates nothing.
        codes_key: the sorted flat code tuple of this multiset — the
            :meth:`RunRateMemo.compiled_entry` key, precomputed so the
            compiled engine's reschedule is a dict hit with no
            per-event sorting.
    """

    __slots__ = (
        "names",
        "count_items",
        "it",
        "per_job_rates",
        "srpt_items",
        "codes_key",
    )

    def __init__(
        self,
        names: tuple[str, ...],
        count_items: tuple[tuple[int, int], ...],
        it: float,
        per_job_rates: tuple[float, ...],
    ) -> None:
        self.names = names
        self.count_items = count_items
        self.it = it
        self.per_job_rates = per_job_rates
        self.srpt_items = tuple(
            (code, count, rate)
            for (code, count), rate in zip(count_items, per_job_rates)
        )
        self.codes_key = tuple(
            sorted(
                code
                for code, count in count_items
                for _ in range(count)
            )
        )


class CandidateSet:
    """Every candidate multiset for one (count vector, size) probe.

    Attributes:
        candidates: all candidates, in the exact legacy enumeration
            order (``sorted(set(sub_multisets(present, size)))``).
        max_it_group: the candidates whose ``it`` equals the maximum —
            MAXIT's lexicographic ``(-it, age)`` key means only these
            ever need an age computed.
        feasible: candidates with strictly positive per-job rates for
            every type (SRPT skips the rest, every time, because rates
            depend only on the multiset).
        filter_np: lazily attached per-candidate count matrix (one row
            per candidate, one column per type of the probe key, in key
            order) used by :meth:`RunRateMemo.probe_filtered` to select
            the formable candidates of a count vector in one vectorized
            comparison.
    """

    __slots__ = (
        "candidates",
        "max_it_group",
        "feasible",
        "filter_np",
    )

    def __init__(self, candidates: list[ProbeCandidate]) -> None:
        self.candidates = candidates
        best_it = max(c.it for c in candidates) if candidates else 0.0
        self.max_it_group = [c for c in candidates if c.it == best_it]
        self.feasible = [
            c
            for c in candidates
            if all(rate > 0.0 for rate in c.per_job_rates)
        ]
        self.filter_np = None


class RunRateMemo:
    """Per-run rate memo shared by stepping, probing, and dispatch.

    Memoizes ``type_rates`` by canonical multiset and derives the
    per-job rates the event loop steps with.  One memo serves all
    machines of a run (identical machines share one coschedule space),
    and the engine rebinds each scheduler's rate source to it for the
    run's duration, so MAXIT/SRPT candidate evaluation and engine
    stepping hit the same entries instead of maintaining separate
    caches.  Unknown attributes delegate to the wrapped source, so a
    wrapped :class:`~repro.microarch.rates.RateTable` keeps its full
    API (``machine``, ``alone_ipc``, ...).

    Args:
        source: the wrapped rate source.
        codec: share another memo's :class:`TypeCodec` instead of
            creating a fresh one.  The estimated-rate path runs two
            memos per run (true rates for stepping, estimates for
            policy decisions) and must intern types identically so
            queue indexes built against one memo's codec serve both.
    """

    def __init__(
        self,
        source: RateSource,
        *,
        codec: TypeCodec | None = None,
    ) -> None:
        self.source = source
        self.codec = codec if codec is not None else TypeCodec()
        self.stats = CacheStats(label="run-memo")
        self._type_rates: dict[tuple[str, ...], dict[str, float]] = {}
        self._per_job: dict[tuple[str, ...], dict[str, float]] = {}
        self._compiled: dict[tuple[int, ...], _CompiledEntry] = {}
        self._probes: dict[
            tuple[tuple[tuple[int, int], ...], int], CandidateSet
        ] = {}

    # ------------------------------------------------------------------
    # String layer (the reference engine and every string ``select``)
    # ------------------------------------------------------------------
    def type_rates(self, coschedule: Sequence[str]) -> dict[str, float]:
        """Total WIPC per job type in ``coschedule`` (memoized)."""
        key = tuple(sorted(coschedule))
        entry = self._type_rates.get(key)
        if entry is None:
            self.stats.misses += 1
            entry = dict(self.source.type_rates(key))
            self._type_rates[key] = entry
        else:
            self.stats.hits += 1
        return entry

    def per_job_rates(self, coschedule: tuple[str, ...]) -> dict[str, float]:
        """Per-job rate of each type in a canonical coschedule."""
        entry = self._per_job.get(coschedule)
        if entry is None:
            entry = _per_job_type_rates(self, coschedule)
            self._per_job[coschedule] = entry
        return entry

    # ------------------------------------------------------------------
    # Interned layer (the compiled engine)
    # ------------------------------------------------------------------
    def compiled_entry(self, codes: tuple[int, ...]) -> _CompiledEntry:
        """The pre-flattened entry of a coded (sorted-int) coschedule.

        Derived from the string layer on first sight — the per-job
        dict's floats are flattened into ``rates_by_code`` unchanged,
        so stepping arithmetic is bit-identical on both engines.
        """
        entry = self._compiled.get(codes)
        if entry is None:
            self.stats.misses += 1
            names = self.codec.canonical_names(codes)
            per_job = self.per_job_rates(names)
            rates_by_code = [0.0] * self.codec.size
            for name, rate in per_job.items():
                rates_by_code[self.codec.encode(name)] = rate
            entry = _CompiledEntry(names, per_job, rates_by_code)
            self._compiled[codes] = entry
        else:
            self.stats.hits += 1
        return entry

    def probe_candidates(
        self, counts_key: tuple[tuple[int, int], ...], size: int
    ) -> CandidateSet:
        """Candidate coschedules of ``size`` for one present-jobs
        count vector (``((type_id, count), ...)``, sorted by id).

        Built once per distinct (count vector, size) via the *legacy*
        enumeration — ``sorted(set(sub_multisets(present, size)))`` on
        name tuples — so candidate order, and therefore every
        tie-break a scheduler performs, matches the string path
        exactly.  Saturated schedulers revisit the same count vectors
        for thousands of events, so probes amortize to one dict hit.
        """
        # A candidate takes at most ``size`` jobs of any one type, so
        # count vectors that only differ beyond that cap enumerate the
        # identical candidate set — cap the key (and the reconstructed
        # multiset) so deep fluctuating backlogs share one entry
        # instead of re-enumerating per queue length.
        if any(count > size for _, count in counts_key):
            counts_key = tuple(
                (code, count if count < size else size)
                for code, count in counts_key
            )
        key = (counts_key, size)
        cached = self._probes.get(key)
        if cached is None:
            self.stats.misses += 1
            decode = self.codec.decode
            present = tuple(
                sorted(
                    name
                    for code, count in counts_key
                    for name in (decode(code),) * count
                )
            )
            candidates = []
            for names in sorted(set(sub_multisets(present, size))):
                entry = self.type_rates(names)
                counts = Counter(names)
                count_items = tuple(
                    (self.codec.encode(name), count)
                    for name, count in counts.items()
                )
                per_job_rates = tuple(
                    entry.get(name, 0.0) / count
                    for name, count in counts.items()
                )
                candidates.append(
                    ProbeCandidate(
                        names, count_items, sum(entry.values()), per_job_rates
                    )
                )
            cached = CandidateSet(candidates)
            self._probes[key] = cached
        else:
            self.stats.hits += 1
        return cached

    def probe_filtered(
        self, counts_key: tuple[tuple[int, int], ...], size: int
    ) -> CandidateSet:
        """Compiled-engine probe builder: derive a (pre-capped) count
        vector's candidate set by *filtering the full-cap universe* of
        its present types instead of re-enumerating multisets.

        The universe — every multiset of ``size`` over the key's
        present types, i.e. the candidate set of the all-types-at-cap
        count vector — is built once through the legacy enumeration
        (so candidate order and floats are exactly the string path's)
        and then any capped count vector over the same types selects
        the candidates it can form with one count comparison each,
        **sharing** the universe's :class:`ProbeCandidate` objects.
        Both enumerations are name-sorted, so filtering the sorted
        universe yields the legacy order of the filtered set; the
        result is cached in the same probe table the legacy builder
        fills, making the two builders interchangeable entry by entry.
        """
        key = (counts_key, size)
        cached = self._probes.get(key)
        if cached is not None:
            self.stats.hits += 1
            return cached
        codes = tuple(code for code, _ in counts_key)
        cap_key = tuple((code, size) for code in codes)
        if cap_key == counts_key:
            # The key is its own universe — legacy build (which also
            # does the cache accounting for this miss).
            return self.probe_candidates(counts_key, size)
        universe = self.probe_candidates(cap_key, size)
        self.stats.misses += 1
        # Vectorized formability test: one row of per-type counts per
        # universe candidate (built once per universe, integer
        # comparisons only — no float arithmetic to keep identical),
        # masked against this key's availability vector.
        matrix = universe.filter_np
        if matrix is None:
            matrix = np.zeros(
                (len(universe.candidates), len(codes)), dtype=np.int64
            )
            column = {code: i for i, code in enumerate(codes)}
            for row, candidate in enumerate(universe.candidates):
                for code, count in candidate.count_items:
                    matrix[row, column[code]] = count
            universe.filter_np = matrix
        avail_vec = np.array(
            [count for _, count in counts_key], dtype=np.int64
        )
        keep = np.flatnonzero((matrix <= avail_vec).all(axis=1))
        pool = universe.candidates
        candidates = [pool[i] for i in keep]
        cached = CandidateSet(candidates)
        self._probes[key] = cached
        return cached

    def probe_cached(
        self, counts_key: tuple[tuple[int, int], ...], size: int
    ) -> CandidateSet | None:
        """Direct probe lookup for a key the caller has *already
        capped* at ``size`` (the compiled engine builds capped keys
        from its count vectors, so the normalization pass in
        :meth:`probe_candidates` would be a per-event no-op).  Returns
        ``None`` on a miss — the caller then takes the building path.
        """
        cached = self._probes.get((counts_key, size))
        if cached is not None:
            self.stats.hits += 1
        return cached

    def clear(self) -> None:
        """Flush every memoized rate layer, keeping the codec.

        The estimation layer calls this when the estimator publishes a
        new epoch of rates: all cached floats are stale, but interned
        type ids (and therefore any queue index keyed on the codec)
        stay valid, so only the rate-derived layers are dropped.
        """
        self._type_rates.clear()
        self._per_job.clear()
        self._compiled.clear()
        self._probes.clear()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def sizes(self) -> dict[str, int]:
        """Entry counts of every memoized layer."""
        return {
            "type_rates": len(self._type_rates),
            "per_job": len(self._per_job),
            "compiled": len(self._compiled),
            "probe_sets": len(self._probes),
            "interned_types": self.codec.size,
        }

    def stats_dict(self) -> dict[str, object]:
        """JSON-friendly stats: hit/miss counters plus layer sizes."""
        return {**self.stats.as_dict(), "sizes": self.sizes()}

    def __getattr__(self, name: str):
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self.source, name)
