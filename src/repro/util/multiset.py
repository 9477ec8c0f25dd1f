"""Multiset combinatorics for coschedule enumeration.

A *coschedule* in the paper is an unordered combination-with-repetition of
job types filling the K hardware contexts: for a workload of N = 4 job
types on K = 4 contexts there are C(N+K-1, K) = 35 coschedules (the paper
enumerates AAAA, AAAB, ..., DDDD).  We represent a multiset canonically as
a sorted tuple of its elements.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations_with_replacement
from math import factorial
from typing import Hashable, Iterable, Iterator, Sequence, TypeVar

T = TypeVar("T", bound=Hashable)

__all__ = [
    "multisets",
    "multiset_draw_probability",
    "distinct_count",
    "replace_one",
    "sub_multisets",
]


def multisets(items: Sequence[T], size: int) -> Iterator[tuple[T, ...]]:
    """Yield all multisets of ``size`` elements drawn from ``items``.

    Elements are yielded as canonically ordered tuples (the order of
    ``items`` defines the canonical order).  ``items`` must not contain
    duplicates.

    >>> list(multisets("AB", 2))
    [('A', 'A'), ('A', 'B'), ('B', 'B')]
    """
    if size < 0:
        raise ValueError(f"multiset size must be >= 0, got {size}")
    if len(set(items)) != len(items):
        raise ValueError("items must be distinct to enumerate multisets")
    return combinations_with_replacement(tuple(items), size)


def distinct_count(ms: Iterable[T]) -> int:
    """Number of distinct elements: the paper's *coschedule heterogeneity*.

    >>> distinct_count(("A", "A", "B", "C"))
    3
    """
    return len(set(ms))


def multiset_draw_probability(ms: Sequence[T], n_types: int) -> float:
    """Probability of drawing multiset ``ms`` with uniform i.i.d. draws.

    This is the multinomial probability the paper quotes for the FCFS
    scheduler's "theoretical" coschedule mix (2% / 33% / 56% / 9% for
    heterogeneity 1..4 with N = K = 4).

    >>> round(multiset_draw_probability(("A",) * 4, 4) * 64, 6)
    0.25
    """
    if n_types <= 0:
        raise ValueError("n_types must be positive")
    k = len(ms)
    counts = Counter(ms)
    if len(counts) > n_types:
        raise ValueError("multiset has more distinct elements than n_types")
    permutations = factorial(k)
    for c in counts.values():
        permutations //= factorial(c)
    return permutations / n_types**k


def replace_one(ms: tuple[T, ...], old: T, new: T) -> tuple[T, ...]:
    """Return a new canonical multiset with one ``old`` replaced by ``new``.

    Used by the FCFS Markov chain: a finished job of type ``old`` leaves
    and a freshly drawn job of type ``new`` takes its context.
    """
    items = list(ms)
    try:
        items.remove(old)
    except ValueError:
        raise ValueError(f"{old!r} not present in multiset {ms!r}") from None
    items.append(new)
    items.sort()
    return tuple(items)


def sub_multisets(ms: tuple[T, ...], size: int) -> Iterator[tuple[T, ...]]:
    """Yield the distinct sub-multisets of ``ms`` with exactly ``size`` elements.

    Used by schedulers that must pick which jobs to run when the system
    holds more jobs than contexts.

    >>> sorted(set(sub_multisets(("A", "A", "B"), 2)))
    [('A', 'A'), ('A', 'B')]
    """
    if size > len(ms):
        return iter(())
    counts = Counter(ms)
    keys = sorted(counts)

    def rec(idx: int, remaining: int) -> Iterator[tuple[T, ...]]:
        if remaining == 0:
            yield ()
            return
        if idx == len(keys):
            return
        key = keys[idx]
        max_take = min(counts[key], remaining)
        for take in range(max_take + 1):
            for rest in rec(idx + 1, remaining - take):
                yield (key,) * take + rest

    return rec(0, size)
