"""Coschedule helpers.

Internally coschedules are plain canonical tuples (sorted job names);
:class:`Coschedule` is a thin value object for user-facing code that
adds the derived quantities the paper talks about: *heterogeneity* (the
number of distinct job types, Table II) and type multiplicities.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable

from repro.errors import WorkloadError
from repro.util.multiset import distinct_count

__all__ = ["Coschedule"]


@dataclass(frozen=True)
class Coschedule:
    """A multiset of job types co-running on the K contexts."""

    jobs: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.jobs:
            raise WorkloadError("a coschedule needs at least one job")
        if list(self.jobs) != sorted(self.jobs):
            raise WorkloadError(
                f"coschedule jobs must be sorted, got {self.jobs}; "
                "use Coschedule.of(...) to canonicalize"
            )

    @classmethod
    def of(cls, *names: str) -> "Coschedule":
        """Build a coschedule from names in any order."""
        return cls(jobs=tuple(sorted(names)))

    @classmethod
    def from_iterable(cls, names: Iterable[str]) -> "Coschedule":
        """Build a coschedule from an iterable of names."""
        return cls(jobs=tuple(sorted(names)))

    @property
    def size(self) -> int:
        """Number of jobs (occupied contexts)."""
        return len(self.jobs)

    @property
    def heterogeneity(self) -> int:
        """Number of distinct job types — Table II's grouping key."""
        return distinct_count(self.jobs)

    @property
    def is_homogeneous(self) -> bool:
        """True if all jobs are of one type."""
        return self.heterogeneity == 1

    def counts(self) -> Counter:
        """Multiplicity of each job type."""
        return Counter(self.jobs)

    def count_of(self, name: str) -> int:
        """Multiplicity of one job type (0 if absent)."""
        return Counter(self.jobs)[name]

    def label(self) -> str:
        """Compact label, e.g. ``2xbzip2+1xmcf+1xhmmer``."""
        counts = self.counts()
        return "+".join(f"{counts[name]}x{name}" for name in sorted(counts))
