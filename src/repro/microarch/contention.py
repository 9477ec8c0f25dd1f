"""What the SMT and multicore contention maps share.

Both machine models solve a coschedule's steady state as the fixed point
of a map over the state vector ``[ipc_1..n, share_1..n]`` (per-job IPC
and LLC capacity share).  A :class:`ContentionMap` is that map for one
coschedule, built as a prepared kernel:

* **State-independent terms are computed at build.**  The machine model
  computes every term that does not depend on the state once, when it
  builds the map: full-window core CPIs and MLPs, useful windows, the
  bus, cache and fetch constants.  Each evaluation then runs only the
  state-dependent float work.
* **Clamps are NaN-faithful comparisons.**  ``min(a, b)`` is written
  ``b if b < a else a`` and ``max(a, b)`` is written ``b if b > a else
  a``: the same arguments in the same order, so a NaN, a ``-0.0`` or an
  infinity comes out exactly as the builtin would return it, without
  the builtin's call.
* **Each formula has one copy, evaluated for all jobs in one call.**
  The per-job formulas are prepared for the coschedule's jobs
  (:func:`~repro.microarch.params.llc_mpki_of`, ``window_scaling_of``,
  ``core_cpi_of``, ``effective_mlp_of``), and so are the shared
  resources (:func:`~repro.microarch.membus.bus_model`,
  :func:`~repro.microarch.cache.share_allocator`,
  :func:`~repro.microarch.rob.window_allocator`,
  :func:`~repro.microarch.fetch.rival_weigher`).  The jobs' methods and
  the public per-call helpers call the same prepared functions, so no
  formula is written twice; every data check still raises inside the
  map.
* **Interpreter work is kept off the evaluation.**  Loops run over
  ranges built once and index their lists, never over a fresh ``zip``
  or comprehension.

The fixed-point iterate and the diagnostic evaluation are the same
equations, so a simulation result's diagnostics are exactly the map's
values at the fixed point.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.microarch.params import JobTypeParams, llc_mpki_of

__all__ = ["ContentionMap", "llc_miss_model"]


class ContentionMap:
    """One coschedule's fixed-point map, built once.

    Args:
        n: number of jobs in the coschedule.
        equations: ``equations(state)`` takes the state vector
            ``[ipc_1..n, share_1..n]`` and returns a tuple whose first
            item is the next state (a list of the same layout) and whose
            remaining items are the model's diagnostics.
        evaluation: the dataclass holding the next IPCs, the next shares
            and then ``equations``' diagnostics, field for field; list
            items are stored as tuples.

    Attributes:
        evaluations: how many times the map has been called as a
            fixed-point map (:meth:`evaluate` does not count).
    """

    __slots__ = ("n", "evaluations", "_equations", "_evaluation")

    def __init__(self, n: int, equations: Callable, evaluation: type) -> None:
        self.n = n
        self.evaluations = 0
        self._equations = equations
        self._evaluation = evaluation

    def __call__(self, state: Sequence[float]) -> list[float]:
        """The next iterate ``[ipc_1..n, share_1..n]`` from ``state``."""
        if len(state) != 2 * self.n:
            raise ValueError("state length mismatch with job count")
        self.evaluations += 1
        return self._equations(state)[0]

    def evaluate(self, ipcs: Sequence[float], shares: Sequence[float]):
        """All of the model's outputs at the given estimates."""
        n = self.n
        if len(ipcs) != n or len(shares) != n:
            raise ValueError("state length mismatch with job count")
        following, *diagnostics = self._equations([*ipcs, *shares])
        return self._evaluation(
            tuple(following[:n]),
            tuple(following[n:]),
            *(
                tuple(value) if isinstance(value, list) else value
                for value in diagnostics
            ),
        )


def llc_miss_model(
    jobs: Sequence[JobTypeParams],
) -> Callable[[Sequence[float]], tuple[list[float], float]]:
    """The LLC miss traffic of one coschedule.

    Returns ``misses(state) -> (mpkis, misses_per_cycle)`` over the
    state vector ``[ipc_1..n, share_1..n]`` of the ``n = len(jobs)``
    jobs: each job's LLC MPKI at its share
    (:func:`~repro.microarch.params.llc_mpki_of`), and the sum over jobs
    of IPC x MPKI / 1000, added up left to right.
    """
    n = len(jobs)
    mpkis_at = llc_mpki_of(jobs)
    indices = range(n)

    def misses(state: Sequence[float]) -> tuple[list[float], float]:
        mpkis = mpkis_at(state[n:])
        total = 0.0
        for i in indices:
            total += state[i] * mpkis[i]
        return mpkis, total / 1000.0

    return misses
