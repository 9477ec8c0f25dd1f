"""Rate-based discrete-event engine (single-machine front door).

Jobs progress at rates that depend on the currently running coschedule
(the per-job WIPC from the rate source), so the simulation advances
from event to event: the next event is either the earliest completion
under the current rates or the next arrival.  After every event the
scheduler re-selects the running set — context-switch costs are not
modeled, matching the paper ("effects that are not modeled in this
experiment").

:func:`run_system` is the M=1 special case of the cluster event core
(:mod:`repro.queueing.cluster`): one machine, a trivial dispatcher, and
the same shared per-run rate memo — the engine asks the rate source
once per distinct running multiset instead of once per event, and the
schedulers' candidate probing (MAXIT/SRPT) hits the same memo.  A
property test pins the wrapper's :class:`SystemMetrics` bit-identical
to the original single-machine loop, so every Section-VI experiment is
unchanged; multi-machine scenarios use
:func:`repro.queueing.cluster.run_cluster` directly.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.microarch.rates import RateSource
from repro.queueing.cluster import run_cluster
from repro.queueing.dispatch import RoundRobinDispatcher
from repro.queueing.job import Job
from repro.queueing.schedulers import Scheduler
from repro.queueing.system import SystemMetrics

__all__ = ["run_system"]


def run_system(
    rates: RateSource,
    scheduler: Scheduler,
    arrivals: Iterable[Job],
    **config: Any,
) -> SystemMetrics:
    """Run the single-machine queueing system and return its metrics.

    ``scheduler`` is re-invoked at every event; ``arrivals`` are jobs
    in non-decreasing arrival order.  The keyword arguments are the
    fields of :class:`~repro.queueing.cluster.RunConfig` — the
    saturation experiment, for instance, sets
    ``stop_when_fewer_than`` to cut the drain tail and
    ``keep_in_system`` to admit a window of the job pool, which keeps
    scheduler decisions cheap without starving it of choices.

    Returns:
        Accumulated :class:`~repro.queueing.system.SystemMetrics`.
    """
    metrics = run_cluster(
        rates, [scheduler], RoundRobinDispatcher(), arrivals, **config
    )
    return metrics.per_machine[0]
