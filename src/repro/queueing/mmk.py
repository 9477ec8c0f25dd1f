"""M/M/K queueing analytics (Figure 4 and the Section-VI example).

The paper illustrates the turnaround-time/arrival-rate relation with an
M/M/4 queue: at lambda = 3.5 and mu = 1 there are on average 8.7 jobs in
the system and the turnaround time is 2.5; raising mu by 3% (the optimal
scheduler's throughput gain) drops these to 7.3 jobs and 2.1 — a 16%
turnaround reduction from a 3% throughput increase.  This module
implements the standard Erlang-C machinery used for those numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError

__all__ = ["MMKQueue"]


@dataclass(frozen=True)
class MMKQueue:
    """An M/M/K queue: Poisson arrivals, exponential service, K servers.

    Attributes:
        arrival_rate: lambda, jobs per unit time.
        service_rate: mu, jobs per unit time per server.
        servers: K.
    """

    arrival_rate: float
    service_rate: float
    servers: int

    def __post_init__(self) -> None:
        if self.arrival_rate <= 0.0:
            raise ConfigurationError("arrival rate must be positive")
        if self.service_rate <= 0.0:
            raise ConfigurationError("service rate must be positive")
        if self.servers <= 0:
            raise ConfigurationError("need at least one server")

    @property
    def offered_load(self) -> float:
        """a = lambda / mu (expected busy servers)."""
        return self.arrival_rate / self.service_rate

    @property
    def utilization(self) -> float:
        """rho = a / K; must be < 1 for stability."""
        return self.offered_load / self.servers

    @property
    def is_stable(self) -> bool:
        """True when the queue does not grow without bound."""
        return self.utilization < 1.0

    def _require_stable(self) -> None:
        if not self.is_stable:
            raise ConfigurationError(
                f"unstable queue: rho = {self.utilization:.3f} >= 1"
            )

    @property
    def erlang_c(self) -> float:
        """Probability an arriving job must wait (Erlang C formula)."""
        self._require_stable()
        a, k = self.offered_load, self.servers
        tail = a**k / math.factorial(k) / (1.0 - self.utilization)
        head = sum(a**n / math.factorial(n) for n in range(k))
        return tail / (head + tail)

    @property
    def mean_queue_length(self) -> float:
        """Lq: mean number of jobs waiting (not in service)."""
        self._require_stable()
        rho = self.utilization
        return self.erlang_c * rho / (1.0 - rho)

    @property
    def mean_jobs_in_system(self) -> float:
        """L = Lq + a: the paper's "jobs in the system"."""
        return self.mean_queue_length + self.offered_load

    @property
    def mean_wait(self) -> float:
        """Wq: mean time spent waiting in the queue."""
        return self.mean_queue_length / self.arrival_rate

    @property
    def mean_turnaround(self) -> float:
        """W = Wq + 1/mu: the paper's turnaround time."""
        return self.mean_wait + 1.0 / self.service_rate

    @property
    def empty_probability(self) -> float:
        """P0: probability the system holds no jobs at all."""
        self._require_stable()
        a, k = self.offered_load, self.servers
        head = sum(a**n / math.factorial(n) for n in range(k))
        tail = a**k / math.factorial(k) / (1.0 - self.utilization)
        return 1.0 / (head + tail)
