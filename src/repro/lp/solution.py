"""Solution objects returned by the LP backends."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

__all__ = ["SolveStatus", "LPSolution"]


class SolveStatus(enum.Enum):
    """Terminal status of an LP solve."""

    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LPSolution:
    """Result of solving a :class:`repro.lp.model.Model`.

    Attributes:
        status: terminal solver status.
        objective: objective value in the model's original sense
            (meaningful only when status is OPTIMAL).
        values: variable name -> optimal value.
        duals: constraint name -> dual value (simplex backend only;
            empty when unavailable).
        iterations: simplex pivots (or backend-reported iterations).
    """

    status: SolveStatus
    objective: float = 0.0
    values: dict[str, float] = field(default_factory=dict)
    duals: dict[str, float] = field(default_factory=dict)
    iterations: int = 0

    @property
    def is_optimal(self) -> bool:
        """True when the solver proved optimality."""
        return self.status is SolveStatus.OPTIMAL

    def value(self, name: str) -> float:
        """Optimal value of variable ``name`` (0.0 if absent/nonbasic)."""
        return self.values.get(name, 0.0)

    def support(self, *, tolerance: float = 1e-9) -> dict[str, float]:
        """Variables with value above ``tolerance``.

        For the Section-IV program the support is the set of coschedules
        the optimal scheduler actually uses; LP theory bounds its size by
        the number of equality constraints (= number of job types).
        """
        return {k: v for k, v in self.values.items() if v > tolerance}
