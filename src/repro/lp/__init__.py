"""Linear-programming substrate.

The paper solves its optimal-throughput formulation with the GNU Linear
Programming Kit.  This package provides an equivalent, self-contained
stack:

* :mod:`repro.lp.model` — a small modeling layer (variables, linear
  expressions, constraints, objective) so a program reads like the
  math (the multi-machine LP of :mod:`repro.core.multimachine`; the
  test oracle of the Section-IV LP, which :mod:`repro.core.optimal`
  re-solves often enough to assemble straight into standard form).
* :mod:`repro.lp.simplex` — a dense two-phase primal simplex solver with
  Bland's anti-cycling rule, the default backend.
* :mod:`repro.lp.scipy_backend` — an optional backend delegating to
  ``scipy.optimize.linprog`` (HiGHS), used in tests to cross-validate the
  simplex implementation.
"""

from repro.lp.model import Constraint, LinearExpr, Model, Sense, Variable
from repro.lp.solution import LPSolution, SolveStatus
from repro.lp.simplex import solve_standard_form
from repro.lp.standard_form import StandardForm

__all__ = [
    "Constraint",
    "LinearExpr",
    "Model",
    "Sense",
    "Variable",
    "LPSolution",
    "SolveStatus",
    "solve_standard_form",
    "StandardForm",
]
