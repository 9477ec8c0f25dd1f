"""A small LP modeling layer.

Lets the Section-IV throughput program be written the way the paper
states it::

    model = Model("optimal_throughput", sense=Sense.MAXIMIZE)
    x = {s: model.add_variable(f"x[{s}]") for s in coschedules}
    model.add_constraint(sum(x.values()) == 1, name="time_budget")
    ...
    solution = model.solve()

Variables are non-negative by default (matching the paper's time
fractions); free variables and upper bounds are supported for generality
and are exercised by the test suite.  A program assembled straight
into standard form enters through :meth:`Model.from_form`, so it is
solved by the same :meth:`Model.solve` on either backend.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping

from repro.errors import ConfigurationError
from repro.lp.solution import LPSolution

if TYPE_CHECKING:
    from repro.lp.standard_form import StandardForm

__all__ = ["Sense", "Variable", "LinearExpr", "Constraint", "Model"]


class Sense(enum.Enum):
    """Optimization direction."""

    MINIMIZE = "min"
    MAXIMIZE = "max"


class _Relation(enum.Enum):
    """Constraint relation operators."""

    EQ = "=="
    LE = "<="
    GE = ">="


@dataclass(frozen=True)
class Variable:
    """A decision variable.

    Create via :meth:`Model.add_variable`; arithmetic on variables builds
    :class:`LinearExpr` objects.

    Identity semantics: because ``==`` is overloaded to build
    constraints, hashing is by object identity — two variables are the
    same dict key only if they are the same object.  (A value-based
    hash would make coefficient dicts call the overloaded ``__eq__`` on
    collisions, which builds a constraint instead of answering
    equality.)
    """

    name: str
    lower: float | None
    upper: float | None
    index: int

    def __hash__(self) -> int:
        return id(self)

    def _expr(self) -> "LinearExpr":
        return LinearExpr({self: 1.0}, 0.0)

    def __add__(self, other):
        return self._expr() + other

    def __radd__(self, other):
        return self._expr() + other

    def __sub__(self, other):
        return self._expr() - other

    def __rsub__(self, other):
        return (-1.0) * self._expr() + other

    def __mul__(self, coefficient: float) -> "LinearExpr":
        return self._expr() * coefficient

    def __rmul__(self, coefficient: float) -> "LinearExpr":
        return self._expr() * coefficient

    def __neg__(self) -> "LinearExpr":
        return self._expr() * -1.0

    def __eq__(self, other) -> "Constraint":  # type: ignore[override]
        return self._expr() == other

    def __le__(self, other) -> "Constraint":
        return self._expr() <= other

    def __ge__(self, other) -> "Constraint":
        return self._expr() >= other


class LinearExpr:
    """An affine expression: sum of coefficient * variable plus constant."""

    __slots__ = ("coefficients", "constant")

    def __init__(
        self,
        coefficients: Mapping[Variable, float] | None = None,
        constant: float = 0.0,
    ) -> None:
        self.coefficients: dict[Variable, float] = dict(coefficients or {})
        self.constant = float(constant)

    @staticmethod
    def _coerce(value) -> "LinearExpr":
        if isinstance(value, LinearExpr):
            return value
        if isinstance(value, Variable):
            return value._expr()
        if isinstance(value, (int, float)):
            return LinearExpr({}, float(value))
        raise TypeError(f"cannot use {type(value).__name__} in a linear expression")

    def copy(self) -> "LinearExpr":
        """Return an independent copy of this expression."""
        return LinearExpr(dict(self.coefficients), self.constant)

    def __add__(self, other) -> "LinearExpr":
        other = self._coerce(other)
        result = self.copy()
        for var, coef in other.coefficients.items():
            result.coefficients[var] = result.coefficients.get(var, 0.0) + coef
        result.constant += other.constant
        return result

    def __radd__(self, other) -> "LinearExpr":
        return self.__add__(other)

    def __sub__(self, other) -> "LinearExpr":
        return self.__add__(self._coerce(other) * -1.0)

    def __rsub__(self, other) -> "LinearExpr":
        return (self * -1.0).__add__(other)

    def __mul__(self, coefficient: float) -> "LinearExpr":
        if not isinstance(coefficient, (int, float)):
            raise TypeError("LP expressions only support scalar multiplication")
        return LinearExpr(
            {v: c * coefficient for v, c in self.coefficients.items()},
            self.constant * coefficient,
        )

    def __rmul__(self, coefficient: float) -> "LinearExpr":
        return self.__mul__(coefficient)

    def __neg__(self) -> "LinearExpr":
        return self * -1.0

    def __eq__(self, other) -> "Constraint":  # type: ignore[override]
        return Constraint(self - self._coerce(other), _Relation.EQ)

    def __le__(self, other) -> "Constraint":
        return Constraint(self - self._coerce(other), _Relation.LE)

    def __ge__(self, other) -> "Constraint":
        return Constraint(self - self._coerce(other), _Relation.GE)

    def __hash__(self) -> int:  # consistency with overridden __eq__
        return id(self)

    def evaluate(self, values: Mapping[str, float]) -> float:
        """Evaluate with a variable-name -> value assignment."""
        total = self.constant
        for var, coef in self.coefficients.items():
            total += coef * values.get(var.name, 0.0)
        return total

    def __repr__(self) -> str:
        terms = " + ".join(
            f"{coef:g}*{var.name}" for var, coef in self.coefficients.items()
        )
        return f"LinearExpr({terms or '0'} + {self.constant:g})"


@dataclass
class Constraint:
    """A linear constraint ``expr (==|<=|>=) 0`` with an optional name."""

    expr: LinearExpr
    relation: _Relation
    name: str = ""

    @property
    def rhs(self) -> float:
        """Right-hand side after moving the constant over: expr' rel rhs."""
        return -self.expr.constant

    def violation(self, values: Mapping[str, float]) -> float:
        """Non-negative violation magnitude under an assignment."""
        lhs = self.expr.evaluate(values)
        if self.relation is _Relation.EQ:
            return abs(lhs)
        if self.relation is _Relation.LE:
            return max(0.0, lhs)
        return max(0.0, -lhs)


class Model:
    """A linear program under construction.

    Args:
        name: label used in error messages.
        sense: optimization direction (default MINIMIZE).
    """

    def __init__(self, name: str = "lp", sense: Sense = Sense.MINIMIZE) -> None:
        self.name = name
        self.sense = sense
        self.variables: list[Variable] = []
        self.constraints: list[Constraint] = []
        self.objective: LinearExpr = LinearExpr()
        self._names: set[str] = set()
        #: A form the model was given compiled (see :meth:`from_form`).
        self.form: StandardForm | None = None

    @classmethod
    def from_form(
        cls, form: "StandardForm", *, name: str = "lp", sense: Sense
    ) -> "Model":
        """A model given directly in standard form.

        For a program assembled straight into arrays (the Section-IV
        LP): it has no variables or constraints of its own, and every
        backend solves ``form`` as is.  ``sense`` is the original
        sense ``form`` was standardized from.
        """
        model = cls(name, sense)
        model.form = form
        return model

    def add_variable(
        self,
        name: str,
        *,
        lower: float | None = 0.0,
        upper: float | None = None,
    ) -> Variable:
        """Add a decision variable (non-negative by default)."""
        if name in self._names:
            raise ConfigurationError(f"duplicate variable name {name!r}")
        if lower is not None and upper is not None and lower > upper:
            raise ConfigurationError(
                f"variable {name!r} has lower {lower} > upper {upper}"
            )
        var = Variable(name=name, lower=lower, upper=upper, index=len(self.variables))
        self.variables.append(var)
        self._names.add(name)
        return var

    def add_constraint(self, constraint: Constraint, *, name: str = "") -> Constraint:
        """Register a constraint built with ==, <= or >=."""
        if not isinstance(constraint, Constraint):
            raise TypeError(
                "add_constraint expects a Constraint (use ==, <= or >= on "
                "linear expressions); got "
                f"{type(constraint).__name__}"
            )
        constraint.name = name or f"c{len(self.constraints)}"
        self.constraints.append(constraint)
        return constraint

    def set_objective(self, expr, *, sense: Sense | None = None) -> None:
        """Set the objective expression (and optionally the sense)."""
        self.objective = LinearExpr._coerce(expr)
        if sense is not None:
            self.sense = sense

    def solve(self, *, backend: str = "simplex") -> LPSolution:
        """Solve and return an :class:`LPSolution`.

        Args:
            backend: ``"simplex"`` (default, self-contained) or
                ``"scipy"`` (requires scipy; used for cross-checks).
        """
        if backend == "simplex":
            from repro.lp.simplex import solve_model

            return solve_model(self)
        if backend == "scipy":
            from repro.lp.scipy_backend import solve_model_scipy

            return solve_model_scipy(self)
        raise ConfigurationError(f"unknown LP backend {backend!r}")

    def check_feasible(
        self, values: Mapping[str, float], *, tolerance: float = 1e-7
    ) -> bool:
        """True if an assignment satisfies all constraints and bounds."""
        for constraint in self.constraints:
            if constraint.violation(values) > tolerance:
                return False
        for var in self.variables:
            value = values.get(var.name, 0.0)
            if var.lower is not None and value < var.lower - tolerance:
                return False
            if var.upper is not None and value > var.upper + tolerance:
                return False
        return True

    def variable_names(self) -> Iterable[str]:
        """Names of all registered variables, in creation order."""
        return [v.name for v in self.variables]
