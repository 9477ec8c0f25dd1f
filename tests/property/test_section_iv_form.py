"""The Section-IV LP assembled straight into standard form is the
modeling layer's compilation, byte for byte.

:func:`repro.core.optimal.section_iv_form` fills ``c``, ``A`` and ``b``
directly from the rates.  The oracle here is the program written in
the modeling layer (variables, linear expressions, constraints) and
compiled by :func:`repro.lp.standard_form.to_standard_form` — the way
``optimal_throughput`` built it before.  Arrays are compared by
``tobytes()``, so a ``-0.0`` against a ``+0.0`` fails, and the solved
schedules are compared with ``repr``-equal floats on both backends.
"""

from __future__ import annotations

from typing import Mapping

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.optimal import (
    OptimalSchedule,
    _normalize_weights,
    optimal_throughput,
    section_iv_form,
    worst_throughput,
)
from repro.core.workload import Workload
from repro.lp.model import LinearExpr, Model, Sense
from repro.lp.standard_form import StandardForm, to_standard_form
from repro.queueing.hotpath import synthetic_rates


def oracle_model(
    rates,
    workload: Workload,
    contexts: int,
    sense: Sense,
    type_weights: Mapping[str, float] | None,
) -> tuple[Model, dict]:
    """The Section-IV LP written in the modeling layer."""
    coschedules = workload.coschedules(contexts)
    type_rates = {s: rates.type_rates(s) for s in coschedules}
    weights = _normalize_weights(workload, type_weights)
    model = Model(
        name=f"{sense.value}_tp[{workload.label()}]", sense=sense
    )
    x = {s: model.add_variable(f"x[{','.join(s)}]") for s in coschedules}
    total_time = LinearExpr({x[s]: 1.0 for s in coschedules})
    model.add_constraint(total_time == 1.0, name="time_budget")
    reference = workload.types[0]
    for b in workload.types[1:]:
        scale = weights[reference] / weights[b]
        balance = LinearExpr(
            {
                x[s]: type_rates[s].get(b, 0.0) * scale
                - type_rates[s].get(reference, 0.0)
                for s in coschedules
            }
        )
        model.add_constraint(balance == 0.0, name=f"equal_work[{b}]")
    model.set_objective(
        LinearExpr({x[s]: sum(type_rates[s].values()) for s in coschedules})
    )
    return model, x


def oracle_schedule(
    rates, workload, contexts, sense, type_weights, backend
) -> OptimalSchedule:
    model, x = oracle_model(rates, workload, contexts, sense, type_weights)
    solution = model.solve(backend=backend)
    assert solution.is_optimal
    fractions = {}
    for s, var in x.items():
        value = solution.value(var.name)
        if value > 1e-12:
            fractions[s] = value
    return OptimalSchedule(
        workload=workload,
        throughput=solution.objective,
        fractions=fractions,
        sense="max" if sense is Sense.MAXIMIZE else "min",
        duals=dict(solution.duals),
    )


def assert_same_form(direct: StandardForm, compiled: StandardForm) -> None:
    for name in ("c", "A", "b"):
        got, want = getattr(direct, name), getattr(compiled, name)
        assert got.shape == want.shape, name
        assert got.dtype == want.dtype, name
        assert got.tobytes() == want.tobytes(), name
    assert direct.column_meaning == compiled.column_meaning
    assert direct.row_names == compiled.row_names
    assert direct.row_signs == compiled.row_signs
    assert repr(direct.objective_constant) == repr(compiled.objective_constant)
    assert direct.objective_sign == compiled.objective_sign


def canonical(schedule: OptimalSchedule) -> tuple:
    """Every float of a schedule as its repr, in a stable order."""
    return (
        schedule.workload,
        schedule.sense,
        repr(schedule.throughput),
        [(s, repr(v)) for s, v in schedule.fractions.items()],
        sorted((k, repr(v)) for k, v in schedule.duals.items()),
    )


SENSES = {Sense.MAXIMIZE: optimal_throughput, Sense.MINIMIZE: worst_throughput}


@st.composite
def programs(draw):
    n_types = draw(st.integers(1, 5))
    contexts = draw(st.integers(1, 4))
    seed = draw(st.sampled_from([1, 2, 7, 13, 42]))
    table, names = synthetic_rates(
        n_types=n_types, contexts=contexts, seed=seed
    )
    workload = Workload.of(*names)
    if draw(st.booleans()):
        weights = None
    else:
        weights = {
            name: draw(st.floats(0.05, 20.0, allow_nan=False))
            for name in names
        }
    sense = draw(st.sampled_from(list(SENSES)))
    return table, workload, contexts, sense, weights


@settings(max_examples=60, deadline=None)
@given(programs())
def test_direct_form_is_the_compiled_model(program):
    table, workload, contexts, sense, weights = program
    model, _ = oracle_model(table, workload, contexts, sense, weights)
    assert_same_form(
        section_iv_form(table, workload, contexts, sense, weights),
        to_standard_form(model),
    )


@settings(max_examples=40, deadline=None)
@given(programs(), st.sampled_from(["simplex", "scipy"]))
def test_schedule_is_the_compiled_models(program, backend):
    table, workload, contexts, sense, weights = program
    solve = SENSES[sense]
    got = solve(
        table, workload, contexts=contexts, backend=backend,
        type_weights=weights,
    )
    want = oracle_schedule(table, workload, contexts, sense, weights, backend)
    assert canonical(got) == canonical(want)


class _Rates:
    """A bare rate source over a dict (no validation of the floats)."""

    def __init__(self, table) -> None:
        self.table = table

    def type_rates(self, coschedule):
        return self.table[tuple(sorted(coschedule))]


@pytest.mark.parametrize("sense", list(SENSES))
def test_signed_zero_right_hand_sides(sense):
    """An equal-work row without a sign-bit coefficient keeps the
    compiled ``-0.0`` right-hand side; one ``-0.0`` coefficient makes
    it ``+0.0``."""
    table, names = synthetic_rates(n_types=3, contexts=2, seed=7)
    reference, flipped = names[0], names[1]

    def rate(coschedule, name, value):
        if name == reference:
            return 0.0
        if coschedule == (flipped, flipped):
            return -0.0
        return value

    rates = _Rates(
        {
            s: {
                name: rate(s, name, value)
                for name, value in table.type_rates(s).items()
            }
            for s in table.coschedules()
        }
    )
    workload = Workload.of(*names)
    model, _ = oracle_model(rates, workload, 2, sense, None)
    compiled = to_standard_form(model)
    assert [repr(v) for v in compiled.b.tolist()] == ["1.0", "0.0", "-0.0"]
    assert_same_form(section_iv_form(rates, workload, 2, sense), compiled)
