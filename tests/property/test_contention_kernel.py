"""The prepared contention kernel is the model's equations, float for float.

:func:`~repro.microarch.smt_core.smt_iteration` and
:func:`~repro.microarch.multicore.multicore_iteration` build each
coschedule's map as a prepared kernel: state-independent terms are
computed once and the clamps are comparisons instead of ``min``/``max``
calls.  The oracle here is the model written out plainly: every term
recomputed from the job parameters on each call, the clamps as
``min``/``max``, and the cache, bus, ROB, fetch and water-filling
helpers inlined in their straightforward form.

Every field of :meth:`ContentionMap.evaluate` is compared with ``==``
and through ``float.hex``, so a ``-0.0`` against a ``+0.0`` fails too.
The states are hypothesis draws plus edge states that put the model on
each of its clamps: the bus at ``max_utilization``, a stall at the 0.99
cap, windows at or above ``w_need``, a zero state and a negative-zero
state.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import astuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConvergenceError
from repro.microarch import fetch
from repro.microarch.benchmarks import BENCHMARK_NAMES, default_roster
from repro.microarch.config import (
    FetchPolicy,
    MachineConfig,
    RobPolicy,
    quad_core_machine,
    smt_machine,
)
from repro.microarch.membus import bus_model
from repro.microarch.multicore import multicore_iteration
from repro.microarch.params import JobTypeParams
from repro.microarch.smt_core import smt_iteration
from repro.util.fixedpoint import solve_fixed_point

ROSTER = default_roster()
MACHINES = [
    smt_machine(fetch_policy=fetch_policy, rob_policy=rob_policy)
    for fetch_policy in FetchPolicy
    for rob_policy in RobPolicy
] + [quad_core_machine()]
MACHINE_IDS = [
    f"{m.name}-{m.fetch_policy.value}-{m.rob_policy.value}" if m.is_smt
    else m.name
    for m in MACHINES
]


# ----------------------------------------------------------------------
# The oracle: the model's equations written out plainly.
# ----------------------------------------------------------------------


def window_scaling(job: JobTypeParams, window: float) -> float:
    if window <= 0.0:
        return 0.0
    return min(1.0, window / float(job.w_need))


def core_cpi(job: JobTypeParams, scale: float, penalty: float) -> float:
    return (
        job.cpi_base * (1.0 + job.ilp_sens * (1.0 - scale))
        + job.br_mpki / 1000.0 * penalty
        + job.cpi_short
    )


def effective_mlp(job: JobTypeParams, scale: float) -> float:
    return 1.0 + (job.mlp - 1.0) * scale


def llc_mpki(job: JobTypeParams, cache_mb: float) -> float:
    if cache_mb < 0.0:
        raise ValueError(cache_mb)
    return job.mpki_inf + job.mpki_amp / (
        1.0 + (cache_mb / job.c_half_mb) ** job.gamma
    )


def bus(machine: MachineConfig, misses: float) -> tuple[float, float]:
    if misses < 0.0:
        raise ValueError(misses)
    service = machine.bus_service_cycles
    u = min(misses * service, machine.bus_max_utilization)
    return u, service * u / (2.0 * (1.0 - u))


def cache_split(machine: MachineConfig, pressures: list[float]) -> list[float]:
    n = len(pressures)
    total_mb = machine.llc_mb
    for p in pressures:
        if p < 0.0:
            raise ValueError(p)
    if n == 1:
        return [total_mb]
    scaled = [p**0.6 for p in pressures]
    total = 0.0
    for p in scaled:
        total += p
    if total <= 0.0:
        return [total_mb / n] * n
    floor = machine.cache_share_floor * total_mb
    distributable = total_mb - n * floor
    return [floor + distributable * p / total for p in scaled]


def water_fill(demands, weights, capacity):
    n = len(demands)
    allocation = [0.0] * n
    active = [i for i in range(n) if demands[i] > 0.0]
    remaining = float(capacity)
    effective = [max(w, 1e-12) for w in weights]
    while active and remaining > 1e-15:
        weight_sum = 0.0
        for i in active:
            weight_sum += effective[i]
        satisfied = [
            i
            for i in active
            if demands[i] - allocation[i]
            <= remaining * effective[i] / weight_sum + 1e-15
        ]
        if satisfied:
            for i in satisfied:
                grant = demands[i] - allocation[i]
                allocation[i] = demands[i]
                remaining -= grant
                active.remove(i)
        else:
            for i in active:
                allocation[i] += remaining * effective[i] / weight_sum
            remaining = 0.0
    return allocation


def windows_of(machine, jobs, stall_fractions):
    n = len(jobs)
    rob_size = machine.rob_size
    if n == 1:
        return [float(rob_size)]
    if machine.rob_policy is RobPolicy.STATIC:
        return [rob_size / n] * n
    icount = machine.fetch_policy is FetchPolicy.ICOUNT
    demands = []
    for job, sf in zip(jobs, stall_fractions):
        if not 0.0 <= sf <= 1.0:
            raise ValueError(sf)
        useful = float(min(job.w_need, rob_size))
        if icount:
            demands.append(useful * (1.0 + 0.25 * sf))
        else:
            demands.append((1.0 - sf) * useful + sf * float(rob_size))
    total = 0.0
    for d in demands:
        total += d
    if total <= rob_size:
        return demands
    if not icount:
        return [rob_size * d / total for d in demands]
    return water_fill(demands, [1.0] * n, float(rob_size))


def rival_weights(machine, activities):
    if machine.fetch_policy is FetchPolicy.ROUND_ROBIN:
        waste = machine.rr_slot_waste
    else:
        waste = 1.0 / (1.0 + machine.icount_strength)
    for a in activities:
        if not -1e-9 <= a <= 1.0 + 1e-9:
            raise ValueError(a)
    return [
        min(1.0, max(0.0, a) + waste * (1.0 - max(0.0, a)))
        for a in activities
    ]


def misses_of(jobs, ipcs, shares):
    mpkis = [llc_mpki(job, share) for job, share in zip(jobs, shares)]
    misses = 0.0
    for ipc, mpki in zip(ipcs, mpkis):
        misses += ipc * mpki
    return mpkis, misses / 1000.0


def reference_smt(machine, jobs, ipcs, shares):
    """The SMT equations: every field of an ``SmtEvaluation``."""
    n = len(jobs)
    penalty = machine.branch_penalty_cycles
    rob = float(machine.rob_size)
    mpkis, misses = misses_of(jobs, ipcs, shares)
    utilization, delay = bus(machine, misses)
    latency = machine.mem_latency_cycles + delay

    provisional_stalls = []
    for i, job in enumerate(jobs):
        full_cpi = core_cpi(job, window_scaling(job, rob), penalty)
        t_mem = mpkis[i] / 1000.0 * latency / job.mlp
        provisional_stalls.append(t_mem / (full_cpi + t_mem))
    windows = windows_of(machine, jobs, provisional_stalls)

    smt_factor = 1.0 + machine.smt_overhead * (n - 1)
    t_execs, t_mems, stall_fractions, activities = [], [], [], []
    expected_active = 0.0
    for i, job in enumerate(jobs):
        scale = window_scaling(job, windows[i])
        t_exec = core_cpi(job, scale, penalty) * smt_factor
        t_mem = mpkis[i] / 1000.0 * latency / effective_mlp(job, scale)
        t_execs.append(t_exec)
        t_mems.append(t_mem)
        stall = min(0.99, max(0.0, t_mem * ipcs[i]))
        stall_fractions.append(stall)
        activities.append(1.0 - stall)
        expected_active += 1.0 - stall
    weights = rival_weights(machine, activities)

    eta = 1.0 / (
        1.0 + machine.smt_fragmentation * max(0.0, expected_active - 1.0)
    )
    allocation = []
    for i in range(n):
        rivals = 0.0
        for j in range(n):
            if j != i:
                rivals += weights[j]
        share = eta * machine.width / (1.0 + rivals)
        active_rate = min(1.0 / t_execs[i], share)
        allocation.append(1.0 / (1.0 / active_rate + t_mems[i]))
    next_shares = cache_split(
        machine, [a * m / 1000.0 for a, m in zip(allocation, mpkis)]
    )
    return (
        tuple(allocation),
        tuple(next_shares),
        tuple(mpkis),
        tuple(windows),
        tuple(stall_fractions),
        latency,
        utilization,
    )


def reference_multicore(machine, jobs, ipcs, shares):
    """The multicore equations: every field of a
    ``MulticoreEvaluation``."""
    mpkis, misses = misses_of(jobs, ipcs, shares)
    utilization, delay = bus(machine, misses)
    latency = machine.mem_latency_cycles + delay
    width = float(machine.width)
    next_ipcs = []
    for job, mpki in zip(jobs, mpkis):
        scale = window_scaling(job, float(machine.rob_size))
        cpi = (
            core_cpi(job, scale, machine.branch_penalty_cycles)
            + mpki / 1000.0 * latency / effective_mlp(job, scale)
        )
        next_ipcs.append(min(1.0 / cpi, width))
    next_shares = cache_split(
        machine, [a * m / 1000.0 for a, m in zip(next_ipcs, mpkis)]
    )
    return (
        tuple(next_ipcs),
        tuple(next_shares),
        tuple(mpkis),
        latency,
        utilization,
    )


# ----------------------------------------------------------------------
# Comparison helpers.
# ----------------------------------------------------------------------


def hexes(value):
    """``float.hex`` of a float, element-wise for a tuple."""
    if isinstance(value, tuple):
        return tuple(hexes(v) for v in value)
    return float(value).hex()


def build(machine, names):
    jobs = [ROSTER[name] for name in names]
    iteration = smt_iteration if machine.is_smt else multicore_iteration
    reference = reference_smt if machine.is_smt else reference_multicore
    return jobs, iteration(machine, jobs), reference


def assert_matches_oracle(machine, names, states, repeat=2):
    """Evaluate ``states`` in order on one map, each ``repeat`` times,
    through both :meth:`ContentionMap.evaluate` and the fixed-point
    call."""
    jobs, kernel, reference = build(machine, names)
    n = len(jobs)
    for ipcs, shares in states:
        expected = reference(machine, jobs, ipcs, shares)
        for _ in range(repeat):
            actual = astuple(kernel.evaluate(ipcs, shares))
            assert actual == expected
            assert hexes(actual) == hexes(expected)
            following = kernel([*ipcs, *shares])
            assert hexes(tuple(following[:n])) == hexes(expected[0])
            assert hexes(tuple(following[n:])) == hexes(expected[1])
    return expected


# ----------------------------------------------------------------------
# Hypothesis states.
# ----------------------------------------------------------------------


coschedules = st.lists(
    st.sampled_from(BENCHMARK_NAMES), min_size=1, max_size=4
)
ipc_values = st.floats(min_value=0.0, max_value=4.5, allow_nan=False)


@st.composite
def coschedule_states(draw, machine):
    names = draw(coschedules)
    n = len(names)
    share_values = st.floats(
        min_value=0.0, max_value=machine.llc_mb, allow_nan=False
    )
    state = st.tuples(
        st.lists(ipc_values, min_size=n, max_size=n),
        st.lists(share_values, min_size=n, max_size=n),
    )
    return names, draw(st.lists(state, min_size=1, max_size=4))


@pytest.mark.parametrize("machine", MACHINES, ids=MACHINE_IDS)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_kernel_matches_oracle(machine, data):
    names, states = data.draw(coschedule_states(machine))
    assert_matches_oracle(machine, names, states)


@pytest.mark.parametrize("machine", MACHINES, ids=MACHINE_IDS)
def test_kernel_matches_oracle_along_a_solve(machine):
    """The states a real solve visits, in the order it visits them
    (on ``quad`` this first rung ends in a stalled limit cycle)."""
    names = ("bzip2", "libquantum", "mcf", "tonto")
    jobs, kernel, _ = build(machine, names)
    visited = []

    def record(state):
        visited.append((list(state[:4]), list(state[4:])))
        return kernel(state)

    start = [1.0] * 4 + [machine.llc_mb / 4] * 4
    with contextlib.suppress(ConvergenceError):
        solve_fixed_point(record, start, damping=0.4, tolerance=1e-10)
    assert len(visited) > 10
    assert_matches_oracle(machine, names, visited, repeat=1)


# ----------------------------------------------------------------------
# Edge states: each puts the model on one of its clamps.
# ----------------------------------------------------------------------

#: The w_need of these four add up to the ROB size (64 + 40 + 96 + 56),
#: so unstalled demands fit exactly and windows reach w_need.
EDGE_NAMES = ("libquantum", "mcf", "sjeng", "xalancbmk")


def edge_state(machine, ipc, share):
    return [ipc] * 4, [share] * 4


@pytest.mark.parametrize("machine", MACHINES, ids=MACHINE_IDS)
def test_bus_at_max_utilization(machine):
    states = [edge_state(machine, 4.0, 0.0)]
    expected = assert_matches_oracle(machine, EDGE_NAMES, states)
    assert expected[-1] == machine.bus_max_utilization


@pytest.mark.parametrize("machine", MACHINES[:4], ids=MACHINE_IDS[:4])
def test_stall_at_cap(machine):
    states = [edge_state(machine, 4.0, machine.llc_mb / 4)]
    expected = assert_matches_oracle(machine, EDGE_NAMES, states)
    assert 0.99 in expected[4]


@pytest.mark.parametrize("machine", MACHINES[:4], ids=MACHINE_IDS[:4])
def test_windows_reach_w_need(machine):
    states = [edge_state(machine, 0.0, machine.llc_mb / 4)]
    expected = assert_matches_oracle(machine, EDGE_NAMES, states)
    needs = [ROSTER[name].w_need for name in EDGE_NAMES]
    assert any(w >= need for w, need in zip(expected[3], needs))


@pytest.mark.parametrize("machine", MACHINES, ids=MACHINE_IDS)
@pytest.mark.parametrize("zero", [0.0, -0.0], ids=["zero", "negative-zero"])
def test_zero_state(machine, zero):
    """No miss traffic: the bus idles and no thread stalls."""
    states = [edge_state(machine, zero, zero)]
    expected = assert_matches_oracle(machine, EDGE_NAMES, states)
    assert expected[-1] == 0.0
    if machine.is_smt:
        assert set(expected[4]) == {0.0}


# ----------------------------------------------------------------------
# The clamps: each comparison returns what its min/max original did.
# ----------------------------------------------------------------------

SPECIAL = [
    math.nan,
    math.inf,
    -math.inf,
    0.0,
    -0.0,
    1.0,
    -1.0,
    0.99,
    1e-12,
]


def same_float(a: float, b: float) -> bool:
    """Identical floats: both NaN, or equal with the same sign bit."""
    if a != a or b != b:
        return a != a and b != b
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


@pytest.mark.parametrize("a", SPECIAL)
@pytest.mark.parametrize("b", SPECIAL)
def test_comparison_clamps_match_min_max(a, b):
    assert same_float(b if b < a else a, min(a, b))
    assert same_float(b if b > a else a, max(a, b))


@pytest.mark.parametrize("window", SPECIAL + [40.0, 200.0])
def test_window_scaling_clamp(window):
    job = ROSTER["mcf"]
    assert same_float(job.window_scaling(window), window_scaling(job, window))


@pytest.mark.parametrize("rate", [math.nan, math.inf, 0.0, -0.0, 0.01, 1.0])
def test_bus_clamp(rate):
    """The bus model clamps like ``min`` and lets a NaN through (the
    fixed-point solver reports it)."""
    machine = smt_machine()
    model = bus_model(
        machine.bus_service_cycles,
        max_utilization=machine.bus_max_utilization,
    )
    actual = model(rate)
    expected = bus(machine, rate)
    assert all(same_float(x, y) for x, y in zip(actual, expected))


@pytest.mark.parametrize("activity", [0.0, -0.0, -1e-10, 1.0, 1.0 + 1e-10])
def test_rival_weight_clamp(activity):
    for policy in FetchPolicy:
        machine = smt_machine(fetch_policy=policy)
        actual = fetch.rival_weights(
            policy,
            [activity],
            strength=machine.icount_strength,
            rr_slot_waste=machine.rr_slot_waste,
        )
        expected = rival_weights(machine, [activity])
        assert same_float(actual[0], expected[0])


# ----------------------------------------------------------------------
# Evaluation counting.
# ----------------------------------------------------------------------


def test_map_counts_its_fixed_point_calls():
    machine = quad_core_machine()
    _, kernel, _ = build(machine, ("mcf", "sjeng"))
    state = [1.0, 1.0, 1.0, 1.0]
    assert kernel.evaluations == 0
    kernel(state)
    kernel(state)
    kernel.evaluate(state[:2], state[2:])
    assert kernel.evaluations == 2


@pytest.mark.parametrize(
    "machine",
    [smt_machine(rob_policy=RobPolicy.STATIC), quad_core_machine()],
    ids=["smt4-static", "quad"],
)
def test_nan_state_is_the_solvers_failure(machine):
    """A NaN reaching the map comes out as a NaN iterate, not as a
    helper's ``ValueError``, so the solver names it and the damping
    ladder moves on to its next rung.  A NaN *start* vector never
    reaches the map: the solver rejects it as an argument error."""
    _, kernel, _ = build(machine, ("mcf", "sjeng"))
    state = [1.0, 1.0, math.nan, 1.0]
    assert any(math.isnan(v) for v in kernel(state))
    with pytest.raises(ValueError, match="start vector must be finite"):
        solve_fixed_point(kernel, state)

    def poisoned(x):
        return kernel([x[0], x[1], math.nan, x[3]])

    with pytest.raises(ConvergenceError, match="non-finite iterate"):
        solve_fixed_point(poisoned, [1.0] * 4)
