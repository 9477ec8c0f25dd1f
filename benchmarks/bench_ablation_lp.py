"""Ablation: LP backend cost (from-scratch simplex vs scipy HiGHS).

The Section-IV LP runs on a from-scratch simplex, a deliberately
self-contained substrate; this bench quantifies what that choice costs
on real Section-IV programs relative to the industrial solver.
"""

from __future__ import annotations

import pytest

from repro.core.optimal import optimal_throughput


def solve_all(context, backend):
    return [
        optimal_throughput(
            context.smt_rates, workload, backend=backend
        ).throughput
        for workload in context.workloads
    ]


def test_simplex_backend(benchmark, context):
    values = benchmark.pedantic(
        solve_all, args=(context, "simplex"), rounds=2, iterations=1
    )
    assert len(values) == len(context.workloads)


def test_scipy_backend(benchmark, context):
    pytest.importorskip("scipy")
    values = benchmark.pedantic(
        solve_all, args=(context, "scipy"), rounds=2, iterations=1
    )
    assert len(values) == len(context.workloads)
