"""Ablation: the SMT front-end fragmentation calibration.

Sweeps the front-end fragmentation factor — the single most influential
calibration constant — and records how the headline quantities react:
more fragmentation means more SMT interference (higher per-coschedule
variability) but *not* proportionally more scheduling headroom, which
is the paper's core finding restated as a model property.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.variability import workload_variability
from repro.core.workload import Workload
from repro.microarch.config import smt_machine
from repro.microarch.rates import RateTable

WORKLOADS = [
    Workload.of("bzip2", "hmmer", "libquantum", "mcf"),
    Workload.of("calculix", "mcf", "sjeng", "xalancbmk"),
    Workload.of("gcc.g23", "h264ref", "perlbench", "tonto"),
]


def sweep(fragmentations=(0.06, 0.12, 0.24)):
    outcomes = []
    for frag in fragmentations:
        machine = replace(
            smt_machine(), smt_fragmentation=frag, name=f"smt[f={frag}]"
        )
        rates = RateTable(machine)
        reports = [workload_variability(rates, w) for w in WORKLOADS]
        n = len(reports)
        outcomes.append(
            {
                "fragmentation": frag,
                "it_spread": sum(r.inst_tp_spread for r in reports) / n,
                "optimal_gain": sum(r.avg_tp_best for r in reports) / n,
            }
        )
    return outcomes


def test_fragmentation_sweep(benchmark):
    outcomes = benchmark.pedantic(sweep, rounds=1, iterations=1)
    spreads = [o["it_spread"] for o in outcomes]
    # More fragmentation -> more per-coschedule variability...
    assert spreads == sorted(spreads)
    # ...yet the scheduling headroom stays a small fraction of it.
    for o in outcomes:
        assert o["optimal_gain"] < 0.5 * o["it_spread"]
