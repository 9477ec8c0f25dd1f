"""Shared fixtures.

Rate tables are session-scoped: coschedule simulations are cached inside
each table, so the cost of simulating a multiset is paid once per test
session no matter how many tests touch it.
"""

from __future__ import annotations

import pytest


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="regenerate the golden-trace expectations under "
        "tests/golden/ instead of checking against them",
    )
    parser.addoption(
        "--slow-rows",
        action="store_true",
        default=False,
        help="also check the minutes-scale artifact rows goldens "
        "(ntypes, section7, figure5, figure6)",
    )

from repro.core.workload import Workload
from repro.microarch.config import quad_core_machine, smt_machine
from repro.microarch.rates import RateTable, TableRates

FOUR_TYPES = ("bzip2", "hmmer", "libquantum", "mcf")


@pytest.fixture(scope="session")
def smt_rates() -> RateTable:
    """Rate table for the default SMT machine (lazy, cached)."""
    return RateTable(smt_machine())


@pytest.fixture(scope="session")
def quad_rates() -> RateTable:
    """Rate table for the default quad-core machine (lazy, cached)."""
    return RateTable(quad_core_machine())


@pytest.fixture(scope="session")
def mixed_workload() -> Workload:
    """A diverse 4-type workload: two compute-ish, two memory-ish."""
    return Workload.of(*FOUR_TYPES)


@pytest.fixture(scope="session")
def compute_workload() -> Workload:
    """A compute-heavy workload (near the SMT linear bottleneck)."""
    return Workload.of("calculix", "h264ref", "hmmer", "tonto")


@pytest.fixture()
def synthetic_rates() -> TableRates:
    """A tiny hand-built rate table: 2 types, 2 contexts.

    Type A is fast (rate 1.0 alone-normalized), type B slow; the mixed
    coschedule is the best one.  Used by LP/FCFS unit tests where the
    exact optimum is computable by hand.
    """
    return TableRates(
        {
            ("A", "A"): {"A": 1.6},
            ("A", "B"): {"A": 0.9, "B": 0.5},
            ("B", "B"): {"B": 0.8},
        }
    )


@pytest.fixture()
def insensitive_rates() -> TableRates:
    """Rates where every job is fully insensitive to its co-runners.

    Per-job rates: A = 0.8, B = 0.4, regardless of coschedule.  Any
    scheduler achieves the same average throughput on this table.
    """
    return TableRates(
        {
            ("A", "A"): {"A": 1.6},
            ("A", "B"): {"A": 0.8, "B": 0.4},
            ("B", "B"): {"B": 0.8},
        }
    )
