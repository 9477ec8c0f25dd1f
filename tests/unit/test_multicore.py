"""Tests for the multicore sharing model internals."""

from __future__ import annotations

import pytest

from repro.microarch.benchmarks import default_roster
from repro.microarch.config import quad_core_machine
from repro.microarch.multicore import evaluate_multicore, multicore_iteration

ROSTER = default_roster()
MACHINE = quad_core_machine()


def evaluate(names, ipcs=None, shares=None):
    jobs = [ROSTER[n] for n in names]
    n = len(jobs)
    ipcs = ipcs or [1.0] * n
    shares = shares or [MACHINE.llc_mb / n] * n
    return evaluate_multicore(MACHINE, jobs, ipcs, shares)


class TestEvaluateMulticore:
    def test_output_shapes(self):
        result = evaluate(["bzip2", "mcf"])
        assert len(result.next_ipcs) == 2
        assert len(result.next_shares) == 2
        assert len(result.mpkis) == 2

    def test_per_core_width_cap(self):
        result = evaluate(["hmmer", "h264ref", "calculix", "tonto"])
        assert all(ipc <= MACHINE.width for ipc in result.next_ipcs)

    def test_no_width_sharing_between_cores(self):
        """Unlike SMT, four compute jobs can together exceed one core's
        width on the quad (each owns a core)."""
        result = evaluate(
            ["hmmer", "h264ref", "calculix", "tonto"],
            ipcs=[2.0] * 4,
            shares=[0.5] * 4,
        )
        assert sum(result.next_ipcs) > MACHINE.width

    def test_shares_conserve_llc(self):
        result = evaluate(["mcf", "xalancbmk", "gcc.g23", "libquantum"])
        assert sum(result.next_shares) == pytest.approx(MACHINE.llc_mb)

    def test_bus_contention_raises_latency(self):
        light = evaluate(["hmmer"])
        heavy = evaluate(["libquantum"] * 4, ipcs=[0.5] * 4)
        assert heavy.memory_latency > light.memory_latency

    def test_state_length_validated(self):
        with pytest.raises(ValueError):
            evaluate_multicore(MACHINE, [ROSTER["mcf"]], [1.0], [1.0, 2.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            evaluate_multicore(MACHINE, [], [], [])

    @pytest.mark.parametrize(
        "ipcs, shares, message",
        [
            ([1.0, 1.0], [1.0, -0.5], "cache allocation must be >= 0"),
            ([1.0, -1.0], [1.0, 1.0], "miss rate must be non-negative"),
        ],
    )
    def test_state_checks_raise_in_the_map(self, ipcs, shares, message):
        """The map checks each state it is handed, not only the first."""
        jobs = [ROSTER["bzip2"], ROSTER["mcf"]]
        iterate = multicore_iteration(MACHINE, jobs)
        iterate([1.0, 1.0, 1.0, 1.0])
        with pytest.raises(ValueError, match=message):
            iterate(ipcs + shares)
        with pytest.raises(ValueError, match=message):
            iterate.evaluate(ipcs, shares)

    def test_compute_jobs_mostly_unaffected_by_each_other(self):
        alone = evaluate(["hmmer"], shares=[MACHINE.llc_mb])
        together = evaluate(["hmmer", "sjeng", "calculix", "tonto"])
        assert together.next_ipcs[0] > 0.6 * alone.next_ipcs[0]
