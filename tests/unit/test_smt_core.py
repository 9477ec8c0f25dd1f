"""Tests for the SMT core sharing model internals."""

from __future__ import annotations

import pytest

from repro.microarch.benchmarks import default_roster
from repro.microarch.config import FetchPolicy, RobPolicy, smt_machine
from repro.microarch.smt_core import evaluate_smt, smt_iteration

ROSTER = default_roster()
MACHINE = smt_machine()


def evaluate(names, machine=MACHINE, ipcs=None, shares=None):
    jobs = [ROSTER[n] for n in names]
    n = len(jobs)
    ipcs = ipcs or [1.0] * n
    shares = shares or [machine.llc_mb / n] * n
    return evaluate_smt(machine, jobs, ipcs, shares)


class TestEvaluateSmt:
    def test_output_shapes(self):
        result = evaluate(["bzip2", "mcf", "hmmer"])
        assert len(result.next_ipcs) == 3
        assert len(result.next_shares) == 3
        assert len(result.mpkis) == 3
        assert len(result.windows) == 3
        assert len(result.stall_fractions) == 3

    def test_positive_rates(self):
        result = evaluate(["mcf"] * 4)
        assert all(ipc > 0.0 for ipc in result.next_ipcs)

    def test_shares_conserve_llc(self):
        result = evaluate(["bzip2", "mcf", "hmmer", "sjeng"])
        assert sum(result.next_shares) == pytest.approx(MACHINE.llc_mb)

    def test_memory_thread_stalls_more(self):
        result = evaluate(["hmmer", "mcf"])
        hmmer_stall, mcf_stall = result.stall_fractions
        assert mcf_stall > hmmer_stall

    def test_windows_respect_rob_capacity(self):
        result = evaluate(["hmmer", "h264ref", "calculix", "tonto"])
        assert sum(result.windows) <= MACHINE.rob_size + 1e-9

    def test_static_rob_partitions_evenly(self):
        machine = smt_machine(rob_policy=RobPolicy.STATIC)
        result = evaluate(["hmmer", "mcf"], machine=machine)
        assert result.windows == (128.0, 128.0)

    def test_latency_includes_bus_delay(self):
        light = evaluate(["hmmer"])
        heavy = evaluate(
            ["libquantum"] * 4, ipcs=[0.4] * 4, shares=[1.0] * 4
        )
        assert heavy.memory_latency > light.memory_latency

    def test_icount_boosts_compute_over_rr(self):
        """With a memory-bound co-runner, ICOUNT gives the compute
        thread more throughput than round-robin fetch does."""
        icount = smt_machine(fetch_policy=FetchPolicy.ICOUNT)
        rr = smt_machine(fetch_policy=FetchPolicy.ROUND_ROBIN)
        mix = ["hmmer", "mcf", "mcf", "mcf"]
        ipc_icount = evaluate(mix, machine=icount).next_ipcs[0]
        ipc_rr = evaluate(mix, machine=rr).next_ipcs[0]
        assert ipc_icount > ipc_rr

    def test_state_length_validated(self):
        jobs = [ROSTER["bzip2"]]
        with pytest.raises(ValueError):
            evaluate_smt(MACHINE, jobs, [1.0, 1.0], [2.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            evaluate_smt(MACHINE, [], [], [])

    @pytest.mark.parametrize(
        "ipcs, shares, message",
        [
            ([1.0, 1.0], [2.0, -0.5], "cache allocation must be >= 0"),
            ([1.0, -1.0], [2.0, 2.0], "miss rate must be non-negative"),
        ],
    )
    def test_state_checks_raise_in_the_map(self, ipcs, shares, message):
        """The map checks each state it is handed, not only the first."""
        iterate = smt_iteration(MACHINE, [ROSTER["bzip2"], ROSTER["mcf"]])
        iterate([1.0, 1.0, 2.0, 2.0])
        with pytest.raises(ValueError, match=message):
            iterate(ipcs + shares)
        with pytest.raises(ValueError, match=message):
            iterate.evaluate(ipcs, shares)

    def test_fragmentation_shrinks_aggregate_width(self):
        """Four active compute threads get less aggregate dispatch than
        the nominal width (front-end fragmentation)."""
        result = evaluate(
            ["hmmer", "h264ref", "calculix", "tonto"],
            ipcs=[0.6] * 4,
        )
        assert sum(result.next_ipcs) < MACHINE.width
