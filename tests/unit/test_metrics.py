"""Tests for the throughput-metric definitions (Section III-B)."""

from __future__ import annotations

import pytest

from repro.microarch.rates import instantaneous_throughput


class TestMetrics:
    def test_it_is_rate_sum(self, synthetic_rates):
        assert instantaneous_throughput(
            synthetic_rates, ("A", "B")
        ) == pytest.approx(1.4)

    def test_weighted_speedup_equals_it(self, smt_rates):
        """Equation 1 summed by hand, slot by slot: IPC / alone IPC."""
        cos = ("bzip2", "mcf")
        by_hand = sum(
            ipc / smt_rates.alone_ipc(job)
            for job, ipc in zip(cos, smt_rates.ipcs(cos))
        )
        assert instantaneous_throughput(smt_rates, cos) == pytest.approx(
            by_hand
        )

    def test_total_ipc_on_rate_table(self, smt_rates):
        """The raw-IPC unit: the per-type WIPC totals the LP reads
        convert back to the simulated IPCs."""
        cos = ("bzip2", "mcf", "mcf")
        assert sum(smt_rates.ipcs(cos)) == pytest.approx(
            sum(
                wipc * smt_rates.alone_ipc(job)
                for job, wipc in smt_rates.type_rates(cos).items()
            )
        )

    def test_alone_weighted_speedup_is_one(self, smt_rates):
        assert instantaneous_throughput(
            smt_rates, ("hmmer",)
        ) == pytest.approx(1.0)

    def test_weighted_vs_raw_unit_qualitative_agreement(self, smt_rates):
        """The paper checked conclusions hold for both units of work:
        a heterogeneous coschedule beats the homogeneous hmmer one in
        WIPC terms (hmmer jobs fight for the same width) and beats the
        homogeneous mcf one in raw-IPC terms (mcf jobs are simply slow).
        """
        hetero = ("bzip2", "hmmer", "libquantum", "mcf")
        assert instantaneous_throughput(
            smt_rates, hetero
        ) > instantaneous_throughput(smt_rates, ("hmmer",) * 4)
        assert sum(smt_rates.ipcs(hetero)) > sum(
            smt_rates.ipcs(("mcf",) * 4)
        )
