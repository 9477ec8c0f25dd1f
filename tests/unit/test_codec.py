"""Unit tests: TypeCodec interning and the RunRateMemo layers."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.microarch.codec import TypeCodec
from repro.microarch.rates import TableRates
from repro.queueing.job import Job
from repro.queueing.ratememo import RunRateMemo
from repro.queueing.schedulers import make_scheduler


@pytest.fixture()
def pair_rates() -> TableRates:
    return TableRates(
        {
            ("A",): {"A": 1.0},
            ("B",): {"B": 0.5},
            ("A", "A"): {"A": 1.6},
            ("A", "B"): {"A": 0.9, "B": 0.4},
            ("B", "B"): {"B": 0.8},
        }
    )


class TestTypeCodec:
    def test_interns_in_encounter_order(self):
        codec = TypeCodec()
        assert codec.encode("mcf") == 0
        assert codec.encode("hmmer") == 1
        assert codec.encode("mcf") == 0
        assert codec.size == 2
        assert codec.decode(1) == "hmmer"
        assert codec.names() == ("mcf", "hmmer")

    def test_seed_vocabulary(self):
        codec = TypeCodec(("b", "a"))
        assert codec.encode("b") == 0
        assert codec.encode("a") == 1
        assert codec.size == 2

    def test_canonical_names_sorts_by_name_not_id(self):
        # "z" interned first gets id 0; the canonical *name* tuple must
        # still be name-sorted, not id-sorted.
        codec = TypeCodec(("z", "a"))
        codes = (codec.encode("z"), codec.encode("a"))
        assert codec.canonical_names(tuple(sorted(codes))) == ("a", "z")

    def test_canonical_names_is_memoized(self):
        codec = TypeCodec(("x", "y"))
        key = (0, 1)
        assert codec.canonical_names(key) is codec.canonical_names(key)


class TestCompiledMemo:
    def test_compiled_entry_matches_string_path(self, pair_rates):
        memo = RunRateMemo(pair_rates)
        a, b = memo.codec.encode("A"), memo.codec.encode("B")
        entry = memo.compiled_entry(tuple(sorted((a, b))))
        assert entry.names == ("A", "B")
        assert entry.per_job == memo.per_job_rates(("A", "B"))
        assert entry.rates_by_code[a] == entry.per_job["A"]
        assert entry.rates_by_code[b] == entry.per_job["B"]

    def test_probe_candidates_matches_legacy_enumeration(self, pair_rates):
        memo = RunRateMemo(pair_rates)
        a, b = memo.codec.encode("A"), memo.codec.encode("B")
        probe = memo.probe_candidates(
            tuple(sorted(((a, 2), (b, 1)))), 2
        )
        assert [c.names for c in probe.candidates] == [
            ("A", "A"),
            ("A", "B"),
        ]
        aa, ab = probe.candidates
        assert aa.it == sum(pair_rates.type_rates(("A", "A")).values())
        assert ab.it == sum(pair_rates.type_rates(("A", "B")).values())
        assert probe.max_it_group == [aa]  # 1.6 > 1.3
        assert ab.srpt_items == ((a, 1, 0.9), (b, 1, 0.4))

    def test_probe_prunes_zero_rate_candidates(self):
        rates = TableRates(
            {
                ("A",): {"A": 1.0},
                ("B",): {"B": 0.0},
                ("A", "B"): {"A": 0.9, "B": 0.0},
                ("A", "A"): {"A": 1.5},
                ("B", "B"): {"B": 0.0},
            }
        )
        memo = RunRateMemo(rates)
        a, b = memo.codec.encode("A"), memo.codec.encode("B")
        probe = memo.probe_candidates(tuple(sorted(((a, 2), (b, 2)))), 2)
        assert [c.names for c in probe.feasible] == [("A", "A")]

    def test_stats_count_hits_and_misses(self, pair_rates):
        memo = RunRateMemo(pair_rates)
        a = memo.codec.encode("A")
        # First compiled lookup misses both the compiled layer and the
        # string layer beneath it (the entry is derived from it).
        memo.compiled_entry((a, a))
        memo.compiled_entry((a, a))
        memo.type_rates(("A", "B"))
        memo.type_rates(("B", "A"))
        stats = memo.stats
        assert stats.hits == 2
        assert stats.misses == 3
        assert stats.hit_rate == 0.4
        sizes = memo.sizes()
        assert sizes["compiled"] == 1
        # Only the coded path interns ("A" here); pure string lookups
        # ("A", "B") never touch the codec.
        assert sizes["interned_types"] == 1
        payload = memo.stats_dict()
        assert payload["sizes"] == sizes
        assert payload["label"] == "run-memo"

    def test_delegates_unknown_attributes(self, pair_rates):
        memo = RunRateMemo(pair_rates)
        assert memo.coschedules() == pair_rates.coschedules()


class TestStaleTypeCodes:
    def test_standalone_probe_ignores_foreign_codes(self, pair_rates):
        """A job carrying another run's type_code must be grouped by
        its job_type when probed outside a run — and left untouched
        (the field belongs to whichever event loop set it)."""
        jobs = [
            Job(job_id=0, job_type="A", size=1.0, arrival_time=0.0),
            Job(job_id=1, job_type="B", size=1.0, arrival_time=1.0),
        ]
        # Simulate ids left behind by a previous run whose codec
        # interned types in the opposite order (B=0, A=1).
        jobs[0].type_code = 1
        jobs[1].type_code = 0
        scheduler = make_scheduler("maxit", pair_rates, 2)
        memo = RunRateMemo(pair_rates)
        scheduler.bind_rates(memo)
        picked = scheduler.select(jobs, clock=0.0)
        # ("A", "A") has it=1.6 > ("A", "B")'s 1.3, but only one A is
        # present: the probe must still see {A: 1, B: 1} and pick the
        # mixed pair, oldest-first order.
        assert [job.job_id for job in picked] == [0, 1]
        assert jobs[0].type_code == 1
        assert jobs[1].type_code == 0


class TestCounterfactualScheduler:
    def test_counterfactual_scheduler_inside_foreign_run(self, pair_rates):
        """A scheduler probing its own memo (a counterfactual table)
        inside another run's compiled engine falls back to its string
        ``select`` on that table: the machine queue's index is keyed by
        the run's codec and must never be decoded with the
        scheduler's.  The pick sequence matches the reference engine."""
        from repro.queueing.cluster import run_cluster
        from repro.queueing.dispatch import RoundRobinDispatcher
        from repro.queueing.schedulers import SrptScheduler

        counterfactual = TableRates(
            {
                ("A",): {"A": 0.5},
                ("B",): {"B": 1.0},
                ("A", "A"): {"A": 0.8},
                ("A", "B"): {"A": 0.45, "B": 0.8},
                ("B", "B"): {"B": 1.6},
            }
        )
        scheduler = SrptScheduler(RunRateMemo(counterfactual), 2)

        def run(engine: str) -> list:
            jobs = [
                Job(job_id=i, job_type=t, size=1.0, arrival_time=0.0)
                # "B" first: the run codec and the scheduler's codec
                # intern the types in different orders.
                for i, t in enumerate(("B", "A", "B", "A"))
            ]
            picks: list = []
            metrics = run_cluster(
                pair_rates, [scheduler], RoundRobinDispatcher(), jobs,
                engine=engine, pick_log=picks,
            )
            assert metrics.completed == 4
            return picks

        picks = run("compiled")
        # Counterfactual B runs twice as fast as A, so SRPT starts on
        # the two B jobs first.
        assert picks[0] == (0, (0, 2))
        assert picks == run("legacy")


class TestSrptZeroRates:
    def test_srpt_skips_zero_rate_candidates(self):
        rates = TableRates(
            {
                ("A",): {"A": 1.0},
                ("B",): {"B": 0.0},
                ("A", "B"): {"A": 0.9, "B": 0.0},
                ("A", "A"): {"A": 1.5},
                ("B", "B"): {"B": 0.0},
            }
        )
        jobs = [
            Job(job_id=0, job_type="B", size=1.0, arrival_time=0.0),
            Job(job_id=1, job_type="A", size=1.0, arrival_time=0.5),
            Job(job_id=2, job_type="A", size=2.0, arrival_time=1.0),
        ]
        pick = make_scheduler("srpt", rates, 2).select(jobs, 0.0)
        assert [j.job_id for j in pick] == [1, 2]

    def test_srpt_raises_when_nothing_is_feasible(self):
        rates = TableRates({("B",): {"B": 0.0}, ("B", "B"): {"B": 0.0}})
        jobs = [Job(job_id=0, job_type="B", size=1.0, arrival_time=0.0)]
        with pytest.raises(SimulationError, match="no feasible"):
            make_scheduler("srpt", rates, 2).select(jobs, 0.0)
