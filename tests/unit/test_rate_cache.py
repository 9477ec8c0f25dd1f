"""Unit tests for the memoized coschedule-rate cache."""

from __future__ import annotations

import json

import pytest

from repro.errors import WorkloadError
from repro.microarch.config import quad_core_machine, smt_machine
from repro.microarch.rate_cache import (
    CachedRateSource,
    CacheStats,
    RateCacheStore,
)
from repro.microarch.rates import RateTable, TableRates
from repro.util.multiset import multisets


def small_table() -> TableRates:
    """Rates for all multisets of {A, B} up to size 2."""
    per_job = {"A": 1.0, "B": 0.5}
    table = {}
    for size in (1, 2):
        for cos in multisets(("A", "B"), size):
            table[cos] = {b: per_job[b] * cos.count(b) * 0.9 for b in set(cos)}
    return TableRates(table)


class Exploding:
    """A RateSource that must never be consulted (every lookup warm)."""

    def type_rates(self, coschedule):  # pragma: no cover - must not run
        raise AssertionError("should never be consulted")


class CountingSource:
    """Minimal RateSource that counts delegated calls."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def type_rates(self, coschedule):
        self.calls += 1
        return self.inner.type_rates(coschedule)


class TestCacheStats:
    def test_hit_rate_and_render(self):
        stats = CacheStats(hits=3, misses=1, preloaded=2, label="smt4")
        assert stats.lookups == 4
        assert stats.hit_rate == pytest.approx(0.75)
        line = stats.render()
        assert "smt4" in line and "3 hits" in line and "1 misses" in line

    def test_idle_hit_rate_zero(self):
        assert CacheStats().hit_rate == 0.0

    def test_merge(self):
        merged = CacheStats(hits=1, label="a").merge(
            CacheStats(misses=2, preloaded=3, label="b")
        )
        assert (merged.hits, merged.misses, merged.preloaded) == (1, 2, 3)
        assert merged.label == "a+b"

    def test_as_dict_roundtrips_through_json(self):
        payload = json.loads(json.dumps(CacheStats(hits=5).as_dict()))
        assert payload["hits"] == 5


class TestCachedRateSource:
    def test_hit_miss_accounting(self):
        source = CountingSource(small_table())
        cached = CachedRateSource(source)
        cached.type_rates(("A", "B"))
        assert (cached.stats.hits, cached.stats.misses) == (0, 1)
        cached.type_rates(("A", "B"))
        assert (cached.stats.hits, cached.stats.misses) == (1, 1)
        assert source.calls == 1

    def test_canonicalization_equivalence(self):
        """Permutations of a multiset share one entry and agree with
        the uncached source."""
        table = small_table()
        cached = CachedRateSource(table)
        assert cached.type_rates(("B", "A")) == table.type_rates(("A", "B"))
        assert cached.type_rates(("A", "B")) == table.type_rates(("B", "A"))
        assert cached.stats.misses == 1
        assert cached.stats.hits == 1

    def test_matches_uncached_source_everywhere(self):
        table = small_table()
        cached = CachedRateSource(table)
        for cos in table.coschedules():
            assert cached.type_rates(cos) == table.type_rates(cos)
            assert cached.per_job_rate(cos, cos[0]) == pytest.approx(
                table.per_job_rate(cos, cos[0])
            )
            assert cached.instantaneous_throughput(cos) == pytest.approx(
                table.instantaneous_throughput(cos)
            )

    def test_returns_copies(self):
        cached = CachedRateSource(small_table())
        first = cached.type_rates(("A",))
        first["A"] = 123.0
        assert cached.type_rates(("A",))["A"] != 123.0

    def test_per_job_rate_unknown_type(self):
        cached = CachedRateSource(small_table())
        with pytest.raises(WorkloadError):
            cached.per_job_rate(("A",), "B")

    def test_delegates_unknown_attributes(self):
        rates = RateTable(smt_machine())
        cached = CachedRateSource(rates)
        assert cached.machine is rates.machine
        assert cached.roster is rates.roster


class TestCrashSafePersistence:
    """A failed dump must never truncate an existing cache file."""

    @pytest.mark.parametrize("failure", ["disk-full", "reserved-separator"])
    def test_store_failed_save_preserves_existing_file(
        self, tmp_path, monkeypatch, failure
    ):
        path = tmp_path / "rates.json"
        store = RateCacheStore(path)
        store.wrap(small_table(), section="toy").type_rates(("A", "B"))
        store.save()
        before = path.read_text()

        if failure == "disk-full":
            import repro.microarch.rate_cache as rate_cache

            def exploding_dump(*args, **kwargs):
                raise OSError("disk full")

            monkeypatch.setattr(rate_cache.json, "dump", exploding_dump)
            expected = pytest.raises(OSError, match="disk full")
        else:
            # "|" separates a key's type names, so a type containing it
            # cannot be persisted.
            bad = TableRates({("a|b",): {"a|b": 1.0}})
            store.wrap(bad, section="bad").type_rates(("a|b",))
            expected = pytest.raises(WorkloadError, match="reserved separator")
        with expected:
            store.save()

        assert path.read_text() == before
        assert list(tmp_path.iterdir()) == [path], "temp file left behind"

    def test_save_replaces_atomically_on_success(self, tmp_path):
        path = tmp_path / "rates.json"
        store = RateCacheStore(path)
        cached = store.wrap(small_table(), section="toy")
        cached.type_rates(("A",))
        store.save()
        cached.type_rates(("A", "B"))
        store.save()
        entries = json.loads(path.read_text())["sections"]["toy"]
        assert sorted(entries) == ["A", "A|B"]
        assert list(tmp_path.iterdir()) == [path]


class TestRateCacheStore:
    @pytest.mark.parametrize(
        "table",
        [small_table(), TableRates({(): {}})],
        ids=["small", "empty-coschedule"],
    )
    def test_wrap_save_reload(self, tmp_path, table):
        """Reloaded entries are served without consulting the source;
        () comes back as (), not ('',)."""
        path = tmp_path / "rates.json"
        store = RateCacheStore(path)
        assert store.sections() == []  # missing file: empty, no warning
        rates = store.wrap(table, section="toy")
        for cos in table.coschedules():
            rates.type_rates(cos)
        assert store.save() == len(table.coschedules())

        fresh = RateCacheStore(path)
        assert fresh.sections() == ["toy"]
        reloaded = fresh.wrap(Exploding(), section="toy")
        assert reloaded.stats.preloaded == len(table.coschedules())
        assert reloaded.coschedules() == table.coschedules()
        for cos in table.coschedules():
            assert reloaded.type_rates(cos) == table.type_rates(cos)
        assert reloaded.stats.misses == 0

    def test_missing_file_starts_empty_without_warning(self, tmp_path, capsys):
        store = RateCacheStore(tmp_path / "nope.json")
        assert store.sections() == []
        cached = store.wrap(small_table(), section="toy")
        assert cached.stats.preloaded == 0
        assert cached.coschedules() == []
        assert capsys.readouterr().err == ""

    def test_loaded_keys_are_canonicalized(self, tmp_path):
        """A key persisted out of order is served under its sorted
        multiset, so lookups of either order hit it."""
        path = tmp_path / "rates.json"
        path.write_text(
            '{"sections": {"toy": {"B|A": {"A": 0.9, "B": 0.45}}}}'
        )
        store = RateCacheStore(path)
        assert list(store.entries_for("toy")) == [("A", "B")]
        cached = store.wrap(Exploding(), section="toy")
        assert cached.type_rates(("B", "A")) == {"A": 0.9, "B": 0.45}
        assert cached.stats.misses == 0

    def test_new_entries_after_reload_only_fresh(self, tmp_path):
        path = tmp_path / "rates.json"
        store = RateCacheStore(path)
        store.wrap(small_table(), section="toy").type_rates(("A",))
        store.save()
        reloaded = RateCacheStore(path).wrap(small_table(), section="toy")
        reloaded.type_rates(("A",))  # preloaded -> not fresh
        reloaded.type_rates(("A", "B"))  # computed -> fresh
        assert list(reloaded.new_entries()) == [("A", "B")]

    def test_section_defaults_to_machine_name(self, tmp_path):
        """Sections are keyed by machine, so one machine's rates never
        feed another's."""
        path = tmp_path / "rates.json"
        store = RateCacheStore(path)
        rates = store.wrap(RateTable(smt_machine()))
        assert rates.stats.label == smt_machine().name
        rates.type_rates(("mcf", "hmmer"))
        store.save()

        fresh = RateCacheStore(path)
        assert fresh.wrap(RateTable(quad_core_machine())).stats.preloaded == 0
        assert fresh.wrap(RateTable(smt_machine())).stats.preloaded == 1

    def test_sectionless_source_requires_explicit_section(self, tmp_path):
        store = RateCacheStore(tmp_path / "rates.json")
        with pytest.raises(WorkloadError):
            store.wrap(small_table())

    def test_corrupt_file_warns_and_starts_cold(self, tmp_path, capsys):
        path = tmp_path / "rates.json"
        path.write_text("{ not json")
        store = RateCacheStore(path)
        assert store.sections() == []
        assert "unreadable rate cache" in capsys.readouterr().err
        assert store.wrap(small_table(), section="toy").type_rates(("A",))
        store.merge("toy", {("A",): {"A": 1.0}})
        store.save()
        assert RateCacheStore(path).sections() == ["toy"]

    @pytest.mark.parametrize(
        "payload",
        [
            '{"sections": "oops"}',
            '{"sections": {"smt4": {"A|B": [1.0, 2.0]}}}',
            '{"sections": {"smt4": {"A": {"A": "not a number"}}}}',
            "[1, 2, 3]",
            # Entries outside any section: not a store file.
            '{"machine": "m", "entries": {"A": [1.0]}}',
            '{"machine": null, "entries": {"A": {"A": 1.0}}}',
            # Well-formed JSON, but rates no simulation produces.
            '{"sections": {"smt4": {"hmmer|mcf": '
            '{"hmmer": NaN, "mcf": -3.0}, "mcf": {"lbm": 1.0}}}}',
            '{"sections": {"smt4": {"hmmer|mcf": {"hmmer": NaN, "mcf": 1.0}}}}',
            '{"sections": {"smt4": {"mcf": {"mcf": -3.0}}}}',
            '{"sections": {"smt4": {"mcf": {"mcf": Infinity}}}}',
            '{"sections": {"smt4": {"mcf": {"lbm": 1.0}}}}',
            '{"sections": {"smt4": {"hmmer|mcf": {"mcf": 1.0}}}}',
        ],
    )
    def test_shape_corrupt_file_warns_and_starts_cold(
        self, tmp_path, capsys, payload
    ):
        path = tmp_path / "rates.json"
        path.write_text(payload)
        store = RateCacheStore(path)
        assert store.sections() == []
        assert "unreadable rate cache" in capsys.readouterr().err

    def test_merge_external_entries(self, tmp_path):
        store = RateCacheStore(tmp_path / "rates.json")
        size = store.merge("toy", {("B", "A"): {"A": 1.0, "B": 0.5}})
        assert size == 1
        assert ("A", "B") in store.entries_for("toy")

    def test_sections_are_isolated(self, tmp_path):
        path = tmp_path / "rates.json"
        store = RateCacheStore(path)
        store.merge("one", {("A",): {"A": 1.0}})
        store.merge("two", {("A",): {"A": 2.0}})
        store.save()
        fresh = RateCacheStore(path)
        assert fresh.entries_for("one")[("A",)]["A"] == 1.0
        assert fresh.entries_for("two")[("A",)]["A"] == 2.0

    def test_stats_aggregates_wrappers(self, tmp_path):
        store = RateCacheStore(tmp_path / "rates.json")
        a = store.wrap(small_table(), section="a")
        b = store.wrap(small_table(), section="b")
        a.type_rates(("A",))
        b.type_rates(("B",))
        b.type_rates(("B",))
        total = store.stats()
        assert total.misses == 2
        assert total.hits == 1


class TestAtomicDumpDurability:
    """The crash-safety ordering of ``_atomic_dump``: temp-file fsync,
    then the rename, then the directory fsync — the sequence that lets
    checkpoint restores trust whatever file they find."""

    def test_fsync_file_then_replace_then_fsync_dir(
        self, tmp_path, monkeypatch
    ):
        import os
        import stat

        from repro.microarch.rate_cache import _atomic_dump

        events: list[str] = []
        real_fsync = os.fsync
        real_replace = os.replace

        def spy_fsync(fd):
            kind = (
                "dir"
                if stat.S_ISDIR(os.fstat(fd).st_mode)
                else "file"
            )
            events.append(f"fsync:{kind}")
            real_fsync(fd)

        def spy_replace(src, dst):
            events.append("replace")
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", spy_fsync)
        monkeypatch.setattr(os, "replace", spy_replace)
        target = tmp_path / "out.json"
        _atomic_dump(target, lambda fp: fp.write('{"ok": true}'))
        assert events == ["fsync:file", "replace", "fsync:dir"]
        assert json.loads(target.read_text()) == {"ok": True}

    def test_failed_write_leaves_existing_file_and_no_temp(
        self, tmp_path, monkeypatch
    ):
        import os

        from repro.microarch.rate_cache import _atomic_dump

        target = tmp_path / "out.json"
        target.write_text('{"old": 1}')

        def spy_replace(src, dst):  # pragma: no cover - must not run
            raise AssertionError("rename must not happen on failure")

        monkeypatch.setattr(os, "replace", spy_replace)
        with pytest.raises(RuntimeError, match="disk full"):
            _atomic_dump(
                target,
                lambda fp: (_ for _ in ()).throw(RuntimeError("disk full")),
            )
        assert json.loads(target.read_text()) == {"old": 1}
        assert list(tmp_path.iterdir()) == [target]

    def test_fsync_failure_cleans_up_the_temp_file(
        self, tmp_path, monkeypatch
    ):
        import os

        from repro.microarch.rate_cache import _atomic_dump

        def failing_fsync(fd):
            raise OSError("no durability today")

        monkeypatch.setattr(os, "fsync", failing_fsync)
        target = tmp_path / "out.json"
        with pytest.raises(OSError, match="no durability"):
            _atomic_dump(target, lambda fp: fp.write("{}"))
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []
