"""The content-addressed result cache (repro.exec.cache)."""

from repro.config import ScenarioSpec
from repro.core.experiments.scenarios import run_cached
from repro.core.preload import CacheDeployment
from repro.core.report import render_vm_breakdown
from repro.exec.cache import (
    ENV_CACHE_DIR,
    ENV_CACHE_ENABLED,
    ResultCache,
    code_version,
    default_cache,
    reset_default_cache,
)

TINY = ScenarioSpec(
    "daytrader4", CacheDeployment.SHARED_COPY, scale=0.02,
    measurement_ticks=1, seed=99,
)


class TestResultCache:
    def test_get_or_compute_computes_once(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        calls = []

        def compute():
            calls.append(1)
            return {"answer": 42}

        first = cache.get_or_compute(("k", 1), compute)
        second = cache.get_or_compute(("k", 1), compute)
        assert first == second == {"answer": 42}
        assert calls == [1]
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.stores == 1

    def test_persists_across_instances(self, tmp_path):
        ResultCache(root=tmp_path).put(
            ResultCache(root=tmp_path).key("x"), [1, 2, 3]
        )
        fresh = ResultCache(root=tmp_path)
        value, hit = fresh.get(fresh.key("x"))
        assert hit and value == [1, 2, 3]

    def test_version_bump_invalidates(self, tmp_path):
        old = ResultCache(root=tmp_path, version="v1")
        old.put(old.key("result"), "stale")
        new = ResultCache(root=tmp_path, version="v2")
        value, hit = new.get(new.key("result"))
        assert not hit
        # The old entry is still there under its own version key.
        value, hit = old.get(old.key("result"))
        assert hit and value == "stale"

    def test_default_version_is_code_version(self, tmp_path):
        assert ResultCache(root=tmp_path).version == code_version()

    def test_eviction_bounds_entries(self, tmp_path):
        cache = ResultCache(root=tmp_path, max_entries=3)
        for index in range(6):
            cache.put(cache.key("entry", index), index)
        assert cache.entry_count() <= 3
        assert cache.stats.evictions >= 3

    def test_disabled_cache_touches_nothing(self, tmp_path):
        cache = ResultCache(root=tmp_path, enabled=False)
        value = cache.get_or_compute(("k",), lambda: "computed")
        assert value == "computed"
        assert not cache.entries()
        assert cache.get(cache.key("k"))[1] is False

    def test_env_kill_switch(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_CACHE_ENABLED, "0")
        assert ResultCache(root=tmp_path).enabled is False
        monkeypatch.setenv(ENV_CACHE_ENABLED, "1")
        assert ResultCache(root=tmp_path).enabled is True

    def test_corrupt_entry_is_a_miss_and_removed(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        key = cache.key("damaged")
        cache.put(key, "value")
        path = cache._path(key)
        path.write_bytes(b"not a pickle")
        fresh = ResultCache(root=tmp_path)
        value, hit = fresh.get(key)
        assert not hit
        assert not path.exists()

    def test_wipe(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        for index in range(4):
            cache.put(cache.key(index), index)
        assert cache.wipe() == 4
        assert cache.entry_count() == 0

    def test_memo_serves_after_file_loss(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        key = cache.key("memoized")
        cache.put(key, "value")
        cache._path(key).unlink()
        value, hit = cache.get(key)
        assert hit and value == "value"

    def test_atomic_entries_only(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        cache.put(cache.key("a"), "a")
        leftovers = [
            p for p in tmp_path.rglob("*") if p.name.startswith(".tmp-")
        ]
        assert leftovers == []


class TestScenarioRoundTrip:
    def test_store_load_equal(self, tmp_path):
        writer = ResultCache(root=tmp_path)
        fresh = run_cached(TINY, writer)
        assert writer.stats.misses == 1 and writer.stats.stores == 1

        reader = ResultCache(root=tmp_path)
        loaded = run_cached(TINY, reader)
        assert reader.stats.hits == 1 and reader.stats.misses == 0
        assert render_vm_breakdown(
            loaded.vm_breakdown, "t"
        ) == render_vm_breakdown(fresh.vm_breakdown, "t")
        assert loaded.ksm_stats.pages_scanned == fresh.ksm_stats.pages_scanned

    def test_no_cache_falls_through(self):
        result = run_cached(TINY, cache=None)
        assert result.scenario == "daytrader4"


class TestWarmFigureRegeneration:
    """Acceptance: with a warm cache, regenerating all of figs 2-5
    performs zero scenario rebuilds (asserted via cache stats)."""

    FIGS = ["fig2", "fig3a", "fig4", "fig5a"]
    ARGS = ["--scale", "0.02", "--ticks", "1"]

    def test_warm_cache_rebuilds_nothing(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.setenv(ENV_CACHE_DIR, str(tmp_path))
        reset_default_cache()
        try:
            for figure in self.FIGS:
                assert main([figure, *self.ARGS]) == 0
            cache = default_cache()
            # fig2/fig3a share one daytrader4 run; fig4/fig5a the other.
            cold_misses = cache.stats.misses
            assert cold_misses == 2
            assert cache.stats.hits == 2

            for figure in self.FIGS:
                assert main([figure, *self.ARGS]) == 0
            assert cache.stats.misses == cold_misses  # zero rebuilds
            assert cache.stats.hits == 6
            capsys.readouterr()
        finally:
            reset_default_cache()
