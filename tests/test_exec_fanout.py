"""The cache-aware fan-out shared by every sweep (repro.exec.fanout)."""

from repro.exec.cache import ResultCache
from repro.exec.fanout import map_cached
from repro.exec.runner import WorkUnit


def _square(x):
    return x * x


class FakeRunner:
    """Records every ``map`` call instead of running a pool."""

    def __init__(self):
        self.calls = []

    def map(self, units):
        self.calls.append([unit.label for unit in units])
        return [unit.fn(*unit.args) for unit in units]


def _units(values):
    return [
        (("square", x), WorkUnit(_square, (x,), label=f"sq:{x}"))
        for x in values
    ]


class TestMapCached:
    def test_hits_skip_the_runner_and_misses_map_once_in_order(
        self, tmp_path
    ):
        cache = ResultCache(root=tmp_path)
        cache.put(cache.key("square", 2), "cached-2")
        cache.put(cache.key("square", 4), "cached-4")
        runner = FakeRunner()
        results = map_cached(
            _units([1, 2, 3, 4, 5]), cache=cache, runner=runner
        )
        assert results == [1, "cached-2", 9, "cached-4", 25]
        assert runner.calls == [["sq:1", "sq:3", "sq:5"]]

    def test_misses_are_stored(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        map_cached(_units([3, 6]), cache=cache, runner=FakeRunner())
        assert cache.stats.stores == 2
        reader = ResultCache(root=tmp_path)
        assert reader.get(reader.key("square", 6)) == (36, True)

    def test_all_hits_never_reach_the_runner(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        map_cached(_units([1, 2]), cache=cache, runner=FakeRunner())
        runner = FakeRunner()
        assert map_cached(
            _units([1, 2]), cache=cache, runner=runner
        ) == [1, 4]
        assert runner.calls == []

    def test_without_a_cache_everything_runs_once(self):
        runner = FakeRunner()
        assert map_cached(_units([2, 3]), runner=runner) == [4, 9]
        assert runner.calls == [["sq:2", "sq:3"]]

    def test_disabled_cache_stores_nothing(self, tmp_path):
        cache = ResultCache(root=tmp_path, enabled=False)
        runner = FakeRunner()
        assert map_cached(_units([2]), cache=cache, runner=runner) == [4]
        assert cache.entry_count() == 0

    def test_default_runner_runs_in_process(self):
        assert map_cached(_units([7]), jobs=1) == [49]
