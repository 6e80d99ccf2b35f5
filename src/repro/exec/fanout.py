"""Cache-aware fan-out: the one loop every sweep driver shares.

Consolidation footprints, pressure arms and the huge-page curve all run
a list of independent work units whose results are cached under their
input fingerprints.  :func:`map_cached` is that loop, written once.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.exec.cache import ResultCache
from repro.exec.runner import ParallelRunner, WorkUnit
from repro.exec.stats import GLOBAL_RUNNER_STATS


def map_cached(
    units: Sequence[Tuple[Tuple, WorkUnit]],
    cache: Optional[ResultCache] = None,
    jobs: Optional[int] = None,
    runner: Optional[ParallelRunner] = None,
) -> List[Any]:
    """Run ``(cache parts, unit)`` pairs; results in input order.

    The parent process looks every unit up in ``cache`` first and sends
    only the misses, in input order, through a single ``runner.map``
    (a runner over ``jobs`` workers when none is given).  It stores the
    fresh results itself, so the hit/miss/store counters live in one
    process whatever the worker count.
    """
    caching = cache is not None and cache.enabled
    results: List[Any] = [None] * len(units)
    keys: Dict[int, str] = {}
    missing: List[int] = []
    for index, (parts, _) in enumerate(units):
        if caching:
            keys[index] = cache.key(*parts)
            value, hit = cache.get(keys[index])
            if hit:
                results[index] = value
                continue
        missing.append(index)
    if missing:
        if runner is None:
            runner = ParallelRunner(jobs=jobs, stats=GLOBAL_RUNNER_STATS)
        fresh = runner.map([units[index][1] for index in missing])
        for index, value in zip(missing, fresh):
            if caching:
                cache.put(keys[index], value)
            results[index] = value
    return results
