"""Unit tests of the multicore execution engine.

Covers the determinism contract (results in task order, first error
in task order) inline and on the thread pool, a failure inside a
replay task, and the :class:`~repro.core.config.ParallelConfig`
wiring.
"""

import threading

import numpy as np
import pytest

from repro.cache.policies import LruPolicy
from repro.cache.setassoc import (
    CacheGeometry,
    SetAssociativeCache,
)
from repro.cache.simulate_fast import simulate_fast
from repro.core.config import ParallelConfig
from repro.core.parallel import (
    ParallelExecutor,
    ReplayTask,
    resolve_workers,
)

GEOMETRY = CacheGeometry(
    capacity_bytes=32 * 4096 * 4, block_bytes=4096, associativity=4
)


def _trace(n=20_000, seed=0):
    rng = np.random.default_rng(seed)
    return (
        rng.integers(0, 5_000, n),
        rng.random(n) < 0.3,
        rng.standard_normal(n),
    )


def _square(x):
    return x * x


def _boom(x):
    if x == 3:
        raise ValueError(f"boom on {x}")
    return x


def _add(a, b):
    return a + b


def _live_pool_threads():
    return sum(
        thread.name.startswith("repro-parallel")
        for thread in threading.enumerate()
    )


class TestConfig:
    def test_defaults_inline(self):
        config = ParallelConfig()
        assert config.workers == 1
        assert config.max_retries == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            ParallelConfig(workers=-1)
        with pytest.raises(ValueError):
            ParallelConfig(max_retries=-1)

    def test_resolve_workers(self):
        assert resolve_workers(3) == 3
        assert resolve_workers(0) >= 1
        with pytest.raises(ValueError):
            resolve_workers(-2)

    def test_from_config(self):
        executor = ParallelExecutor.from_config(None)
        assert executor.workers == 1
        executor = ParallelExecutor.from_config(
            ParallelConfig(workers=3, max_retries=2)
        )
        assert executor.workers == 3
        assert executor.max_retries == 2


class TestMap:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_results_in_item_order(self, workers):
        with ParallelExecutor(workers) as executor:
            assert executor.map(_square, range(10)) == [
                x * x for x in range(10)
            ]

    def test_star_unpacks(self):
        with ParallelExecutor(4) as executor:
            assert executor.map(
                _add, [(1, 2), (3, 4)], star=True
            ) == [3, 7]

    def test_first_error_in_item_order_propagates(self):
        with ParallelExecutor(4) as executor:
            with pytest.raises(ValueError, match="boom on 3"):
                executor.map(_boom, [0, 1, 2, 3, 4])


class TestReplay:
    @pytest.mark.parametrize(
        "workers", [1, 4], ids=["1-thread", "4-thread"]
    )
    def test_bit_identical_to_direct_call(self, workers):
        pages, is_write, scores = _trace()
        reference = SetAssociativeCache(GEOMETRY)
        ref_stats = simulate_fast(
            reference, LruPolicy(), pages, is_write, scores=scores
        )
        with ParallelExecutor(workers) as executor:
            caches = [SetAssociativeCache(GEOMETRY) for _ in range(3)]
            tasks = [
                ReplayTask(
                    cache=cache,
                    policy=LruPolicy(),
                    pages=pages,
                    is_write=is_write,
                    scores=scores,
                    record_outcome=True,
                )
                for cache in caches
            ]
            results = executor.replay(tasks)
            for cache, result in zip(caches, results):
                assert result.stats == ref_stats
                assert result.outcome is not None
                np.testing.assert_array_equal(
                    cache.tags, reference.tags
                )
                np.testing.assert_array_equal(
                    cache.stamp, reference.stamp
                )

    @pytest.mark.parametrize("workers", [1, 4])
    def test_crash_inside_worker_propagates(self, workers):
        """A task failing inside the replay body (not at dispatch)
        re-raises in the caller, and no pool thread survives it."""
        pages, is_write, _ = _trace(500)
        baseline = _live_pool_threads()
        executor = ParallelExecutor(workers)
        tasks = [
            ReplayTask(
                cache=SetAssociativeCache(GEOMETRY),
                policy=LruPolicy(),
                pages=pages,
                is_write=is_write,
                # Invalid on the second task only: the simulator's
                # stream validation raises mid-replay.
                warmup_fraction=-1.0 if i == 1 else 0.0,
            )
            for i in range(2)
        ]
        with pytest.raises(ValueError, match="warmup_fraction"):
            executor.replay(tasks)
        assert _live_pool_threads() == baseline


class TestRunGrid:
    def test_grid_order_and_parallel_match(self):
        from repro.analysis.sweep import run_grid

        points = [(i, i + 1) for i in range(6)]
        sequential = run_grid(_add, points)
        threaded = run_grid(
            _add, points, parallel=ParallelConfig(workers=4)
        )
        assert sequential == threaded
        assert sequential == [a + b for a, b in points]
