"""Executor lifecycle: pools must never outlive their owners.

Every owner of a :class:`ParallelExecutor` -- the fabric, the serving
loop and their CLIs -- must tear its pool down deterministically
(context manager or ``close()``/``shutdown()`` in a ``finally``),
including on error paths, and a replay round that fails must leave
no pool behind.  These tests assert the
absence of leaked worker threads by counting live threads with the
executor's name prefix.
"""

import threading

import numpy as np
import pytest

from repro.cache.policies import LruPolicy
from repro.cache.setassoc import CacheGeometry, SetAssociativeCache
from repro.core.parallel import ParallelExecutor, ReplayTask
from repro.core.pipeline import StagedPipeline

#: Thread-name prefix of every ParallelExecutor thread pool.
_PREFIX = "repro-parallel"

GEOMETRY = CacheGeometry(
    capacity_bytes=16 * 4096 * 4, block_bytes=4096, associativity=4
)


def _live_pool_threads() -> int:
    return sum(
        1
        for thread in threading.enumerate()
        if thread.name.startswith(_PREFIX)
    )


def _tasks(n, failing=None):
    """``n`` small independent LRU replays; task ``failing`` carries
    an invalid warm-up fraction, so it raises inside the replay."""
    rng = np.random.default_rng(0)
    pages = rng.integers(0, 500, 300)
    is_write = rng.random(300) < 0.3
    return [
        ReplayTask(
            cache=SetAssociativeCache(GEOMETRY),
            policy=LruPolicy(),
            pages=pages,
            is_write=is_write,
            warmup_fraction=-1.0 if i == failing else 0.0,
        )
        for i in range(n)
    ]


class TestExecutorShutdown:
    def test_context_manager_tears_pool_down(self):
        baseline = _live_pool_threads()
        with ParallelExecutor(workers=3) as executor:
            assert len(executor.replay(_tasks(3))) == 3
            assert _live_pool_threads() > baseline
        assert _live_pool_threads() == baseline

    def test_shutdown_idempotent(self):
        executor = ParallelExecutor(workers=2)
        executor.replay(_tasks(2))
        executor.shutdown()
        executor.shutdown()
        assert _live_pool_threads() == 0
        # A retired executor can lazily re-pool and close again.
        assert len(executor.replay(_tasks(2))) == 2
        executor.shutdown()
        assert _live_pool_threads() == 0

    def test_real_exception_closes_pool_before_raising(self):
        baseline = _live_pool_threads()
        executor = ParallelExecutor(workers=2)
        try:
            with pytest.raises(ValueError, match="warmup_fraction"):
                executor.replay(_tasks(2, failing=1))
            assert _live_pool_threads() == baseline
        finally:
            executor.shutdown()
        assert _live_pool_threads() == baseline

    def test_failed_round_then_reuse_leaks_nothing(self):
        """A round that raises tears its pool down; the same executor
        then re-pools lazily and replays as if nothing had failed."""
        baseline = _live_pool_threads()
        executor = ParallelExecutor(workers=2)
        try:
            executor.replay(_tasks(2))
            assert _live_pool_threads() > baseline
            with pytest.raises(ValueError, match="warmup_fraction"):
                executor.replay(_tasks(3, failing=2))
            assert _live_pool_threads() == baseline
            results = executor.replay(_tasks(3))
            assert _live_pool_threads() > baseline
            assert [r.stats for r in results] == [
                r.stats for r in ParallelExecutor().replay(_tasks(3))
            ]
        finally:
            executor.shutdown()
        assert _live_pool_threads() == baseline


class TestCliLifecycle:
    def test_fabric_command_closes_on_error(self, monkeypatch):
        from repro import cli
        from repro.cxl.fabric import CxlFabric

        closed = []
        original_close = CxlFabric.close

        def tracking_close(self):
            closed.append(True)
            original_close(self)

        def exploding_prepare(self, workload, *args, **kwargs):
            raise RuntimeError("prepare blew up")

        monkeypatch.setattr(CxlFabric, "close", tracking_close)
        monkeypatch.setattr(
            StagedPipeline, "prepare", exploding_prepare
        )
        baseline = _live_pool_threads()
        with pytest.raises(RuntimeError, match="prepare blew up"):
            cli.main(
                [
                    "fabric",
                    "memtier",
                    "--devices",
                    "2",
                    "--workers",
                    "2",
                    "--trace-length",
                    "6000",
                ]
            )
        assert closed, "fabric.close() must run on the error path"
        assert _live_pool_threads() == baseline
