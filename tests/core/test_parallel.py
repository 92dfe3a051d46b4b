"""Unit tests of the lane loop.

Covers inline replay (results in task order, each equal to a direct
``simulate_fast`` call) bare and with a stage profiler timing each
task, a failure inside a replay task and the lane-replay loop
(:meth:`ParallelExecutor.replay_lanes`).
"""

import numpy as np
import pytest

from repro.cache.policies import LruPolicy
from repro.cache.setassoc import (
    CacheGeometry,
    SetAssociativeCache,
)
from repro.cache.simulate_fast import simulate_fast
from repro.core.parallel import ParallelExecutor, ReplayTask
from repro.core.pipeline import StageProfiler

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


#: ``replay``'s two branches: bare, and timing each task.
PROFILED = pytest.mark.parametrize(
    "profiled", [False, True], ids=["bare", "profiled"]
)


class TestReplay:
    @PROFILED
    def test_bit_identical_to_direct_call(self, profiled):
        pages, is_write, scores = _trace()
        reference = SetAssociativeCache(GEOMETRY)
        ref_stats = simulate_fast(
            reference, LruPolicy(), pages, is_write, scores=scores
        )
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
        profiler = StageProfiler() if profiled else None
        results = ParallelExecutor().replay(tasks, profiler)
        if profiled:
            assert profiler.calls == {"simulate.task": len(tasks)}
        for cache, result in zip(caches, results):
            assert result.stats == ref_stats
            assert result.outcome is not None
            np.testing.assert_array_equal(cache.tags, reference.tags)
            np.testing.assert_array_equal(cache.stamp, reference.stamp)

    @PROFILED
    def test_crash_inside_a_task_propagates(self, profiled):
        """A task failing inside the replay body re-raises in the
        caller; the task before it has already replayed, and a
        profiler still closes the failing task's section."""
        pages, is_write, _ = _trace(500)
        executor = ParallelExecutor()
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
        profiler = StageProfiler() if profiled else None
        with pytest.raises(ValueError, match="warmup_fraction"):
            executor.replay(tasks, profiler)
        if profiled:
            assert profiler.calls == {"simulate.task": 2}
        assert tasks[0].cache.occupancy() > 0
        assert tasks[1].cache.occupancy() == 0


def _lane_stream(n=6_000, n_lanes=3, seed=1):
    """A random stream split over ``n_lanes`` lanes, some accesses
    on lane -1 (left out)."""
    pages, is_write, scores = _trace(n, seed)
    rng = np.random.default_rng(seed + 100)
    lane_ids = rng.integers(-1, n_lanes, n)
    return lane_ids, pages, is_write, scores


def _lanes(n_lanes=3):
    caches = [SetAssociativeCache(GEOMETRY) for _ in range(n_lanes)]
    policies = [LruPolicy() for _ in range(n_lanes)]
    return caches, policies


class TestReplayLanes:
    def test_lanes_replay_in_lane_order_and_skip_empty_ones(self):
        lane_ids, pages, is_write, _ = _lane_stream()
        # Lane 1 gets no access this round.
        lane_ids = np.where(lane_ids == 1, 2, lane_ids)
        caches, policies = _lanes()
        executor = ParallelExecutor()
        dispatched = []
        replay = executor.replay

        def spy(tasks, *args, **kwargs):
            dispatched.append([task.cache for task in tasks])
            return replay(tasks, *args, **kwargs)

        executor.replay = spy
        replayed = executor.replay_lanes(
            caches, policies, [0, 0, 0], lane_ids, pages, is_write
        )
        assert [lane for lane, _, _ in replayed] == [0, 2]
        assert dispatched == [[caches[0], caches[2]]]
        assert caches[1].occupancy() == 0

    def test_lane_minus_one_is_never_replayed(self):
        lane_ids, pages, is_write, _ = _lane_stream()
        # Give the left-out accesses pages no lane ever sees.
        pages = np.where(lane_ids == -1, pages + 1_000_000, pages)
        caches, policies = _lanes()
        replayed = ParallelExecutor().replay_lanes(
            caches, policies, [0, 0, 0], lane_ids, pages, is_write
        )
        replayed_positions = np.concatenate(
            [positions for _, positions, _ in replayed]
        )
        assert not np.any(lane_ids[replayed_positions] == -1)
        assert replayed_positions.size == np.count_nonzero(
            lane_ids >= 0
        )
        assert sum(r.stats.accesses for _, _, r in replayed) == (
            np.count_nonzero(lane_ids >= 0)
        )
        for cache in caches:
            assert not np.any(cache.tags >= 1_000_000)

    def test_cursors_advance_and_outcomes_land_at_positions(self):
        lane_ids, pages, is_write, scores = _lane_stream()
        caches, policies = _lanes()
        start = [5, 0, 17]
        cursors = list(start)
        replayed = ParallelExecutor().replay_lanes(
            caches,
            policies,
            cursors,
            lane_ids,
            pages,
            is_write,
            scores,
            record_outcome=True,
        )
        for lane, positions, result in replayed:
            np.testing.assert_array_equal(
                positions, np.flatnonzero(lane_ids == lane)
            )
            assert cursors[lane] == start[lane] + positions.size
            # Each lane equals a direct resumable replay of its own
            # sub-stream, outcome by outcome.
            reference = SetAssociativeCache(GEOMETRY)
            outcome = np.empty(positions.size, dtype=np.uint8)
            stats = simulate_fast(
                reference,
                LruPolicy(),
                pages[positions],
                is_write[positions],
                scores=scores[positions],
                index_offset=start[lane],
                outcome=outcome,
            )
            assert result.stats == stats
            np.testing.assert_array_equal(result.outcome, outcome)
            np.testing.assert_array_equal(
                caches[lane].stamp, reference.stamp
            )

    def test_warmup_fraction_cuts_each_lane(self):
        lane_ids, pages, is_write, _ = _lane_stream(n=5_001)
        caches, policies = _lanes()
        replayed = ParallelExecutor().replay_lanes(
            caches,
            policies,
            [0, 0, 0],
            lane_ids,
            pages,
            is_write,
            warmup_fraction=0.3,
        )
        for _, positions, result in replayed:
            n = int(positions.size)
            assert result.stats.accesses == n - int(n * 0.3)
            expected = simulate_fast(
                SetAssociativeCache(GEOMETRY),
                LruPolicy(),
                pages[positions],
                is_write[positions],
                warmup_fraction=0.3,
            )
            assert result.stats == expected

    def test_round_without_accesses_still_dispatches(self):
        caches, policies = _lanes()
        executor = ParallelExecutor()
        cursors = [3, 4, 5]
        replayed = executor.replay_lanes(
            caches,
            policies,
            cursors,
            np.full(4, -1),
            np.arange(4),
            np.zeros(4, dtype=bool),
        )
        assert replayed == []
        assert executor.dispatch_rounds == 1
        assert executor.tasks_dispatched == 0
        assert cursors == [3, 4, 5]
