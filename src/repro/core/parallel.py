"""The lane loop every cache replay runs through.

Every CXL fabric device and every serving plane is a cache *lane*
that owns fully independent state (cache planes, policy, resumable
cursor).  :meth:`ParallelExecutor.replay_lanes` is the one lane-replay
loop the serving planes and the fabric devices share: it splits a
round's stream by lane and replays each lane with one resumable
:func:`~repro.cache.simulate_fast.simulate_fast` call, inline and in
lane order, advancing the caller's own cache and policy objects in
place.

There are no worker threads.  The paper's concurrency is the FPGA
dataflow of Sec. 4, not host threads; here Simulate is a Python loop
that holds the GIL on every access, and no lane shape measured a
gain from a thread pool (``docs/parallel.md``), so the pool was
deleted.  The class keeps its name and :meth:`ParallelExecutor.replay`
its ``(tasks, profiler)`` signature because the repository benchmark
times the Simulate layer by patching that method.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from repro.cache.policies.base import ReplacementPolicy
from repro.cache.setassoc import SetAssociativeCache
from repro.cache.simulate_fast import simulate_fast
from repro.cache.stats import CacheStats

# ----------------------------------------------------------------------
# Replay tasks
# ----------------------------------------------------------------------


@dataclass
class ReplayTask:
    """One resumable Simulate-stage call over an independent cache.

    This is the unit :meth:`ParallelExecutor.replay_lanes` builds per
    lane (a fabric device or a serving plane): the exact argument set
    of :meth:`repro.core.pipeline.StagedPipeline.simulate`.  The replay
    mutates :attr:`cache` and :attr:`policy` in place, so the next
    round resumes from the caller's own objects.
    """

    cache: SetAssociativeCache
    policy: ReplacementPolicy
    pages: np.ndarray
    is_write: np.ndarray
    scores: np.ndarray | None = None
    warmup_fraction: float = 0.0
    index_offset: int = 0
    record_outcome: bool = False
    fill_scores: np.ndarray | None = None


@dataclass(frozen=True)
class ReplayResult:
    """Outcome of one :class:`ReplayTask`.

    Attributes
    ----------
    stats:
        Counters of the replayed (sub-)stream.
    outcome:
        Per-access ``OUTCOME_*`` codes when the task asked for them,
        else ``None``.
    """

    stats: CacheStats
    outcome: np.ndarray | None


def _run_replay(task: ReplayTask) -> ReplayResult:
    """Execute one task."""
    outcome = (
        np.empty(task.pages.shape[0], dtype=np.uint8)
        if task.record_outcome
        else None
    )
    stats = simulate_fast(
        task.cache,
        task.policy,
        task.pages,
        task.is_write,
        scores=task.scores,
        warmup_fraction=task.warmup_fraction,
        index_offset=task.index_offset,
        outcome=outcome,
        fill_scores=task.fill_scores,
    )
    return ReplayResult(stats=stats, outcome=outcome)


# ----------------------------------------------------------------------
# The lane loop
# ----------------------------------------------------------------------


class ParallelExecutor:
    """Inline replay of independent lanes, counted for telemetry."""

    def __init__(self) -> None:
        #: Replay rounds run so far, and tasks replayed across them:
        #: the loop's logical clock (``repro.obs.bridge`` exports it).
        self.dispatch_rounds = 0
        self.tasks_dispatched = 0

    def replay(
        self,
        tasks: list[ReplayTask],
        profiler=None,
    ) -> list[ReplayResult]:
        """Run independent Simulate-stage tasks in order.

        The caller is responsible for task independence (no two tasks
        sharing a cache/policy) -- true by construction for fabric
        devices and serving planes.  Each task's cache and policy are
        advanced in place, ready for the next round.

        ``profiler`` (a :class:`~repro.core.pipeline.StageProfiler`)
        times each task under the ``"simulate.task"`` section.

        An exception propagates at once and is never retried: replay
        tasks mutate resumable cache/policy state, so a re-run after a
        partial mutation would not be bit-exact.
        """
        self.dispatch_rounds += 1
        self.tasks_dispatched += len(tasks)
        results = []
        for task in tasks:
            with (
                profiler.stage("simulate.task")
                if profiler is not None
                else nullcontext()
            ):
                results.append(_run_replay(task))
        return results

    def replay_lanes(
        self,
        caches: list[SetAssociativeCache],
        policies: list[ReplacementPolicy],
        cursors: list[int],
        lane_ids: np.ndarray,
        pages: np.ndarray,
        is_write: np.ndarray,
        scores: np.ndarray | None = None,
        fill_scores: np.ndarray | None = None,
        *,
        profiler=None,
        record_outcome: bool = False,
        warmup_fraction: float = 0.0,
    ) -> list[tuple[int, np.ndarray, ReplayResult]]:
        """Replay one round of a stream split over cache lanes.

        ``lane_ids`` names each access's lane (an index into
        ``caches``/``policies``/``cursors``; ``-1`` leaves the access
        out).  ``scores`` and ``fill_scores`` are per-access streams
        like ``pages``.  Every lane with accesses becomes one
        :class:`ReplayTask` over its accesses in stream order,
        resuming at its cursor with ``warmup_fraction`` cut from its
        own sub-stream; the tasks go through one :meth:`replay` call
        -- even an empty one, so dispatch rounds stay one per call --
        and each replayed lane's cursor advances by its access count.

        Returns ``(lane, positions, result)`` per replayed lane, in
        lane order; ``positions`` index the lane's accesses in the
        round's stream.
        """
        lanes: list[tuple[int, np.ndarray]] = []
        tasks: list[ReplayTask] = []
        for lane, cache in enumerate(caches):
            positions = np.flatnonzero(lane_ids == lane)
            if positions.size == 0:
                continue
            lanes.append((lane, positions))
            tasks.append(
                ReplayTask(
                    cache=cache,
                    policy=policies[lane],
                    pages=pages[positions],
                    is_write=is_write[positions],
                    scores=(
                        scores[positions] if scores is not None else None
                    ),
                    warmup_fraction=warmup_fraction,
                    index_offset=cursors[lane],
                    record_outcome=record_outcome,
                    fill_scores=(
                        fill_scores[positions]
                        if fill_scores is not None
                        else None
                    ),
                )
            )
        results = self.replay(tasks, profiler)
        replayed = []
        for (lane, positions), result in zip(lanes, results, strict=True):
            cursors[lane] += int(positions.size)
            replayed.append((lane, positions, result))
        return replayed


__all__ = [
    "ParallelExecutor",
    "ReplayResult",
    "ReplayTask",
]
