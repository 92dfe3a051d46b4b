"""Reusable multicore execution engine for independent replays.

The paper's pitch is hardware-rate caching: the FPGA scores and
serves the DRAM cache in a pipeline (Sec. 4), every stage busy at
once.  The software reproduction's analogue is that its replay loops
are *embarrassingly parallel* -- every CXL fabric device and every
serving plane is a cache *lane* that owns fully independent state
(cache planes, policy, resumable cursor).

:class:`ParallelExecutor` drives the lanes under one contract:
**determinism**.  Tasks are dispatched in lane order, results are
merged in lane order (never completion order), no randomness enters
scheduling, and each task touches only its own state -- so a
parallel run is *bit-identical* to ``workers=1``, which the parity
suites in ``tests/cxl`` and ``tests/serving`` assert.
:meth:`ParallelExecutor.replay_lanes` is the one lane-replay loop the
serving planes and the fabric devices share.

``workers=1`` runs every task inline; more workers use a plain
thread pool whose threads mutate the caller's own cache planes and
policy objects in place, so the caller reads each round's state
straight from its own objects.  The pool buys no speed: Simulate is
a Python loop that holds the GIL on every access (only the small
numpy steps around the loop release it), so the lanes of a round
take turns rather than run side by side (``docs/parallel.md``).
"""

from __future__ import annotations

import os
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from repro.cache.policies.base import ReplacementPolicy
from repro.cache.setassoc import SetAssociativeCache
from repro.cache.simulate_fast import simulate_fast
from repro.cache.stats import CacheStats
from repro.core.config import ParallelConfig


def resolve_workers(workers: int) -> int:
    """Effective worker count (``0`` means the host's CPU count)."""
    if workers < 0:
        raise ValueError("workers must be >= 0")
    if workers == 0:
        return os.cpu_count() or 1
    return workers


# ----------------------------------------------------------------------
# Replay tasks
# ----------------------------------------------------------------------


@dataclass
class ReplayTask:
    """One resumable Simulate-stage call over an independent cache.

    This is the unit :meth:`ParallelExecutor.replay_lanes` dispatches
    per lane (a fabric device or a serving plane): the exact argument
    set of
    :meth:`repro.core.pipeline.StagedPipeline.simulate`.  The replay
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
    elapsed_s:
        Wall-clock seconds the task's simulate call took inside its
        worker.  Merged (in task order) into a caller-supplied
        :class:`~repro.core.pipeline.StageProfiler`, so profile
        *structure* stays deterministic across worker counts even
        though the seconds themselves are measurements.
    """

    stats: CacheStats
    outcome: np.ndarray | None
    elapsed_s: float = 0.0


def _run_replay(task: ReplayTask) -> ReplayResult:
    """Execute one task on the calling thread."""
    outcome = (
        np.empty(task.pages.shape[0], dtype=np.uint8)
        if task.record_outcome
        else None
    )
    started = time.perf_counter()
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
    return ReplayResult(
        stats=stats,
        outcome=outcome,
        elapsed_s=time.perf_counter() - started,
    )


# ----------------------------------------------------------------------
# The executor
# ----------------------------------------------------------------------


class ParallelExecutor:
    """Deterministic fan-out over a thread pool.

    Parameters
    ----------
    workers:
        Concurrent workers; ``0`` resolves to the CPU count, ``1``
        executes inline (no pool, no overhead).

    The pool is created lazily on first real fan-out and reused until
    :meth:`shutdown` (the executor is also a context manager), so a
    streaming caller pays pool start-up once, not per chunk.
    """

    def __init__(self, workers: int = 1) -> None:
        self.workers = resolve_workers(workers)
        self._pool: ThreadPoolExecutor | None = None
        self._dispatch_round = 0
        self._tasks_dispatched = 0

    @classmethod
    def from_config(
        cls, config: ParallelConfig | None
    ) -> "ParallelExecutor":
        """Executor matching a :class:`ParallelConfig` (None = inline)."""
        if config is None:
            return cls()
        return cls(config.workers)

    @property
    def dispatch_rounds(self) -> int:
        """Fan-out calls issued so far (the executor's logical clock)."""
        return self._dispatch_round

    @property
    def tasks_dispatched(self) -> int:
        """Tasks submitted across all fan-out calls."""
        return self._tasks_dispatched

    # -- lifecycle ------------------------------------------------------
    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.workers,
                thread_name_prefix="repro-parallel",
            )
        return self._pool

    def shutdown(self) -> None:
        """Tear the pool down (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    # -- simulate fan-out ----------------------------------------------
    def replay(
        self,
        tasks: list[ReplayTask],
        profiler=None,
    ) -> list[ReplayResult]:
        """Run independent Simulate-stage tasks; results in task order.

        The caller is responsible for task independence (no two tasks
        sharing a cache/policy) -- true by construction for fabric
        devices and serving planes.  Each task's cache and policy are
        advanced in place, ready for the next round.

        ``profiler`` (a :class:`~repro.core.pipeline.StageProfiler`)
        receives each task's in-worker simulate time under the
        ``"simulate.task"`` section, merged in *task order* after the
        deterministic gather -- never completion order -- so the
        profile's section names and call counts are identical at
        workers=1 and workers=N.

        An exception is never retried: replay tasks mutate resumable
        cache/policy state, so a re-run after a partial mutation would
        not be bit-exact.  The pool is shut down before the error
        propagates, so the executor stays usable.
        """
        self._dispatch_round += 1
        self._tasks_dispatched += len(tasks)
        try:
            if self.workers <= 1 or len(tasks) <= 1:
                results = [_run_replay(task) for task in tasks]
            else:
                pool = self._ensure_pool()
                results = _gather(
                    [pool.submit(_run_replay, task) for task in tasks]
                )
        except Exception:
            self.shutdown()
            raise
        if profiler is not None:
            for result in results:
                profiler.add("simulate.task", result.elapsed_s)
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

    def __repr__(self) -> str:
        return f"ParallelExecutor(workers={self.workers})"


def _gather(futures: list[Future]) -> list:
    """Results in submission order; first (by order) error re-raised."""
    results = []
    error: BaseException | None = None
    for future in futures:
        try:
            results.append(future.result())
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            if error is None:
                error = exc
            results.append(None)
    if error is not None:
        raise error
    return results


__all__ = [
    "ParallelExecutor",
    "ReplayResult",
    "ReplayTask",
    "resolve_workers",
]
