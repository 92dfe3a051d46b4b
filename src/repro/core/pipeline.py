"""The shared staged execution core of every ICGMM entry point.

The paper's loop -- prepare a workload, score it under the GMM,
simulate the DRAM cache, price the result -- is implemented once, in
:class:`StagedPipeline`: it is the offline entry point itself
(:meth:`StagedPipeline.run_benchmark`), and the streaming
:class:`~repro.serving.IcgmmCacheService` and the vectorized
multi-device :class:`~repro.cxl.fabric.CxlFabric` call into it.  It
runs four explicit stages over :class:`PreparedWorkload`:

* **Prepare** -- generate/accept a trace, preprocess it per Sec. 3.1,
  train the GMM engine on the leading slice, score the full stream
  (:meth:`StagedPipeline.prepare`).
* **Score** -- select the two score streams a Fig. 6 strategy
  replays, the scores its policy decides on and the scores a fill
  stores (:meth:`StagedPipeline.strategy_scores`), and build its
  policy; streaming callers stamp raw page chunks into scoreable
  features with :meth:`StagedPipeline.chunk_features`.
* **Simulate** -- drive a cache/policy pair over a (sub-)stream
  through :func:`~repro.cache.simulate_fast.simulate_fast`
  (bit-identical to the scalar reference
  :func:`repro.cache.setassoc.simulate`), with resumable
  ``index_offset`` replay and per-access ``OUTCOME_*`` recording.
  :meth:`StagedPipeline.simulate` runs it for
  :meth:`StagedPipeline.run_strategy`; chunked, sharded and
  multi-device replays run it per lane through
  :meth:`repro.core.parallel.ParallelExecutor.replay_lanes`.
* **Price** -- turn the counters into the Table 1 access-time view
  (:meth:`StagedPipeline.price`).

Because every replay resumes one ``simulate_fast`` call per lane at
its cursor, chunked, sharded and multi-device results stay
*bit-identical* to a single-shot offline run -- the property the
serving and fabric parity suites assert.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass

import numpy as np

from repro.cache.policies.base import ReplacementPolicy
from repro.cache.setassoc import SetAssociativeCache
from repro.cache.simulate_fast import simulate_fast
from repro.cache.stats import CacheStats
from repro.core.config import STRATEGIES, IcgmmConfig
from repro.core.engine import GmmPolicyEngine
from repro.core.policy import build_policy, strategy_views
from repro.core.results import BenchmarkResult, StrategyOutcome
from repro.hardware.latency import LatencyModel
from repro.traces.preprocess import (
    TracePreprocessor,
    transform_timestamps_at,
)
from repro.traces.record import MemoryTrace
from repro.traces.workloads import get_workload


@dataclass(frozen=True)
class PreparedWorkload:
    """A workload ready for strategy simulations.

    Holds everything shared between the four Fig. 6 strategies so the
    trace is generated and the GMM trained exactly once per workload.

    Attributes
    ----------
    scores:
        Full 2-D request scores ``G(P, T)`` (drive admission).
    page_frequency_scores:
        Time-marginalised per-page scores aligned with the request
        stream (drive eviction ranking); see
        :meth:`repro.core.engine.GmmPolicyEngine.page_scores`.
    """

    name: str
    page_indices: np.ndarray
    is_write: np.ndarray
    scores: np.ndarray
    page_frequency_scores: np.ndarray
    engine: GmmPolicyEngine

    def __len__(self) -> int:
        return self.page_indices.shape[0]

    def page_score_map(self) -> dict[int, float]:
        """Mapping page index -> marginal score (the fabric's
        ``score`` placement cuts its buckets from the values).

        Built with one vectorized ``np.unique`` + take; ``tolist()``
        converts to Python scalars in bulk.  Memoized: the map is a
        pure function of the instance's immutable page/score columns,
        and an engine swap always constructs a *new*
        ``PreparedWorkload`` (the dataclass is frozen), so the cache
        can never go stale.  Callers must treat the returned dict as
        read-only.
        """
        cached = self.__dict__.get("_page_score_map")
        if cached is None:
            unique_pages, first_position = np.unique(
                self.page_indices, return_index=True
            )
            values = self.page_frequency_scores[first_position]
            cached = dict(
                zip(
                    unique_pages.tolist(),
                    values.tolist(),
                    strict=True,
                )
            )
            object.__setattr__(self, "_page_score_map", cached)
        return cached


class StageProfiler:
    """Wall-clock accumulator for the pipeline's explicit stages.

    Attach one to :attr:`StagedPipeline.profiler` (the ``--profile``
    flag of ``repro run`` / ``repro fabric`` does) and every stage
    entry point records its elapsed time under its stage name --
    Prepare / Score / Simulate / Price -- so a perf investigation
    starts from measured stage shares instead of guesses.  Nested
    stage sections of the same profiler accumulate independently;
    the profiler is not thread-safe *within* one stage name, which
    is fine because fan-out callers time the whole dispatch, not the
    per-worker bodies.
    """

    #: Canonical display order.
    STAGES = ("prepare", "score", "simulate", "price")

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}
        self.calls: dict[str, int] = {}

    @contextmanager
    def stage(self, name: str):
        """Time one section under ``name``."""
        started = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - started
            self.seconds[name] = self.seconds.get(name, 0.0) + elapsed
            self.calls[name] = self.calls.get(name, 0) + 1

    def add(
        self, name: str, seconds: float, calls: int = 1
    ) -> None:
        """Fold an externally-timed section into the accumulator.

        Used by :meth:`repro.core.parallel.ParallelExecutor.replay`
        to merge per-task worker timings in dispatch order, so the
        section *structure* (names and call counts) is identical at
        every worker count even though the seconds are wall-clock.
        """
        self.seconds[name] = self.seconds.get(name, 0.0) + float(
            seconds
        )
        self.calls[name] = self.calls.get(name, 0) + int(calls)

    def rows(self) -> list[tuple[str, int, float, float]]:
        """(stage, calls, seconds, share) rows in canonical order."""
        total = sum(self.seconds.values()) or 1.0
        ordered = [n for n in self.STAGES if n in self.seconds] + [
            n for n in sorted(self.seconds) if n not in self.STAGES
        ]
        return [
            (
                name,
                self.calls[name],
                self.seconds[name],
                self.seconds[name] / total,
            )
            for name in ordered
        ]


class StagedPipeline:
    """Prepare -> Score -> Simulate -> Price, shared by all entry
    points (see module docstring); :meth:`run_benchmark` is the
    offline one.

    Parameters
    ----------
    config:
        System configuration (geometry, GMM, Algorithm 1 constants).

    The Price stage uses the Table 1
    :class:`~repro.hardware.latency.LatencyModel`
    (:attr:`latency_model`).
    """

    def __init__(self, config: IcgmmConfig | None = None) -> None:
        self.config = config if config is not None else IcgmmConfig()
        self.latency_model = LatencyModel()
        self._preprocessor = TracePreprocessor(
            len_window=self.config.len_window,
            len_access_shot=self.config.len_access_shot,
            timestamp_mode=self.config.timestamp_mode,
        )
        #: Optional :class:`StageProfiler`; when set, every stage
        #: entry point (and the fabric's fan-out sections) records
        #: its wall-clock here.
        self.profiler: StageProfiler | None = None
        #: Optional :class:`repro.obs.Telemetry`; when set, every
        #: stage section additionally opens a logical-clock span and
        #: counts into ``pipeline_stage_calls_total``.  ``None``
        #: (default) keeps the exact pre-telemetry code path.
        self.telemetry = None
        # Streaming-stamp scratch (see _chunk_timestamps): the base
        # arange is reused across equal-length chunks and the last
        # stamped timestamp vector is memoized by stream phase.
        self._ts_base: np.ndarray | None = None
        self._ts_key: tuple | None = None
        self._ts_val: np.ndarray | None = None

    def profile_stage(self, name: str):
        """Context manager timing one stage section (no-op when no
        profiler is attached)."""
        if self.profiler is None:
            return nullcontext()
        return self.profiler.stage(name)

    def stage_scope(self, name: str):
        """Profiling + telemetry wrapper of one stage section.

        Identical to :meth:`profile_stage` when no telemetry is
        attached (the byte-parity contract); with telemetry it also
        records a ``pipeline.<name>`` span on the logical clock and
        bumps the per-stage call counter.
        """
        if self.telemetry is None:
            return self.profile_stage(name)
        return self._traced_stage(name)

    @contextmanager
    def _traced_stage(self, name: str):
        telemetry = self.telemetry
        telemetry.registry.counter(
            "pipeline_stage_calls_total",
            help="Entries into each pipeline stage section.",
            labels=("stage",),
        ).labels(stage=name).inc()
        span = telemetry.tracer.begin("pipeline", name)
        try:
            with self.profile_stage(name):
                yield
        finally:
            telemetry.tracer.end(span)

    # ------------------------------------------------------------------
    # Stage 1: Prepare
    # ------------------------------------------------------------------
    def generate_trace(
        self, workload: str, rng: np.random.Generator
    ) -> MemoryTrace:
        """Generate the workload's synthetic trace at the config scale."""
        generator = get_workload(workload, scale=self.config.workload_scale)
        length = (
            self.config.trace_length
            if self.config.trace_length is not None
            else generator.default_length
        )
        return generator.generate(length, rng)

    def prepare(
        self,
        workload: str,
        trace: MemoryTrace | None = None,
        rng: np.random.Generator | None = None,
    ) -> PreparedWorkload:
        """Trace generation, preprocessing, training and scoring."""
        with self.stage_scope("prepare"):
            if rng is None:
                rng = np.random.default_rng(self.config.seed)
            if trace is None:
                trace = self.generate_trace(workload, rng)
            processed = self._preprocessor.process(trace)
            features = processed.features
            n_train = max(
                1, int(len(processed) * self.config.train_fraction)
            )
            engine = GmmPolicyEngine.train(
                features[:n_train], self.config.gmm, rng
            )
            scores = engine.score(features)
            page_frequency_scores = engine.page_scores(
                processed.page_indices
            )
            return PreparedWorkload(
                name=workload,
                page_indices=processed.page_indices,
                is_write=processed.trace.is_write.copy(),
                scores=scores,
                page_frequency_scores=page_frequency_scores,
                engine=engine,
            )

    # ------------------------------------------------------------------
    # Stage 2: Score
    # ------------------------------------------------------------------
    def strategy_scores(
        self, prepared: PreparedWorkload, strategy: str
    ) -> tuple[np.ndarray | None, np.ndarray | None]:
        """The ``(scores, fill_scores)`` a strategy's replay consumes.

        Each is the stream of its view in
        :func:`~repro.core.policy.strategy_views`: the 2-D request
        scores for ``"request"``, the time-marginalised per-page
        scores for ``"page"``, ``None`` for none.
        """
        streams = {
            "request": prepared.scores,
            "page": prepared.page_frequency_scores,
            None: None,
        }
        score_view, fill_view = strategy_views(strategy)
        return streams[score_view], streams[fill_view]

    def chunk_features(
        self, pages: np.ndarray, start_index: int
    ) -> np.ndarray:
        """Stamp a raw page chunk into scoreable ``(N, 2)`` features.

        Streaming callers (the serving loop, fabric ingestion) cut
        the live stream into chunks; the Algorithm 1 timestamp of
        each access is a pure function of its *absolute* stream
        index, so chunked scoring matches a whole-stream pass bit
        for bit.
        """
        pages = np.asarray(pages)
        n = pages.shape[0]
        features = np.empty((n, 2), dtype=np.float64)
        features[:, 0] = pages
        features[:, 1] = self._chunk_timestamps(int(start_index), n)
        return features

    def _chunk_timestamps(self, start_index: int, n: int) -> np.ndarray:
        """Algorithm-1 timestamps of accesses ``[start, start + n)``.

        The timestamp is a *periodic* function of the absolute index
        (period ``len_window * len_access_shot`` covers both modes),
        so the stream position reduces to its phase, the base
        ``arange`` scratch is reused across the equal-length chunks a
        streaming loop stamps every step, and a chunk landing on an
        already-stamped ``(phase, length)`` reuses the previous
        vector outright -- bit-identical to stamping from the raw
        absolute indices.  Callers must not mutate the result.
        """
        config = self.config
        period = config.len_window * config.len_access_shot
        phase = start_index % period
        key = (
            phase,
            n,
            config.timestamp_mode,
            config.len_window,
            config.len_access_shot,
        )
        if key == self._ts_key:
            return self._ts_val
        if self._ts_base is None or self._ts_base.shape[0] < n:
            self._ts_base = np.arange(n, dtype=np.int64)
        timestamps = transform_timestamps_at(
            self._ts_base[:n] + phase,
            config.len_window,
            config.len_access_shot,
            config.timestamp_mode,
        ).astype(np.float64)
        self._ts_key = key
        self._ts_val = timestamps
        return timestamps

    # ------------------------------------------------------------------
    # Stage 3: Simulate
    # ------------------------------------------------------------------
    def simulate(
        self,
        cache: SetAssociativeCache,
        policy: ReplacementPolicy,
        pages: np.ndarray,
        is_write: np.ndarray,
        scores: np.ndarray | None = None,
        warmup_fraction: float = 0.0,
        index_offset: int = 0,
        outcome: np.ndarray | None = None,
        fill_scores: np.ndarray | None = None,
    ) -> CacheStats:
        """Drive one cache/policy pair over a (sub-)stream.

        Runs :func:`~repro.cache.simulate_fast.simulate_fast`,
        bit-identical to the scalar reference loop.  ``index_offset``
        makes the call resumable (chunked/sharded/multi-device
        replay), ``outcome`` records per-access ``OUTCOME_*`` codes
        for exact downstream accounting, and ``fill_scores`` (default:
        ``scores``) is what each fill stores.
        """
        with self.stage_scope("simulate"):
            return simulate_fast(
                cache,
                policy,
                pages,
                is_write,
                scores=scores,
                warmup_fraction=warmup_fraction,
                index_offset=index_offset,
                outcome=outcome,
                fill_scores=fill_scores,
            )

    # ------------------------------------------------------------------
    # Stage 4: Price
    # ------------------------------------------------------------------
    def price(self, strategy: str, stats: CacheStats) -> StrategyOutcome:
        """Table 1 pricing of one simulation's counters."""
        with self.stage_scope("price"):
            return StrategyOutcome(
                strategy=strategy,
                stats=stats,
                average_time_us=self.latency_model.average_access_time_us(
                    stats
                ),
            )

    # ------------------------------------------------------------------
    # Stage composition
    # ------------------------------------------------------------------
    def run_strategy(
        self, prepared: PreparedWorkload, strategy: str
    ) -> StrategyOutcome:
        """Score + Simulate + Price for one Fig. 6 strategy."""
        with self.stage_scope("score"):
            policy = build_policy(
                strategy, prepared.engine.admission_threshold
            )
            scores, fill_scores = self.strategy_scores(prepared, strategy)
        cache = SetAssociativeCache(self.config.geometry)
        stats = self.simulate(
            cache,
            policy,
            prepared.page_indices,
            prepared.is_write,
            scores=scores,
            warmup_fraction=self.config.warmup_fraction,
            fill_scores=fill_scores,
        )
        return self.price(strategy, stats)

    def run_benchmark(
        self,
        workload: str,
        strategies: tuple[str, ...] = STRATEGIES,
        trace: MemoryTrace | None = None,
        rng: np.random.Generator | None = None,
    ) -> BenchmarkResult:
        """Prepare a workload and run every requested strategy on it."""
        prepared = self.prepare(workload, trace=trace, rng=rng)
        outcomes = {
            strategy: self.run_strategy(prepared, strategy)
            for strategy in strategies
        }
        return BenchmarkResult(workload=workload, outcomes=outcomes)
