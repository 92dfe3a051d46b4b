"""The streaming ICGMM cache service.

:class:`IcgmmCacheService` runs the paper's whole loop *continuously*
on an access stream consumed in chunks:

1. stamp the chunk with Algorithm-1 timestamps from the global
   stream cursor and score it under the currently-loaded engine
   (Sec. 3.3 inference),
2. watch the score distribution for drift
   (:mod:`repro.serving.drift`),
3. simulate the chunk against the live sharded cache planes with
   resumable, bit-exact calls into the shared pipeline's Simulate
   stage (:meth:`repro.core.pipeline.StagedPipeline.simulate` --
   the same code path the offline system and the CXL fabric run);
   shards are fully independent, so the calls are dispatched
   concurrently through
   :class:`~repro.core.parallel.ParallelExecutor`
   (:attr:`~repro.core.config.ServingConfig.parallel`) and merged
   in shard order -- any worker count is bit-identical to
   sequential replay,
4. account per-shard and per-tenant rolling miss rate and Table 1
   latency from the recorded per-access outcomes, and
5. when drift is confirmed, fold the recent traffic into the
   mixture by warm-started EM and atomically swap the refreshed
   engine in (:mod:`repro.serving.refresh` -- the software analogue
   of the FPGA weight-buffer reload).  The build runs inline, or on
   a background worker while chunks keep flowing on the old engine
   (:attr:`~repro.core.config.ServingConfig.refresh_async`); either
   way it lands through one validate-and-CAS-commit path.

Exactness contract: with ``hash`` sharding and refresh disabled, the
service's totals are *bit-identical* to a single-shot
:meth:`repro.core.system.IcgmmSystem.run_strategy` over the same
stream -- chunking, sharding and resumption are pure implementation
details, not approximations.  The equivalence test in
``tests/serving`` and the acceptance check in
``benchmarks/bench_serving_drift.py`` both assert it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.cache.stats import (
    OUTCOME_BYPASS,
    CacheStats,
    stats_from_outcomes,
)
from repro.chaos import FaultInjector, InjectedFaultError
from repro.core.config import ChaosConfig, IcgmmConfig, ServingConfig
from repro.core.engine import GmmPolicyEngine
from repro.core.parallel import ParallelExecutor, ReplayTask
from repro.core.pipeline import StagedPipeline, StageProfiler
from repro.core.policy import (
    CombinedIcgmmPolicy,
    build_policy,
    strategy_score_view,
)
from repro.hardware.latency import LatencyModel
from repro.serving.drift import DriftDetector, DriftReport
from repro.serving.metrics import RollingMetrics
from repro.serving.refresh import (
    EngineSlot,
    ModelRefresher,
    StaleSwapError,
    validate_engine,
)
from repro.serving.sharding import ShardedCachePlanes


def _timed_build(build, *args) -> tuple:
    """Run one refresh build; returns ``(engine, error, seconds)``.

    Never raises: a failed fold comes back as ``error`` so both
    deployments land it the same way -- inline under the ``refresh``
    profiler section, or off-path on the refresh executor's thread,
    whose harvest needs the build's wall time even when it failed.
    """
    started = time.perf_counter()
    try:
        engine, error = build(*args), None
    except Exception as exc:  # noqa: BLE001 - landed as a failed build
        engine, error = None, exc
    return engine, error, time.perf_counter() - started


class _PageScoreCache:
    """Lazily-extended map of page -> time-marginalised score.

    One instance per engine generation: the marginal is a pure
    function of the page under a fixed mixture, so values are
    computed once per *new* page and reused for every later chunk --
    the working analogue of the on-board score table.  Vectorized
    per-access lookups go through sorted key/value arrays; the
    combined policy's shard-local dicts are fed from the new
    (pages, scores) pairs :meth:`ensure` returns.
    """

    def __init__(self, engine: GmmPolicyEngine) -> None:
        self._engine = engine
        self._keys = np.empty(0, dtype=np.int64)
        self._values = np.empty(0, dtype=np.float64)

    def ensure(
        self, pages: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Score pages not yet cached; returns the new (pages, scores)."""
        unique = np.unique(np.asarray(pages, dtype=np.int64))
        if self._keys.size:
            pos = np.searchsorted(self._keys, unique)
            pos_clipped = np.minimum(pos, self._keys.size - 1)
            new = unique[self._keys[pos_clipped] != unique]
        else:
            new = unique
        if new.size == 0:
            return new, np.empty(0, dtype=np.float64)
        marginals = self._engine.page_scores(new)
        # Both arrays are sorted already: an O(U + k) positional
        # insert replaces a full re-sort of the merged keys.
        insert_at = np.searchsorted(self._keys, new)
        self._keys = np.insert(self._keys, insert_at, new)
        self._values = np.insert(self._values, insert_at, marginals)
        return new, marginals

    def lookup(self, pages: np.ndarray) -> np.ndarray:
        """Marginal score per access (pages must be ensured)."""
        pos = np.searchsorted(
            self._keys, np.asarray(pages, dtype=np.int64)
        )
        return self._values[pos]


@dataclass(frozen=True)
class ChunkReport:
    """What one service step did (returned per chunk)."""

    chunk_index: int
    accesses: int
    stats: CacheStats
    drift: DriftReport | None
    swapped: bool
    generation: int


@dataclass(frozen=True)
class SwapEvent:
    """One engine swap in the service's history."""

    chunk_index: int
    generation: int
    access_cursor: int
    threshold: float


class IcgmmCacheService:
    """Long-running sharded ICGMM cache service (module docstring).

    Parameters
    ----------
    engine:
        The initially-deployed scoring engine (offline-trained, as
        the paper ships it).
    config:
        System profile: cache geometry and the Algorithm-1
        preprocessing constants the stream is stamped with.
    serving:
        Serving-loop knobs (:class:`~repro.core.config.ServingConfig`).
    latency_model:
        Table 1 pricing for the metrics view.
    measure_from:
        Absolute access index at which counters start (the stream
        before it warms the cache unmeasured -- the serving analogue
        of ``warmup_fraction``).
    """

    def __init__(
        self,
        engine: GmmPolicyEngine,
        config: IcgmmConfig | None = None,
        serving: ServingConfig | None = None,
        latency_model: LatencyModel | None = None,
        measure_from: int = 0,
        chaos: ChaosConfig | None = None,
        telemetry=None,
    ) -> None:
        if measure_from < 0:
            raise ValueError("measure_from must be >= 0")
        self.pipeline = StagedPipeline(config, latency_model)
        self.config = self.pipeline.config
        self.serving = serving if serving is not None else ServingConfig()
        self.measure_from = int(measure_from)
        self.slot = EngineSlot(engine)
        self._executor = ParallelExecutor.from_config(
            self.serving.parallel
        )
        # Chaos wiring: None when disabled, so every hot-path gate is
        # an ``is not None`` check and the fault-free run executes the
        # exact pre-chaos code path (asserted by tests/chaos parity).
        self.injector = FaultInjector.from_config(
            chaos,
            n_shards=self.serving.n_shards,
            task_lanes=self.serving.n_shards,
        )
        if self.injector is not None:
            self._executor.fault_hook = (
                self.injector.worker_crash_attempts
            )
        self.planes = ShardedCachePlanes(
            self.config.geometry,
            self.serving.n_shards,
            mode=self.serving.sharding,
            partition_pages=self.serving.partition_pages,
            executor=self._executor,
        )
        # None inherits the quantile the deployed engine's threshold
        # was trained at, so the drift detector's expected
        # below-threshold fraction matches reality at generation 0.
        self.threshold_quantile = (
            self.serving.threshold_quantile
            if self.serving.threshold_quantile is not None
            else self.config.gmm.threshold_quantile
        )
        self.detector = DriftDetector(
            threshold=engine.admission_threshold,
            quantile=self.threshold_quantile,
            ks_threshold=self.serving.ks_threshold,
            quantile_tolerance=self.serving.quantile_drift_tolerance,
            patience=self.serving.drift_patience,
            baseline_chunks=self.serving.drift_baseline_chunks,
        )
        self.refresher = ModelRefresher(
            buffer_chunks=self.serving.refresh_buffer_chunks,
            threshold_quantile=self.threshold_quantile,
            warm_max_iter=self.serving.refresh_max_iter,
            reg_covar=self.config.gmm.reg_covar,
        )
        self.shard_metrics = RollingMetrics(
            latency_model, self.serving.metrics_window_chunks
        )
        self.tenant_metrics = RollingMetrics(
            latency_model, self.serving.metrics_window_chunks
        )
        self.totals = CacheStats()
        self.swaps: list[SwapEvent] = []
        self._score_view = strategy_score_view(self.serving.strategy)
        self._cursor = 0
        self._chunk_index = 0
        self._shard_cursors = [0] * self.serving.n_shards
        self._last_swap_chunk = -(10**9)
        # Refresh-resilience state: consecutive failed builds drive
        # exponential backoff; the breaker quarantines the drift
        # detector after repeated refusals.
        self._refresh_attempts = 0
        self._refresh_failures = 0
        self._refresh_block_until = -(10**9)
        self._quarantine_until = -(10**9)
        self._quarantined = False
        self._stall_retries = 0
        # Off-critical-path refresh (ServingConfig.refresh_async):
        # builds run on a dedicated single-worker thread executor and
        # commit through the CAS swap; the serving loop keeps
        # answering on the old engine meanwhile.  All state is None /
        # zero when disabled, so the synchronous path is untouched.
        self._refresh_executor: ParallelExecutor | None = None
        self._pending_refresh: tuple | None = None
        self._refresh_overlap_chunks = 0
        self._refresh_discarded = 0
        if self.serving.refresh_async:
            self._refresh_executor = ParallelExecutor(
                workers=1, backend="thread"
            )
        # Telemetry wiring mirrors chaos: None when disabled, so every
        # hot-path gate is an ``is not None`` check and the untraced
        # run executes the exact pre-telemetry code path.
        self.telemetry = telemetry
        if telemetry is not None:
            self.pipeline.telemetry = telemetry
            self._bind_telemetry()
        self._load_generation()

    def _bind_telemetry(self) -> None:
        """Install push instruments and pull collectors (ctor-only).

        Per-chunk pushes are the only hot-path cost; everything else
        is read from existing accumulators at collection time by the
        :mod:`repro.obs.bridge` adapters.
        """
        from repro.obs import bridge
        from repro.obs.registry import RATIO_EDGES

        telemetry = self.telemetry
        registry = telemetry.registry
        self._m_chunks = registry.counter(
            "serving_chunks_total",
            help="Chunks processed by the service.",
        )
        self._m_accesses = registry.counter(
            "serving_accesses_total",
            help="Accesses ingested (measured or not).",
        )
        self._m_hits = registry.counter(
            "serving_hits_total",
            help="Measured DRAM-cache hits.",
        )
        self._m_misses = registry.counter(
            "serving_misses_total",
            help="Measured misses (includes bypasses).",
        )
        self._m_swaps = registry.counter(
            "serving_engine_swaps_total",
            help="Refreshed engines atomically swapped in.",
        )
        self._m_builds = registry.counter(
            "serving_refresh_builds_total",
            help="Refresh build attempts by outcome.",
            labels=("outcome",),
        )
        self._m_chunk_miss = registry.histogram(
            "serving_chunk_miss_ratio",
            help="Per-chunk measured miss ratio.",
            edges=RATIO_EDGES,
        )

        stalls = registry.counter(
            "serving_stall_retries_total",
            help="Shard-stall attempts absorbed by the retry budget.",
        )
        generation = registry.gauge(
            "serving_engine_generation_count",
            help="Engine generation currently serving.",
        )

        def collect() -> None:
            stalls.set(self._stall_retries)
            generation.set(self.slot.generation)

        registry.register_collector(collect)
        if self.serving.refresh_async:
            # Registered only for async deployments so synchronous
            # runs keep their pre-async family set byte-identical;
            # overlap depends on build wall time, hence
            # non-deterministic.
            overlap = registry.counter(
                "serving_refresh_overlap_chunks_total",
                help="Chunks served while a refresh built off-path.",
                deterministic=False,
            )
            discarded = registry.counter(
                "serving_refresh_discarded_total",
                help="Background builds dropped (stale or at close).",
                deterministic=False,
            )

            def collect_async() -> None:
                overlap.set(self._refresh_overlap_chunks)
                discarded.set(self._refresh_discarded)

            registry.register_collector(collect_async)
        # Telemetry implies stage accounting: attach a profiler when
        # --profile did not already hang one on the pipeline.
        if self.pipeline.profiler is None:
            self.pipeline.profiler = StageProfiler()
        bridge.register_stage_profiler(
            registry, self.pipeline.profiler
        )
        bridge.register_rolling(
            registry, self.shard_metrics, scope="shard"
        )
        bridge.register_rolling(
            registry, self.tenant_metrics, scope="tenant"
        )
        bridge.register_executor(
            registry, self._executor, component="serving"
        )
        bridge.register_refresher(registry, self.refresher)
        if self.injector is not None:
            bridge.register_injector(registry, self.injector)
        telemetry.add_event_source(
            bridge.rolling_event_source(
                self.shard_metrics, scope="shard"
            )
        )

    # ------------------------------------------------------------------
    # Engine (re)load
    # ------------------------------------------------------------------
    def _load_generation(self) -> None:
        """Rebuild generation-scoped state from the slot's engine."""
        engine = self.slot.engine
        self._page_cache = _PageScoreCache(engine)
        combined = self.serving.strategy == "gmm-caching-eviction"
        # The combined policy looks its eviction metadata up by the
        # page value the *simulator* sees, which after routing is the
        # shard-local page -- so each shard's policy gets its own
        # local-keyed mapping, filled as new pages are scored.  The
        # page-view strategy ("gmm-eviction") needs only the global
        # lookup arrays in the page cache, not these dicts.
        self._shard_page_maps: list[dict[int, float]] = [
            {} for _ in range(self.serving.n_shards)
        ]
        self._policies = [
            build_policy(
                self.serving.strategy,
                engine.admission_threshold,
                page_scores=(
                    self._shard_page_maps[shard] if combined else None
                ),
            )
            for shard in range(self.serving.n_shards)
        ]
        self._combined = combined
        self._needs_page_cache = combined or self._score_view == "page"

    @property
    def generation(self) -> int:
        """Engine generation currently serving."""
        return self.slot.generation

    @property
    def access_cursor(self) -> int:
        """Absolute index of the next access to be ingested."""
        return self._cursor

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def ingest(
        self, pages: np.ndarray, is_write: np.ndarray
    ) -> list[ChunkReport]:
        """Stream a span of accesses through the service.

        The span is cut into :attr:`ServingConfig.chunk_requests`
        chunks processed in order; returns one report per chunk.
        """
        pages = np.asarray(pages, dtype=np.int64)
        is_write = np.asarray(is_write, dtype=bool)
        if pages.shape != is_write.shape or pages.ndim != 1:
            raise ValueError(
                "pages and is_write must be 1-D arrays of equal length"
            )
        reports = []
        step = self.serving.chunk_requests
        for start in range(0, pages.shape[0], step):
            reports.append(
                self._process_chunk(
                    pages[start : start + step],
                    is_write[start : start + step],
                )
            )
        return reports

    def _process_chunk(
        self, pages: np.ndarray, is_write: np.ndarray
    ) -> ChunkReport:
        n = pages.shape[0]
        engine, generation = self.slot.read()
        span = None
        if self.telemetry is not None:
            span = self.telemetry.tracer.begin(
                "serving", "chunk", index=self._chunk_index
            )
        abs_idx = np.arange(self._cursor, self._cursor + n)

        # --- scoring (Sec. 3.3 inference) -------------------------------
        # The 2-D request scores feed admission ("request" view) and
        # the drift detector; a frozen page-view or LRU deployment
        # needs neither, so it skips the dominant per-access cost --
        # including the Algorithm-1 feature stamping, whose only
        # consumers are the engine and the refresh buffer.  The whole
        # block is one Score-stage section, so ``--profile`` shows
        # the serving loop's real Score/Simulate split.
        need_scores = (
            self._score_view == "request"
            or self.serving.refresh_enabled
        )
        with self.pipeline.stage_scope("score"):
            features = (
                self.pipeline.chunk_features(pages, self._cursor)
                if need_scores
                else None
            )
            scores = engine.score(features) if need_scores else None
            if self._needs_page_cache:
                new_pages, new_marginals = self._page_cache.ensure(
                    pages
                )
                if self._combined and new_pages.size:
                    new_shards, new_local = self.planes.route(
                        new_pages
                    )
                    for shard in np.unique(new_shards).tolist():
                        mask = new_shards == shard
                        self._shard_page_maps[shard].update(
                            zip(
                                new_local[mask].tolist(),
                                new_marginals[mask].tolist(),
                                strict=True,
                            )
                        )
            if self._score_view == "request":
                sim_scores = scores
            elif self._score_view == "page":
                sim_scores = self._page_cache.lookup(pages)
            else:
                sim_scores = None

        # --- sharded simulation (resumable, exact, parallel) ------------
        # Each shard's slice goes through the shared pipeline's
        # Simulate stage, resuming at that shard's cursor; shards are
        # independent, so the round fans out through the executor and
        # merges in shard order (bit-identical to sequential).
        #
        # Drift observation and refresh buffering used to sit before
        # this block; they consume only (scores, features) computed
        # above, so they now run after simulation + accounting.  That
        # keeps every mutation of service state *behind* the fallible
        # stages: an exception up to this point leaves cursors,
        # detector and refresher untouched, and a retried ingest of
        # the same chunk is bit-identical to an uninterrupted run.
        shard_ids, local_pages = self.planes.route(pages)
        outcome = np.empty(n, dtype=np.uint8)
        shard_positions = self.planes.partition(shard_ids)
        shards: list[int] = []
        tasks: list[ReplayTask] = []
        degraded_shards: set[int] = set()
        for shard, positions in enumerate(shard_positions):
            if positions.size == 0:
                continue
            if self.injector is not None:
                attempts = self.injector.shard_stall_attempts(
                    self._chunk_index, shard
                )
                if attempts > self.serving.shard_retry_limit:
                    # Retry budget exhausted: degrade this shard's
                    # slice to SSD-direct service for the chunk.  No
                    # task is dispatched and the shard cursor does
                    # not advance -- the cache simply never saw these
                    # accesses, which is exactly what a stalled plane
                    # looks like from the data's point of view.
                    outcome[positions] = OUTCOME_BYPASS
                    degraded_shards.add(shard)
                    self.shard_metrics.record_event(
                        f"shard:{shard}",
                        "stall-degraded",
                        self._chunk_index,
                        attempts=attempts,
                    )
                    continue
                if attempts:
                    # Stall cleared within the retry budget: dispatch
                    # normally (bit-identical to no stall at all).
                    self._stall_retries += attempts
                    self.shard_metrics.record_event(
                        f"shard:{shard}",
                        "stall-recovered",
                        self._chunk_index,
                        attempts=attempts,
                    )
            shards.append(shard)
            tasks.append(
                ReplayTask(
                    cache=self.planes.caches[shard],
                    policy=self._policies[shard],
                    pages=local_pages[positions],
                    is_write=is_write[positions],
                    scores=(
                        sim_scores[positions]
                        if sim_scores is not None
                        else None
                    ),
                    index_offset=self._shard_cursors[shard],
                    record_outcome=True,
                    shared=self.planes.shared[shard],
                )
            )
        results = self._executor.replay(
            tasks,
            simulator=self.config.simulator,
            profiler=self.pipeline.profiler,
        )
        for shard, result in zip(shards, results, strict=True):
            positions = shard_positions[shard]
            outcome[positions] = result.outcome
            self._shard_cursors[shard] += int(positions.size)
            if self.telemetry is not None:
                self.telemetry.tracer.instant(
                    "serving",
                    "shard_round",
                    shard=shard,
                    accesses=int(positions.size),
                )
            # Adopt the post-run policy (a pickle round-trip under
            # the process backend) and re-alias the combined
            # strategy's shard-local score map to it.
            policy = result.policy
            self._policies[shard] = policy
            if isinstance(policy, CombinedIcgmmPolicy):
                self._shard_page_maps[shard] = policy._page_scores

        # --- accounting -------------------------------------------------
        measured = abs_idx >= self.measure_from
        chunk_stats = stats_from_outcomes(outcome, is_write, measured)
        self.totals = self.totals.merge(chunk_stats)
        for shard, positions in enumerate(shard_positions):
            if positions.size == 0:
                continue
            self.shard_metrics.record(
                f"shard:{shard}",
                stats_from_outcomes(
                    outcome[positions],
                    is_write[positions],
                    measured[positions],
                ),
                degraded=shard in degraded_shards,
            )
        tenants = pages // self.serving.partition_pages
        for tenant in np.unique(tenants).tolist():
            mask = tenants == tenant
            self.tenant_metrics.record(
                f"tenant:{tenant}",
                stats_from_outcomes(
                    outcome[mask], is_write[mask], measured[mask]
                ),
            )

        # --- drift watch ------------------------------------------------
        drift: DriftReport | None = None
        if self.serving.refresh_enabled:
            self.refresher.ingest(features)
            if self._chunk_index < self._quarantine_until:
                # Circuit breaker open: the detector's drift verdicts
                # keep triggering builds that keep failing, so its
                # observations are suspended (the refresher still
                # buffers traffic for the eventual rebuild).
                pass
            else:
                if self._quarantined:
                    # Breaker half-opens: re-arm the detector against
                    # the engine actually serving and forgive the
                    # failure streak.
                    self._quarantined = False
                    self._refresh_failures = 0
                    self.detector.rebase(
                        engine.admission_threshold,
                        self.threshold_quantile,
                    )
                    self.shard_metrics.record_event(
                        "engine",
                        "breaker-close",
                        self._chunk_index,
                    )
                drift = self.detector.observe(scores)

        # --- refresh / swap (graceful on failure) -----------------------
        swapped = False
        refresh_due = (
            self.serving.refresh_enabled
            and drift is not None
            and drift.drifted
            and self._chunk_index - self._last_swap_chunk
            >= self.serving.refresh_cooldown_chunks
            and self._chunk_index >= self._refresh_block_until
        )
        if self._refresh_executor is not None:
            # Off-critical-path deployment: harvest a finished
            # background build first (it commits through the CAS
            # swap), then submit a new one if drift demands it and
            # none is in flight.  A pending build never blocks the
            # chunk -- that is the whole point.
            swapped = self._harvest_refresh(self._cursor + n)
            if (
                refresh_due
                and not swapped
                and self._pending_refresh is None
            ):
                self._submit_refresh(engine, generation)
        elif refresh_due:
            build = self._next_build()
            if build is not None:
                # The build blocks the request path here; its own
                # profiler section keeps `serve --profile` honest
                # about that on-path cost (and gives the async
                # deployment's overlap numbers their baseline).
                with self.pipeline.profile_stage("refresh"):
                    refreshed, error, _ = _timed_build(
                        self.refresher.build, engine
                    )
                swapped = self._land_refresh(
                    build, generation, refreshed, error,
                    self._cursor + n,
                )

        self._cursor += n
        if self.telemetry is not None:
            self._m_chunks.inc()
            self._m_accesses.inc(n)
            self._m_hits.inc(chunk_stats.hits)
            self._m_misses.inc(chunk_stats.misses)
            self._m_chunk_miss.observe(chunk_stats.miss_rate)
            self.telemetry.tracer.end(span, accesses=n)
        report = ChunkReport(
            chunk_index=self._chunk_index,
            accesses=n,
            stats=chunk_stats,
            drift=drift,
            swapped=swapped,
            generation=self.slot.generation,
        )
        self._chunk_index += 1
        return report

    # ------------------------------------------------------------------
    # Refresh bookkeeping (shared by the on-path and off-path flows)
    # ------------------------------------------------------------------
    def _record_refresh_failure(
        self, build_index: int, exc: Exception
    ) -> None:
        """Failed or corrupted build: the current generation keeps
        serving, and further attempts back off exponentially.  After
        enough consecutive refusals the breaker opens and quarantines
        the detector."""
        self._refresh_failures += 1
        backoff = self.serving.refresh_backoff_chunks * (
            2 ** (self._refresh_failures - 1)
        )
        self._refresh_block_until = self._chunk_index + backoff
        self.shard_metrics.record_event(
            "engine",
            "refresh-failed",
            self._chunk_index,
            build=build_index,
            backoff_chunks=backoff,
            reason=str(exc),
        )
        if self.telemetry is not None:
            self._m_builds.labels(outcome="failed").inc()
            self.telemetry.tracer.instant(
                "serving",
                "refresh_build",
                build=build_index,
                outcome="failed",
            )
        if (
            self._refresh_failures
            >= self.serving.refresh_breaker_threshold
        ):
            self._quarantine_until = (
                self._chunk_index + self.serving.quarantine_chunks
            )
            self._quarantined = True
            self.shard_metrics.record_event(
                "engine",
                "breaker-open",
                self._chunk_index,
                until=self._quarantine_until,
            )

    def _next_build(self) -> tuple[int, str | None] | None:
        """Number the next build and resolve its injected fault.

        Returns ``(build_index, fault)``, or ``None`` when an injected
        ``"fail"`` already failed the build (recorded here, before any
        fold runs).  ``"corrupt"`` rides along to
        :meth:`_land_refresh`, where validation must catch it.
        """
        build_index = self._refresh_attempts
        self._refresh_attempts += 1
        fault = (
            self.injector.refresh_fault(build_index)
            if self.injector is not None
            else None
        )
        if fault == "fail":
            self._record_refresh_failure(
                build_index,
                InjectedFaultError(
                    f"injected refresh failure at build {build_index}"
                ),
            )
            return None
        return build_index, fault

    def _land_refresh(
        self,
        build: tuple[int, str | None],
        expected_generation: int,
        refreshed: GmmPolicyEngine | None,
        error: Exception | None,
        access_cursor: int,
    ) -> bool:
        """Validate a finished build and CAS-swap it in.

        The one landing path of inline and off-path builds: ``build``
        is :meth:`_next_build`'s ``(build_index, fault)``, and
        ``refreshed``/``error`` are what the fold returned.  A failed
        or invalid build backs off (:meth:`_record_refresh_failure`),
        a stale one -- a newer engine landed between submit and
        harvest -- is discarded without backoff, and a good one
        rebases every consumer.  True if the engine swapped in.
        """
        build_index, fault = build
        if error is None:
            if fault == "corrupt":
                # The build "succeeds" but hands back garbage;
                # validation must catch it.
                refreshed = GmmPolicyEngine(
                    model=refreshed.model,
                    scaler=refreshed.scaler,
                    admission_threshold=float("nan"),
                )
            try:
                validate_engine(refreshed)
            except ValueError as exc:
                error = exc
        if error is not None:
            self._record_refresh_failure(build_index, error)
            return False
        try:
            self.slot.swap(
                refreshed, expected_generation=expected_generation
            )
        except StaleSwapError:
            self._refresh_discarded += 1
            self.shard_metrics.record_event(
                "engine",
                "refresh-stale",
                self._chunk_index,
                build=build_index,
            )
            return False
        self._load_generation()
        self.detector.rebase(
            refreshed.admission_threshold,
            self.threshold_quantile,
        )
        self._last_swap_chunk = self._chunk_index
        self._refresh_failures = 0
        self.swaps.append(
            SwapEvent(
                chunk_index=self._chunk_index,
                generation=self.slot.generation,
                access_cursor=access_cursor,
                threshold=refreshed.admission_threshold,
            )
        )
        if self.injector is not None:
            self.shard_metrics.record_event(
                "engine",
                "refresh-swap",
                self._chunk_index,
                generation=self.slot.generation,
            )
        if self.telemetry is not None:
            self._m_swaps.inc()
            self._m_builds.labels(outcome="swapped").inc()
            self.telemetry.tracer.instant(
                "serving",
                "refresh_build",
                build=build_index,
                outcome="swapped",
            )
        return True

    def _submit_refresh(
        self, engine: GmmPolicyEngine, generation: int
    ) -> None:
        """Hand one build to the refresh executor (non-blocking).

        The feature snapshot is taken *here*, on the serving thread,
        so the worker folds exactly the traffic the drift decision
        saw -- not whatever the buffer holds when the thread gets
        scheduled.
        """
        build = self._next_build()
        if build is None:
            return
        future = self._refresh_executor.submit(
            _timed_build,
            self.refresher.build_from,
            self.refresher.snapshot_features(),
            engine,
        )
        self._pending_refresh = (future, build, generation)

    def _harvest_refresh(
        self, access_cursor: int, block: bool = False
    ) -> bool:
        """Land a finished background build; True if one swapped in.

        Non-blocking by default: a build still running just bumps the
        overlap counter (one per chunk served under it) and the chunk
        goes on.  The landing cost -- validation, CAS swap, consumer
        rebase -- is the only refresh work left on the request path,
        recorded as the ``refresh.onpath`` profiler section against
        the worker's ``refresh.offpath`` build seconds.  A blocking
        harvest (:meth:`drain_refresh`) waits for the build first;
        that wait is the build's own time, not landing cost.
        """
        if self._pending_refresh is None:
            return False
        future, build, generation = self._pending_refresh
        if not block and not future.done():
            self._refresh_overlap_chunks += 1
            return False
        self._pending_refresh = None
        refreshed, error, build_seconds = future.result()
        started = time.perf_counter()
        swapped = self._land_refresh(
            build, generation, refreshed, error, access_cursor
        )
        profiler = self.pipeline.profiler
        if profiler is not None:
            profiler.add("refresh.offpath", build_seconds)
            profiler.add(
                "refresh.onpath", time.perf_counter() - started
            )
        return swapped

    def drain_refresh(self) -> bool:
        """Block until an in-flight background build lands (if any).

        Call it when the stream ends, so a refresh that started near
        the tail still commits (and its off-path seconds are
        accounted) instead of being silently discarded by
        :meth:`close`.  True if an engine swapped in.
        """
        return self._harvest_refresh(self._cursor, block=True)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the worker pools and any shared-memory planes.

        Only needed for parallel/async deployments (inline execution
        holds no pool and no shared segments); safe to call
        repeatedly.  A background build still in flight is discarded,
        never committed -- callers wanting it should
        :meth:`drain_refresh` first.
        """
        if self._refresh_executor is not None:
            if self._pending_refresh is not None:
                self._pending_refresh = None
                self._refresh_discarded += 1
            self._refresh_executor.shutdown()
        self._executor.shutdown()
        self.planes.close()

    def __enter__(self) -> "IcgmmCacheService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """Operator view: totals, rolling metrics, swap history.

        Under chaos (an injector is wired) a ``"chaos"`` section is
        appended: the observed fault timeline and its digest, the
        failure/recovery event log, and the retry/degradation
        counters.  Without chaos the summary is byte-identical to the
        pre-chaos format.
        """
        out = {
            "accesses": self.totals.accesses,
            "miss_rate": self.totals.miss_rate,
            "generation": self.slot.generation,
            "swaps": [
                {
                    "chunk_index": event.chunk_index,
                    "generation": event.generation,
                    "access_cursor": event.access_cursor,
                    "threshold": event.threshold,
                }
                for event in self.swaps
            ],
            "shards": self.shard_metrics.snapshot(),
            "tenants": self.tenant_metrics.snapshot(),
        }
        if self.serving.refresh_async:
            out["refresh_async"] = {
                "overlap_chunks": self._refresh_overlap_chunks,
                "discarded": self._refresh_discarded,
                "pending": self._pending_refresh is not None,
                "attempts": self._refresh_attempts,
            }
        if self.injector is not None:
            out["chaos"] = {
                "timeline": self.injector.timeline(),
                "timeline_digest": self.injector.timeline_digest(),
                "events": [
                    event.as_dict()
                    for event in self.shard_metrics.events()
                ],
                "stall_retries": self._stall_retries,
                "worker_retries": self._executor.retries_performed,
                "refresh_attempts": self._refresh_attempts,
                "refresh_failures": self._refresh_failures,
                "recovery_latency_chunks": (
                    self.shard_metrics.recovery_latencies(
                        "breaker-open", "breaker-close"
                    )
                ),
            }
        return out

    def __repr__(self) -> str:
        return (
            f"IcgmmCacheService(strategy={self.serving.strategy!r},"
            f" shards={self.serving.n_shards},"
            f" generation={self.slot.generation},"
            f" cursor={self._cursor})"
        )
