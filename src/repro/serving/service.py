"""The streaming ICGMM cache service.

:class:`IcgmmCacheService` runs the paper's whole loop *continuously*
on an access stream consumed in chunks:

1. stamp the chunk with Algorithm-1 timestamps from the global
   stream cursor and score it under the currently-loaded engine
   (Sec. 3.3 inference),
2. watch the score distribution for drift
   (:mod:`repro.serving.drift`),
3. simulate the chunk with one resumable, bit-exact
   :func:`~repro.cache.simulate_fast.simulate_fast` call per cache
   plane (:mod:`repro.serving.sharding`: ``hash`` mode has one,
   ``tenant`` mode one per tenant group), replayed inline and in
   plane order through
   :meth:`repro.core.parallel.ParallelExecutor.replay_lanes` -- the
   same lane loop the CXL fabric runs,
4. account per-shard and per-tenant rolling miss rate and Table 1
   latency from the recorded per-access outcomes, and
5. when drift is confirmed, fold the recent traffic into the
   mixture by warm-started EM and atomically swap the refreshed
   engine in (:mod:`repro.serving.refresh` -- the software analogue
   of the FPGA weight-buffer reload).  The build runs inline, at the
   chunk whose drift verdict asked for it, and is validated before
   it swaps in.

Exactness contract: with ``hash`` sharding and refresh disabled, the
service's totals are *bit-identical* to a single-shot
:meth:`repro.core.pipeline.StagedPipeline.run_strategy` over the same
stream -- chunking, sharding and resumption are pure implementation
details, not approximations.  ``tests/serving/test_service.py``
(``TestSingleShotEquivalence``) asserts it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cache.stats import (
    OUTCOME_BYPASS,
    CacheStats,
    outcome_counts,
    stats_from_counts,
    stats_from_outcomes,  # noqa: F401 -- the benchmark traces it here
)
from repro.chaos import FaultInjector, InjectedFaultError
from repro.core.config import ChaosConfig, IcgmmConfig, ServingConfig
from repro.core.engine import GmmPolicyEngine
from repro.core.parallel import ParallelExecutor
from repro.core.pipeline import StagedPipeline, StageProfiler
from repro.core.policy import build_policy, strategy_views
from repro.serving.drift import DriftDetector, DriftReport
from repro.serving.metrics import RollingMetrics
from repro.serving.refresh import ModelRefresher, validate_engine
from repro.serving.sharding import ShardedCachePlanes

class _PageScoreCache:
    """Lazily-extended map of page -> time-marginalised score.

    One instance per engine generation: the marginal is a pure
    function of the page under a fixed mixture, so values are
    computed once per *new* page and reused for every later chunk --
    the working analogue of the on-board score table.  Keys and
    values are sorted arrays, so lookups are vectorized.
    """

    def __init__(self, engine: GmmPolicyEngine) -> None:
        self._engine = engine
        self._keys = np.empty(0, dtype=np.int64)
        self._values = np.empty(0, dtype=np.float64)

    def ensure(self, unique: np.ndarray) -> None:
        """Score the pages not yet cached.

        ``unique`` holds distinct pages in ascending order.
        """
        if self._keys.size:
            pos = np.searchsorted(self._keys, unique)
            pos_clipped = np.minimum(pos, self._keys.size - 1)
            new = unique[self._keys[pos_clipped] != unique]
        else:
            new = unique
        if new.size == 0:
            return
        marginals = self._engine.page_scores(new)
        # Both arrays are sorted already: an O(U + k) positional
        # insert replaces a full re-sort of the merged keys.
        insert_at = np.searchsorted(self._keys, new)
        self._keys = np.insert(self._keys, insert_at, new)
        self._values = np.insert(self._values, insert_at, marginals)

    def lookup(self, pages: np.ndarray) -> np.ndarray:
        """Marginal score per page (pages must be ensured)."""
        pos = np.searchsorted(
            self._keys, np.asarray(pages, dtype=np.int64)
        )
        return self._values[pos]


def score_distinct_rows(
    engine: GmmPolicyEngine, features: np.ndarray, page_rank: np.ndarray
) -> np.ndarray:
    """``engine.score(features)``, scoring each distinct row once.

    Algorithm 1 gives ``len_window`` consecutive accesses one
    timestamp, so a chunk repeats (page, timestamp) rows; the scorer
    gives a row the same bits whatever else shares its call, so the
    gather is exact.  ``page_rank`` (each access's index among the
    chunk's distinct pages) and the integral timestamp form a key
    below ``len(features) * len_access_shot``; one sort groups it.
    """
    stamps = features[:, 1].astype(np.int64)
    key = page_rank * (int(stamps.max()) + 1) + stamps
    order = np.argsort(key)
    sorted_key = key[order]
    first = np.empty(key.size, dtype=bool)
    first[0] = True
    np.not_equal(sorted_key[1:], sorted_key[:-1], out=first[1:])
    scores = np.empty(key.size, dtype=np.float64)
    scores[order] = engine.score(features[order[first]])[
        np.cumsum(first) - 1
    ]
    return scores


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

    Each chunk replays every cache plane as one
    :class:`~repro.core.parallel.ReplayTask` with that plane's policy
    and cursor; a shard is a label for metrics and stall injection.

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
        measure_from: int = 0,
        chaos: ChaosConfig | None = None,
        telemetry=None,
    ) -> None:
        if measure_from < 0:
            raise ValueError("measure_from must be >= 0")
        self.pipeline = StagedPipeline(config)
        self.config = self.pipeline.config
        self.serving = serving if serving is not None else ServingConfig()
        self.measure_from = int(measure_from)
        #: The engine currently serving and its generation (the
        #: number of swaps since service start).
        self.engine = engine
        self.generation = 0
        self._executor = ParallelExecutor()
        self.planes = ShardedCachePlanes(
            self.config.geometry,
            self.serving.n_shards,
            mode=self.serving.sharding,
            partition_pages=self.serving.partition_pages,
        )
        # Chaos wiring: None when disabled, so every hot-path gate is
        # an ``is not None`` check and the fault-free run executes the
        # exact pre-chaos code path (asserted by tests/chaos parity).
        self.injector = FaultInjector.from_config(
            chaos, n_shards=self.serving.n_shards
        )
        # The quantile the deployed engine's threshold was trained at:
        # refreshes re-cut at it, so the drift detector's expected
        # below-threshold fraction matches reality at every generation.
        self.threshold_quantile = self.config.gmm.threshold_quantile
        self.detector = DriftDetector(
            threshold=engine.admission_threshold,
            quantile=self.threshold_quantile,
        )
        self.refresher = ModelRefresher(
            threshold_quantile=self.threshold_quantile,
        )
        self.shard_metrics = RollingMetrics()
        self.tenant_metrics = RollingMetrics()
        self.totals = CacheStats()
        self.swaps: list[SwapEvent] = []
        self._score_view, self._fill_view = strategy_views(
            self.serving.strategy
        )
        self._needs_page_cache = "page" in (
            self._score_view,
            self._fill_view,
        )
        self._cursor = 0
        self._chunk_index = 0
        self._plane_cursors = [0] * len(self.planes.caches)
        self._last_swap_chunk = -(10**9)
        # Refresh-resilience state: the streak of consecutive failed
        # builds drives exponential backoff, and the breaker
        # quarantines the drift detector after repeated refusals;
        # the summary reports every failed or rejected build.
        self._refresh_attempts = 0
        self._refresh_failures = 0
        self._failure_streak = 0
        self._refresh_block_until = -(10**9)
        self._quarantine_until = -(10**9)
        self._quarantined = False
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

        generation = registry.gauge(
            "serving_engine_generation_count",
            help="Engine generation currently serving.",
        )
        live_components = registry.gauge(
            "serving_engine_live_components_count",
            help="Serving mixture components of weight > 0.",
        )

        def collect() -> None:
            generation.set(self.generation)
            live_components.set(
                int(np.count_nonzero(self.engine.model.weights))
            )

        registry.register_collector(collect)
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
        """Rebuild generation-scoped state from the serving engine."""
        engine = self.engine
        self._page_cache = _PageScoreCache(engine)
        self._policies = [
            build_policy(self.serving.strategy, engine.admission_threshold)
            for _ in self.planes.caches
        ]

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
        engine = self.engine
        span = None
        if self.telemetry is not None:
            span = self.telemetry.tracer.begin(
                "serving", "chunk", index=self._chunk_index
            )

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
            features = scores = marginals = None
            if need_scores or self._needs_page_cache:
                distinct_pages, page_rank = np.unique(
                    pages, return_inverse=True
                )
            if need_scores:
                features = self.pipeline.chunk_features(
                    pages, self._cursor
                )
                scores = score_distinct_rows(engine, features, page_rank)
            if self._needs_page_cache:
                self._page_cache.ensure(distinct_pages)
                marginals = self._page_cache.lookup(distinct_pages)[
                    page_rank
                ]
            streams = {"request": scores, "page": marginals, None: None}
            sim_scores = streams[self._score_view]
            sim_fills = streams[self._fill_view]

        # --- simulation: one task per plane (resumable, exact) -------
        # The executor's lane loop replays each plane's accesses at
        # that plane's cursor and merges in plane order (bit-identical
        # to sequential); degraded shards' accesses are lane -1 and
        # never reach a plane.  Every mutation of service state sits
        # *behind* this fallible stage: an exception up to here leaves
        # cursors, detector and refresher untouched, so a retried
        # ingest of the same chunk is bit-identical to an
        # uninterrupted run.
        shard_ids, plane_ids = self.planes.route(pages)
        shard_positions = self.planes.partition(shard_ids)
        outcome = np.empty(n, dtype=np.uint8)
        degraded_shards: set[int] = set()
        for shard, positions in enumerate(shard_positions):
            if (
                self.injector is None
                or positions.size == 0
                or not self.injector.shard_stalled(
                    self._chunk_index, shard
                )
            ):
                continue
            # A stalled shard's accesses are served SSD-direct for the
            # chunk and left out of its plane's task -- the plane
            # never sees them, which is exactly what a stalled shard
            # looks like from the data's point of view.
            outcome[positions] = OUTCOME_BYPASS
            degraded_shards.add(shard)
            self.shard_metrics.record_event(
                f"shard:{shard}", "stall-degraded", self._chunk_index
            )
        if degraded_shards:
            plane_ids = np.where(
                np.isin(shard_ids, list(degraded_shards)), -1, plane_ids
            )
        for _, positions, result in self._executor.replay_lanes(
            self.planes.caches,
            self._policies,
            self._plane_cursors,
            plane_ids,
            pages,
            is_write,
            sim_scores,
            sim_fills,
            profiler=self.pipeline.profiler,
            record_outcome=True,
        ):
            outcome[positions] = result.outcome

        # --- accounting -------------------------------------------------
        # The measured accesses are the chunk's suffix from
        # ``measure_from``; one count over (shard, tenant) labels gives
        # the chunk, every shard and every tenant.
        tenants, tenant_rank = np.unique(
            pages // self.serving.partition_pages, return_inverse=True
        )
        n_shards, n_tenants = self.planes.n_shards, tenants.size
        first = min(max(self.measure_from - self._cursor, 0), n)
        counts = outcome_counts(
            outcome[first:],
            is_write[first:],
            labels=(shard_ids * n_tenants + tenant_rank)[first:],
            n_labels=n_shards * n_tenants,
        ).reshape(n_shards, n_tenants, -1, 2)
        chunk_stats = stats_from_counts(counts.sum(axis=(0, 1)))
        self.totals = self.totals.merge(chunk_stats)
        for shard, positions in enumerate(shard_positions):
            if positions.size == 0:
                continue
            degraded = shard in degraded_shards
            if self.telemetry is not None and not degraded:
                self.telemetry.tracer.instant(
                    "serving",
                    "shard_round",
                    shard=shard,
                    accesses=int(positions.size),
                )
            self.shard_metrics.record(
                f"shard:{shard}",
                stats_from_counts(counts[shard].sum(axis=0)),
                degraded=degraded,
            )
        for rank, tenant in enumerate(tenants.tolist()):
            self.tenant_metrics.record(
                f"tenant:{tenant}",
                stats_from_counts(counts[:, rank].sum(axis=0)),
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
                    self._failure_streak = 0
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
        if refresh_due:
            swapped = self._refresh(engine, self._cursor + n)

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
            generation=self.generation,
        )
        self._chunk_index += 1
        return report

    # ------------------------------------------------------------------
    # Refresh bookkeeping
    # ------------------------------------------------------------------
    def _record_refresh_failure(
        self, build_index: int, exc: Exception
    ) -> None:
        """Failed or corrupted build: the current generation keeps
        serving, and further attempts back off exponentially.  After
        enough consecutive refusals the breaker opens and quarantines
        the detector."""
        self._refresh_failures += 1
        self._failure_streak += 1
        backoff = self.serving.refresh_backoff_chunks * (
            2 ** (self._failure_streak - 1)
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
        if self._failure_streak >= self.serving.refresh_breaker_threshold:
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

    def _refresh(
        self, engine: GmmPolicyEngine, access_cursor: int
    ) -> bool:
        """Build a refreshed engine inline and swap it in if valid.

        The build is numbered and its injected fault resolved first:
        ``"fail"`` fails it before any fold runs, and ``"corrupt"``
        hands back a NaN threshold that validation must catch.  A
        failed or invalid build backs off
        (:meth:`_record_refresh_failure`); a good one is swapped in
        and every consumer rebases.  True if the engine swapped in.
        """
        build_index = self._refresh_attempts
        self._refresh_attempts += 1
        fault = (
            self.injector.refresh_fault(build_index)
            if self.injector is not None
            else None
        )
        try:
            if fault == "fail":
                raise InjectedFaultError(
                    f"injected refresh failure at build {build_index}"
                )
            # The build blocks the request path here; its own
            # profiler section keeps `serve --profile` honest about
            # that on-path cost.
            with self.pipeline.profile_stage("refresh"):
                refreshed = self.refresher.build(engine)
            if fault == "corrupt":
                # The build "succeeds" but hands back garbage;
                # validation must catch it.
                refreshed = GmmPolicyEngine(
                    model=refreshed.model,
                    scaler=refreshed.scaler,
                    admission_threshold=float("nan"),
                )
            validate_engine(refreshed)
        except Exception as exc:  # noqa: BLE001
            # A failed fold backs off like an invalid one.
            self._record_refresh_failure(build_index, exc)
            return False
        self.engine = refreshed
        self.generation += 1
        self._load_generation()
        self.detector.rebase(
            refreshed.admission_threshold,
            self.threshold_quantile,
        )
        self._last_swap_chunk = self._chunk_index
        self._failure_streak = 0
        self.swaps.append(
            SwapEvent(
                chunk_index=self._chunk_index,
                generation=self.generation,
                access_cursor=access_cursor,
                threshold=refreshed.admission_threshold,
            )
        )
        if self.injector is not None:
            self.shard_metrics.record_event(
                "engine",
                "refresh-swap",
                self._chunk_index,
                generation=self.generation,
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

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Do nothing: the service holds no resources.

        This no-op stays only because the repository benchmark
        (``perfbench/``) calls it; ROADMAP direction 3 deletes it with
        the next benchmark change.
        """

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """Operator view: totals, rolling metrics, swap history.

        Under chaos (an injector is wired) a ``"chaos"`` section is
        appended: the observed fault timeline and its digest, the
        failure/recovery event log, and the refresh counters.  Without
        chaos the summary is byte-identical to the pre-chaos format.
        """
        out = {
            "accesses": self.totals.accesses,
            "miss_rate": self.totals.miss_rate,
            "generation": self.generation,
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
        if self.injector is not None:
            out["chaos"] = {
                "timeline": self.injector.timeline(),
                "timeline_digest": self.injector.timeline_digest(),
                "events": [
                    event.as_dict()
                    for event in self.shard_metrics.events()
                ],
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
            f" generation={self.generation},"
            f" cursor={self._cursor})"
        )
