"""Vectorized multi-device CXL fabric.

A :class:`CxlFabric` models a host expanding memory over *N* CXL
devices -- each an SSD-backed DRAM cache like the single
:class:`~repro.cxl.device.CxlMemoryDevice` -- and replays a page-level
request stream across them at fast-path speed:

1. **Place.**  The stream is partitioned per
   :class:`~repro.core.config.FabricTopology` (interleave / range /
   score-aware placement; see that class's docstring).
2. **Replay.**  Every device's sub-stream runs through
   :func:`~repro.cache.simulate_fast.simulate_fast` with a resumable
   per-device ``index_offset`` cursor, in the lane loop the serving
   planes share
   (:meth:`repro.core.parallel.ParallelExecutor.replay_lanes`) -- so
   chunked streaming ingestion and a one-shot offline run are
   *bit-identical*, and each device's counters equal a single-shot
   offline run on its sub-stream.  Devices own fully independent
   planes/policies/cursors, so each round of per-device replays is
   dispatched concurrently (``workers`` per
   :class:`~repro.core.config.ParallelConfig`) and merged in device
   order -- parallel replay is bit-identical to ``workers=1``.
3. **Price.**  Per-device counters are priced through that device's
   own link model
   (:class:`~repro.hardware.latency.DevicePathLatencyModel`), which
   reproduces the per-access accounting of the scalar
   :class:`~repro.cxl.router.CxlSystem` from outcome counts alone.

The scalar router remains the executable specification; the fabric
parity suite (``tests/cxl/test_fabric_parity.py``) asserts agreement
for every Fig. 6 strategy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.cache.setassoc import INVALID, SetAssociativeCache
from repro.cache.stats import (
    OUTCOME_BYPASS,
    CacheStats,
    stats_from_outcomes,
)
from repro.chaos import FaultInjector
from repro.core.config import (
    ChaosConfig,
    FabricTopology,
    IcgmmConfig,
    ParallelConfig,
)
from repro.core.parallel import ParallelExecutor
from repro.core.pipeline import (
    PreparedWorkload,
    StagedPipeline,
    StageProfiler,
)
from repro.core.policy import build_policy, strategy_views
from repro.cxl.device import DEVICE_DRAM_HIT_NS
from repro.cxl.link import CxlLinkSpec
from repro.hardware.latency import DevicePathLatencyModel
from repro.hardware.ssd import SSD_CATALOG
from repro.serving.health import FleetHealthMonitor
from repro.serving.metrics import RollingMetrics
from repro.traces.record import CACHE_LINE_SIZE

#: Tag-space offset of failover traffic.  A failed device's accesses
#: are re-placed onto healthy devices under ``global_page + OFFSET``
#: local tags: far above any home tag (interleaved local pages and
#: global pages alike stay below 2^56 for realistic traces), unique
#: per global page, and identical across chunks -- so a page that
#: fails over twice during one outage hits the copy its first
#: failover filled.
FAILOVER_TAG_OFFSET = np.int64(1) << 56

#: Link-latency multiplier priced onto failover-served traffic: the
#: re-route crosses an extra switch hop.
FAILOVER_LINK_FACTOR = 2.0

#: Pages per contiguous run of the ``range`` placement.
RANGE_STRIDE_PAGES = 1 << 14


def _stats_minus(total: CacheStats, part: CacheStats) -> CacheStats:
    """Counter-wise ``total - part`` (splitting off a traffic lens)."""
    from dataclasses import fields

    return CacheStats(
        **{
            f.name: getattr(total, f.name) - getattr(part, f.name)
            for f in fields(CacheStats)
        }
    )


@dataclass(frozen=True)
class DeviceReplayResult:
    """One device's share of a fabric run.

    Attributes
    ----------
    device_id:
        Position in the fabric.
    link:
        The device's CXL link model.
    stats:
        Cache counters of the device's sub-stream.
    time_ns:
        End-to-end service time of the sub-stream (link included).
    failover_stats:
        Counters of *this device's home traffic served elsewhere*
        while it was failed over (chaos runs only; ``None`` without
        an injector).  The accesses themselves are counted in the
        serving device's :attr:`stats` -- this lens exists so zero
        access loss and degraded-mode quality are checkable per
        failed device.
    degraded_time_ns:
        Extra service time accrued in degraded mode (link-latency
        windows, failover-path premium); already included in
        :attr:`time_ns`.
    """

    device_id: int
    link: CxlLinkSpec
    stats: CacheStats
    time_ns: int
    failover_stats: CacheStats | None = None
    degraded_time_ns: int = 0

    @property
    def accesses(self) -> int:
        """Requests routed to this device."""
        return self.stats.accesses

    @property
    def average_latency_us(self) -> float:
        """Mean end-to-end request latency, in microseconds."""
        if self.stats.accesses == 0:
            return 0.0
        return self.time_ns / self.stats.accesses / 1_000.0


@dataclass(frozen=True)
class FabricRunResult:
    """Aggregate outcome of replaying a stream over the fabric."""

    devices: tuple[DeviceReplayResult, ...]

    @cached_property
    def totals(self) -> CacheStats:
        """Merged counters across all devices (computed once, lazily)."""
        totals = CacheStats()
        for device in self.devices:
            totals = totals.merge(device.stats)
        return totals

    @property
    def accesses(self) -> int:
        """All replayed requests."""
        return sum(d.stats.accesses for d in self.devices)

    @property
    def total_time_ns(self) -> int:
        """Total service time across all devices."""
        return sum(d.time_ns for d in self.devices)

    @property
    def average_latency_us(self) -> float:
        """Fleet-wide mean request latency, in microseconds."""
        accesses = self.accesses
        if accesses == 0:
            return 0.0
        return self.total_time_ns / accesses / 1_000.0

    def as_dict(self) -> dict:
        """Flat summary (for benches and the CLI)."""
        return {
            "accesses": self.accesses,
            "miss_rate": self.totals.miss_rate,
            "total_time_ns": self.total_time_ns,
            "average_latency_us": self.average_latency_us,
            "devices": [
                {
                    "device_id": d.device_id,
                    "accesses": d.accesses,
                    "miss_rate": d.stats.miss_rate,
                    "time_ns": d.time_ns,
                    "average_latency_us": d.average_latency_us,
                    "link_request_ns": d.link.request_latency_ns(
                        CACHE_LINE_SIZE
                    ),
                    # Degraded lens only on chaos runs, so the
                    # fault-free payload stays byte-identical to the
                    # pre-chaos format.
                    **(
                        {
                            "failover_accesses": (
                                d.failover_stats.accesses
                            ),
                            "degraded_time_ns": d.degraded_time_ns,
                        }
                        if d.failover_stats is not None
                        else {}
                    ),
                }
                for d in self.devices
            ],
        }


class CxlFabric:
    """A fleet of CXL expansion devices behind one host.

    Each device carries its own full :attr:`IcgmmConfig.geometry`
    DRAM cache, policy instance, and resumable replay cursor.

    Parameters
    ----------
    topology:
        Device count, placement rule and per-device link parameters.
    config:
        System profile shared by all devices (geometry, warm-up
        cut); the fabric replays through this config's staged
        pipeline.
    parallel:
        Multicore replay knobs; ``None`` inherits
        :attr:`IcgmmConfig.parallel`.  Each round of per-device
        simulate calls is dispatched through one persistent
        :class:`~repro.core.parallel.ParallelExecutor` and merged in
        device order, so any worker count is bit-identical to
        sequential replay.  Call :meth:`close` when done with a
        multi-worker fabric (it holds a thread pool).
    monitor:
        Arm the :class:`~repro.serving.health.FleetHealthMonitor`
        (fleets of two or more devices only).

    Every device is priced with the ``tlc`` SSD and
    :data:`~repro.cxl.device.DEVICE_DRAM_HIT_NS` hits: the default
    device of the scalar :class:`~repro.cxl.router.CxlSystem`.
    """

    def __init__(
        self,
        topology: FabricTopology | None = None,
        config: IcgmmConfig | None = None,
        parallel: ParallelConfig | None = None,
        chaos: ChaosConfig | None = None,
        monitor: bool = False,
        telemetry=None,
    ) -> None:
        self.topology = (
            topology if topology is not None else FabricTopology()
        )
        self.pipeline = StagedPipeline(config)
        self.config = self.pipeline.config
        self.parallel = (
            parallel if parallel is not None else self.config.parallel
        )
        self._executor = ParallelExecutor.from_config(self.parallel)
        # Chaos wiring: None when disabled so every hot-path gate is
        # an ``is not None`` check and a fault-free run executes the
        # exact pre-chaos code path (tests/chaos parity).
        self.injector = FaultInjector.from_config(
            chaos, n_devices=self.topology.n_devices
        )
        # Fleet health monitoring follows the same contract: None
        # when disabled, so a monitor-free run executes the exact
        # pre-monitor code path.  A one-device fleet gets none: there
        # is no fleet median to compare against and nowhere to
        # re-home traffic.  Its quarantine/reinstate transitions land
        # on ``self.metrics``'s event timeline.
        self.monitor = (
            FleetHealthMonitor(self.topology.n_devices)
            if monitor and self.topology.n_devices >= 2
            else None
        )
        self.metrics = RollingMetrics()
        n = self.topology.n_devices
        overheads = self.topology.link_overhead_ns
        default = CxlLinkSpec()
        self.links: tuple[CxlLinkSpec, ...] = tuple(
            CxlLinkSpec(
                name=f"fabric-link-{i}",
                round_trip_overhead_ns=(
                    overheads[i]
                    if overheads is not None
                    else default.round_trip_overhead_ns
                ),
            )
            for i in range(n)
        )
        self.pricing: tuple[DevicePathLatencyModel, ...] = tuple(
            DevicePathLatencyModel(
                ssd=SSD_CATALOG["tlc"],
                hit_latency_ns=DEVICE_DRAM_HIT_NS,
                link_request_ns=link.request_latency_ns(CACHE_LINE_SIZE),
            )
            for link in self.links
        )
        # Devices ranked fastest link first; the score placement maps
        # its hottest bucket to self._device_rank[0].
        self._device_rank = np.argsort(
            [p.link_request_ns for p in self.pricing], kind="stable"
        ).astype(np.int64)
        self._strategy: str | None = None
        self._fill_view: str | None = None
        self._score_cuts: np.ndarray | None = None
        # Telemetry wiring follows the chaos contract: None when
        # disabled, so every hot-path gate is an ``is not None`` check
        # and a telemetry-free run executes the exact pre-telemetry
        # code path (tests/obs parity).
        self.telemetry = telemetry
        if telemetry is not None:
            self.pipeline.telemetry = telemetry
            self._bind_telemetry()
        self.reset()

    def _bind_telemetry(self) -> None:
        """Register the fabric's instruments and collectors."""
        from repro.obs import bridge
        from repro.obs.registry import RATIO_EDGES

        registry = self.telemetry.registry
        self._m_chunks = registry.counter(
            "fabric_chunks_total",
            help="Chunks streamed through the fleet.",
        )
        self._m_accesses = registry.counter(
            "fabric_accesses_total",
            help="Requests replayed across all devices.",
        )
        self._m_chunk_miss = registry.histogram(
            "fabric_chunk_miss_ratio",
            edges=RATIO_EDGES,
            help="Per-chunk fleet-wide miss ratio.",
        )
        device_accesses = registry.counter(
            "device_accesses_total",
            help="Requests routed to each device.",
            labels=("device",),
        )
        device_miss = registry.gauge(
            "device_miss_ratio",
            help="Cumulative miss ratio per device.",
            labels=("device",),
        )
        device_time = registry.counter(
            "device_time_ns_total",
            help="Priced service time per device (link included).",
            labels=("device",),
        )
        failover = registry.counter(
            "fabric_failover_accesses_total",
            help="Home-device accesses served elsewhere during"
            " outages.",
        )
        degraded_time = registry.counter(
            "fabric_degraded_time_ns_total",
            help="Extra service time accrued in degraded mode.",
        )

        def collect() -> None:
            for device in range(self.topology.n_devices):
                stats = self._device_stats[device]
                device_accesses.labels(device=device).set(
                    stats.accesses
                )
                device_miss.labels(device=device).set(
                    stats.miss_rate if stats.accesses else 0.0
                )
                device_time.labels(device=device).set(
                    self.pricing[device].total_time_ns(stats)
                    + self._extra_time_ns[device]
                )
            failover.set(
                sum(s.accesses for s in self._failover_stats)
            )
            degraded_time.set(sum(self._extra_time_ns))

        registry.register_collector(collect)
        # Telemetry implies stage accounting: attach a profiler when
        # --profile did not already hang one on the pipeline.
        if self.pipeline.profiler is None:
            self.pipeline.profiler = StageProfiler()
        bridge.register_stage_profiler(
            registry, self.pipeline.profiler
        )
        bridge.register_rolling(registry, self.metrics, scope="fabric")
        bridge.register_executor(
            registry, self._executor, component="fabric"
        )
        if self.injector is not None:
            bridge.register_injector(registry, self.injector)
        if self.monitor is not None:
            bridge.register_health_monitor(registry, self.monitor)
        self.telemetry.add_event_source(
            bridge.rolling_event_source(self.metrics, scope="fabric")
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Drop all device caches, cursors and accumulated counters."""
        n = self.topology.n_devices
        self.caches = [
            SetAssociativeCache(self.config.geometry) for _ in range(n)
        ]
        self._cursors = [0] * n
        self._device_stats = [CacheStats() for _ in range(n)]
        self._policies: list | None = None
        # Chaos bookkeeping (all zero / empty on fault-free runs).
        self._chunk_index = 0
        self._down: dict[int, int] = {}
        self._slow: dict[int, int] = {}
        self._failover_stats = [CacheStats() for _ in range(n)]
        self._extra_time_ns = [0] * n
        self._chunk_premium = [0] * n
        self._chunk_foreign = [CacheStats() for _ in range(n)]

    def close(self) -> None:
        """Release the worker pool."""
        self._executor.shutdown()

    def __enter__(self) -> "CxlFabric":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def bind(
        self,
        strategy: str,
        admission_threshold: float = 0.0,
        score_cuts: np.ndarray | None = None,
    ) -> None:
        """Reset the fleet and build per-device policies for a strategy.

        Parameters
        ----------
        strategy:
            Fig. 6 strategy driving every device.
        admission_threshold:
            Sec. 3.2 score cut-off (admission-enabled strategies).
        score_cuts:
            Bucket boundaries of the ``score`` placement (required by
            it; see :meth:`_cuts_from_marginals`).
        """
        self.reset()
        self._strategy = strategy
        self._fill_view = strategy_views(strategy)[1]
        if self.topology.placement == "score":
            if score_cuts is None:
                raise ValueError("score placement needs score_cuts")
            self._score_cuts = np.asarray(score_cuts, dtype=np.float64)
        self._policies = [
            build_policy(strategy, admission_threshold)
            for _ in range(self.topology.n_devices)
        ]

    def _cuts_from_marginals(
        self, marginals: np.ndarray, k: int | None = None
    ) -> np.ndarray:
        """Boundaries of ``k`` equal-population score buckets.

        ``k`` is the fleet size for the ``score`` placement (the
        default) and the healthy device count for failover.
        """
        if k is None:
            k = self.topology.n_devices
        if k == 1 or marginals.size == 0:
            return np.empty(0, dtype=np.float64)
        return np.quantile(np.unique(marginals), np.arange(1, k) / k)

    @staticmethod
    def _hot_to_fast(
        cuts: np.ndarray, marginals: np.ndarray, rank: np.ndarray
    ) -> np.ndarray:
        """Device per access: the hottest bucket (highest marginal)
        lands on ``rank[0]``, the fastest link of ``rank``."""
        buckets = np.searchsorted(cuts, marginals, side="right")
        return rank[rank.size - 1 - buckets]

    # ------------------------------------------------------------------
    # Stage: Place
    # ------------------------------------------------------------------
    def place(
        self,
        pages: np.ndarray,
        page_marginals: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-access ``(device_id, local_page)`` arrays.

        ``interleave`` divides the page by the device count so the
        local page doubles as a collision-free tag; ``range`` and
        ``score`` keep the global page (tags already unique).  The
        ``score`` placement needs the per-access time-marginalised
        scores and a bound fabric (for the bucket boundaries).
        """
        pages = np.asarray(pages, dtype=np.int64)
        n = self.topology.n_devices
        placement = self.topology.placement
        if placement == "interleave":
            return pages % n, pages // n
        if placement == "range":
            return (pages // RANGE_STRIDE_PAGES) % n, pages
        if page_marginals is None:
            raise ValueError(
                "score placement needs per-access page_marginals"
            )
        if self._score_cuts is None:
            raise ValueError(
                "score placement needs bind() (or score_cuts) first"
            )
        marginals = np.asarray(page_marginals, dtype=np.float64)
        device_ids = self._hot_to_fast(
            self._score_cuts, marginals, self._device_rank
        )
        return device_ids, pages

    # ------------------------------------------------------------------
    # Stage: Replay (resumable, parallel)
    # ------------------------------------------------------------------
    def ingest(
        self,
        pages: np.ndarray,
        is_write: np.ndarray,
        scores: np.ndarray | None = None,
        page_marginals: np.ndarray | None = None,
    ) -> CacheStats:
        """Stream one chunk through the fleet; returns its counters.

        Requires a prior :meth:`bind`.  Each device's slice resumes
        at that device's cursor, so chunked ingestion is bit-identical
        to a one-shot :meth:`run_prepared` with no warm-up cut.  A
        strategy that fills from the page view (the combined one)
        stores ``page_marginals`` as its blocks' eviction scores.

        Under chaos (an injector is wired), each chunk first consults
        the fault timeline at this chunk's logical index: a failed
        device's accesses fail over to healthy devices (score-aware
        when marginals are present, priced at
        :data:`FAILOVER_LINK_FACTOR`) or -- with no healthy device
        left -- are served SSD-direct on the failed device's path;
        degraded link windows inflate the affected device's link
        component.  All of it is deterministic in the chunk index, so
        any worker count observes the identical timeline.
        """
        if self._policies is None:
            raise ValueError("bind() a strategy before ingesting")
        pages = np.asarray(pages, dtype=np.int64)
        is_write = np.asarray(is_write, dtype=bool)
        fill_scores = None
        if self._fill_view == "page":
            if page_marginals is None:
                raise ValueError(
                    f"{self._strategy} ingestion needs page_marginals"
                )
            fill_scores = np.asarray(page_marginals, dtype=np.float64)
        device_ids, local_pages = self.place(pages, page_marginals)
        chunk_index = self._chunk_index
        self._chunk_index += 1
        span = (
            self.telemetry.tracer.begin(
                "fabric", "chunk", index=chunk_index
            )
            if self.telemetry is not None
            else None
        )
        chunk = CacheStats()
        home_ids = device_ids
        failover_mask = None
        link_factors: dict[int, float] = {}
        slow_factors: dict[int, float] = {}
        failed: list[int] = []
        if self.injector is not None:
            failed = self._outage_transitions(chunk_index)
            link_factors = {
                d: self.injector.link_factor(d, chunk_index)
                for d in range(self.topology.n_devices)
            }
            slow_factors = {
                d: self.injector.failslow_factor(d, chunk_index)
                for d in range(self.topology.n_devices)
            }
            self._failslow_transitions(slow_factors, chunk_index)
        if self.monitor is not None:
            # Quarantined devices leave placement exactly like failed
            # ones: their home traffic re-homes score-aware onto the
            # remaining fleet (decisions from the previous chunk's
            # ``step``, so the cut is causal and worker-invariant).
            self._chunk_premium = [0] * self.topology.n_devices
            self._chunk_foreign = [
                CacheStats() for _ in range(self.topology.n_devices)
            ]
            blocked = self.monitor.blocked_devices()
            if blocked:
                failed = sorted(set(failed).union(blocked))
        if failed:
            device_ids, local_pages, failover_mask, chunk = (
                self._apply_failover(
                    failed,
                    pages,
                    is_write,
                    device_ids,
                    local_pages,
                    page_marginals,
                    chunk,
                )
            )
        if scores is not None:
            scores = np.asarray(scores, dtype=np.float64)
        need_outcome = (
            failover_mask is not None and bool(failover_mask.any())
        )
        # One concurrent round of per-device simulate calls, merged
        # in device order.
        replayed = self._executor.replay_lanes(
            self.caches,
            self._policies,
            self._cursors,
            device_ids,
            local_pages,
            is_write,
            scores,
            fill_scores,
            profiler=self.pipeline.profiler,
            record_outcome=need_outcome,
        )
        served: dict[int, CacheStats] = {}
        for device, positions, result in replayed:
            self._device_stats[device] = self._device_stats[
                device
            ].merge(result.stats)
            chunk = chunk.merge(result.stats)
            if self.monitor is not None:
                served[device] = result.stats
            if self.telemetry is not None:
                self.telemetry.tracer.instant(
                    "fabric",
                    "device_round",
                    device=device,
                    accesses=result.stats.accesses,
                )
            factor = link_factors.get(device, 1.0)
            slow = slow_factors.get(device, 1.0)
            premium = 0
            if factor > 1.0:
                # Only the link component of the path scales during a
                # degradation window; cache behaviour is unaffected.
                premium += int(
                    round(
                        result.stats.accesses
                        * self.pricing[device].link_request_ns
                        * (factor - 1.0)
                    )
                )
            if slow > 1.0:
                # A fail-slow ramp scales the whole device path; the
                # multiplier grows per chunk (see
                # ``FaultInjector.failslow_factor``).
                premium += self.pricing[device].failslow_premium_ns(
                    result.stats, slow
                )
            if premium:
                self._add_premium(device, premium)
                self.metrics.record(
                    f"device:{device}", result.stats, degraded=True
                )
            if need_outcome:
                self._account_failover(
                    device,
                    result.outcome,
                    positions,
                    failover_mask,
                    home_ids,
                    is_write,
                )
        if self.monitor is not None:
            # Feed the monitor every serving device's chunk counters
            # with the *priced* service time (premiums included --
            # fail-slow is invisible in the counters themselves),
            # then advance the state machine; transitions land on
            # this fabric's event timeline and take effect at the
            # next chunk's placement.  Only *intrinsic* traffic is
            # observed: failover accesses a device absorbs for a
            # downed peer (and their degraded-link premium) are
            # borrowed load, not device sickness -- counting them
            # would make the monitor quarantine the healthy devices
            # covering an outage.
            for device, stats in served.items():
                intrinsic = _stats_minus(
                    stats, self._chunk_foreign[device]
                )
                self.monitor.observe(
                    device,
                    intrinsic,
                    self.pricing[device].total_time_ns(intrinsic)
                    + self._chunk_premium[device],
                )
            for kind, device, info in self.monitor.step(chunk_index):
                self.metrics.record_event(
                    f"device:{device}", kind, chunk_index, **info
                )
        if self.telemetry is not None:
            self._m_chunks.inc()
            self._m_accesses.inc(chunk.accesses)
            self._m_chunk_miss.observe(
                chunk.miss_rate if chunk.accesses else 0.0
            )
            self.telemetry.tracer.end(span, accesses=chunk.accesses)
        return chunk

    # ------------------------------------------------------------------
    # Chaos: failover, degradation, reinstatement
    # ------------------------------------------------------------------
    def _add_premium(
        self, device: int, time_ns: int, observe: bool = True
    ) -> None:
        """Accrue a degraded-mode pricing premium for one device.

        The per-chunk share is tracked separately so the health
        monitor sees each chunk's true priced latency, premiums
        included.  ``observe=False`` keeps the premium out of the
        monitor's lens (failover-path overhead charged to a healthy
        device covering a downed peer) while still pricing it.
        """
        self._extra_time_ns[device] += time_ns
        if observe and self.monitor is not None:
            self._chunk_premium[device] += time_ns

    def _failslow_transitions(
        self, slow_factors: dict[int, float], chunk_index: int
    ) -> None:
        """Record fail-slow onset/clear events on the metrics timeline.

        A ramp has no binary down/up edge in the injector's queries,
        so the fabric stamps the transition the first chunk a
        device's factor leaves 1.0 and the first chunk it returns.
        """
        for device, factor in slow_factors.items():
            if factor > 1.0 and device not in self._slow:
                self._slow[device] = chunk_index
                self.metrics.record_event(
                    f"device:{device}",
                    "failslow-onset",
                    chunk_index,
                )
            elif factor <= 1.0 and device in self._slow:
                del self._slow[device]
                self.metrics.record_event(
                    f"device:{device}",
                    "failslow-cleared",
                    chunk_index,
                )

    def _outage_transitions(self, chunk_index: int) -> list[int]:
        """Devices down this chunk, recording down/restore events.

        Reinstatement is automatic: the moment a device's outage
        window ends, :meth:`place` routes its home traffic back (the
        home cache kept its pre-outage contents, so warm pages hit
        again immediately).  The exception is an outage that begins
        *while the device is fail-slow*: that is a watchdog reset of
        a sick controller, and a controller reset loses the volatile
        DRAM cache state -- the device comes back cold and must
        re-fault its working set.  (This is what makes recovery-by-
        waiting so expensive under fail-slow, and health-driven
        quarantine cheap by comparison.)
        """
        failed: list[int] = []
        for device in range(self.topology.n_devices):
            if self.injector.device_down(device, chunk_index):
                failed.append(device)
                if device not in self._down:
                    self._down[device] = chunk_index
                    self.metrics.record_event(
                        f"device:{device}",
                        "device-down",
                        chunk_index,
                    )
                    if (
                        self.injector.failslow_factor(
                            device, chunk_index
                        )
                        > 1.0
                    ):
                        self._wipe_cache(device)
            elif device in self._down:
                del self._down[device]
                self.metrics.record_event(
                    f"device:{device}",
                    "device-restored",
                    chunk_index,
                )
        return failed

    def _wipe_cache(self, device: int) -> None:
        """Cold-restart one device's cache planes (watchdog reset).

        Dirty blocks are simply lost -- a crashed controller never got
        to write them back -- which only forfeits the write-back the
        pricing model would have charged on their eviction.
        """
        cache = self.caches[device]
        cache.tags.fill(INVALID)
        cache.dirty.fill(False)
        cache.meta.fill(0.0)
        cache.stamp.fill(0.0)

    def _failover_targets(
        self,
        pages: np.ndarray,
        marginals: np.ndarray | None,
        healthy: np.ndarray,
    ) -> np.ndarray:
        """Healthy device per failed-over access (deterministic).

        Score-aware when per-access marginals are available: the
        chunk's failed-over traffic is cut into ``len(healthy)``
        equal-population score buckets and the hottest lands on the
        fastest healthy link -- the ``score`` placement's rule
        (:meth:`_cuts_from_marginals`, :meth:`_hot_to_fast`) over the
        healthy devices.  Without marginals it falls back to
        page-modulo spreading.
        """
        if marginals is None:
            return healthy[pages % healthy.size]
        rank = self._device_rank[np.isin(self._device_rank, healthy)]
        cuts = self._cuts_from_marginals(marginals, int(healthy.size))
        return self._hot_to_fast(cuts, marginals, rank)

    def _apply_failover(
        self,
        failed: list[int],
        pages: np.ndarray,
        is_write: np.ndarray,
        device_ids: np.ndarray,
        local_pages: np.ndarray,
        page_marginals: np.ndarray | None,
        chunk: CacheStats,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None, CacheStats]:
        """Re-target failed devices' accesses for one chunk.

        With at least one healthy device, the failed homes' accesses
        move onto healthy devices under the collision-free
        :data:`FAILOVER_TAG_OFFSET` tag space; their scores and fills
        keep their positions in the chunk.  Otherwise the accesses
        are served SSD-direct and accounted as bypasses on their home
        device -- degraded, but never lost.
        """
        n = self.topology.n_devices
        device_ids = device_ids.copy()
        local_pages = local_pages.copy()
        failed_arr = np.asarray(failed, dtype=np.int64)
        mask = np.isin(device_ids, failed_arr)
        if not mask.any():
            return device_ids, local_pages, None, chunk
        healthy = np.asarray(
            [d for d in range(n) if d not in set(failed)],
            dtype=np.int64,
        )
        if healthy.size == 0:
            # SSD-direct: every affected access bypasses the caches
            # entirely, charged to its home device's path.
            for device in failed:
                sub = device_ids == device
                count = int(np.count_nonzero(sub))
                if count == 0:
                    continue
                stats = stats_from_outcomes(
                    np.full(count, OUTCOME_BYPASS, dtype=np.uint8),
                    is_write[sub],
                )
                self._device_stats[device] = self._device_stats[
                    device
                ].merge(stats)
                self._failover_stats[device] = self._failover_stats[
                    device
                ].merge(stats)
                chunk = chunk.merge(stats)
                self.metrics.record(
                    f"device:{device}", stats, degraded=True
                )
            device_ids[mask] = -1
            return device_ids, local_pages, None, chunk
        marginals = (
            np.asarray(page_marginals, dtype=np.float64)[mask]
            if page_marginals is not None
            else None
        )
        targets = self._failover_targets(
            pages[mask], marginals, healthy
        )
        device_ids[mask] = targets
        local_pages[mask] = pages[mask] + FAILOVER_TAG_OFFSET
        return device_ids, local_pages, mask, chunk

    def _account_failover(
        self,
        device: int,
        outcome: np.ndarray,
        positions: np.ndarray,
        failover_mask: np.ndarray,
        home_ids: np.ndarray,
        is_write: np.ndarray,
    ) -> None:
        """Split one serving device's chunk outcome by failed home.

        Charges the failover-path premium
        (:data:`FAILOVER_LINK_FACTOR` on the serving device's link)
        and credits the counters to each failed home device's failover
        lens.
        """
        task_mask = failover_mask[positions]
        count = int(np.count_nonzero(task_mask))
        if count == 0:
            return
        self._add_premium(
            device,
            int(
                round(
                    count
                    * self.pricing[device].link_request_ns
                    * (FAILOVER_LINK_FACTOR - 1.0)
                )
            ),
            observe=False,
        )
        failover_positions = positions[task_mask]
        homes = home_ids[failover_positions]
        for home in np.unique(homes).tolist():
            sub = homes == home
            stats = stats_from_outcomes(
                outcome[task_mask][sub],
                is_write[failover_positions][sub],
            )
            if self.monitor is not None:
                self._chunk_foreign[device] = self._chunk_foreign[
                    device
                ].merge(stats)
            self._failover_stats[home] = self._failover_stats[
                home
            ].merge(stats)
            self.metrics.record(
                f"device:{home}", stats, degraded=True
            )

    def results(self) -> FabricRunResult:
        """Price the accumulated per-device counters."""
        chaos = self.injector is not None or self.monitor is not None
        devices = tuple(
            DeviceReplayResult(
                device_id=d,
                link=self.links[d],
                stats=self._device_stats[d],
                time_ns=self.pricing[d].total_time_ns(
                    self._device_stats[d]
                )
                + self._extra_time_ns[d],
                failover_stats=(
                    self._failover_stats[d] if chaos else None
                ),
                degraded_time_ns=(
                    self._extra_time_ns[d] if chaos else 0
                ),
            )
            for d in range(self.topology.n_devices)
        )
        return FabricRunResult(devices=devices)

    # ------------------------------------------------------------------
    # Offline one-shot entry point
    # ------------------------------------------------------------------
    def run_prepared(
        self,
        prepared: PreparedWorkload,
        strategy: str,
        warmup_fraction: float | None = None,
        chunk_requests: int = 8192,
    ) -> FabricRunResult:
        """Replay a prepared workload over the fleet.

        Binds the strategy (the page-score map feeds the ``score``
        placement's cuts), places the full stream, and replays each
        device's sub-stream with the strategy's two score streams
        (:meth:`~repro.core.pipeline.StagedPipeline.strategy_scores`)
        through the pipeline's Simulate stage in one lane round, with
        the warm-up cut applied *per sub-stream* -- which is exactly
        what a single-shot offline run on that sub-stream does, so
        per-device counters match it bit for bit (the fabric parity
        suite asserts this for every placement and strategy).

        **Chaos-capable.**  When a fault injector or health monitor
        is wired, the one-shot round cannot consult the fault
        timeline (faults tick on chunk indices), so the stream goes
        through :meth:`ingest` in ``chunk_requests`` slices instead:
        every fault channel (outages, correlated blasts, link
        windows, fail-slow ramps) and the fleet monitor fire exactly
        as on a streamed run, with zero access loss.  That path
        measures every access (steady-state serving;
        ``warmup_fraction`` is not applied).  With chaos and
        monitoring disabled this method executes the exact pre-chaos
        one-shot path, byte for byte -- the parity suite asserts it.
        Raises :class:`ValueError` when ``chunk_requests < 1``.
        """
        if chunk_requests < 1:
            raise ValueError("chunk_requests must be >= 1")
        chunked = self.injector is not None or self.monitor is not None
        pages = prepared.page_indices
        marginals = prepared.page_frequency_scores
        with self.pipeline.stage_scope("score"):
            score_cuts = None
            if self.topology.placement == "score":
                page_score_map = prepared.page_score_map()
                score_cuts = self._cuts_from_marginals(
                    np.fromiter(
                        page_score_map.values(),
                        dtype=np.float64,
                        count=len(page_score_map),
                    )
                )
            self.bind(
                strategy,
                prepared.engine.admission_threshold,
                score_cuts=score_cuts,
            )
            scores, fill_scores = self.pipeline.strategy_scores(
                prepared, strategy
            )
            if not chunked:
                device_ids, local_pages = self.place(pages, marginals)
        # The whole replay is timed as one Simulate section (the
        # profiler accounts stages, not workers).
        with self.pipeline.stage_scope("simulate"):
            if chunked:
                for start in range(0, pages.shape[0], chunk_requests):
                    sl = slice(start, start + chunk_requests)
                    self.ingest(
                        pages[sl],
                        prepared.is_write[sl],
                        scores=(
                            scores[sl] if scores is not None else None
                        ),
                        page_marginals=marginals[sl],
                    )
            else:
                for device, _, result in self._executor.replay_lanes(
                    self.caches,
                    self._policies,
                    self._cursors,
                    device_ids,
                    local_pages,
                    prepared.is_write,
                    scores,
                    fill_scores,
                    profiler=self.pipeline.profiler,
                    warmup_fraction=(
                        self.config.warmup_fraction
                        if warmup_fraction is None
                        else warmup_fraction
                    ),
                ):
                    self._device_stats[device] = result.stats
        with self.pipeline.stage_scope("price"):
            return self.results()

    def __repr__(self) -> str:
        return (
            f"CxlFabric(n_devices={self.topology.n_devices},"
            f" placement={self.topology.placement!r},"
            f" strategy={self._strategy!r})"
        )
