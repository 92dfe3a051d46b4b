"""Configuration objects for the ICGMM system.

Defaults follow the paper's case study (Sec. 5.1) where practical.
One deliberate deviation: the prototype instantiates K = 256 Gaussians
because the FPGA pipeline is free to be that wide; in the Python
reproduction EM training cost grows linearly in K while the cache
results on the synthetic traces saturate far earlier, so the simulator
default is K = 64 (the ablation bench sweeps K and shows the plateau).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cache.setassoc import CacheGeometry
from repro.traces.preprocess import (
    DEFAULT_LEN_ACCESS_SHOT,
    DEFAULT_LEN_WINDOW,
)

#: The four cache-management strategies of Fig. 6.
STRATEGIES = (
    "lru",
    "gmm-caching",
    "gmm-eviction",
    "gmm-caching-eviction",
)

#: Valid values of :attr:`ServingConfig.sharding`.
SHARDING_MODES = ("hash", "tenant")

#: Valid values of :attr:`FabricTopology.placement`.
PLACEMENTS = ("interleave", "range", "score")


@dataclass(frozen=True)
class ParallelConfig:
    """Multicore execution knobs
    (:class:`repro.core.parallel.ParallelExecutor`).

    The fabric's per-device replay and the serving loop's per-plane
    replay are embarrassingly parallel: every device/plane owns
    independent state, so their
    :meth:`~repro.core.pipeline.StagedPipeline.simulate` calls can be
    handed to a thread pool and merge deterministically (results are
    always combined in device/plane order, never completion order --
    parallel runs are *bit-identical* to ``workers=1``).  The threads
    take turns: Simulate holds the GIL on every access (only the
    small numpy steps around its loop release it), so more workers
    do not speed a round up.

    Attributes
    ----------
    workers:
        Concurrent worker threads.  ``1`` (default) executes inline
        with zero overhead; ``0`` resolves to the host's CPU count.
    """

    workers: int = 1

    def __post_init__(self) -> None:
        if self.workers < 0:
            raise ValueError("workers must be >= 0 (0 = CPU count)")


@dataclass(frozen=True)
class GmmEngineConfig:
    """Training/inference parameters of the GMM policy engine.

    Attributes
    ----------
    n_components:
        Gaussians ``K`` in the mixture (paper prototype: 256;
        simulator default: 64 -- see module docstring).
    max_iter:
        EM iteration budget (Sec. 3.3 trains to MLE-change
        convergence; the stopping tolerance and covariance ridge are
        fixed in :mod:`repro.core.engine`).
    max_train_samples:
        EM training-set cap; the training slice of the trace is
        subsampled to this size (EM cost is O(N K) per iteration).
    threshold_quantile:
        Admission threshold selection: the score below which the
        lowest ``q`` fraction of *training* requests falls.  Pages
        scoring under it are predicted cold and bypass the cache.
        The default targets the one-touch traffic share (streaming
        scans, allocation frontiers) -- bypassing more than that
        starts refusing pages with real reuse and loses hits.
    use_quantized:
        Score through the fixed-point pipeline of
        :class:`repro.gmm.quantized.QuantizedGmm` instead of float64
        (hardware-faithful mode).
    """

    n_components: int = 64
    max_iter: int = 40
    max_train_samples: int = 40_000
    threshold_quantile: float = 0.02
    use_quantized: bool = False

    def __post_init__(self) -> None:
        if self.n_components < 1:
            raise ValueError("n_components must be >= 1")
        if not 0.0 <= self.threshold_quantile < 1.0:
            raise ValueError("threshold_quantile must be in [0, 1)")
        if self.max_train_samples < self.n_components:
            raise ValueError(
                "max_train_samples must be >= n_components"
            )


@dataclass(frozen=True)
class ChaosConfig:
    """Deterministic fault-injection knobs
    (:class:`repro.chaos.FaultPlan` / :class:`repro.chaos.FaultInjector`).

    The chaos harness schedules faults on a *logical* clock -- chunk
    indices for the fabric and serving loops, build indices for model
    refreshes -- never wall-clock time, so one seed produces one
    byte-identical fault timeline regardless of worker count or host
    speed.  All ``*_rate`` knobs
    are per-target, per-logical-tick Bernoulli probabilities sampled
    once when the plan is generated.  The shape of each fault (link
    slowdown, blast size and length, fail-slow ramp and watchdog
    resets) is a constant of :mod:`repro.chaos.plan`.

    Passing a config arms the injector; passing ``None`` instead
    means no injector is constructed at all and every victim layer
    runs its exact pre-chaos code path (the parity suite in
    ``tests/chaos`` asserts bit-identical behaviour).

    Attributes
    ----------
    seed:
        Root seed of the fault timeline (independent of the system's
        trace/EM seed, so chaos can be re-rolled under a fixed
        workload).
    horizon_chunks:
        Logical-clock span the plan covers; queries beyond it report
        a healthy world.
    device_fail_rate / device_fail_chunks:
        Per-device outage start probability per chunk, and outage
        length in chunks (failover + reinstatement in
        :class:`repro.cxl.fabric.CxlFabric`).
    link_degrade_rate / link_degrade_chunks:
        Per-device link-latency degradation windows; during a window
        the device's link round-trip is priced at
        :data:`~repro.chaos.plan.LINK_DEGRADE_FACTOR` times its
        healthy value.
    shard_stall_rate:
        Per-shard per-chunk stall probability; a stalled shard's
        accesses are served SSD-direct for that chunk (counted as
        bypassed misses) and never reach its plane.
    refresh_fail_rate / refresh_corrupt_rate:
        Per-build probabilities that a model refresh raises mid-build
        or silently produces a corrupted engine (non-finite
        parameters); a failed build must leave the serving generation
        untouched, a corrupted one must be rejected by validation.
    correlated_fail_rate:
        Fleet-level correlated-outage windows: one per-chunk Bernoulli
        stream (a shared ``SeedSequence`` child, not per-device) picks
        blast starts, and each blast takes
        :data:`~repro.chaos.plan.CORRELATED_FAIL_K` devices down
        together for :data:`~repro.chaos.plan.CORRELATED_FAIL_CHUNKS`
        chunks -- the shared-rack / shared-switch failure mode the
        per-device channel cannot express.
    failslow_rate:
        Per-device *fail-slow* ramps: instead of a binary outage, the
        whole device path is priced at a latency multiplier that
        grows linearly per chunk from healthy (1.0) up to
        :data:`~repro.chaos.plan.FAILSLOW_MAX_FACTOR` at the end of
        the window, which clamps to the horizon.  The device keeps
        serving (cache bits are unaffected); once the multiplier
        reaches :data:`~repro.chaos.plan.FAILSLOW_RESET_FACTOR`, the
        sick controller trips its watchdog and the plan adds a
        one-chunk outage blip every
        :data:`~repro.chaos.plan.FAILSLOW_RESET_PERIOD` chunks.
        Without a health monitor the fabric bounces traffic off and
        back onto the sick device at every blip; with one
        (:class:`repro.serving.health.FleetHealthMonitor`),
        quarantine re-homes it once.
    """

    seed: int = 0
    horizon_chunks: int = 256
    device_fail_rate: float = 0.0
    device_fail_chunks: int = 8
    link_degrade_rate: float = 0.0
    link_degrade_chunks: int = 8
    shard_stall_rate: float = 0.0
    refresh_fail_rate: float = 0.0
    refresh_corrupt_rate: float = 0.0
    correlated_fail_rate: float = 0.0
    failslow_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.horizon_chunks < 1:
            raise ValueError("horizon_chunks must be >= 1")
        for name in (
            "device_fail_rate",
            "link_degrade_rate",
            "shard_stall_rate",
            "refresh_fail_rate",
            "refresh_corrupt_rate",
            "correlated_fail_rate",
            "failslow_rate",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(
                    f"{name} must be in [0, 1], got {value!r}"
                )
        for name in ("device_fail_chunks", "link_degrade_chunks"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(
                    f"{name} must be >= 1, got {value!r}"
                )

    @classmethod
    def demo(cls, seed: int = 0, **overrides) -> "ChaosConfig":
        """A moderately hostile profile for CLI/demo runs.

        Three of the seven fault channels are active -- device
        failures, link degradation and refresh failures -- at rates
        that produce a handful of events over the default horizon:
        enough to watch failover, degraded-link pricing and refresh
        backoff actually fire without drowning the run.  Shard
        stalls, correlated blasts, fail-slow ramps and corrupt
        refreshes stay off unless ``overrides`` arm them.
        """
        defaults = dict(
            seed=seed,
            device_fail_rate=0.01,
            link_degrade_rate=0.01,
            refresh_fail_rate=0.25,
        )
        defaults.update(overrides)
        return cls(**defaults)


#: Scale factor of the default simulation profile: cache capacity and
#: workload footprints are both divided by 32 relative to the paper's
#: 64 MB case study, preserving every footprint-to-cache ratio while
#: letting cache turnover (and therefore eviction-policy differences)
#: develop within simulatable trace lengths.
SIMULATION_SCALE = 1.0 / 32.0


def _simulation_geometry() -> CacheGeometry:
    """The scaled-down default cache: 2 MB / 4 KB / 8-way."""
    return CacheGeometry(
        capacity_bytes=int(64 * 1024 * 1024 * SIMULATION_SCALE),
        block_bytes=4096,
        associativity=8,
    )


@dataclass(frozen=True)
class IcgmmConfig:
    """Full system configuration.

    The default profile is the *scaled simulation*: the paper's 64 MB
    cache and its workload footprints are both divided by
    :data:`SIMULATION_SCALE` (ratios preserved), which is what every
    paper-figure bench under ``benchmarks/`` runs.  Use :meth:`paper_hardware`
    for the unscaled 64 MB geometry of the FPGA case study.

    Attributes
    ----------
    geometry:
        DRAM cache shape (default: scaled 2 MB / 4 KB / 8-way).
    workload_scale:
        Footprint scale applied to the workload generators.
    gmm:
        Policy engine parameters.
    len_window / len_access_shot:
        Algorithm 1 constants (paper: 32 and 10,000).
    timestamp_mode:
        ``"prose"`` (periodic, default) or ``"algorithm"`` (literal
        pseudocode); see :mod:`repro.traces.preprocess`, which also
        fixes the paper's 20% / 10% warm-up trim.
    train_fraction:
        Leading fraction of the *processed* trace used to train the
        GMM (the paper trains offline on collected traces, then runs
        the policy on the live program).
    warmup_fraction:
        Leading fraction of the simulated trace excluded from cache
        counters (the cache is filling during it).
    parallel:
        Multicore execution knobs; the multi-device fabric's default
        (:class:`repro.cxl.fabric.CxlFabric`).
    seed:
        Root seed for trace generation and EM initialisation.
    """

    geometry: CacheGeometry = field(default_factory=_simulation_geometry)
    workload_scale: float = SIMULATION_SCALE
    gmm: GmmEngineConfig = field(default_factory=GmmEngineConfig)
    len_window: int = DEFAULT_LEN_WINDOW
    len_access_shot: int = DEFAULT_LEN_ACCESS_SHOT
    timestamp_mode: str = "prose"
    train_fraction: float = 0.5
    warmup_fraction: float = 0.3
    parallel: ParallelConfig = field(default_factory=ParallelConfig)
    trace_length: int | None = None
    seed: int = 42

    def __post_init__(self) -> None:
        if self.workload_scale <= 0:
            raise ValueError("workload_scale must be positive")
        if not 0.0 < self.train_fraction <= 1.0:
            raise ValueError("train_fraction must be in (0, 1]")
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise ValueError("warmup_fraction must be in [0, 1)")
        if self.trace_length is not None and self.trace_length < 10:
            raise ValueError("trace_length must be >= 10")

    @classmethod
    def paper_hardware(cls, **overrides) -> "IcgmmConfig":
        """The unscaled profile of the FPGA case study (Sec. 5.1).

        64 MB / 4 KB / 8-way cache with full-size workload footprints.
        Note that at this scale eviction-policy differences need far
        longer traces to develop (the cache turns over slowly); the
        scaled default exists precisely to avoid that cost.
        """
        overrides.setdefault("geometry", CacheGeometry())
        overrides.setdefault("workload_scale", 1.0)
        return cls(**overrides)


@dataclass(frozen=True)
class FabricTopology:
    """Layout of a multi-device CXL fabric
    (:class:`repro.cxl.fabric.CxlFabric`).

    The fabric partitions one page-level request stream across
    ``n_devices`` expansion devices, replays every device's
    sub-stream through the shared staged pipeline
    (:mod:`repro.core.pipeline`), and prices each device through its
    own CXL link model.  How many workers replay the devices is not
    part of the layout: it comes from ``CxlFabric(parallel=...)`` or
    :attr:`IcgmmConfig.parallel`.

    Attributes
    ----------
    n_devices:
        Expansion devices behind the host.
    placement:
        How the trace is partitioned across devices:

        * ``"interleave"`` -- page-modulo striping: device
          ``page % n``, device-local page ``page // n`` (the
          collision-free division the hash-sharded serving planes
          use).  Balances load across devices.
        * ``"range"`` -- contiguous runs of
          :data:`repro.cxl.fabric.RANGE_STRIDE_PAGES` pages assigned
          round-robin: device ``(page // stride) % n``.  Keeps spatial
          locality (and tenant partitions) on one device.
        * ``"score"`` -- score-aware: pages are bucketed by their
          time-marginalised GMM score into ``n_devices`` quantile
          buckets, and the hottest bucket lands on the device with
          the lowest link latency.
    link_overhead_ns:
        Optional per-device CXL link round-trip overheads (length
        must equal ``n_devices``); ``None`` gives every device the
        default :class:`repro.cxl.link.CxlLinkSpec`.  Heterogeneous
        values model near/far fabric topologies (switch hops, longer
        retimed paths), which is what the ``score`` placement
        exploits.  Every device uses the spec's default bandwidth.

    Under chaos (a :class:`repro.chaos.FaultInjector` attached), a
    failed device's traffic is re-placed onto healthy devices
    (score-aware when page marginals are available) and served in
    degraded mode; with no healthy device left it is served
    SSD-direct (bypasses) on its own path.
    """

    n_devices: int = 4
    placement: str = "interleave"
    link_overhead_ns: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.n_devices < 1:
            raise ValueError("n_devices must be >= 1")
        if self.placement not in PLACEMENTS:
            raise ValueError(
                f"placement must be one of {PLACEMENTS}, got"
                f" {self.placement!r}"
            )
        if self.link_overhead_ns is not None:
            value = tuple(self.link_overhead_ns)
            object.__setattr__(self, "link_overhead_ns", value)
            if len(value) != self.n_devices:
                raise ValueError(
                    "link_overhead_ns must have one entry per device"
                    f" ({self.n_devices}), got {len(value)}"
                )


@dataclass(frozen=True)
class ServingConfig:
    """Configuration of the online serving loop
    (:class:`repro.serving.IcgmmCacheService`).

    The service runs the paper's pipeline continuously: chunks of the
    live request stream are scored under the currently-loaded engine,
    simulated against sharded cache planes, watched for score-
    distribution drift, and periodically refreshed by warm-started EM
    over recent traffic, the refreshed engine being atomically swapped
    in (the software analogue of the FPGA weight-buffer reload of
    Sec. 3.3).  The drift, refresh and rolling-metrics settings are
    module constants of :mod:`repro.serving.drift`,
    :mod:`repro.serving.refresh` and :mod:`repro.serving.metrics`.

    Attributes
    ----------
    chunk_requests:
        Requests ingested per service step (one scoring + simulation
        batch).
    n_shards:
        Shards the logical cache is labelled into; it must divide
        the geometry's set count.  In ``hash`` mode a shard is a
        fixed group of the sets of one full-geometry plane, so the
        loop reproduces the unsharded cache's behaviour bit for bit.
    sharding:
        ``"hash"`` (page-interleaved set labels over one plane;
        exact) or ``"tenant"`` (one plane per tenant group;
        isolation).
    partition_pages:
        Tenant address-partition stride (matches
        :func:`repro.traces.multi_tenant_trace`); used for tenant
        attribution in metrics and for ``tenant`` sharding.
    strategy:
        Fig. 6 strategy driving the cache planes.
    refresh_enabled:
        Master switch; with ``False`` the engine stays frozen (the
        paper's deployment) and the loop is exactly reproducible
        against a single-shot run.
    refresh_cooldown_chunks:
        Minimum chunks between consecutive engine swaps.
    parallel:
        Multicore knobs of the per-plane chunk replay (``tenant``
        mode's planes are dispatched concurrently and merged in plane
        order -- bit-identical to ``workers=1``).
    refresh_backoff_chunks:
        Base of the exponential refresh backoff: after ``f``
        consecutive failed/rejected refresh builds the next build is
        deferred ``base * 2**(f-1)`` chunks (the engine keeps serving
        on the current generation throughout).
    refresh_breaker_threshold:
        Consecutive refresh failures that trip the circuit breaker.
    quarantine_chunks:
        Chunks the tripped breaker quarantines the drift detector
        for: no observations, no refresh attempts.  On expiry the
        detector is rebased (fresh baseline under the still-serving
        engine) and the consecutive-failure streak resets.
    """

    chunk_requests: int = 8192
    n_shards: int = 4
    sharding: str = "hash"
    partition_pages: int = 1 << 20
    strategy: str = "gmm-caching-eviction"
    refresh_enabled: bool = True
    refresh_cooldown_chunks: int = 4
    parallel: ParallelConfig = field(default_factory=ParallelConfig)
    refresh_backoff_chunks: int = 2
    refresh_breaker_threshold: int = 3
    quarantine_chunks: int = 16

    def __post_init__(self) -> None:
        if self.chunk_requests < 1:
            raise ValueError("chunk_requests must be >= 1")
        if self.n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        if self.sharding not in SHARDING_MODES:
            raise ValueError(
                f"sharding must be one of {SHARDING_MODES}, got"
                f" {self.sharding!r}"
            )
        if self.partition_pages < 1:
            raise ValueError("partition_pages must be >= 1")
        if self.strategy not in STRATEGIES:
            raise ValueError(
                f"strategy must be one of {STRATEGIES}, got"
                f" {self.strategy!r}"
            )
        if self.refresh_cooldown_chunks < 0:
            raise ValueError("refresh_cooldown_chunks must be >= 0")
        if self.refresh_backoff_chunks < 1:
            raise ValueError("refresh_backoff_chunks must be >= 1")
        if self.refresh_breaker_threshold < 1:
            raise ValueError("refresh_breaker_threshold must be >= 1")
        if self.quarantine_chunks < 1:
            raise ValueError("quarantine_chunks must be >= 1")
