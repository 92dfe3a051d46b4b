"""Wiring of the ICGMM dataflow architecture (Fig. 5).

:class:`IcgmmDataflow` assembles the three kernels and their FIFOs into
one simulation and reports per-request latencies -- the nanosecond-
accurate counterpart of the fast statistical simulator.  Its main job
in the reproduction is validating the Sec. 4.3/5.3 overlap claim: with
the dataflow architecture the 3 us GMM inference disappears inside the
75 us SSD read, so the measured miss path equals the SSD latency.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cache.policies.base import ReplacementPolicy
from repro.cache.setassoc import SetAssociativeCache, _validate_stream
from repro.cache.stats import CacheStats, stats_from_outcomes
from repro.desim.kernels import (
    DataflowTiming,
    cache_control_kernel,
    gmm_policy_kernel,
    host_request_source,
    open_loop_source,
    response_collector,
)
from repro.desim.sim import Fifo, Simulator
from repro.hardware.ssd import SsdLatencyEmulator


@dataclass(frozen=True)
class DataflowResult:
    """Outcome of a dataflow run.

    Attributes
    ----------
    latencies_ns:
        Per-request host-observed latency.
    stats:
        Hit/miss/eviction counters (same semantics as the fast
        simulator's counters, measured over the whole run).
    total_time_ns:
        Simulated completion time of the final response.
    """

    latencies_ns: np.ndarray
    stats: CacheStats
    total_time_ns: int

    @property
    def average_latency_us(self) -> float:
        """Mean request latency in microseconds."""
        if self.latencies_ns.size == 0:
            return 0.0
        return float(np.mean(self.latencies_ns)) / 1_000.0

    def percentile_us(self, q: float) -> float:
        """Latency percentile ``q`` (0-100) in microseconds."""
        if self.latencies_ns.size == 0:
            return 0.0
        return float(np.percentile(self.latencies_ns, q)) / 1_000.0


class IcgmmDataflow:
    """The assembled ICGMM pipeline.

    Parameters
    ----------
    cache:
        Tag-store state (fresh per run).
    policy:
        Replacement/admission policy (shared semantics with the fast
        simulator).
    ssd:
        SSD latency emulator.
    timing:
        Dataflow timing constants; ``timing.overlap`` selects the
        dataflow (concurrent) or naive (sequential) miss path.
    fifo_capacity:
        Depth of the inter-kernel FIFOs.
    """

    def __init__(
        self,
        cache: SetAssociativeCache,
        policy: ReplacementPolicy,
        ssd: SsdLatencyEmulator | None = None,
        timing: DataflowTiming | None = None,
        fifo_capacity: int = 16,
    ) -> None:
        self.cache = cache
        self.policy = policy
        self.ssd = ssd if ssd is not None else SsdLatencyEmulator()
        self.timing = timing if timing is not None else DataflowTiming()
        self.fifo_capacity = fifo_capacity

    def run(
        self,
        pages: np.ndarray,
        is_write: np.ndarray,
        scores: np.ndarray | None = None,
        open_loop_interval_ns: int | None = None,
    ) -> DataflowResult:
        """Simulate the request stream end to end.

        With ``open_loop_interval_ns`` set, the host issues a request
        every that many nanoseconds without waiting for responses
        (latencies then include queueing delay); the default is the
        closed-loop mode matching the average-access-time measurement.
        """
        pages, is_write, scores, _, _ = _validate_stream(
            pages, is_write, scores, 0.0
        )
        is_write = is_write.astype(bool)
        requests = list(
            zip(pages.tolist(), is_write.tolist(), scores.tolist())
        )

        sim = Simulator()
        trace_fifo = Fifo(sim, self.fifo_capacity, "trace")
        response_fifo = Fifo(sim, self.fifo_capacity, "rsp")
        score_request_fifo = Fifo(sim, self.fifo_capacity, "gmm-req")
        score_response_fifo = Fifo(sim, self.fifo_capacity, "gmm-rsp")
        outcomes: list[int] = []
        latencies: list[int] = []

        if open_loop_interval_ns is None:
            sim.process(
                host_request_source(
                    sim, requests, trace_fifo, response_fifo, latencies
                ),
                name="host",
            )
        else:
            issue_times: list[int] = []
            sim.process(
                open_loop_source(
                    sim,
                    requests,
                    trace_fifo,
                    open_loop_interval_ns,
                    issue_times,
                ),
                name="host",
            )
            sim.process(
                response_collector(
                    sim,
                    len(requests),
                    response_fifo,
                    issue_times,
                    latencies,
                ),
                name="collector",
            )
        sim.process(
            gmm_policy_kernel(
                sim,
                score_request_fifo,
                score_response_fifo,
                self.timing.gmm_latency_ns,
            ),
            name="policy-engine",
        )
        sim.process(
            cache_control_kernel(
                sim,
                self.cache,
                self.policy,
                self.ssd,
                self.timing,
                trace_fifo,
                response_fifo,
                score_request_fifo,
                score_response_fifo,
                outcomes,
            ),
            name="cache-control",
        )
        total_time = sim.run()
        return DataflowResult(
            latencies_ns=np.asarray(latencies, dtype=np.int64),
            stats=stats_from_outcomes(
                np.asarray(outcomes, dtype=np.uint8), is_write
            ),
            total_time_ns=total_time,
        )
