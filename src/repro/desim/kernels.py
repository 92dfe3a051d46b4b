"""The Fig. 5 kernels as simulation processes.

Three free-running kernels mirror the hardware modules:

* :func:`host_request_source` -- the host issuing memory requests over
  CXL (closed loop: the next request leaves after the previous
  response arrives, matching the average-access-time measurement).
* :func:`gmm_policy_kernel` -- the cache policy engine: waits on its
  trace FIFO, takes ``gmm_latency_ns`` per score, answers on the
  response FIFO.  It runs forever until it receives the shutdown
  sentinel -- the "free-running kernel" of Sec. 4.1.
* :func:`cache_control_kernel` -- the cache control engine: tag
  compare, hit service, and on a miss the concurrent triggering of the
  policy engine and the SSD emulator (the overlap of Sec. 4.3).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache.policies.base import ReplacementPolicy
from repro.cache.setassoc import SetAssociativeCache, access_step
from repro.cache.stats import (
    OUTCOME_BYPASS,
    OUTCOME_DIRTY_EVICT,
    OUTCOME_HIT,
)
from repro.desim.sim import Delay, Fifo, Simulator
from repro.hardware.ssd import SsdLatencyEmulator

#: Sentinel telling a free-running kernel to shut down.
SHUTDOWN = None


@dataclass(frozen=True)
class DataflowTiming:
    """Timing constants of the on-FPGA dataflow (Sec. 5.3).

    Attributes
    ----------
    tag_compare_ns:
        Parallel tag comparison time (a couple of cycles at 233 MHz;
        part of the 1 us hit path).
    hit_latency_ns:
        Total DRAM cache hit service time (measured 1 us).
    gmm_latency_ns:
        Policy engine inference latency (measured 3 us).
    overlap:
        Whether the miss path triggers the policy engine and the SSD
        concurrently (the dataflow architecture) or sequentially (the
        naive control the ablation compares against).
    """

    tag_compare_ns: int = 10
    hit_latency_ns: int = 1_000
    gmm_latency_ns: int = 3_000
    overlap: bool = True

    def __post_init__(self) -> None:
        if self.tag_compare_ns < 0:
            raise ValueError("tag_compare_ns must be >= 0")
        if self.hit_latency_ns < self.tag_compare_ns:
            raise ValueError(
                "hit_latency_ns must cover the tag compare time"
            )
        if self.gmm_latency_ns < 0:
            raise ValueError("gmm_latency_ns must be >= 0")


def host_request_source(
    sim: Simulator,
    requests: list[tuple[int, bool, float]],
    trace_fifo: Fifo,
    response_fifo: Fifo,
    latencies_ns: list[int],
):
    """Closed-loop host: issue, await response, record latency."""
    for request in requests:
        start = sim.now
        yield trace_fifo.put(request)
        yield response_fifo.get()
        latencies_ns.append(sim.now - start)
    yield trace_fifo.put(SHUTDOWN)


def open_loop_source(
    sim: Simulator,
    requests: list[tuple[int, bool, float]],
    trace_fifo: Fifo,
    interval_ns: int,
    issue_times_ns: list[int],
):
    """Open-loop host: issue one request every ``interval_ns``.

    Models asynchronous traffic (prefetchers, multiple cores): the
    host does *not* wait for responses, so requests queue in the trace
    FIFO when the cache engine falls behind -- the latency then
    includes queueing delay, unlike the closed-loop measurement.
    A full FIFO exerts back-pressure (the put blocks), as the
    hardware's bounded FIFOs do.
    """
    if interval_ns < 0:
        raise ValueError("interval_ns must be >= 0")
    for request in requests:
        issue_times_ns.append(sim.now)
        yield trace_fifo.put(request)
        if interval_ns > 0:
            yield Delay(interval_ns)
    yield trace_fifo.put(SHUTDOWN)


def response_collector(
    sim: Simulator,
    n_requests: int,
    response_fifo: Fifo,
    issue_times_ns: list[int],
    latencies_ns: list[int],
):
    """Pair in-order responses with issue times (open-loop mode)."""
    for index in range(n_requests):
        yield response_fifo.get()
        latencies_ns.append(sim.now - issue_times_ns[index])


def gmm_policy_kernel(
    sim: Simulator,
    score_request_fifo: Fifo,
    score_response_fifo: Fifo,
    gmm_latency_ns: int,
):
    """Free-running policy engine: score requests as they arrive."""
    while True:
        request = yield score_request_fifo.get()
        if request is SHUTDOWN:
            return
        yield Delay(gmm_latency_ns)
        yield score_response_fifo.put(request)


def cache_control_kernel(
    sim: Simulator,
    cache: SetAssociativeCache,
    policy: ReplacementPolicy,
    ssd: SsdLatencyEmulator,
    timing: DataflowTiming,
    trace_fifo: Fifo,
    response_fifo: Fifo,
    score_request_fifo: Fifo,
    score_response_fifo: Fifo,
    outcomes: list[int],
):
    """Cache control engine: hit/miss service and replacement.

    The replacement *decisions* are one
    :func:`~repro.cache.setassoc.access_step` per request -- the step
    the reference simulator (:func:`repro.cache.setassoc.simulate`)
    runs -- so both simulators agree on hits and misses by
    construction; this kernel appends each request's ``OUTCOME_*``
    code to ``outcomes`` and adds the nanosecond timing of the
    hardware pipeline around it.
    """
    n_sets = cache.geometry.n_sets
    tags_list = cache.tags.tolist()
    access_index = 0
    while True:
        request = yield trace_fifo.get()
        if request is SHUTDOWN:
            yield score_request_fifo.put(SHUTDOWN)
            return
        page, is_write, score = request
        yield Delay(timing.tag_compare_ns)
        set_index = page % n_sets
        code = access_step(
            cache, policy, tags_list[set_index], set_index, page,
            is_write, score, access_index,
        )
        outcomes.append(code)
        access_index += 1

        if code == OUTCOME_HIT:
            yield Delay(timing.hit_latency_ns - timing.tag_compare_ns)
            yield response_fifo.put(("hit", page))
            continue

        # Miss: the SSD must be read; the policy engine scores the
        # page meanwhile (or afterwards, without the dataflow overlap).
        miss_start = sim.now
        ssd_ns = ssd.read_latency_ns()
        if timing.overlap:
            yield score_request_fifo.put((page, score))
            yield score_response_fifo.get()
            elapsed = sim.now - miss_start
            if elapsed < ssd_ns:
                yield Delay(ssd_ns - elapsed)
        else:
            yield score_request_fifo.put((page, score))
            yield score_response_fifo.get()
            yield Delay(ssd_ns)

        if code == OUTCOME_BYPASS:
            if is_write:
                # The store itself must still be programmed to flash.
                yield Delay(ssd.write_latency_ns())
            yield response_fifo.put(("bypass", page))
            continue
        if code == OUTCOME_DIRTY_EVICT:
            # Dirty write-back: the 975 us total penalty path.
            yield Delay(ssd.write_latency_ns())
        yield response_fifo.put(("fill", page))
