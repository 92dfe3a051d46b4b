"""Host-speed reference: a fixed unit of work timed between program calls.

On a shared VM the same code runs faster or slower from one ten-second
block to the next.  The benchmark therefore runs this reference kernel
in the workload's own thread right after every timed call into the
program, for about a tenth of that call's time, and scales the call's
wall time to what it would have been had the kernel taken exactly
:data:`NOMINAL_KERNEL_S`.  Host drift moves the call and the kernel
together and cancels; a change to the program moves only the call.
"""

from __future__ import annotations

import os
import platform
import statistics
import threading
import time

import numpy as np

from perfbench.spec import THREAD_ENV

#: Kernel time the normalised figures are scaled to (about what one
#: kernel run takes on the 2-vCPU Xeon host the bounds were set on).
NOMINAL_KERNEL_S = 1.0e-3

#: Kernel time per timed call, as a share of that call's wall time.
KERNEL_SHARE = 0.10

#: Fewest kernel runs after any timed call.
MIN_KERNEL_RUNS = 3

_rng = np.random.default_rng(20240601)
_KEYS = _rng.integers(0, 1 << 20, 2048)
_VALUES = _rng.random(2048)


def reference_kernel() -> float:
    """Run one fixed unit of host work; returns its wall seconds.

    Half interpreter loop, half small numpy ops over chunk-sized
    arrays -- the two kinds of work the program's hot path mixes.
    """
    started = time.perf_counter()
    acc = 0
    table = {}
    for i in range(2000):
        acc += (i * 7) % 13
        table[i & 63] = acc
    unique = np.unique(_KEYS)
    acc += int(np.searchsorted(unique, _KEYS)[-1])
    total = float(np.exp(-0.5 * _VALUES).sum())
    for _ in range(8):
        total += float(np.dot(_VALUES[:256], _VALUES[256:512]))
    return time.perf_counter() - started


def kernel_runs_for(call_s: float, kernel_s: float) -> int:
    """Kernel runs that fill :data:`KERNEL_SHARE` of a ``call_s`` call."""
    return max(MIN_KERNEL_RUNS, round(KERNEL_SHARE * call_s / kernel_s))


def normalise(raw_s: float, kernel_s: float) -> float:
    """``raw_s`` rescaled to a host whose kernel takes the nominal time."""
    if kernel_s <= 0.0:
        raise ValueError("kernel time must be positive")
    return raw_s * NOMINAL_KERNEL_S / kernel_s


class HostReference:
    """Runs the kernel between timed calls and normalises their times."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        for _ in range(2 * MIN_KERNEL_RUNS):  # warm the code paths
            reference_kernel()

    def after_call(self, call_s: float) -> float:
        """Run the kernel after a ``call_s`` call; return it normalised.

        Raises if a thread starts or stops while the kernel runs: a
        program thread competing with the kernel would slow it and
        inflate every normalised figure.
        """
        estimate = self.samples[-1] if self.samples else NOMINAL_KERNEL_S
        threads = threading.active_count()
        runs = [
            reference_kernel()
            for _ in range(kernel_runs_for(call_s, estimate))
        ]
        if threading.active_count() != threads:
            raise RuntimeError(
                f"thread count changed from {threads} to"
                f" {threading.active_count()} while the host reference"
                " kernel ran"
            )
        self.samples.extend(runs)
        return normalise(call_s, statistics.median(runs))

    @property
    def median_s(self) -> float:
        """Median kernel time over the whole run."""
        return statistics.median(self.samples)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas() -> str:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = deps["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


def host_fingerprint(seed: int) -> dict:
    """What must match for two results to be comparable."""
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "threads": {name: os.environ.get(name) for name in THREAD_ENV},
        "seed": seed,
    }
