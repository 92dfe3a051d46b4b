"""Synthetic versions of the paper's seven trace benchmarks.

Sec. 5.1: "The synthetic trace benchmarks we choose are hashmap and heap
[10].  The real-world trace benchmarks are from different domains,
including dlrm from deep learning recommendation systems, parsec and
stream from high-performance computing, memtier and sysbench from
database systems."

The authors' traces are not published, so each module here generates a
seeded synthetic trace that reproduces the workload's documented access
structure.  All seven expose the same
:class:`repro.traces.synthetic.TraceGenerator` API.
"""

from repro.traces.workloads.dlrm import DlrmWorkload
from repro.traces.workloads.hashmap import HashmapWorkload
from repro.traces.workloads.heap import HeapWorkload
from repro.traces.workloads.memtier import MemtierWorkload
from repro.traces.workloads.parsec import ParsecWorkload
from repro.traces.workloads.stream import StreamWorkload
from repro.traces.workloads.sysbench import SysbenchWorkload

#: Workload classes keyed by the names the paper uses in Fig. 6/Table 1.
WORKLOADS = {
    "parsec": ParsecWorkload,
    "memtier": MemtierWorkload,
    "hashmap": HashmapWorkload,
    "heap": HeapWorkload,
    "sysbench": SysbenchWorkload,
    "dlrm": DlrmWorkload,
    "stream": StreamWorkload,
}

#: Benchmark order used by Fig. 6 and Table 1.
WORKLOAD_NAMES = tuple(WORKLOADS)


def get_workload(name: str, **params):
    """Instantiate a workload generator by its paper name.

    Extra keyword arguments are forwarded to the generator constructor,
    allowing experiments to override footprint or mix parameters.
    """
    try:
        cls = WORKLOADS[name]
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}"
        ) from None
    return cls(**params)


__all__ = [
    "DlrmWorkload",
    "HashmapWorkload",
    "HeapWorkload",
    "MemtierWorkload",
    "ParsecWorkload",
    "StreamWorkload",
    "SysbenchWorkload",
    "WORKLOADS",
    "WORKLOAD_NAMES",
    "get_workload",
]
