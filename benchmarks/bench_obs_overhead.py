"""Telemetry-overhead benchmark: enabled-mode cost and parity gates.

The same seeded workload is replayed through both instrumented layers
-- the multi-device :class:`repro.cxl.fabric.CxlFabric` and the
sharded :class:`repro.serving.IcgmmCacheService` -- once with
telemetry disabled (the constructor default, i.e. the exact
pre-telemetry code path) and once with a full
:class:`repro.obs.Telemetry` bundle attached (metrics registry,
logical-clock tracer, event bridge, stage profiler).  The emitted
``BENCH_obs_overhead.json`` bakes in the acceptance gates:

1. **overhead** -- enabled-mode wall clock stays within
   ``OVERHEAD_GATE`` (5%) of the disabled run per layer, estimated
   as the median of per-pair enabled/disabled ratios over ``PAIRS``
   interleaved pairs of replays;
2. **parity** -- the replay results (counters, miss rates, pricing)
   are byte-identical with and without telemetry attached;
3. **determinism** -- two enabled runs produce byte-identical
   snapshot digests, i.e. the exported telemetry itself is
   bit-reproducible.

Usage::

    PYTHONPATH=src python benchmarks/bench_obs_overhead.py           # full
    PYTHONPATH=src python benchmarks/bench_obs_overhead.py --smoke   # quick
    PYTHONPATH=src python benchmarks/bench_obs_overhead.py --validate out.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.cache.setassoc import CacheGeometry
from repro.core.config import (
    FabricTopology,
    GmmEngineConfig,
    IcgmmConfig,
    ServingConfig,
)
from repro.core.engine import GmmPolicyEngine
from repro.cxl.fabric import CxlFabric
from repro.obs import Telemetry
from repro.serving import IcgmmCacheService
from repro.traces.preprocess import transform_timestamps
from repro.traces.synthetic import ZipfSampler

#: Enabled-mode wall clock may exceed disabled by at most this
#: fraction (median of per-pair ratios).
OVERHEAD_GATE = 0.05

#: Interleaved disabled/enabled replay pairs per layer: enough that
#: the median's run-to-run spread on the smoke stream stays within a
#: point or two.
PAIRS = 121

#: Layers the bench replays through.
LAYERS = ("fabric", "serving")

#: Schema of every per-mode entry in ``modes``.
ROW_SCHEMA = {
    "layer": str,
    "telemetry": bool,
    "pairs": int,
    "seconds_median": float,
    "accesses": int,
    "throughput_maps": float,
}


def build_stream(n_phase: int, hot_pages: int, seed: int):
    """Two-phase stream whose hot set moves at the midpoint."""
    rng = np.random.default_rng(seed)
    stable = ZipfSampler(
        base_page=0, n_pages=hot_pages, alpha=1.2, write_fraction=0.3
    )
    moved = ZipfSampler(
        base_page=4 * hot_pages,
        n_pages=hot_pages,
        alpha=1.2,
        write_fraction=0.3,
    )
    pages_a, writes_a = stable.sample(n_phase, rng)
    pages_b, writes_b = moved.sample(n_phase, rng)
    return (
        np.concatenate([pages_a, pages_b]),
        np.concatenate([writes_a, writes_b]),
    )


def train_engine(pages, n_train, gmm_config, seed):
    """Offline-train an engine on the stream's leading slice."""
    timestamps = transform_timestamps(n_train, mode="prose")
    features = np.column_stack(
        [
            pages[:n_train].astype(np.float64),
            timestamps.astype(np.float64),
        ]
    )
    return GmmPolicyEngine.train(
        features, gmm_config, np.random.default_rng(seed)
    )


def _replay_fabric(config, pages, writes, chunk, telemetry):
    """(ingest seconds, results dict) for one replay.

    Only the steady-state ingest calls are timed -- construction and
    telemetry bind are one-time costs outside the overhead gate.
    """
    fabric = CxlFabric(
        FabricTopology(n_devices=4),
        config=config,
        telemetry=telemetry,
    )
    seconds = 0.0
    try:
        fabric.bind("lru", 0.0)
        for start in range(0, pages.shape[0], chunk):
            started = time.perf_counter()
            fabric.ingest(
                pages[start : start + chunk],
                writes[start : start + chunk],
            )
            seconds += time.perf_counter() - started
        return seconds, fabric.results().as_dict()
    finally:
        fabric.close()


def _replay_serving(config, engine, pages, writes, chunk, telemetry):
    """(ingest seconds, summary dict) for one replay."""
    service = IcgmmCacheService(
        engine,
        config=config,
        serving=ServingConfig(
            chunk_requests=chunk,
            n_shards=4,
            sharding="hash",
            strategy="gmm-caching-eviction",
            refresh_enabled=False,
        ),
        telemetry=telemetry,
    )
    seconds = 0.0
    try:
        # Feed the stream chunk-aligned so each timed ingest call
        # processes exactly one serving chunk.
        for start in range(0, pages.shape[0], chunk):
            started = time.perf_counter()
            service.ingest(
                pages[start : start + chunk],
                writes[start : start + chunk],
            )
            seconds += time.perf_counter() - started
        return seconds, service.summary()
    finally:
        service.close()


def run(smoke: bool, seed: int = 7) -> dict:
    """Run the full bench; returns the JSON payload."""
    if smoke:
        n_phase, hot_pages, n_train = 12_000, 1_000, 8_000
        n_sets, chunk = 64, 4_096
        gmm = GmmEngineConfig(
            n_components=6, max_iter=12, max_train_samples=6_000
        )
    else:
        n_phase, hot_pages, n_train = 40_000, 2_000, 24_000
        n_sets, chunk = 128, 8_192
        gmm = GmmEngineConfig(
            n_components=10, max_iter=20, max_train_samples=12_000
        )
    pages, writes = build_stream(n_phase, hot_pages, seed=seed)
    geometry = CacheGeometry(
        capacity_bytes=n_sets * 8 * 4096,
        block_bytes=4096,
        associativity=8,
    )
    config = IcgmmConfig(geometry=geometry, gmm=gmm)
    engine = train_engine(pages, n_train, gmm, seed)
    accesses = int(pages.shape[0])

    replay = {
        "fabric": lambda telemetry: _replay_fabric(
            config, pages, writes, chunk, telemetry
        ),
        "serving": lambda telemetry: _replay_serving(
            config, engine, pages, writes, chunk, telemetry
        ),
    }

    rows, overhead, parity = [], {}, {}
    digests = []
    for layer in LAYERS:
        replay[layer](None)  # warm-up outside the timed pairs
        # Replays last tens of milliseconds, and their times drift
        # within the process by more than the gate, so the estimate
        # is the median of per-pair ratios: each pair runs both modes
        # back to back, alternating which goes first, and sees the
        # same drift.  Each enabled run gets its own fresh bundle, so
        # the first two double as the digest-determinism probe.
        disabled_s, enabled_s, ratios = [], [], []
        disabled_out = enabled_out = None
        layer_digests = []
        for pair in range(PAIRS):
            bundle = Telemetry(seed=0)
            if pair % 2:
                enabled, enabled_out = replay[layer](bundle)
                disabled, disabled_out = replay[layer](None)
            else:
                disabled, disabled_out = replay[layer](None)
                enabled, enabled_out = replay[layer](bundle)
            disabled_s.append(disabled)
            enabled_s.append(enabled)
            ratios.append(enabled / disabled - 1.0)
            if len(layer_digests) < 2:
                layer_digests.append(bundle.snapshot()["digest"])
        digests.append(tuple(layer_digests))
        ratio = float(np.median(ratios))
        disabled_median = float(np.median(disabled_s))
        enabled_median = float(np.median(enabled_s))
        overhead[layer] = {
            "disabled_seconds": round(disabled_median, 6),
            "enabled_seconds": round(enabled_median, 6),
            "ratio": round(ratio, 6),
        }
        parity[layer] = json.dumps(
            disabled_out, sort_keys=True
        ) == json.dumps(enabled_out, sort_keys=True)
        for enabled, seconds in (
            (False, disabled_median),
            (True, enabled_median),
        ):
            rows.append(
                {
                    "layer": layer,
                    "telemetry": enabled,
                    "pairs": PAIRS,
                    "seconds_median": round(seconds, 6),
                    "accesses": accesses,
                    "throughput_maps": round(
                        accesses / seconds / 1e6, 4
                    ),
                }
            )
        print(
            f"{layer:8s} disabled {disabled_median:7.3f}s"
            f"  enabled {enabled_median:7.3f}s"
            f"  overhead {100 * ratio:+6.2f}%"
            f"  parity {'ok' if parity[layer] else 'BROKEN'}"
        )

    identical = all(a == b for a, b in digests)
    print(
        "determinism: "
        + (
            "snapshot digests identical across runs"
            if identical
            else "DIGEST MISMATCH"
        )
    )

    return {
        "bench": "obs_overhead",
        "smoke": smoke,
        "seed": seed,
        "overhead_gate": OVERHEAD_GATE,
        "stream": {
            "n_accesses": accesses,
            "chunk_requests": chunk,
            "timing_pairs": PAIRS,
        },
        "modes": rows,
        "overhead": overhead,
        "parity": parity,
        "determinism": {
            "digests_identical": identical,
            "digests": [list(pair) for pair in digests],
        },
    }


def validate(payload: dict) -> list[str]:
    """Schema + acceptance check of an emitted payload."""
    problems = []
    for key in ("modes", "overhead", "parity", "determinism"):
        if key not in payload:
            problems.append(f"missing top-level {key!r}")
    if problems:
        return problems
    rows = payload["modes"]
    expected = 2 * len(LAYERS)
    if not isinstance(rows, list) or len(rows) != expected:
        return [
            f"'modes' must list {expected} rows"
            f" ({len(LAYERS)} layers x disabled/enabled)"
        ]
    for i, row in enumerate(rows):
        for fieldname, kind in ROW_SCHEMA.items():
            if fieldname not in row:
                problems.append(f"modes[{i}]: missing {fieldname!r}")
            elif kind is float:
                if not isinstance(row[fieldname], (int, float)):
                    problems.append(
                        f"modes[{i}].{fieldname}: not numeric"
                    )
            elif not isinstance(row[fieldname], kind):
                problems.append(
                    f"modes[{i}].{fieldname}: expected {kind.__name__}"
                )
    if problems:
        return problems

    gate = float(payload.get("overhead_gate", OVERHEAD_GATE))
    for layer in LAYERS:
        entry = payload["overhead"].get(layer)
        if entry is None:
            problems.append(f"overhead: missing layer {layer!r}")
            continue
        if entry["ratio"] > gate:
            problems.append(
                f"acceptance: {layer} telemetry overhead"
                f" {100 * entry['ratio']:.2f}% exceeds the"
                f" {100 * gate:.0f}% gate"
            )
        if not payload["parity"].get(layer, False):
            problems.append(
                f"acceptance: {layer} results diverged when"
                " telemetry was attached (parity broken)"
            )
    if not payload["determinism"].get("digests_identical", False):
        problems.append(
            "acceptance: snapshot digests diverged across repeated"
            " enabled runs"
        )
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="short stream + small mixture (CI smoke run)",
    )
    parser.add_argument(
        "--validate",
        metavar="JSON",
        help="validate an existing output file and exit",
    )
    parser.add_argument(
        "--output",
        default=None,
        help=(
            "output JSON path (default: BENCH_obs_overhead.json, or"
            " BENCH_obs_overhead.smoke.json with --smoke)"
        ),
    )
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)

    if args.validate:
        path = Path(args.validate)
        if not path.is_file():
            print(f"INVALID: no such file: {path}", file=sys.stderr)
            return 1
        try:
            payload = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            print(f"INVALID: not JSON: {exc}", file=sys.stderr)
            return 1
        problems = validate(payload)
        if problems:
            for problem in problems:
                print(f"INVALID: {problem}", file=sys.stderr)
            return 1
        print(f"{args.validate}: valid")
        return 0

    payload = run(smoke=args.smoke, seed=args.seed)
    output = args.output or (
        "BENCH_obs_overhead.smoke.json"
        if args.smoke
        else "BENCH_obs_overhead.json"
    )
    problems = validate(payload)
    Path(output).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {output}")
    if problems:
        for problem in problems:
            print(f"INVALID: {problem}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
