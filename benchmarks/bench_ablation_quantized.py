"""Ablation: fixed-point (hardware-faithful) vs float64 scoring.

The FPGA engine evaluates the score pipeline in fixed point
(Sec. 4.1); the policy only consumes score *order* (threshold
comparison, per-set argmin), so quantisation should be invisible in
the miss rate.  This bench runs the full pipeline both ways and
bounds the divergence.
"""

import dataclasses

from repro.analysis import render_table
from repro.core.pipeline import StagedPipeline


def _run(base, use_quantized):
    config = dataclasses.replace(
        base,
        gmm=dataclasses.replace(base.gmm, use_quantized=use_quantized),
    )
    return StagedPipeline(config).run_benchmark(
        "hashmap",
        strategies=("lru", "gmm-caching-eviction"),
    )


def test_quantized_pipeline_matches_float(
    fast_config, report, benchmark
):
    """Fixed-point scoring reproduces the float64 policy results."""
    base = fast_config()
    quantized = benchmark.pedantic(
        _run, args=(base, True), rounds=1, iterations=1
    )
    float64 = _run(base, False)

    q = quantized.outcomes["gmm-caching-eviction"]
    f = float64.outcomes["gmm-caching-eviction"]
    report(
        "ablation_quantized",
        render_table(
            ["pipeline", "miss rate %", "avg access us"],
            [
                ["float64", f.miss_rate_percent, f.average_time_us],
                ["fixed-point", q.miss_rate_percent, q.average_time_us],
            ],
        ),
    )
    # Same trace, same EM fit; quantisation may flip a handful of
    # borderline decisions but the results must stay within 0.3
    # points of each other.
    assert abs(
        q.miss_rate_percent - f.miss_rate_percent
    ) < 0.3
    # And both beat the shared LRU baseline.
    assert q.miss_rate_percent < quantized.lru.miss_rate_percent
    assert f.miss_rate_percent < float64.lru.miss_rate_percent
