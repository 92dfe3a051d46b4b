"""Ablation: the two readings of Algorithm 1.

The paper's Algorithm 1 pseudocode compares the timestamp counter
against ``len_access_shot`` while the prose defines the shot as a
request count; the readings produce very different temporal features
(see :mod:`repro.traces.preprocess`).  This bench runs both end to
end with the offline train-then-deploy split and shows why the
repository defaults to the periodic "prose" reading: under the
literal pseudocode the timestamp is a monotone ramp, every request
beyond the training range falls outside the learnt density's support,
and smart caching collapses into mass bypassing.
"""

import dataclasses

import pytest

from repro.analysis import render_table
from repro.core.pipeline import StagedPipeline


def _run(base, mode):
    config = dataclasses.replace(
        base, timestamp_mode=mode, train_fraction=0.5
    )
    pipeline = StagedPipeline(config)
    result = pipeline.run_benchmark(
        "memtier", strategies=("lru", "gmm-caching")
    )
    return result


def test_timestamp_mode_comparison(fast_config, report, benchmark):
    """Prose (periodic) vs algorithm (ramp) timestamps, end to end."""
    base = fast_config()
    prose = benchmark.pedantic(
        _run, args=(base, "prose"), rounds=1, iterations=1
    )
    ramp = _run(base, "algorithm")

    rows = []
    for label, result in (("prose", prose), ("algorithm", ramp)):
        outcome = result.outcomes["gmm-caching"]
        rows.append(
            [
                label,
                result.lru.miss_rate_percent,
                outcome.miss_rate_percent,
                outcome.stats.bypasses,
            ]
        )
    report(
        "ablation_timestamp_mode",
        render_table(
            ["mode", "LRU miss %", "caching miss %", "bypasses"], rows
        ),
    )

    prose_caching = prose.outcomes["gmm-caching"]
    ramp_caching = ramp.outcomes["gmm-caching"]
    # The periodic reading generalises past the training range; the
    # ramp reading bypasses en masse and misses far more.
    assert (
        prose_caching.stats.miss_rate < ramp_caching.stats.miss_rate
    )
    assert prose_caching.stats.bypasses < ramp_caching.stats.bypasses
    # Both runs share the same LRU baseline (same trace).
    assert prose.lru.miss_rate_percent == pytest.approx(
        ramp.lru.miss_rate_percent
    )
