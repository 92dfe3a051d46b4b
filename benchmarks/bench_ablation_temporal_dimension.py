"""Ablation: does the second (temporal) GMM dimension earn its place?

Sec. 2.3 argues for the 2-D model: "Only considering spatial
distribution will degrade GMM prediction performance."  Two
measurements test that claim on this reproduction:

* the statistical one -- the 2-D mixture's log-likelihood gain over a
  temporally-shuffled control (direct information content), and
* the end-to-end one -- smart-caching miss rate with 2-D scores vs
  scores from a spatial-only engine (the temporal dimension is what
  recognises maintenance-burst traffic *as it happens*).
"""

import numpy as np
import pytest

from repro.analysis import render_table
from repro.analysis.distributions import temporal_information_gain
from repro.cache import SetAssociativeCache, simulate_fast
from repro.core.engine import GmmPolicyEngine
from repro.core.pipeline import StagedPipeline
from repro.core.policy import build_policy


@pytest.fixture(scope="module")
def memtier_setup(fast_config):
    config = fast_config()
    pipeline = StagedPipeline(config)
    return config, pipeline, pipeline.prepare("memtier")


def test_temporal_information_gain(memtier_setup, report, benchmark):
    """Statistical claim: (P, T) carries more than P alone."""
    config, pipeline, prepared = memtier_setup
    features = np.column_stack(
        [
            prepared.page_indices.astype(float),
            np.zeros(len(prepared)),
        ]
    )
    # Rebuild the true features from the preprocessor for the gain
    # computation (prepared only keeps the derived arrays).
    rng = np.random.default_rng(config.seed)
    trace = pipeline.generate_trace("memtier", rng)
    processed_features = (
        pipeline._preprocessor.process(trace).features
    )

    gain = benchmark.pedantic(
        temporal_information_gain,
        args=(processed_features,),
        kwargs={"n_components": 16, "max_samples": 10_000},
        rounds=1,
        iterations=1,
    )
    report(
        "ablation_temporal_gain",
        f"2-D log-likelihood gain over shuffled-T control: {gain:.4f}",
    )
    assert gain > 0.0
    assert features.shape == processed_features.shape


def test_spatial_only_admission_degrades(memtier_setup, report, benchmark):
    """End-to-end claim: spatial-only scores mis-handle burst traffic."""
    config, pipeline, prepared = memtier_setup

    # Spatial-only engine: train and score with the timestamp column
    # frozen to its mean, removing all temporal signal.
    def train_spatial_only():
        rng = np.random.default_rng(config.seed)
        trace = pipeline.generate_trace("memtier", rng)
        features = pipeline._preprocessor.process(trace).features
        flat = features.copy()
        flat[:, 1] = flat[:, 1].mean()
        engine = GmmPolicyEngine.train(
            flat[: int(len(flat) * config.train_fraction)],
            config.gmm,
            rng,
        )
        return engine.score(flat), engine.admission_threshold

    spatial_scores, spatial_threshold = benchmark.pedantic(
        train_spatial_only, rounds=1, iterations=1
    )

    def run_caching(scores, threshold):
        cache = SetAssociativeCache(config.geometry)
        policy = build_policy("gmm-caching", threshold)
        return simulate_fast(
            cache,
            policy,
            prepared.page_indices,
            prepared.is_write,
            scores=scores,
            warmup_fraction=config.warmup_fraction,
        )

    two_d = run_caching(
        prepared.scores, prepared.engine.admission_threshold
    )
    spatial = run_caching(spatial_scores, spatial_threshold)
    report(
        "ablation_temporal_dimension",
        render_table(
            ["scorer", "miss rate %", "bypasses"],
            [
                ["2-D (P, T)", 100 * two_d.miss_rate, two_d.bypasses],
                [
                    "spatial-only (P)",
                    100 * spatial.miss_rate,
                    spatial.bypasses,
                ],
            ],
        ),
    )
    # Sec. 2.3: dropping the temporal dimension must not help, and
    # typically hurts (burst traffic becomes invisible to admission).
    assert two_d.miss_rate <= spatial.miss_rate + 0.001
