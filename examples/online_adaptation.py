"""Scenario: adapting the policy engine to workload drift online.

The paper trains the GMM offline and freezes it in the FPGA weight
buffer.  Long-running services drift: after a failover or a cache
rebuild, a *different* slab region of a key-value store becomes hot,
and a frozen density model now scores the new hot pages as cold.
This example refreshes the mixture from the live request stream with
the serving loop's :class:`repro.serving.ModelRefresher` -- a bounded
buffer of recent traffic folded into the deployed mixture by
warm-started EM -- comparing three engines on the post-drift traffic:

* the frozen offline model (what the paper ships),
* the refreshed model (periodic weight-buffer reload), and
* an oracle retrained on the drifted distribution (upper bound).

Run with::

    python examples/online_adaptation.py
"""

import numpy as np

from repro.analysis import render_table
from repro.core.engine import FeatureScaler, GmmPolicyEngine
from repro.gmm import EMTrainer
from repro.serving import ModelRefresher
from repro.traces.preprocess import transform_timestamps
from repro.traces.synthetic import ZipfSampler


def _features(sampler, n, rng):
    """(page, transformed timestamp) features for a sampled stream."""
    pages, _ = sampler.sample(n, rng)
    timestamps = transform_timestamps(n, mode="prose")
    return np.column_stack(
        [pages.astype(float), timestamps.astype(float)]
    )


def main() -> None:
    rng = np.random.default_rng(0)
    # Phase A: the hot slab region sits at pages [0, 1500).
    # Phase B (after failover): a rebuilt store is hot at [3000, 4500).
    phase_a = ZipfSampler(base_page=0, n_pages=1_500, alpha=1.3)
    phase_b = ZipfSampler(base_page=3_000, n_pages=1_500, alpha=1.3)

    features_a = _features(phase_a, 40_000, rng)
    features_b = _features(phase_b, 40_000, rng)
    scaler = FeatureScaler.fit(
        np.concatenate([features_a, features_b])
    )
    scaled_a = scaler.transform(features_a[:20_000])

    print("Training the offline engine on phase A...")
    offline = EMTrainer(n_components=16, max_iter=40).fit(
        scaled_a, rng
    ).model
    engine = GmmPolicyEngine(
        model=offline,
        scaler=scaler,
        admission_threshold=float(
            np.quantile(offline.score_samples(scaled_a), 0.02)
        ),
    )

    print("Streaming phase B through the refresher...")
    # The refresher keeps only its most recent chunks (bounded
    # memory), exactly as the serving loop buffers them.
    refresher = ModelRefresher()
    for start in range(0, 30_000, 2_000):
        refresher.ingest(features_b[start : start + 2_000])
    refreshed = refresher.build(engine)

    print("Retraining the oracle on phase B...")
    oracle = EMTrainer(n_components=16, max_iter=40).fit(
        scaler.transform(features_b[:20_000]), rng
    ).model

    holdout = scaler.transform(features_b[30_000:])
    rows = [
        [
            "frozen offline",
            float(np.mean(offline.log_score_samples(holdout))),
        ],
        [
            "refreshed (warm EM)",
            float(
                np.mean(refreshed.model.log_score_samples(holdout))
            ),
        ],
        [
            "retrained oracle",
            float(np.mean(oracle.log_score_samples(holdout))),
        ],
    ]
    print()
    print(
        render_table(
            ["engine", "post-drift log-likelihood"],
            rows,
            float_format="{:.3f}",
        )
    )
    frozen_ll, refreshed_ll, oracle_ll = (row[1] for row in rows)
    recovered = (refreshed_ll - frozen_ll) / (oracle_ll - frozen_ll)
    print(
        f"\nThe refreshed engine recovers {100 * recovered:.0f}% of"
        " the likelihood the frozen model loses to drift, with no"
        " offline retraining -- on hardware this is just a periodic"
        " weight-buffer reload."
    )


if __name__ == "__main__":
    main()
