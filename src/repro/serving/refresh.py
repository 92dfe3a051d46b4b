"""Model refresh: fold recent traffic into the mixture and swap.

The paper trains the GMM offline and freezes it in the FPGA weight
buffer (Sec. 3.3); the hardware analogue of adapting to drift is a
periodic weight-buffer reload -- inference keeps running on the old
parameters until the new set is committed in one step.  This module
reproduces that split in software:

* :class:`ModelRefresher` is the *reload stage*: it keeps a bounded
  buffer of recent chunk features and, on demand, folds them into the
  currently-serving mixture by warm-started EM, then re-derives the
  admission threshold at the configured quantile of the refreshed
  scores.
* The service's ``engine`` attribute is the *weight buffer*: the
  serving loop reads it at the top of every chunk, and a refresh
  replaces the whole engine reference in one assignment -- a chunk is
  scored entirely under one generation, never a mix.

The feature scaler is deliberately carried over from the deployed
engine: it is the fixed input-transform stage of the pipeline (the
hardware's address/timestamp mapping), and keeping it frozen is what
makes scores comparable across generations for the drift detector.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.core.engine import EM_REG_COVAR, GmmPolicyEngine
from repro.gmm.em import EMTrainer
from repro.gmm.quantized import QuantizedGmm

#: Sample budget of the warm fold-in's EM fit.  Refresh adapts an
#: already-trained mixture; a deterministic even-stride subsample of
#: the buffered traffic carries the drifted distribution at a
#: fraction of the per-iteration cost (mirroring the offline
#: pipeline's ``max_train_samples`` cap).  The admission threshold is
#: still re-cut on the *full* buffered traffic.
MAX_FIT_SAMPLES = 8192

#: EM budget of the warm fold-in: a handful of iterations suffices
#: because the deployed mixture is already a good starting point for
#: the shifted traffic.
WARM_MAX_ITER = 8
WARM_TOL = 1e-3

#: Recent chunks of features the refresher retains (bounded memory).
BUFFER_CHUNKS = 6


def validate_engine(engine: GmmPolicyEngine) -> None:
    """Reject an engine with non-finite parameters.

    A corrupted refresh (chaos-injected or a genuinely diverged EM
    fold) must never be swapped in: every admission decision would
    compare against NaN and silently admit nothing (or everything).
    Raises :class:`ValueError` naming the first bad field.
    """
    if not np.isfinite(engine.admission_threshold):
        raise ValueError(
            "corrupted engine: non-finite admission_threshold"
        )
    model = engine.model
    for name in ("weights", "means", "covariances"):
        values = getattr(model, name, None)
        if values is not None and not np.all(np.isfinite(values)):
            raise ValueError(f"corrupted engine: non-finite {name}")


class ModelRefresher:
    """Buffers recent features and builds refreshed engines.

    The fold-in is warm-started batch EM: the buffered traffic goes
    through :meth:`EMTrainer.fit` with the deployed mixture as the
    ``warm_start``, skipping seeding and restarts entirely and
    iterating the fused fast-path E+M pass a few times to (near)
    convergence on exactly the drifted distribution.

    Parameters
    ----------
    threshold_quantile:
        Quantile of the refreshed scores at which the new admission
        threshold is cut.

    The refresher keeps the last :data:`BUFFER_CHUNKS` chunks.  The
    fold-in runs :data:`WARM_MAX_ITER` iterations at most (to
    :data:`WARM_TOL`) on at most :data:`MAX_FIT_SAMPLES` rows, with
    the offline fit's covariance ridge
    (:data:`repro.core.engine.EM_REG_COVAR`).
    """

    def __init__(self, threshold_quantile: float = 0.02) -> None:
        self.threshold_quantile = float(threshold_quantile)
        self._buffer: deque[np.ndarray] = deque(maxlen=BUFFER_CHUNKS)
        self.refreshes_built = 0
        self.builds_attempted = 0

    def ingest(self, features: np.ndarray) -> None:
        """Retain one chunk of raw ``(N, 2)`` features."""
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2 or features.shape[1] != 2:
            raise ValueError("features must have shape (N, 2)")
        self._buffer.append(features)

    @property
    def buffered_samples(self) -> int:
        """Feature rows currently retained."""
        return sum(chunk.shape[0] for chunk in self._buffer)

    def snapshot_features(self) -> np.ndarray | None:
        """One copy of the buffered traffic, or ``None`` when empty.

        The copy is independent of the buffer: chunks ingested after
        the snapshot do not change it.
        """
        if not self._buffer:
            return None
        return np.concatenate(list(self._buffer))

    def build(self, current: GmmPolicyEngine) -> GmmPolicyEngine:
        """Fold the buffered traffic into ``current``'s mixture.

        Returns a fresh engine sharing the deployed scaler, with the
        warm-started EM mixture (loaded into a new fixed-point scorer
        when ``current`` serves one) and a threshold re-cut at the
        configured quantile of the scores it gives the buffered
        traffic.
        Counts the attempt first, then raises :class:`ValueError`
        when the buffer is empty.
        """
        features = self.snapshot_features()
        self.builds_attempted += 1
        if features is None or features.shape[0] == 0:
            raise ValueError("no buffered features to refresh from")
        scaled = current.scaler.transform(features)
        fit_points = scaled
        if scaled.shape[0] > MAX_FIT_SAMPLES:
            # Deterministic even-stride subsample across the whole
            # buffer (every retained chunk contributes).
            index = np.linspace(
                0, scaled.shape[0] - 1, MAX_FIT_SAMPLES
            ).astype(np.int64)
            fit_points = scaled[index]
        trainer = EMTrainer(
            n_components=current.model.n_components,
            max_iter=WARM_MAX_ITER,
            tol=WARM_TOL,
            reg_covar=EM_REG_COVAR,
        )
        model = trainer.fit(fit_points, warm_start=current.model).model
        # A fixed-point deployment stays fixed-point: the new mixture
        # is loaded into a fresh weight buffer.
        quantized = (
            QuantizedGmm(model) if current.quantized is not None else None
        )
        # Cut on exactly the scores the refreshed engine will serve:
        # ``scorer.score_samples(scaled)`` is its ``score(features)``.
        scorer = model if quantized is None else quantized
        threshold = float(
            np.quantile(
                scorer.score_samples(scaled), self.threshold_quantile
            )
        )
        self.refreshes_built += 1
        return GmmPolicyEngine(
            model=model,
            scaler=current.scaler,
            admission_threshold=threshold,
            quantized=quantized,
        )
