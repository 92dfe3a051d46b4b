"""Model refresh: fold recent traffic into the mixture and swap.

The paper trains the GMM offline and freezes it in the FPGA weight
buffer (Sec. 3.3); the hardware analogue of adapting to drift is a
periodic weight-buffer reload -- inference keeps running on the old
parameters until the new set is committed in one step.  This module
reproduces that split in software:

* :class:`ModelRefresher` is the *background stage*: it keeps a
  bounded buffer of recent chunk features and, on demand, folds them
  into the currently-serving mixture by warm-started EM, then
  re-derives the admission threshold at the configured quantile of
  the refreshed scores.
* :class:`EngineSlot` is the *weight buffer*: the serving loop reads
  ``slot.engine`` at the top of every chunk, and a refresh replaces
  the whole engine reference in one assignment -- a chunk is scored
  entirely under one generation, never a mix.

The feature scaler is deliberately carried over from the deployed
engine: it is the fixed input-transform stage of the pipeline (the
hardware's address/timestamp mapping), and keeping it frozen is what
makes scores comparable across generations for the drift detector.
"""

from __future__ import annotations

import threading
from collections import deque

import numpy as np

from repro.core.engine import GmmPolicyEngine
from repro.gmm.em import EMTrainer, fast_log_score_samples

#: Sample budget of the warm fold-in's EM fit.  Refresh adapts an
#: already-trained mixture; a deterministic even-stride subsample of
#: the buffered traffic carries the drifted distribution at a
#: fraction of the per-iteration cost (mirroring the offline
#: pipeline's ``max_train_samples`` cap).
DEFAULT_MAX_FIT_SAMPLES = 8192


class StaleSwapError(RuntimeError):
    """A swap was attempted against an outdated generation.

    Raised when :meth:`EngineSlot.swap` is given an
    ``expected_generation`` that no longer matches -- i.e. another
    refresh committed between this builder's read and its swap.  The
    slot keeps the newer engine; the stale builder must re-read and
    rebuild.
    """


class EngineSlot:
    """Atomic holder of the serving engine (weight-buffer analogue).

    Reads and swaps are serialised by a lock, so a background refresh
    thread can never hand a reader a torn (engine, generation) pair,
    and the generation counter is strictly monotonic: a swap may pass
    the generation it built against (``expected_generation``) and the
    slot refuses the install -- :class:`StaleSwapError` -- if a newer
    engine landed in between, instead of silently rolling the
    service back onto an older mixture.
    """

    def __init__(self, engine: GmmPolicyEngine) -> None:
        self._engine = engine
        self._generation = 0
        self._lock = threading.Lock()

    @property
    def engine(self) -> GmmPolicyEngine:
        """The currently-loaded engine."""
        with self._lock:
            return self._engine

    @property
    def generation(self) -> int:
        """Number of swaps since service start."""
        with self._lock:
            return self._generation

    def read(self) -> tuple[GmmPolicyEngine, int]:
        """One consistent (engine, generation) pair."""
        with self._lock:
            return self._engine, self._generation

    def swap(
        self,
        engine: GmmPolicyEngine,
        expected_generation: int | None = None,
    ) -> int:
        """Install a new engine; returns the new generation.

        ``expected_generation`` is the generation the refresh was
        built against; passing it turns the swap into a
        compare-and-swap that fails (:class:`StaleSwapError`) rather
        than regress past an engine someone else installed first.
        """
        with self._lock:
            if (
                expected_generation is not None
                and expected_generation != self._generation
            ):
                raise StaleSwapError(
                    f"swap built against generation"
                    f" {expected_generation} but the slot is at"
                    f" {self._generation}"
                )
            self._engine = engine
            self._generation += 1
            return self._generation

    def __repr__(self) -> str:
        return (
            f"EngineSlot(generation={self._generation},"
            f" engine={self._engine!r})"
        )


def validate_engine(engine: GmmPolicyEngine) -> None:
    """Reject an engine with non-finite parameters.

    A corrupted refresh (chaos-injected or a genuinely diverged EM
    fold) must never reach the slot: every admission decision would
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
    buffer_chunks:
        Recent chunks of features retained (bounded memory).
    threshold_quantile:
        Quantile of the refreshed scores at which the new admission
        threshold is cut.
    warm_max_iter / warm_tol:
        EM budget of the fold-in; a handful of iterations suffices
        because the deployed mixture is already a good starting
        point for the shifted traffic.
    max_fit_samples:
        Sample cap of the fold-in's EM fit (the admission threshold
        is still re-cut on the *full* buffered traffic).
    reg_covar:
        Covariance ridge of the fold-in.
    """

    def __init__(
        self,
        buffer_chunks: int = 6,
        threshold_quantile: float = 0.02,
        warm_max_iter: int = 8,
        warm_tol: float = 1e-3,
        max_fit_samples: int = DEFAULT_MAX_FIT_SAMPLES,
        reg_covar: float = 1e-6,
    ) -> None:
        if buffer_chunks < 1:
            raise ValueError("buffer_chunks must be >= 1")
        if warm_max_iter < 1:
            raise ValueError("warm_max_iter must be >= 1")
        if max_fit_samples < 1:
            raise ValueError("max_fit_samples must be >= 1")
        self.max_fit_samples = int(max_fit_samples)
        self.threshold_quantile = float(threshold_quantile)
        self.warm_max_iter = int(warm_max_iter)
        self.warm_tol = float(warm_tol)
        self.reg_covar = float(reg_covar)
        self._buffer: deque[np.ndarray] = deque(maxlen=buffer_chunks)
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
        """One immutable copy of the buffered traffic, or ``None``.

        Off-critical-path builds must not read the live deque from a
        worker thread -- :meth:`ingest` keeps appending while the
        build runs, and a fold over a moving buffer would not be the
        fold the serving loop decided on.  The consumer snapshots on
        its own thread at submit time and hands the frozen array to
        :meth:`build_from`.
        """
        if not self._buffer:
            return None
        return np.concatenate(list(self._buffer))

    def build(self, current: GmmPolicyEngine) -> GmmPolicyEngine:
        """Fold the buffered traffic into ``current``'s mixture.

        Returns a fresh engine sharing the deployed scaler, with the
        warm-started EM mixture and a threshold re-cut at the
        configured quantile of the buffered traffic's new scores.
        """
        return self.build_from(self.snapshot_features(), current)

    def build_from(
        self,
        features: np.ndarray | None,
        current: GmmPolicyEngine,
    ) -> GmmPolicyEngine:
        """:meth:`build` over a pre-taken feature snapshot.

        ``features`` is raw ``(N, 2)`` traffic (what
        :meth:`snapshot_features` returns); ``None`` or empty means
        there is nothing to fold and raises exactly like an
        empty-buffer :meth:`build` -- after counting the attempt, so
        the bookkeeping is identical on both entry points.
        """
        self.builds_attempted += 1
        if features is None or features.shape[0] == 0:
            raise ValueError("no buffered features to refresh from")
        scaled = current.scaler.transform(features)
        fit_points = scaled
        if scaled.shape[0] > self.max_fit_samples:
            # Deterministic even-stride subsample across the whole
            # buffer (every retained chunk contributes).
            index = np.linspace(
                0, scaled.shape[0] - 1, self.max_fit_samples
            ).astype(np.int64)
            fit_points = scaled[index]
        trainer = EMTrainer(
            n_components=current.model.n_components,
            max_iter=self.warm_max_iter,
            tol=self.warm_tol,
            reg_covar=self.reg_covar,
        )
        model = trainer.fit(fit_points, warm_start=current.model).model
        # The quantile cut only needs score *ranks*; the fast
        # quadratic scorer agrees with the exact one far below the
        # threshold's resolution and keeps the recut off the refresh
        # critical path.
        refreshed_scores = np.exp(fast_log_score_samples(model, scaled))
        threshold = float(
            np.quantile(refreshed_scores, self.threshold_quantile)
        )
        self.refreshes_built += 1
        return GmmPolicyEngine(
            model=model,
            scaler=current.scaler,
            admission_threshold=threshold,
        )
