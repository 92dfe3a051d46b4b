"""Score-distribution drift detection for the serving loop.

The GMM's score for a request is a density under the *trained*
access distribution, so workload drift shows up directly as a shift
of the score distribution -- long before miss rates fully degrade.
The detector watches two windowed signals per chunk:

* a two-sample **Kolmogorov-Smirnov** statistic between the chunk's
  scores and a reference sample captured just after the engine was
  (re)loaded, and
* the **threshold-quantile shift**: the engine's admission threshold
  was chosen so a known quantile ``q`` of training scores falls below
  it; under drift a frozen engine suddenly scores most of the live
  traffic below its own cut, so ``|observed_below - q|`` is a cheap,
  interpretable alarm wired to the exact knob the policy acts on.

Either signal sustained for :data:`PATIENCE` consecutive chunks reports
drift; the service then schedules a model refresh and, after the
swap, :meth:`DriftDetector.rebase` re-anchors the reference under
the new engine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Reference-sample cap; KS precision saturates well below this.
_MAX_REFERENCE = 8192

#: KS statistic above which a chunk signals drift.
KS_THRESHOLD = 0.25

#: ``|below-threshold fraction - quantile|`` above which a chunk
#: signals drift.
QUANTILE_TOLERANCE = 0.25

#: Consecutive signalling chunks before drift is reported.
PATIENCE = 2

#: Chunks of scores accumulated as the reference sample after every
#: (re)base before monitoring starts.
BASELINE_CHUNKS = 2


def ks_statistic(
    sample_a: np.ndarray,
    sample_b: np.ndarray,
    assume_sorted: bool = False,
) -> float:
    """Two-sample KS statistic ``sup |F_a - F_b|`` (vectorized).

    Both empirical CDFs are evaluated at every value of either sample
    -- no SciPy dependency.  The sorted samples are merged by one
    stable argsort (timsort merges two sorted runs in linear time);
    running per-side counts at the last element of each run of equal
    values are the two CDFs there.  NaNs sort last and count as one
    value, larger than every other.  ``assume_sorted`` skips the
    input sorts (the detector's reference sample is stored pre-sorted
    and compared on every chunk).
    """
    sample_a = np.asarray(sample_a, dtype=np.float64)
    sample_b = np.asarray(sample_b, dtype=np.float64)
    if not assume_sorted:
        sample_a = np.sort(sample_a)
        sample_b = np.sort(sample_b)
    if sample_a.size == 0 or sample_b.size == 0:
        raise ValueError("both samples must be non-empty")
    merged = np.concatenate([sample_a, sample_b])
    order = np.argsort(merged, kind="stable")
    merged = merged[order]
    count_a = np.cumsum(order < sample_a.size)
    count_b = np.arange(1, merged.size + 1) - count_a
    run_end = np.empty(merged.size, dtype=bool)
    run_end[-1] = True
    np.not_equal(merged[1:], merged[:-1], out=run_end[:-1])
    if np.isnan(merged[-1]):
        run_end[np.searchsorted(merged, np.nan) : -1] = False
    cdf_a = count_a[run_end] / sample_a.size
    cdf_b = count_b[run_end] / sample_b.size
    return float(np.max(np.abs(cdf_a - cdf_b)))


@dataclass(frozen=True)
class DriftReport:
    """Per-chunk drift observation.

    ``drifted`` is the debounced decision (patience satisfied);
    ``signal`` is the instantaneous one.  ``ks`` is ``nan`` while the
    detector is still accumulating its baseline.
    """

    ks: float
    below_threshold_fraction: float
    signal: bool
    drifted: bool
    baselining: bool


class DriftDetector:
    """Windowed drift monitor over per-chunk score batches.

    Parameters
    ----------
    threshold:
        The engine's current admission threshold.
    quantile:
        Training-score quantile the threshold was derived at.

    The decision knobs are the module constants above.
    """

    def __init__(self, threshold: float, quantile: float) -> None:
        self.rebase(threshold, quantile)

    def rebase(self, threshold: float, quantile: float) -> None:
        """Reset the reference distribution (after an engine swap)."""
        self.threshold = float(threshold)
        self.quantile = float(quantile)
        self._baseline_parts: list[np.ndarray] = []
        self._reference: np.ndarray | None = None
        self._streak = 0

    @property
    def ready(self) -> bool:
        """Whether the baseline is complete and monitoring is live."""
        return self._reference is not None

    def observe(self, scores: np.ndarray) -> DriftReport:
        """Fold in one chunk of scores; returns the drift report."""
        scores = np.asarray(scores, dtype=np.float64)
        if scores.size == 0:
            raise ValueError("scores must be non-empty")
        below = float(np.mean(scores < self.threshold))
        if self._reference is None:
            self._baseline_parts.append(scores.copy())
            if len(self._baseline_parts) >= BASELINE_CHUNKS:
                reference = np.concatenate(self._baseline_parts)
                if reference.size > _MAX_REFERENCE:
                    stride = reference.size / _MAX_REFERENCE
                    take = (
                        np.arange(_MAX_REFERENCE) * stride
                    ).astype(np.int64)
                    reference = reference[take]
                self._reference = np.sort(reference)
                self._baseline_parts = []
            return DriftReport(
                ks=float("nan"),
                below_threshold_fraction=below,
                signal=False,
                drifted=False,
                baselining=True,
            )
        ks = ks_statistic(
            self._reference, np.sort(scores), assume_sorted=True
        )
        quantile_shift = abs(below - self.quantile)
        signal = ks > KS_THRESHOLD or quantile_shift > QUANTILE_TOLERANCE
        self._streak = self._streak + 1 if signal else 0
        return DriftReport(
            ks=ks,
            below_threshold_fraction=below,
            signal=signal,
            drifted=self._streak >= PATIENCE,
            baselining=False,
        )
