"""Score-driven policies: the paper's smart caching and eviction.

Sec. 3.2: on a miss, pages scoring below a threshold are *not* cached
(smart caching / admission); when eviction is needed, the block with
the lowest stored score goes (smart eviction).  Fig. 6 evaluates the
two mechanisms separately and combined, so the policy takes independent
``admission`` and ``eviction`` switches.

The policy itself is score-agnostic: scores are precomputed per request
and passed through the simulator, so the same class serves the GMM
engine, the LSTM baseline, or any other scorer.  :class:`GmmCachePolicy`
and :class:`LstmCachePolicy` are thin named aliases used in result
tables.
"""

from __future__ import annotations

from repro.cache.policies.base import ReplacementPolicy, argmin_way


class ScoreBasedPolicy(ReplacementPolicy):
    """Admission/eviction driven by a per-request score.

    Parameters
    ----------
    threshold:
        Admission cut: a missing page is cached only when its score is
        >= ``threshold``.  Ignored when ``admission`` is False.
    admission:
        Enable smart caching (bypass low-score pages).
    eviction:
        Enable smart eviction (victim = lowest stored score); when
        False the victim falls back to LRU order, reproducing the
        paper's "GMM caching-only" configuration.

    A hit only refreshes recency: the paper's engine skips the GMM
    entirely on hits (Fig. 4), so the stored score is the one the
    block was filled with.
    """

    name = "score"

    def __init__(
        self,
        threshold: float = 0.0,
        admission: bool = True,
        eviction: bool = True,
    ) -> None:
        if not admission and not eviction:
            raise ValueError(
                "enable at least one of admission/eviction; with both"
                " off this is plain LRU"
            )
        self.threshold = float(threshold)
        self.admission = bool(admission)
        self.eviction = bool(eviction)

    def admit(self, page, score, is_write, access_index):
        """Smart caching: admit only pages predicted hot enough."""
        if not self.admission:
            return True
        return score >= self.threshold

    def fill_meta(self, page, score, access_index):
        """Store the request's score with the block (Fig. 4 table)."""
        return score

    def select_victim(self, cache, set_index, access_index):
        """Smart eviction: lowest score; LRU fallback when disabled."""
        if self.eviction:
            return argmin_way(cache.meta[set_index])
        return argmin_way(cache.stamp[set_index])

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(threshold={self.threshold:.3g},"
            f" admission={self.admission}, eviction={self.eviction})"
        )


class GmmCachePolicy(ScoreBasedPolicy):
    """Score policy fed by the GMM engine (the paper's contribution)."""

    name = "gmm"


class LstmCachePolicy(ScoreBasedPolicy):
    """Score policy fed by the LSTM baseline engine (Sec. 5.3)."""

    name = "lstm"
