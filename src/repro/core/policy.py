"""Strategy selection: the four configurations of Fig. 6.

The paper evaluates LRU against three GMM deployments -- smart caching
only, smart eviction only, and both.  This module maps strategy names
to configured policy objects and to the score streams they replay.

The two GMM mechanisms consume different score views (see
:meth:`repro.core.engine.GmmPolicyEngine.page_scores`):

* admission compares the full 2-D score of the *current request*
  against the threshold -- temporal context included;
* eviction ranks resident blocks by the time-marginalised per-page
  score, so blocks filled at different times stay comparable.

A replay therefore carries up to two per-access streams: the scores
the policy decides on and the scores a fill stores as eviction
metadata (:func:`strategy_views`).  ``gmm-caching-eviction`` admits
on the request stream and fills from the page stream.
"""

from __future__ import annotations

from repro.cache.policies import (
    GmmCachePolicy,
    LruPolicy,
    ReplacementPolicy,
)
from repro.core.config import STRATEGIES

#: strategy -> (score view, fill view); ``None`` is no stream (the
#: fill view ``None`` stores the score view).
_VIEWS = {
    "lru": (None, None),
    "gmm-caching": ("request", None),
    "gmm-eviction": ("page", None),
    "gmm-caching-eviction": ("request", "page"),
}


def strategy_views(strategy: str) -> tuple[str | None, str | None]:
    """The ``(score view, fill view)`` a strategy's replay consumes.

    Each view is ``"request"`` (the 2-D request scores),
    ``"page"`` (the time-marginalised page scores) or ``None``.  The
    score view feeds the policy's decisions; the fill view is the
    replay's ``fill_scores`` (what a fill stores as eviction
    metadata), ``None`` meaning the score view itself.
    """
    _validate(strategy)
    return _VIEWS[strategy]


def _validate(strategy: str) -> None:
    if strategy not in STRATEGIES:
        raise ValueError(
            f"unknown strategy {strategy!r}; choose from {STRATEGIES}"
        )


def build_policy(
    strategy: str,
    admission_threshold: float = 0.0,
) -> ReplacementPolicy:
    """Instantiate the policy for a Fig. 6 strategy.

    Parameters
    ----------
    strategy:
        One of ``lru``, ``gmm-caching``, ``gmm-eviction``,
        ``gmm-caching-eviction``.
    admission_threshold:
        Sec. 3.2 score cut-off; used by the two admission-enabled
        strategies.
    """
    _validate(strategy)
    if strategy == "lru":
        return LruPolicy()
    return GmmCachePolicy(
        threshold=admission_threshold,
        admission=strategy != "gmm-eviction",
        eviction=strategy != "gmm-caching",
    )
