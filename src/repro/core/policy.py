"""Strategy selection: the four configurations of Fig. 6.

The paper evaluates LRU against three GMM deployments -- smart caching
only, smart eviction only, and both.  This module maps strategy names
to configured policy objects.

The two GMM mechanisms consume different score views (see
:meth:`repro.core.engine.GmmPolicyEngine.page_scores`):

* admission compares the full 2-D score of the *current request*
  against the threshold -- temporal context included;
* eviction ranks resident blocks by the time-marginalised per-page
  score, so blocks filled at different times stay comparable.

``gmm-caching-eviction`` therefore uses :class:`CombinedIcgmmPolicy`,
which admits on the request score stream while storing the marginal
page score as eviction metadata.
"""

from __future__ import annotations

from repro.cache.policies import (
    GmmCachePolicy,
    LruPolicy,
    ReplacementPolicy,
)
from repro.cache.policies.kernels import (
    ListSpan,
    declares_list_span,
    score_list_span,
)
from repro.core.config import STRATEGIES


class CombinedIcgmmPolicy(GmmCachePolicy):
    """Smart caching + smart eviction with split score views.

    Parameters
    ----------
    threshold:
        Admission cut-off over the 2-D request scores.
    page_scores:
        Mapping from page index to its time-marginalised score; stored
        as the block's eviction metadata at fill time.  Pages missing
        from the mapping fall back to the request score.
    """

    name = "gmm"

    def __init__(
        self, threshold: float, page_scores: dict[int, float]
    ) -> None:
        super().__init__(
            threshold=threshold, admission=True, eviction=True
        )
        self._page_scores = page_scores

    def fill_meta(self, page, score, access_index):
        """Store the page's marginal score for coherent eviction."""
        return self._page_scores.get(page, score)


# The combined policy overrides fill_meta (a dict lookup), so the
# ScoreBasedPolicy declaration does not cover it; this one adds the
# lookup.  It lives here, not in the kernels module, to avoid an
# import cycle.
@declares_list_span(CombinedIcgmmPolicy)
def _combined_list_span(policy: CombinedIcgmmPolicy) -> ListSpan:
    return score_list_span(policy)._replace(
        fill_scores=policy._page_scores
    )


def strategy_uses_scores(strategy: str) -> bool:
    """Whether a strategy needs GMM scores at simulation time."""
    _validate(strategy)
    return strategy != "lru"


def strategy_score_view(strategy: str) -> str | None:
    """Which score stream a strategy consumes from the simulator.

    Returns ``"request"`` (2-D scores; drives admission),
    ``"page"`` (time-marginalised scores; drives eviction metadata),
    or ``None`` for LRU.  The combined strategy consumes the request
    stream and gets its page view through
    :class:`CombinedIcgmmPolicy`.
    """
    _validate(strategy)
    if strategy == "lru":
        return None
    if strategy == "gmm-eviction":
        return "page"
    return "request"


def _validate(strategy: str) -> None:
    if strategy not in STRATEGIES:
        raise ValueError(
            f"unknown strategy {strategy!r}; choose from {STRATEGIES}"
        )


def build_policy(
    strategy: str,
    admission_threshold: float = 0.0,
    page_scores: dict[int, float] | None = None,
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
    page_scores:
        Marginal per-page scores; required by
        ``gmm-caching-eviction``.
    """
    _validate(strategy)
    if strategy == "lru":
        return LruPolicy()
    if strategy == "gmm-caching":
        return GmmCachePolicy(
            threshold=admission_threshold,
            admission=True,
            eviction=False,
        )
    if strategy == "gmm-eviction":
        return GmmCachePolicy(
            threshold=admission_threshold,
            admission=False,
            eviction=True,
        )
    if page_scores is None:
        raise ValueError(
            "gmm-caching-eviction requires page_scores (the"
            " time-marginalised per-page view)"
        )
    return CombinedIcgmmPolicy(
        threshold=admission_threshold, page_scores=page_scores
    )
