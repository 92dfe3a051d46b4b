"""Cache policy zoo.

:class:`LruPolicy` is the paper's baseline; the score-driven
:class:`GmmCachePolicy` (admission / eviction / both) is its
contribution; the rest are classical baselines used by the policy
ablation bench, plus the offline :class:`BeladyPolicy` oracle that
upper-bounds any online policy.
"""

from repro.cache.policies.base import ReplacementPolicy
from repro.cache.policies.belady import BeladyPolicy, compute_next_use
from repro.cache.policies.clock import ClockPolicy
from repro.cache.policies.fifo import FifoPolicy
from repro.cache.policies.gmm_policy import (
    GmmCachePolicy,
    LstmCachePolicy,
    ScoreBasedPolicy,
)
from repro.cache.policies.lfu import LfuPolicy
from repro.cache.policies.lru import LruPolicy
from repro.cache.policies.random_ import RandomPolicy
from repro.cache.policies.slru import SlruPolicy
from repro.cache.policies.twoq import TwoQPolicy

#: Policies constructible without extra context, keyed by name.
SIMPLE_POLICIES = {
    "lru": LruPolicy,
    "fifo": FifoPolicy,
    "random": RandomPolicy,
    "lfu": LfuPolicy,
    "clock": ClockPolicy,
    "slru": SlruPolicy,
    "2q": TwoQPolicy,
}


def make_policy(name: str, **kwargs) -> ReplacementPolicy:
    """Instantiate a policy from :data:`SIMPLE_POLICIES` by name.

    Score-based and oracle policies need runtime context (a threshold,
    the page stream) and are constructed directly instead.
    """
    try:
        cls = SIMPLE_POLICIES[name]
    except KeyError:
        raise ValueError(
            f"unknown policy {name!r}; choose from"
            f" {sorted(SIMPLE_POLICIES)}"
        ) from None
    return cls(**kwargs)


__all__ = [
    "BeladyPolicy",
    "ClockPolicy",
    "FifoPolicy",
    "GmmCachePolicy",
    "LfuPolicy",
    "LruPolicy",
    "LstmCachePolicy",
    "RandomPolicy",
    "ReplacementPolicy",
    "SIMPLE_POLICIES",
    "ScoreBasedPolicy",
    "SlruPolicy",
    "TwoQPolicy",
    "compute_next_use",
    "make_policy",
]
