"""Random replacement."""

from __future__ import annotations

import numpy as np

from repro.cache.policies.base import ReplacementPolicy


class RandomPolicy(ReplacementPolicy):
    """Evict a uniformly random way.

    Random replacement is immune to LRU's pathological looping
    patterns, which makes it a useful reference point in the policy
    ablation (it bounds how much of the GMM's win comes merely from
    *not being recency-based*).
    """

    name = "random"

    def __init__(self, rng: np.random.Generator | None = None) -> None:
        self._rng = rng if rng is not None else np.random.default_rng(0)

    def select_victim(self, cache, set_index, access_index):
        """Evict a random way."""
        return int(self._rng.integers(cache.geometry.associativity))
