"""Least Frequently Used replacement."""

from __future__ import annotations

from repro.cache.policies.base import ReplacementPolicy, argmin_way


class LfuPolicy(ReplacementPolicy):
    """In-cache LFU.

    Each block's ``meta`` counts its hits since fill; the victim is the
    least-counted way.  LFU is the closest classical analogue of the
    GMM score policy -- both approximate access *frequency* -- so it
    anchors the policy ablation.
    """

    name = "lfu"

    def on_hit(self, cache, set_index, way, access_index, score):
        """Count the hit."""
        cache.stamp[set_index][way] = float(access_index)
        cache.meta[set_index][way] += 1.0

    def fill_meta(self, page, score, access_index):
        """A fresh block starts with one (its filling miss)."""
        return 1.0

    def select_victim(self, cache, set_index, access_index):
        """Evict the least frequently hit way."""
        return argmin_way(cache.meta[set_index])
