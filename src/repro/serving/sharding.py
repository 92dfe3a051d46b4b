"""Sharded cache planes for the serving loop.

One logical DRAM cache is split into ``n_shards`` independent
:class:`~repro.cache.setassoc.SetAssociativeCache` planes so the
serving loop can simulate (and later, scale-out PRs can distribute)
them independently.  Two partitioning modes:

``hash`` -- *exact* set interleaving.  Global set ``s`` lives in
shard ``s % n_shards`` as local set ``s // n_shards``.  Because the
global set index is ``page % n_sets`` and ``n_shards`` divides
``n_sets``, this is equivalent to routing page ``p`` to shard
``p % n_shards`` with local tag ``p // n_shards``: two pages share a
(shard, local set, tag) exactly when they share a (global set, tag).
All simulator and policy state is per-set, so the union of the shard
planes behaves *bit-identically* to the unsharded cache -- the
property the serving equivalence test (and the acceptance bench)
asserts.

``tenant`` -- isolation partitioning.  Each tenant address partition
(``page // partition_pages``) owns one plane of ``1/n_shards`` of the
capacity.  This deliberately changes behaviour (no cross-tenant
interference), so it trades the exactness guarantee for isolation.
"""

from __future__ import annotations

import numpy as np

from repro.cache.setassoc import CacheGeometry, SetAssociativeCache


class ShardedCachePlanes:
    """The shard planes plus the routing arithmetic.

    Parameters
    ----------
    geometry:
        The *logical* (total) cache geometry.
    n_shards:
        Number of planes; in ``hash`` mode it must divide the
        geometry's set count.
    mode:
        ``"hash"`` or ``"tenant"`` (see module docstring).
    partition_pages:
        Tenant partition stride (``tenant`` mode routing).

    The planes are plain in-process caches; the serving loop's worker
    threads replay them in place.
    """

    def __init__(
        self,
        geometry: CacheGeometry,
        n_shards: int,
        mode: str = "hash",
        partition_pages: int = 1 << 20,
    ) -> None:
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        if mode not in ("hash", "tenant"):
            raise ValueError(f"unknown sharding mode {mode!r}")
        if partition_pages < 1:
            raise ValueError("partition_pages must be >= 1")
        if geometry.n_sets % n_shards != 0:
            raise ValueError(
                f"n_shards={n_shards} must divide the set count"
                f" ({geometry.n_sets}) so capacity splits evenly"
            )
        self.geometry = geometry
        self.n_shards = int(n_shards)
        self.mode = mode
        self.partition_pages = int(partition_pages)
        shard_geometry = CacheGeometry(
            capacity_bytes=geometry.capacity_bytes // n_shards,
            block_bytes=geometry.block_bytes,
            associativity=geometry.associativity,
        )
        self.shard_geometry = shard_geometry
        self.caches = [
            SetAssociativeCache(shard_geometry) for _ in range(n_shards)
        ]

    def route(
        self, pages: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-access ``(shard_id, local_page)`` arrays.

        ``hash`` mode divides the page by the shard count so the
        local page doubles as a collision-free tag (see module
        docstring); ``tenant`` mode keeps the global page (tags are
        unique within a tenant partition already).
        """
        pages = np.asarray(pages)
        if self.mode == "hash":
            shard_ids = pages % self.n_shards
            local_pages = pages // self.n_shards
        else:
            shard_ids = (
                pages // self.partition_pages
            ) % self.n_shards
            local_pages = pages
        return shard_ids, local_pages

    def partition(self, shard_ids: np.ndarray) -> list[np.ndarray]:
        """Positions per shard, preserving stream order within each.

        Order preservation matters: per-set access order is the only
        order the simulator is sensitive to, and every set lives in
        exactly one shard.
        """
        return [
            np.nonzero(shard_ids == shard)[0]
            for shard in range(self.n_shards)
        ]

    def occupancy(self) -> int:
        """Valid blocks across all planes."""
        return sum(cache.occupancy() for cache in self.caches)

    def __repr__(self) -> str:
        return (
            f"ShardedCachePlanes(n_shards={self.n_shards},"
            f" mode={self.mode!r},"
            f" shard_sets={self.shard_geometry.n_sets},"
            f" occupancy={self.occupancy()}/{self.geometry.n_blocks})"
        )
