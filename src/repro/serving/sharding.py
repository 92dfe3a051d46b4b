"""Sharded cache planes for the serving loop.

One logical DRAM cache, labelled into ``n_shards`` shards for
metrics and fault injection, and held in one or more
:class:`~repro.cache.setassoc.SetAssociativeCache` *planes* that the
serving loop replays independently.  Two modes:

``hash`` -- *exact* set interleaving.  Shard ``page % n_shards``
labels a fixed group of the sets of one full-geometry plane: the
global set index is ``page % n_sets`` and ``n_shards`` divides
``n_sets``, so set ``s`` belongs to shard ``s % n_shards``.  The
plane is the unsharded cache itself, so the serving loop is
*bit-identical* to a single-shot replay -- the property the serving
equivalence test asserts.

``tenant`` -- isolation partitioning.  Each tenant address partition
(``page // partition_pages``) is labelled shard
``tenant % n_shards`` and owns that shard's plane of ``1/n_shards``
of the capacity.  This deliberately changes behaviour (no
cross-tenant interference), so it trades the exactness guarantee for
isolation.
"""

from __future__ import annotations

import numpy as np

from repro.cache.setassoc import CacheGeometry, SetAssociativeCache


class ShardedCachePlanes:
    """The planes plus the routing arithmetic.

    Parameters
    ----------
    geometry:
        The *logical* (total) cache geometry.
    n_shards:
        Number of shard labels; it must divide the geometry's set
        count.
    mode:
        ``"hash"`` or ``"tenant"`` (see module docstring).
    partition_pages:
        Tenant partition stride (``tenant`` mode routing).

    ``caches`` holds one full-geometry plane in ``hash`` mode and one
    ``1/n_shards`` plane per shard in ``tenant`` mode; the serving
    loop replays them in place.
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
        n_planes = 1 if mode == "hash" else self.n_shards
        self.plane_geometry = CacheGeometry(
            capacity_bytes=geometry.capacity_bytes // n_planes,
            block_bytes=geometry.block_bytes,
            associativity=geometry.associativity,
        )
        self.caches = [
            SetAssociativeCache(self.plane_geometry)
            for _ in range(n_planes)
        ]

    def route(
        self, pages: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-access ``(shard_id, plane_id)`` arrays.

        ``hash`` mode labels ``page % n_shards`` and sends every
        access to the one plane; ``tenant`` mode's label is the
        plane.  Pages are their own tags on every plane.
        """
        pages = np.asarray(pages)
        if self.mode == "hash":
            shard_ids = pages % self.n_shards
            return shard_ids, np.zeros_like(shard_ids)
        shard_ids = (pages // self.partition_pages) % self.n_shards
        return shard_ids, shard_ids

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
            f" plane_sets={self.plane_geometry.n_sets},"
            f" occupancy={self.occupancy()}/{self.geometry.n_blocks})"
        )
