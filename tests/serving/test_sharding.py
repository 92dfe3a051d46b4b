"""Tests for the sharded cache planes."""

import numpy as np
import pytest

from repro.cache.policies import GmmCachePolicy, LruPolicy
from repro.cache.setassoc import CacheGeometry, SetAssociativeCache
from repro.cache.simulate_fast import simulate_fast
from repro.serving.sharding import ShardedCachePlanes


def _geometry(n_sets=64, ways=4):
    return CacheGeometry(
        capacity_bytes=n_sets * ways * 4096,
        block_bytes=4096,
        associativity=ways,
    )


class TestConstruction:
    def test_capacity_splits_evenly(self):
        """Tenant planes split the capacity; hash mode keeps one
        full-geometry plane whatever the shard count."""
        tenant = ShardedCachePlanes(
            _geometry(64, 4), n_shards=4, mode="tenant"
        )
        assert len(tenant.caches) == 4
        assert tenant.plane_geometry.n_sets == 16
        assert (
            tenant.plane_geometry.capacity_bytes * 4
            == tenant.geometry.capacity_bytes
        )
        hashed = ShardedCachePlanes(_geometry(64, 4), n_shards=4)
        assert len(hashed.caches) == 1
        assert hashed.plane_geometry == hashed.geometry

    def test_rejects_indivisible_shards(self):
        with pytest.raises(ValueError, match="divide"):
            ShardedCachePlanes(_geometry(30, 4), n_shards=4)

    def test_rejects_bad_mode(self):
        with pytest.raises(ValueError, match="mode"):
            ShardedCachePlanes(_geometry(), n_shards=2, mode="modulo")

    def test_single_shard_is_identity(self):
        planes = ShardedCachePlanes(_geometry(), n_shards=1)
        pages = np.array([5, 77, 123456])
        shard_ids, plane_ids = planes.route(pages)
        assert (shard_ids == 0).all()
        assert (plane_ids == 0).all()


class TestHashRouting:
    def test_shard_labels_a_fixed_group_of_sets(self):
        """Every access goes to the one plane, and a shard label is a
        function of the set (the exactness precondition: per-shard
        figures are those of a fixed group of the plane's sets)."""
        geometry = _geometry(64, 4)
        planes = ShardedCachePlanes(geometry, n_shards=4)
        pages = np.arange(0, 4096)
        shard_ids, plane_ids = planes.route(pages)
        assert (plane_ids == 0).all()
        sets = pages % geometry.n_sets
        np.testing.assert_array_equal(shard_ids, sets % 4)

    def test_partition_preserves_order(self):
        planes = ShardedCachePlanes(_geometry(), n_shards=4)
        pages = np.array([4, 8, 0, 12, 5, 1, 9, 16])
        shard_ids, _ = planes.route(pages)
        positions = planes.partition(shard_ids)
        np.testing.assert_array_equal(positions[0], [0, 1, 2, 3, 7])
        np.testing.assert_array_equal(positions[1], [4, 5, 6])
        # Within a shard the positions are ascending (stream order).
        for pos in positions:
            assert (np.diff(pos) > 0).all() if pos.size > 1 else True

    @pytest.mark.parametrize("make_policy", [
        lambda: LruPolicy(),
        lambda: GmmCachePolicy(threshold=0.2),
    ])
    def test_hash_sharding_is_exact(self, make_policy):
        """The one plane under chunked resumable replay == a split
        layout of four 16-set planes with ``p // 4`` tags and
        per-shard cursors, counter for counter and block for block."""
        rng = np.random.default_rng(3)
        n = 20000
        pages = rng.integers(0, 900, n)
        writes = rng.random(n) < 0.3
        scores = rng.standard_normal(n)
        geometry = _geometry(64, 4)

        split = [
            SetAssociativeCache(_geometry(16, 4)) for _ in range(4)
        ]
        split_policies = [make_policy() for _ in range(4)]
        split_cursors = [0] * 4
        expected = None
        planes = ShardedCachePlanes(geometry, n_shards=4)
        policy = make_policy()
        merged = None
        for start in range(0, n, 4096):
            stop = min(start + 4096, n)
            c_pages = pages[start:stop]
            c_writes = writes[start:stop]
            c_scores = scores[start:stop]
            shard_ids, plane_ids = planes.route(c_pages)
            for shard, positions in enumerate(
                planes.partition(shard_ids)
            ):
                if positions.size == 0:
                    continue
                part = simulate_fast(
                    split[shard],
                    split_policies[shard],
                    c_pages[positions] // 4,
                    c_writes[positions],
                    scores=c_scores[positions],
                    index_offset=split_cursors[shard],
                )
                split_cursors[shard] += int(positions.size)
                expected = (
                    part if expected is None else expected.merge(part)
                )
            assert (plane_ids == 0).all()
            part = simulate_fast(
                planes.caches[0],
                policy,
                c_pages,
                c_writes,
                scores=c_scores,
                index_offset=start,
            )
            merged = part if merged is None else merged.merge(part)
        assert merged == expected
        # The resident pages agree (split tags map back to pages).
        resident = set()
        for shard, cache in enumerate(split):
            resident |= {
                tag * 4 + shard for tag in cache.resident_pages()
            }
        assert resident == planes.caches[0].resident_pages()
        assert planes.occupancy() == sum(
            cache.occupancy() for cache in split
        )


class TestTenantRouting:
    def test_routes_by_partition(self):
        planes = ShardedCachePlanes(
            _geometry(), n_shards=2, mode="tenant",
            partition_pages=1000,
        )
        pages = np.array([5, 1005, 2005, 3005])
        shard_ids, plane_ids = planes.route(pages)
        np.testing.assert_array_equal(shard_ids, [0, 1, 0, 1])
        np.testing.assert_array_equal(plane_ids, shard_ids)
