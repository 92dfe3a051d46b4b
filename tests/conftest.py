"""Shared fixtures for the test suite."""

import numpy as np
import pytest

from repro.traces.synthetic import ZipfSampler


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic random generator; reseeded per test."""
    return np.random.default_rng(12345)


@pytest.fixture
def rng_factory():
    """Factory for generators with caller-chosen seeds."""

    def make(seed: int) -> np.random.Generator:
        return np.random.default_rng(seed)

    return make


@pytest.fixture(scope="session")
def two_tenant_drift_stream():
    """Builder of a two-tenant stream whose second tenant drifts.

    ``build(n_phase, hot_pages, seed)`` returns ``(pages, is_write,
    boundary)`` over two phases of ``n_phase`` accesses each, every
    access drawn from one tenant or the other with equal odds.
    Tenant 0 is a stable Zipf hot set at page 0 (30 % writes); tenant
    1 lives one tenant partition up (``1 << 20`` pages, the default
    ``ServingConfig.partition_pages``, 10 % writes), and its hot set
    moves by ``4 * hot_pages`` pages at ``boundary``, the end of the
    first phase.
    """

    def build(n_phase: int, hot_pages: int, seed: int):
        partition = 1 << 20
        rng = np.random.default_rng(seed)
        stable = ZipfSampler(
            base_page=0, n_pages=hot_pages, alpha=1.2, write_fraction=0.3
        )

        def interleave(base_page: int):
            moving = ZipfSampler(
                base_page=base_page,
                n_pages=hot_pages,
                alpha=1.2,
                write_fraction=0.1,
            )
            choice = rng.random(n_phase) < 0.5
            p0, w0 = stable.sample(int(np.sum(~choice)), rng)
            p1, w1 = moving.sample(int(np.sum(choice)), rng)
            pages = np.empty(n_phase, dtype=np.int64)
            writes = np.empty(n_phase, dtype=bool)
            pages[~choice], writes[~choice] = p0, w0
            pages[choice], writes[choice] = p1, w1
            return pages, writes

        pages_a, writes_a = interleave(partition)
        pages_b, writes_b = interleave(partition + 4 * hot_pages)
        return (
            np.concatenate([pages_a, pages_b]),
            np.concatenate([writes_a, writes_b]),
            n_phase,
        )

    return build
