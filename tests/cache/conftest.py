"""Fixtures shared by the simulator suites."""

import numpy as np
import pytest

from repro.cache.setassoc import SetAssociativeCache, simulate
from repro.cache.simulate_fast import simulate_fast


def _replay(runner, geometry, make, pages, is_write, scores, warmup,
            step=None):
    """One run, or with ``step`` a chunked resumable replay through
    ``index_offset``, recording per-access outcome codes."""
    cache = SetAssociativeCache(geometry)
    policy = make(pages, int(pages.max()) + 1)
    n = pages.shape[0]
    outcome = np.empty(n, dtype=np.uint8)
    if step is None:
        stats = runner(
            cache, policy, pages, is_write,
            scores=scores, warmup_fraction=warmup, outcome=outcome,
        )
        return stats, cache, outcome
    assert warmup == 0.0  # index_offset replays count every access
    total = None
    for start in range(0, n, step):
        stop = min(start + step, n)
        stats = runner(
            cache, policy,
            pages[start:stop], is_write[start:stop],
            scores=scores[start:stop],
            index_offset=start,
            outcome=outcome[start:stop],
        )
        total = stats if total is None else total.merge(stats)
    return total, cache, outcome


def _assert_identical(reference, other, context):
    (ref_stats, ref_cache, ref_out) = reference
    (stats, cache, out) = other
    assert ref_stats == stats, f"{context}: counters diverge"
    for plane in ("tags", "dirty", "meta", "stamp"):
        np.testing.assert_array_equal(
            getattr(ref_cache, plane),
            getattr(cache, plane),
            err_msg=f"{context}: {plane}",
        )
    np.testing.assert_array_equal(
        ref_out, out, err_msg=f"{context}: outcomes"
    )


@pytest.fixture
def assert_fast_parity():
    """Checker: a stream through ``simulate_fast`` (one-shot, or
    chunked with ``step``) must match one ``simulate`` run bit for
    bit -- counters, all four cache planes and outcome codes.
    Returns the reference ``(stats, cache, outcome)``."""

    def check(geometry, make, pages, is_write, scores, warmup,
              context, step=None):
        reference = _replay(
            simulate, geometry, make, pages, is_write, scores, warmup
        )
        fast = _replay(
            simulate_fast, geometry, make, pages, is_write, scores,
            warmup, step=step,
        )
        _assert_identical(reference, fast, context)
        return reference

    return check
