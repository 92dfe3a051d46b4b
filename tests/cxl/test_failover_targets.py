"""Where a failed device's traffic lands: ``CxlFabric._failover_targets``.

1,000 consecutive pages fail over from a four-device fabric onto its
healthy devices, for each single failed device and for the pair a
correlated blast takes down.  Score-aware failover cuts the marginals
into one bucket per healthy device over their *distinct* values, so
it needs at least as many distinct values as there are healthy
devices; with fewer, the traffic spreads by page modulo, as it does
without marginals.
"""

import numpy as np
import pytest

from repro.core.config import FabricTopology
from repro.cxl.fabric import CxlFabric

#: Links fastest first: device 1, 3, 2, 0.
LINK_OVERHEAD_NS = (250, 100, 200, 150)
PAGES = np.arange(1_000)

#: Failed device sets: each single device, and the pair of
#: ``tests/chaos/test_recovery.py``'s correlated blast.
FAILED = [(0,), (1,), (2,), (3,), (1, 2)]


def _failed_id(failed):
    return "down-" + "-".join(map(str, failed))


def _healthy(failed):
    return np.array([d for d in range(4) if d not in failed])


def _targets(marginals, healthy):
    fabric = CxlFabric(
        FabricTopology(n_devices=4, link_overhead_ns=LINK_OVERHEAD_NS)
    )
    return fabric._failover_targets(PAGES, marginals, healthy)


def _spread(targets, healthy):
    return [int(np.count_nonzero(targets == d)) for d in healthy]


def _even(n):
    """Page-modulo spread of :data:`PAGES` over ``n`` devices."""
    return [len(range(i, PAGES.size, n)) for i in range(n)]


@pytest.mark.parametrize("failed", FAILED, ids=_failed_id)
def test_without_marginals_spreads_by_page(failed):
    healthy = _healthy(failed)
    assert _spread(_targets(None, healthy), healthy) == _even(healthy.size)


@pytest.mark.parametrize(
    "failed,n_values",
    [
        (failed, n_values)
        for failed in FAILED
        for n_values in range(1, 4 - len(failed))
    ],
    ids=lambda v: _failed_id(v) if isinstance(v, tuple) else str(v),
)
def test_too_few_distinct_marginals_spread_by_page(failed, n_values):
    healthy = _healthy(failed)
    marginals = (PAGES % n_values).astype(np.float64)
    targets = _targets(marginals, healthy)
    assert _spread(targets, healthy) == _even(healthy.size)
    np.testing.assert_array_equal(targets, _targets(None, healthy))


@pytest.mark.parametrize("failed", FAILED, ids=_failed_id)
def test_enough_distinct_marginals_send_the_hottest_to_the_fastest_link(
    failed,
):
    healthy = _healthy(failed)
    n = healthy.size
    marginals = (PAGES % n).astype(np.float64)
    targets = _targets(marginals, healthy)
    fastest_first = sorted(healthy, key=lambda d: LINK_OVERHEAD_NS[d])
    # The hottest value (n - 1) lands on the fastest healthy link,
    # the coldest (0) on the slowest.
    expected = np.array(fastest_first)[n - 1 - PAGES % n]
    np.testing.assert_array_equal(targets, expected)
