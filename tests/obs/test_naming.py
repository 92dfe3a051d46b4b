"""Metric-name lint: every family obeys snake_case + unit suffix.

Two layers of enforcement: a static sweep over the instrument
registrations in the source tree (catches names on paths no test
exercises), and a dynamic check over the registries of fully wired
fabric and serving runs (catches names built at runtime).  The same
static sweep keeps ``repro top``'s headline list to families the
source still registers.
"""

import pathlib
import re

from repro.core.config import (
    FabricTopology,
    ServingConfig,
)
from repro.cxl.fabric import CxlFabric
from repro.obs import Telemetry
from repro.obs.dashboard import _HEADLINE_ORDER
from repro.obs.registry import validate_metric_name
from repro.serving import IcgmmCacheService

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"

#: Quoted first argument of a counter/gauge/histogram registration.
_REGISTRATION = re.compile(
    r"\.(?:counter|gauge|histogram)\(\s*\n?\s*\"([^\"]+)\""
)


def _source_registrations() -> set[str]:
    found = set()
    for path in sorted(SRC.rglob("*.py")):
        found.update(_REGISTRATION.findall(path.read_text()))
    return found


def test_source_registrations_pass_the_lint():
    found = _source_registrations()
    assert found, "static sweep must discover registrations"
    for name in sorted(found):
        validate_metric_name(name)


def test_top_headlines_name_registered_families():
    """``repro top`` lists only families the source still registers."""
    missing = set(_HEADLINE_ORDER) - _source_registrations()
    assert not missing


def test_fabric_registry_names_pass_the_lint(obs_workload):
    config, _, pages, writes = obs_workload
    telemetry = Telemetry(seed=0)
    fabric = CxlFabric(
        FabricTopology(n_devices=2), config=config, telemetry=telemetry
    )
    try:
        fabric.bind("lru", 0.0)
        fabric.ingest(pages[:2_000], writes[:2_000])
        fabric.results()
    finally:
        fabric.close()
    families = telemetry.registry.as_dicts()
    assert families
    for family in families:
        validate_metric_name(family["name"])


def test_serving_registry_names_pass_the_lint(obs_workload):
    config, engine, pages, writes = obs_workload
    telemetry = Telemetry(seed=0)
    service = IcgmmCacheService(
        engine,
        config=config,
        serving=ServingConfig(
            chunk_requests=2_000,
            n_shards=4,
            sharding="hash",
            strategy="gmm-caching-eviction",
        ),
        telemetry=telemetry,
    )
    try:
        service.ingest(pages, writes)
    finally:
        service.close()
    families = telemetry.registry.as_dicts()
    assert families
    for family in families:
        validate_metric_name(family["name"])
