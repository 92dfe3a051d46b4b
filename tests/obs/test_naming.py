"""Metric-name lint: every family obeys snake_case + unit suffix.

Two layers of enforcement: a static sweep over the instrument
registrations in the source tree (catches names on paths no test
exercises), and a dynamic check over the registries of fully wired
fabric and serving runs (catches names built at runtime).
"""

import pathlib
import re

from repro.core.config import (
    FabricTopology,
    ServingConfig,
)
from repro.cxl.fabric import CxlFabric
from repro.obs import Telemetry
from repro.obs.registry import validate_metric_name
from repro.serving import IcgmmCacheService

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"

#: Quoted first argument of a counter/gauge/histogram registration.
_REGISTRATION = re.compile(
    r"\.(?:counter|gauge|histogram)\(\s*\n?\s*\"([^\"]+)\""
)


def test_source_registrations_pass_the_lint():
    found = set()
    for path in sorted(SRC.rglob("*.py")):
        found.update(_REGISTRATION.findall(path.read_text()))
    assert found, "static sweep must discover registrations"
    for name in sorted(found):
        validate_metric_name(name)


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
