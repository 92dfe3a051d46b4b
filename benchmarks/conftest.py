"""Shared fixtures for the benchmark harness.

The expensive artefact -- the full 7-workload x 4-strategy evaluation
suite -- is computed once per session and shared by the Fig. 6 and
Table 1 benches.  Every bench writes its reproduction table to
``benchmarks/output/`` (and prints it, visible with ``pytest -s``), so
the regenerated rows survive regardless of capture settings.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.core.config import GmmEngineConfig, IcgmmConfig
from repro.core.experiment import run_suite

#: Directory collecting the regenerated tables/figures.
OUTPUT_DIR = Path(__file__).parent / "output"


@pytest.fixture(scope="session")
def fast_config():
    """Reduced profile for the ablation benches (seconds, not minutes).

    A factory: ``fast_config(**overrides)`` builds an
    :class:`IcgmmConfig` with shorter traces and a smaller mixture;
    the headline Fig. 6/Table 1 benches use the full default profile
    instead.
    """

    def make(**overrides) -> IcgmmConfig:
        overrides.setdefault("trace_length", 120_000)
        overrides.setdefault(
            "gmm",
            GmmEngineConfig(
                n_components=24, max_iter=30, max_train_samples=15_000
            ),
        )
        return IcgmmConfig(**overrides)

    return make


@pytest.fixture(scope="session")
def suite_result():
    """The full evaluation matrix at the default (scaled) profile."""
    return run_suite()


@pytest.fixture(scope="session")
def report():
    """Writer that persists and echoes a reproduction artefact."""
    OUTPUT_DIR.mkdir(exist_ok=True)

    def write(name: str, text: str) -> None:
        path = OUTPUT_DIR / f"{name}.txt"
        path.write_text(text + "\n")
        print(f"\n[{name}]\n{text}")

    return write
