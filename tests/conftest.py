"""Shared fixtures for the test suite."""

import importlib

import numpy as np
import pytest


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


@pytest.fixture
def vector_rounds(monkeypatch):
    """Records every ``simulate_fast._process_round`` call the test makes.

    A test whose subject is the vector path asserts on it, so a
    round-cutoff change that sends its rounds to the scalar tail fails
    loudly instead of quietly testing the tail twice.
    """
    # The package re-exports simulate_fast the *function* under the
    # module's dotted name, so patch the module object directly.
    module = importlib.import_module("repro.cache.simulate_fast")
    inner = module._process_round
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, "_process_round", counting)
    return calls
