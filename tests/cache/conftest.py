"""Fixtures shared by the simulator suites."""

import sys

import pytest


@pytest.fixture
def vector_rounds(monkeypatch):
    """Records every ``simulate_fast._process_round`` call the test makes.

    A suite whose subject is a vector mechanism asserts on it, so a
    round-cutoff change that sends its rounds to the scalar tail fails
    loudly instead of quietly testing the tail twice.
    """
    # The package re-exports simulate_fast the *function* under the
    # module's dotted name, so patch the module object directly.
    module = sys.modules["repro.cache.simulate_fast"]
    inner = module._process_round
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, "_process_round", counting)
    return calls
