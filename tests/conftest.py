"""Test-suite settings: hypothesis draws the same examples on every run.

`derandomize` seeds each property test from its own source, and no example
database carries failures over between runs, so a Tier-1 run is
reproducible.  Per-test ``@settings`` still set ``max_examples`` and
``deadline``.  Every test also fails if it leaves a Python thread alive:
the worker-thread runner joins each thread it starts.
"""

import threading

import pytest
from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture(autouse=True)
def no_thread_outlives_its_test():
    before = set(threading.enumerate())
    yield
    alive = [t for t in threading.enumerate() if t not in before]
    assert not alive, f"threads left alive: {alive}"
