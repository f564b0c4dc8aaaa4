"""Test-suite settings: hypothesis draws the same examples on every run.

`derandomize` seeds each property test from its own source, and no example
database carries failures over between runs, so a Tier-1 run is
reproducible.  Per-test ``@settings`` still set ``max_examples`` and
``deadline``.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
