"""Shared test fixtures and the Hypothesis profiles.

Tier-1 runs the `tier1` profile: every property test draws the same
examples on every run and keeps no example database, so a result repeats.
`pytest --hypothesis-profile default` selects Hypothesis's own default
profile, which draws fresh random examples and keeps failing ones in
`.hypothesis/`.  `tier1` sets no `max_examples` or `deadline`; each test
states its own.
"""

import os
from pathlib import Path

import pytest
from hypothesis import settings

import epibias

settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")


@pytest.fixture
def package_env():
    """Environment for a child interpreter that imports this checkout's epibias."""
    src = str(Path(epibias.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)
