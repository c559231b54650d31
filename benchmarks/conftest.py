"""Shared fixtures for the figure-reproduction benchmarks.

Scale selection: ``REPRO_SCALE=small`` (default, seconds per figure) or
``REPRO_SCALE=paper`` (the paper's 10^8-10^9-vertex sweeps, minutes).
Rendered series tables are written to ``results/`` next to this file.
"""

import os

import pytest

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "..", "results")


@pytest.fixture(scope="session")
def scale() -> str:
    value = os.environ.get("REPRO_SCALE", "small")
    if value not in ("small", "paper"):
        raise ValueError(f"REPRO_SCALE must be small or paper, got {value!r}")
    return value


@pytest.fixture(scope="session")
def results_dir() -> str:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    return RESULTS_DIR
