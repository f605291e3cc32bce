"""Shared fixtures: preset data, zero-table paths and empty memos."""

from pathlib import Path

import pytest

from zerobound import bounds, newform, presets

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture(autouse=True)
def empty_window_memo():
    """Start each test with no memoized window or newform strip, so call counts start cold."""
    bounds._window.cache_clear()
    newform.newform_strip.cache_clear()


@pytest.fixture(scope="session")
def zeta_pair():
    """(data, strip) for the Riemann-zeta-shaped datum."""
    return presets.zeta()


@pytest.fixture(scope="session")
def nf12_pair():
    """(data, strip) for the level-1 weight-12 newform."""
    return presets.newform(1, 12)


@pytest.fixture(scope="session")
def zeta_zero_path():
    path = DATA_DIR / "zeta_zeros_200.txt"
    if not path.exists():
        pytest.fail("missing fixture tests/data/zeta_zeros_200.txt "
                    "(regenerate with scripts/fetch_zero_data.py zeta)")
    return path


@pytest.fixture(scope="session")
def delta_zero_path():
    path = DATA_DIR / "delta_zeros_200.txt"
    if not path.exists():
        pytest.fail("missing fixture tests/data/delta_zeros_200.txt "
                    "(regenerate with scripts/fetch_zero_data.py delta)")
    return path
