"""Shared fixtures: preset data, zero-table paths and empty caches."""

from pathlib import Path

import pytest

from zerobound import bounds, cli, newform, presets, selberg

DATA_DIR = Path(__file__).parent / "data"

#: every functools cache of the package, as test_every_cache_is_bounded_and_emptied_per_test checks
CACHES = (
    bounds._window, bounds._factor_pieces, selberg._factor_pass,
    selberg._tail_sum, newform._weight_datum, cli._build_parser,
)


def empty_caches():
    """cache_clear() each of CACHES."""
    for cache in CACHES:
        cache.cache_clear()


@pytest.fixture(autouse=True)
def empty_memos():
    """Start each test with every cache empty, so call counts start cold."""
    empty_caches()


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
