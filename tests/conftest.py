import os

import pytest
from hypothesis import settings

from combregret import FLOAT, RankSubset, regret_series_fixed

# in CI, a failing property test prints the blob that reproduces it
settings.register_profile("ci", print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")

SWEEP_EPS = 2.0**-50


@pytest.fixture(scope="session")
def k6_family():
    return [RankSubset.of(6, (1, 3, 6)), RankSubset.of(6, (1, 4, 6))]


@pytest.fixture(scope="session")
def sweep13():
    """Float series for k=5, [1,3], the full 350-day sweep."""
    return regret_series_fixed(5, RankSubset.of(5, (1, 3)), 350, FLOAT, SWEEP_EPS)


@pytest.fixture(scope="session")
def sweep135():
    return regret_series_fixed(5, RankSubset.of(5, (1, 3, 5)), 350, FLOAT, SWEEP_EPS)


@pytest.fixture(scope="session")
def exact13_t40():
    return regret_series_fixed(5, RankSubset.of(5, (1, 3)), 40)


@pytest.fixture(scope="session")
def exact135_t40():
    return regret_series_fixed(5, RankSubset.of(5, (1, 3, 5)), 40)
