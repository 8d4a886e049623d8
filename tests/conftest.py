import pytest

from stochgeo import simengine


@pytest.fixture
def usable_cpus():
    """Worker hint for the Monte Carlo-heavy tests.  Every estimate is
    bit-identical for every hint (tests/test_workers.py, criterion 13), so
    these tests check the same numbers on as many processes as the host
    offers."""
    return simengine._usable_cpus()
