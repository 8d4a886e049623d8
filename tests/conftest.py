import pytest

from stochgeo import simengine


@pytest.fixture
def usable_cpus():
    """Worker hint for the Monte Carlo-heavy tests.  Every estimate is
    bit-identical for every hint (tests/test_workers.py, criterion 13), so
    these tests check the same numbers on as many processes as the host
    offers."""
    return simengine._usable_cpus()


@pytest.fixture(autouse=True)
def csp_cache_off(monkeypatch):
    """No test reads another's per-pattern log-sums: with the cache off, a
    repeated estimator call redraws its patterns, so the `==` checks across
    hints and reruns compare two computations.  The cache's own tests lift
    the cap."""
    simengine._CSP_CACHE.clear()
    monkeypatch.setattr(simengine, "_CSP_CACHE_FLOATS", 0)
    yield
    simengine._CSP_CACHE.clear()
