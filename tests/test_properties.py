"""Property tests of the public API's domain contracts, with `hypothesis`.

The shadowing module: its CSP moments, interference mean and variance over
random cell sizes, blockage models, densities, thresholds and orders, and
its input check.  The examples are derandomized and no example database is
written.  `hypothesis` also draws constants from the imported modules, so the
full suite may check other inputs than this file run alone.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochgeo import shadowing, simengine
from stochgeo.shadowing import (
    BlockageModel,
    ShadowGrid,
    interference_variance_shadowed,
    moments_shadowed,
    shadowed_mean_interference,
)
from stochgeo.simengine import SimConfig

CHECKS = settings(derandomize=True, database=None, deadline=None, max_examples=20)
MODES = ("correlated", "independent")

grids = st.sampled_from([0.5, 1.0, 2.0]).map(lambda cell: ShadowGrid(4.0, cell))
kappas = st.floats(0.0, 1.0, exclude_min=True)
blockage_densities = st.floats(0.0, 2.0)
densities = st.floats(0.0, 2.0)
thetas = st.floats(0.0, 100.0)
orders = st.floats(0.0, 3.0, exclude_min=True)
epsilons = st.floats(0.01, 2.0)


def _moments(b, theta, grid, blockage, density):
    return [moments_shadowed(b, theta, 1.0, grid, blockage, density, 4.0, mode) for mode in MODES]


@CHECKS
@given(grids, kappas, blockage_densities, densities, thetas, thetas, orders)
def test_moments_lie_in_the_unit_interval_fall_in_theta_and_order_the_modes(grid, kappa, lam_b, density, t1, t2, b):
    cor, ind = _moments(b, [min(t1, t2), max(t1, t2)], grid, BlockageModel(kappa, lam_b), density)
    for m in (cor, ind):
        assert 0.0 <= m[1] <= m[0] * (1.0 + 1e-12) and m[0] <= 1.0
    # Jensen over T in each cell: the correlated moment is the larger
    assert all(c >= i * (1.0 - 1e-12) for c, i in zip(cor, ind))


@CHECKS
@given(grids, st.booleans(), kappas, blockage_densities, densities, thetas, orders, epsilons)
def test_no_shadowing_makes_the_modes_equal(grid, unit_kappa, kappa, lam_b, density, theta, b, eps):
    blockage = BlockageModel(1.0, lam_b) if unit_kappa else BlockageModel(kappa, 0.0)
    cor, ind = _moments(b, theta, grid, blockage, density)
    assert cor == pytest.approx(ind, rel=1e-9)
    cor, ind = (interference_variance_shadowed(grid, blockage, density, 4.0, eps, mode) for mode in MODES)
    assert cor == pytest.approx(ind, rel=1e-9)


@CHECKS
@given(grids, kappas, blockage_densities, densities, epsilons)
def test_the_modes_share_the_mean_and_correlation_adds_variance(grid, kappa, lam_b, density, eps):
    blockage = BlockageModel(kappa, lam_b)
    # one mode-free mean, at most the unshadowed one since T <= 1
    mean = shadowed_mean_interference(grid, blockage, density, 4.0, eps)
    unshadowed = shadowed_mean_interference(grid, BlockageModel(1.0, lam_b), density, 4.0, eps)
    assert 0.0 <= mean <= unshadowed * (1.0 + 1e-12)
    cor, ind = (interference_variance_shadowed(grid, blockage, density, 4.0, eps, mode) for mode in MODES)
    assert cor >= ind * (1.0 - 1e-12) and ind >= 0.0


GRID, BLOCKAGE, SIM = ShadowGrid(4.0, 1.0), BlockageModel(0.5, 1.0), SimConfig(trials=10)
PUBLIC = {  # name -> (call(dens, mode, eps), the arguments it takes)
    "moments_shadowed": (lambda dens, mode, eps: moments_shadowed(1.0, 1.0, 1.0, GRID, BLOCKAGE, dens, 4.0, mode),
                         {"dens", "mode"}),
    "laplace_interference": (lambda dens, mode, eps: shadowing.laplace_interference(1.0, GRID, BLOCKAGE, dens, 4.0,
                                                                                    mode), {"dens", "mode"}),
    "interference_variance_shadowed": (lambda dens, mode, eps: interference_variance_shadowed(
        GRID, BLOCKAGE, dens, 4.0, eps, mode), {"dens", "mode", "eps"}),
    "shadowed_mean_interference": (lambda dens, mode, eps: shadowed_mean_interference(GRID, BLOCKAGE, dens, 4.0, eps),
                                   {"dens", "eps"}),
    "simulate_shadowed": (lambda dens, mode, eps: shadowing.simulate_shadowed(GRID, BLOCKAGE, dens, 4.0, 1.0, 1.0,
                                                                              mode, SIM), {"dens", "mode"}),
    "simulate_shadowed_interference": (lambda dens, mode, eps: shadowing.simulate_shadowed_interference(
        GRID, BLOCKAGE, dens, 4.0, eps, mode, SIM), {"dens", "mode", "eps"}),
}
INVALID = {
    "dens": st.floats(max_value=0.0, exclude_max=True) | st.just(math.nan),
    "mode": st.text().filter(lambda m: m not in MODES),
    "eps": st.floats(max_value=0.0) | st.just(math.nan),
}


@st.composite
def invalid_calls(draw):
    """(name, arguments) of a public call with one argument out of its domain."""
    arg = draw(st.sampled_from(sorted(INVALID)))
    name = draw(st.sampled_from(sorted(n for n, (_, takes) in PUBLIC.items() if arg in takes)))
    return name, {"dens": 1.0, "mode": "correlated", "eps": 1.0, arg: draw(INVALID[arg])}


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(invalid_calls())
def test_an_invalid_input_raises_before_any_table_or_draw(case):
    name, args = case
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(shadowing, "_cell_table", lambda *a: calls.append("table"))
        mp.setattr(simengine, "run_batches", lambda *a, **k: calls.append("draw"))
        with pytest.raises(ValueError):
            PUBLIC[name][0](**args)
    assert calls == []
