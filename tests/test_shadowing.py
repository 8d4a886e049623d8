import math
import tracemalloc

import numpy as np
import pytest
from scipy import special

from stochgeo import shadowing, simengine
from stochgeo.shadowing import (
    BlockageModel,
    ShadowGrid,
    _cell_table,
    _poisson_weights,
    _shadowed_csp_chunk,
    _shadowed_interference_chunk,
    interference_variance_shadowed,
    laplace_interference,
    moments_shadowed,
    shadow_mean,
    shadowed_mean_interference,
    simulate_shadowed,
    simulate_shadowed_interference,
)
from stochgeo.simengine import SimConfig, seed_stream

GRID = ShadowGrid(half_width=8.0, cell_size=1.0)
BLK = BlockageModel(kappa=0.5, blockage_density=1.0)


def test_grid_validation_and_partition():
    with pytest.raises(ValueError):
        ShadowGrid(8.0, 3.0)  # not a divisor
    g = ShadowGrid(4.0, 1.0)
    centers = g.cell_centers()
    assert len(centers) == 64
    # every center indexes back to its own cell
    idx = g.cell_index(centers)
    assert len(np.unique(idx)) == 64


def test_shadow_mean_values():
    assert shadow_mean(BlockageModel(1.0, 2.0), 5.0) == 1.0
    assert shadow_mean(BLK, 0.0) == 1.0
    # kappa=0.5, lam_b=1, d=2 -> e^-1 (Poisson pgf; direct-sum oracle)
    direct = sum(
        math.exp(-2.0) * 2.0**n / math.factorial(n) * 0.5**n for n in range(60)
    )
    assert direct == pytest.approx(math.exp(-1.0), rel=1e-12)
    assert shadow_mean(BLK, 2.0) == pytest.approx(direct, rel=1e-12)
    # elementwise over an array of distances
    assert np.array_equal(shadow_mean(BLK, [0.0, 2.0]), [shadow_mean(BLK, 0.0), shadow_mean(BLK, 2.0)])


def test_laplace_at_zero_is_one():
    for mode in ("correlated", "independent"):
        assert laplace_interference(0.0, GRID, BLK, 1.0, 4.0, mode) == 1.0


def test_laplace_ordering_cor_above_ind():
    for s in (0.1, 1.0, 5.0):
        lc = laplace_interference(s, GRID, BLK, 1.0, 4.0, "correlated")
        li = laplace_interference(s, GRID, BLK, 1.0, 4.0, "independent")
        assert lc > li


def test_laplace_kappa_one_degenerate():
    nb = BlockageModel(kappa=1.0, blockage_density=1.0)
    lc = laplace_interference(1.0, GRID, nb, 1.0, 4.0, "correlated")
    li = laplace_interference(1.0, GRID, nb, 1.0, 4.0, "independent")
    assert lc == pytest.approx(li, rel=1e-10)


def test_laplace_decreasing_convex():
    s_grid = np.linspace(0.1, 3.0, 8)
    vals = [laplace_interference(float(s), GRID, BLK, 1.0, 4.0, "correlated") for s in s_grid]
    diffs = np.diff(vals)
    assert np.all(diffs < 0)
    assert np.all(np.diff(diffs) > -1e-9)  # convex on the grid


def test_variance_ordering_and_mean_equality():
    vc = interference_variance_shadowed(GRID, BLK, 1.0, 4.0, 1.0, "correlated")
    vi = interference_variance_shadowed(GRID, BLK, 1.0, 4.0, 1.0, "independent")
    assert vc >= vi
    m = shadowed_mean_interference(GRID, BLK, 1.0, 4.0, 1.0)
    assert m > 0  # single shared mean: equality across modes is structural


def test_variance_kappa_one_equality():
    nb = BlockageModel(kappa=1.0, blockage_density=1.0)
    vc = interference_variance_shadowed(GRID, nb, 1.0, 4.0, 1.0, "correlated")
    vi = interference_variance_shadowed(GRID, nb, 1.0, 4.0, 1.0, "independent")
    assert vc == pytest.approx(vi, rel=1e-12)


def test_variance_difference_matches_percell_formula():
    # Var_cor - Var_ind = lam^2 sum_k V[T_k] (int_cell l_eps)^2
    d_k, r, w, starts = _cell_table(GRID)
    lam, alpha, eps = 1.0, 4.0, 1.0
    expected = 0.0
    for d, r_k, w_k in zip(d_k, np.split(r, starts[1:]), np.split(w, starts[1:])):
        et = math.exp(-1.0 * d * 0.5)
        et2 = math.exp(-1.0 * d * 0.75)
        i1 = float(np.dot(w_k, 1.0 / (eps + r_k**alpha)))
        expected += lam**2 * (et2 - et * et) * i1**2
    vc = interference_variance_shadowed(GRID, BLK, lam, alpha, eps, "correlated")
    vi = interference_variance_shadowed(GRID, BLK, lam, alpha, eps, "independent")
    assert vc - vi == pytest.approx(expected, rel=1e-10)
    assert expected >= 0.0


@pytest.mark.parametrize("mode", ["correlated", "independent"])
def test_variance_matches_the_simulated_interference(mode):
    # 2.9296 / 2.7204 against 2.986 +- 0.075 / 2.747 +- 0.068; a spurious
    # lam^2 sum_k E[T_k]^2 (int_cell l_eps)^2 of 1.0124 once sat 12.7 and 14.5 SE off
    ana = interference_variance_shadowed(GRID, BLK, 1.0, 4.0, 1.0, mode)
    _, var = simulate_shadowed_interference(GRID, BLK, 1.0, 4.0, 1.0, mode, SimConfig(trials=8000, master_seed=3))
    assert abs(var.mean - ana) < 3.0 * var.stderr


def test_moments_ordering_cor_above_ind():
    for theta in (0.3, 1.0, 3.0):
        mc = moments_shadowed(1.0, theta, 1.0, GRID, BLK, 1.0, 4.0, "correlated")
        mi = moments_shadowed(1.0, theta, 1.0, GRID, BLK, 1.0, 4.0, "independent")
        assert mc >= mi


def test_moments_gap_shrinks_with_cell_size():
    gaps = []
    for cell in (2.0, 1.0, 0.5):
        g = ShadowGrid(half_width=8.0, cell_size=cell)
        mc = moments_shadowed(1.0, 1.0, 1.0, g, BLK, 1.0, 4.0, "correlated")
        mi = moments_shadowed(1.0, 1.0, 1.0, g, BLK, 1.0, 4.0, "independent")
        gaps.append(mc - mi)
    assert gaps[0] > gaps[1] > gaps[2] >= 0.0


def test_moments_kappa_one_reduces_to_windowed_ppp():
    # no shadowing: both modes equal the unshadowed moment over the window
    nb = BlockageModel(kappa=1.0, blockage_density=1.0)
    mc = moments_shadowed(1.0, 1.0, 1.0, GRID, nb, 1.0, 4.0, "correlated")
    mi = moments_shadowed(1.0, 1.0, 1.0, GRID, nb, 1.0, 4.0, "independent")
    assert mc == pytest.approx(mi, rel=1e-9)
    # windowed PPP oracle via the cell table (same quadrature, no T)
    _, r, w, starts = _cell_table(GRID)
    expo = 0.0
    for r_k, w_k in zip(np.split(r, starts[1:]), np.split(w, starts[1:])):
        expo += float(np.dot(w_k, 1.0 - 1.0 / (1.0 + 1.0 * r_k**-4.0)))
    assert mc == pytest.approx(math.exp(-expo), rel=1e-8)


def test_window_convergence():
    # doubling the window changes M(1) by < 1e-3 at default blockage
    small = ShadowGrid(half_width=8.0, cell_size=1.0)
    big = ShadowGrid(half_width=16.0, cell_size=1.0)
    a = moments_shadowed(1.0, 1.0, 1.0, small, BLK, 1.0, 4.0, "correlated")
    b = moments_shadowed(1.0, 1.0, 1.0, big, BLK, 1.0, 4.0, "correlated")
    assert abs(a - b) < 1e-3


def test_simulate_matches_analytic_moments():
    cfg = SimConfig(trials=4000, master_seed=91)
    for mode in ("correlated", "independent"):
        ana = moments_shadowed(1.0, 1.0, 1.0, GRID, BLK, 1.0, 4.0, mode)
        est = simulate_shadowed(GRID, BLK, 1.0, 4.0, 1.0, 1.0, mode, cfg)
        assert est.within(ana, atol=2e-3)


def test_simulated_interference_orderings():
    cfg = SimConfig(trials=4000, master_seed=92)
    mc, vc = simulate_shadowed_interference(GRID, BLK, 1.0, 4.0, 1.0, "correlated", cfg)
    mi, vi = simulate_shadowed_interference(GRID, BLK, 1.0, 4.0, 1.0, "independent", cfg)
    # identical means within 3 se
    assert abs(mc.mean - mi.mean) < 3.0 * math.hypot(mc.stderr, mi.stderr)
    # correlated variance larger
    assert vc.mean > vi.mean
    # and the variance gap matches the analytic per-cell difference
    ana_gap = interference_variance_shadowed(GRID, BLK, 1.0, 4.0, 1.0, "correlated") - \
        interference_variance_shadowed(GRID, BLK, 1.0, 4.0, 1.0, "independent")
    assert abs((vc.mean - vi.mean) - ana_gap) < 3.0 * math.hypot(vc.stderr, vi.stderr)


def test_blockage_validation():
    with pytest.raises(ValueError):
        BlockageModel(kappa=0.0, blockage_density=1.0)
    with pytest.raises(ValueError):
        BlockageModel(kappa=0.5, blockage_density=-1.0)
    with pytest.raises(ValueError):
        shadow_mean(BLK, -1.0)
    with pytest.raises(ValueError):
        shadow_mean(BLK, [1.0, -1.0])


def test_poisson_weights_leave_a_tail_below_1e_12():
    mu = np.concatenate([[0.0], np.logspace(-8, 4, 400)])
    p, counts = _poisson_weights(mu)
    assert special.pdtrc(counts - 1, mu).max() <= 1e-12
    assert counts[0] == 1 and p[0] == 1.0  # mu = 0: the one value N = 0


def _batch_one_pattern_at_a_time(rng, size, grid, blockage, density, mode):
    """[(r, t)] of one batch, one pattern at a time, in the batch sampler's
    draw order: every pattern count, then each pattern's uniforms, then each
    pattern's blockage counts."""
    half = grid.half_width
    centers = grid.cell_centers()
    mu = blockage.blockage_density * np.hypot(centers[:, 0], centers[:, 1])
    counts = [rng.poisson(density * (2.0 * half) ** 2) for _ in range(size)]
    patterns = [rng.random((n, 2)) * 2.0 * half - half for n in counts]
    out = []
    for pts in patterns:
        cell = grid.cell_index(pts)
        n_blk = rng.poisson(mu)[cell] if mode == "correlated" else rng.poisson(mu[cell])
        out.append((np.hypot(pts[:, 0], pts[:, 1]), blockage.kappa ** n_blk.astype(float)))
    return out


def _running_sums(terms):
    """Each pattern's sum as simengine._segment_sums forms it: the batch's
    running sum at the pattern's end less the one at its start."""
    out, total = [], 0.0
    for x in terms:
        end = np.cumsum(np.concatenate([[total], x]))[-1]
        out.append(end - total)
        total = end
    return np.array(out)


@pytest.mark.parametrize("mode", ["correlated", "independent"])
@pytest.mark.parametrize("kernel", ["csp", "interference"])
def test_batch_kernels_equal_a_one_pattern_loop(kernel, mode):
    # two batches of a sparse field on a small window, so some pattern is
    # empty; lam_b = 5 takes the Poisson draws past mean 10 as well
    grid, blockage, density, alpha, theta, eps, b = ShadowGrid(2.0, 1.0), BlockageModel(0.5, 5.0), 0.1, 4.0, 2.0, 0.5, 1.5
    sizes, stream = (7, 5), simengine.STREAMS["shadowed"][0]
    ref, empty = [], 0
    for i, size in enumerate(sizes):
        rng = seed_stream(3, i, stream)
        patterns = _batch_one_pattern_at_a_time(rng, size, grid, blockage, density, mode)
        empty += sum(r.size == 0 for r, _ in patterns)
        if kernel == "csp":
            sums = _running_sums([np.log1p(theta * 1.0**alpha * t * r**-alpha) for r, t in patterns])
            ref.append(np.exp(-sums) ** b)
        else:
            fading = [rng.standard_exponential(r.size) for r, _ in patterns]
            ref.append(_running_sums([h * t / (eps + r**alpha) for h, (r, t) in zip(fading, patterns)]))
    assert 0 < empty < sum(sizes)
    batches = iter([(seed_stream(3, i, stream), size) for i, size in enumerate(sizes)])
    if kernel == "csp":
        (got,) = _shadowed_csp_chunk(batches, grid, blockage, density, alpha, theta, 1.0, mode, b)
    else:
        (got,) = _shadowed_interference_chunk(batches, grid, blockage, density, alpha, eps, mode)
    assert np.array_equal(got, np.concatenate(ref))


def test_cell_index_in_blocks_matches_the_formula(monkeypatch):
    # blocks of 7 points; points on cell edges and on the window's far edge
    monkeypatch.setattr(shadowing, "_BLOCK", 7)
    pts = np.concatenate([seed_stream(5, 0).random((40, 2)) * 16.0 - 8.0, [[8.0, 8.0], [-8.0, 3.0], [0.0, -1.0]]])
    ij = np.clip(np.floor((pts + GRID.half_width) / GRID.cell_size).astype(int), 0, GRID.cells_per_side - 1)
    got = GRID.cell_index(pts)
    assert got.dtype == np.intp and np.array_equal(got, ij[:, 0] * GRID.cells_per_side + ij[:, 1])


@pytest.mark.parametrize("mode", ["correlated", "independent"])
def test_a_shadowed_batch_holds_few_point_sized_arrays(mode):
    """The sampler's 512-trial batch at the benchmark's grid and lam = 1
    peaks at 4.02 float arrays the size of its points (the points' two
    columns, their cell indices and r), against 7.0 out of place."""
    stream = simengine.STREAMS["shadowed"][0]
    points = int(seed_stream(1, 0, stream).poisson((2.0 * GRID.half_width) ** 2, 512).sum())
    tracemalloc.start()
    try:
        shadowing._shadowed_batch(seed_stream(1, 0, stream), 512, GRID, BLK, 1.0, mode)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.5 * points * 8


SIM = SimConfig(trials=10, master_seed=1)
PUBLIC = {
    "laplace_interference": lambda dens, mode, eps: laplace_interference(1.0, GRID, BLK, dens, 4.0, mode),
    "interference_variance_shadowed": lambda dens, mode, eps: interference_variance_shadowed(
        GRID, BLK, dens, 4.0, eps, mode),
    "shadowed_mean_interference": lambda dens, mode, eps: shadowed_mean_interference(GRID, BLK, dens, 4.0, eps),
    "moments_shadowed": lambda dens, mode, eps: moments_shadowed(1.0, 1.0, 1.0, GRID, BLK, dens, 4.0, mode),
    "simulate_shadowed": lambda dens, mode, eps: simulate_shadowed(GRID, BLK, dens, 4.0, 1.0, 1.0, mode, SIM),
    "simulate_shadowed_interference": lambda dens, mode, eps: simulate_shadowed_interference(
        GRID, BLK, dens, 4.0, eps, mode, SIM),
}
BAD = {"mode": {"mode": "bogus"}, "density": {"dens": -1.0}, "eps0": {"eps": 0.0}, "eps-neg": {"eps": -0.5}}
CASES = [pytest.param(name, bad, id=f"{name}-{key}") for name in sorted(PUBLIC) for key, bad in BAD.items()
         if not ("mode" in bad and name == "shadowed_mean_interference")
         and not ("eps" in bad and name in ("laplace_interference", "moments_shadowed", "simulate_shadowed"))]


def spy_on_tables_and_draws(monkeypatch):
    """A list that records every table build and every run_batches call."""
    calls = []
    build, run = shadowing._cell_table, simengine.run_batches
    monkeypatch.setattr(shadowing, "_cell_table", lambda *a: calls.append("table") or build(*a))
    monkeypatch.setattr(simengine, "run_batches", lambda *a, **k: calls.append("draw") or run(*a, **k))
    return calls


@pytest.mark.parametrize("name, bad", CASES)
def test_invalid_input_raises_before_any_table_or_draw(name, bad, monkeypatch):
    calls = spy_on_tables_and_draws(monkeypatch)
    with pytest.raises(ValueError):
        PUBLIC[name](**{"dens": 1.0, "mode": "correlated", "eps": 1.0, **bad})
    assert calls == []
    PUBLIC[name](1.0, "independent", 1.0)  # the spies see a valid call
    assert calls
