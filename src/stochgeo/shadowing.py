"""Cell-based shadowing: correlated vs independent attenuation.

The plane is partitioned into square cells of side L; every transmitter in a
cell is attenuated by kappa^N where N is Poisson in the link length.  Under
correlated shadowing all points of a cell share one draw; under independent
shadowing each point draws its own.  The analytic window is the finite union
of cells (the paper's infinite cell sum is truncated; blockage attenuation
makes the truncation error decay exponentially).

The analytic functions read one flat node table laid out cell by cell, the
Monte Carlo kernels one batch sampler, and every public function checks its
mode, density and eps before either runs.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as _sps

from . import simengine
from .numerics import gauss_legendre
from .pointprocess import _BLOCK
from .sir_analysis import _moment_grid

__all__ = [
    "ShadowGrid",
    "BlockageModel",
    "shadow_mean",
    "laplace_interference",
    "interference_variance_shadowed",
    "moments_shadowed",
    "simulate_shadowed",
]


@dataclass(frozen=True)
class ShadowGrid:
    """Square cells of side `cell_size` tiling [-half_width, half_width]^2.

    half_width must be an integer multiple of cell_size so the cells
    partition the window exactly.
    """

    half_width: float
    cell_size: float

    def __post_init__(self):
        if self.cell_size <= 0 or self.half_width <= 0:
            raise ValueError("cell size and half width must be positive")
        n = self.half_width / self.cell_size
        if abs(n - round(n)) > 1e-9:
            raise ValueError("half_width must be a multiple of cell_size")

    @property
    def cells_per_side(self):
        return 2 * int(round(self.half_width / self.cell_size))

    def cell_centers(self):
        """(k, 2) array of cell centers covering the window."""
        n = self.cells_per_side
        edge = np.arange(n) * self.cell_size - self.half_width + self.cell_size / 2.0
        xx, yy = np.meshgrid(edge, edge, indexing="ij")
        return np.column_stack([xx.ravel(), yy.ravel()])

    def cell_index(self, xy):
        """Flat cell index per point of an (n, 2) array (points must lie
        inside the window), built _BLOCK points and one axis at a time."""
        n = self.cells_per_side
        cell = np.zeros(len(xy), dtype=np.intp)
        for lo in range(0, cell.size, _BLOCK):
            c = cell[lo:lo + _BLOCK]
            for axis in (0, 1):  # c = row n + column; one name holds each temporary
                ij = xy[lo:lo + _BLOCK, axis] + self.half_width
                ij /= self.cell_size
                ij = np.floor(ij, out=ij).astype(np.intp)
                c *= n
                c += np.clip(ij, 0, n - 1, out=ij)
        return cell


@dataclass(frozen=True)
class BlockageModel:
    kappa: float
    blockage_density: float

    def __post_init__(self):
        if not (0.0 < self.kappa <= 1.0):
            raise ValueError("kappa must lie in (0, 1]")
        if self.blockage_density < 0:
            raise ValueError("blockage density must be nonnegative")


def _check(density, mode="correlated", eps=1.0):
    """The check of every public function, before any table build or draw."""
    if mode not in ("correlated", "independent"):
        raise ValueError("mode must be 'correlated' or 'independent'")
    if not density >= 0:
        raise ValueError("density must be nonnegative")
    if not eps > 0:
        raise ValueError("eps must be positive")


def shadow_mean(blockage, d):
    """E[kappa^N] with N ~ Poisson(blockage_density * d), elementwise in d:
    the Poisson pgf gives exp(-blockage_density d (1 - kappa)).  Its value
    at kappa^2, E[T^2] of T = kappa^N, is shadow_mean^(1 + kappa)."""
    d = np.asarray(d, dtype=float)
    if np.any(d < 0):
        raise ValueError("distance must be nonnegative")
    return np.exp(-blockage.blockage_density * d * (1.0 - blockage.kappa))


def _segment_index(counts):
    """Each element's index within its segment, for segments of these lengths."""
    return np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)


def _poisson_weights(mu):
    """(pmf values 0..n of each mean of `mu`, laid out mean by mean, and
    their counts).  n = max(8, mu + 12 sqrt(mu) + 12) leaves a tail, scipy's
    pdtrc, of at most 4e-26 for mu in [1e-8, 1e4]; mu = 0 takes one value."""
    mu = np.asarray(mu, dtype=float)
    counts = np.where(mu > 0.0, np.maximum(8, (mu + 12.0 * np.sqrt(mu) + 12).astype(int)) + 1, 1)
    n, m = _segment_index(counts), np.repeat(mu, counts)
    return np.exp(_sps.xlogy(n, m) - m - _sps.gammaln(n + 1.0)), counts


def _cell_table(grid):
    """(d, r, w, starts): the cell-center distances d, and every cell's tensor
    Gauss-Legendre nodes laid out cell by cell from its start: radii r and
    weights w.  Cells within 3 L of the origin, where the radial kernels vary
    fastest, get 48 x 48 nodes, the others 12 x 12."""
    centers = grid.cell_centers()
    d = np.hypot(centers[:, 0], centers[:, 1])
    half = grid.cell_size / 2.0
    rules = [gauss_legendre(n, -half, half) for n in (12, 48)]
    offsets = np.concatenate([np.column_stack([np.repeat(x, x.size), np.tile(x, x.size)]) for x, _ in rules])
    weights = np.concatenate([np.outer(wx, wx).ravel() for _, wx in rules])
    near = d < 3.0 * grid.cell_size
    counts = np.where(near, 48 * 48, 12 * 12)
    node = _segment_index(counts) + np.repeat(np.where(near, 12 * 12, 0), counts)  # the fine grid follows the coarse
    pts = np.repeat(centers, counts, axis=0) + offsets[node]
    return d, np.hypot(pts[:, 0], pts[:, 1]), weights[node], np.cumsum(counts) - counts


def laplace_interference(s, grid, blockage, density, alpha, mode):
    """Laplace transform of the shadowed aggregate interference at the origin.

    With Rayleigh fading, E[exp(-s I)] is the first CSP moment of a unit link
    at threshold s: the per-cell kernel 1 - 1/(1 + s l(r) T) is the one of
    `moments_shadowed` at b = 1, theta r_t^alpha = s.
    """
    if s < 0:
        raise ValueError("s must be nonnegative")
    return moments_shadowed(1.0, s, 1.0, grid, blockage, density, alpha, mode)


def interference_variance_shadowed(grid, blockage, density, alpha, eps, mode):
    """Variance of the shadowed interference, as per-cell sums.

    Independent shadowing gives 2 lam sum_k E[T_k^2] int_cell l_eps^2;
    correlated shadowing adds lam^2 sum_k V[T_k] (int_cell l_eps)^2, from
    each cell's shared gain.  Means are identical across modes.
    """
    _check(density, mode, eps)
    d, r, w, starts = _cell_table(grid)
    ell = 1.0 / (eps + r**alpha)
    i1, i2 = np.add.reduceat(w * [ell, ell * ell], starts, axis=1)
    et = shadow_mean(blockage, d)
    et2 = et ** (1.0 + blockage.kappa)
    shared = et2 - et * et if mode == "correlated" else 0.0  # V[T] = E[T^2] - E[T]^2
    return float(np.sum(2.0 * density * et2 * i2 + density**2 * shared * i1 * i1))


def shadowed_mean_interference(grid, blockage, density, alpha, eps):
    """Mean interference over the cell window (identical for both modes)."""
    _check(density, eps=eps)
    d, r, w, starts = _cell_table(grid)
    i1 = np.add.reduceat(w / (eps + r**alpha), starts)
    return float(density * np.dot(shadow_mean(blockage, d), i1))


def moments_shadowed(b, theta, r_t, grid, blockage, density, alpha, mode):
    """b-th CSP moment with cell-based shadowing (serving link unshadowed).

    Per-cell kernel (1/(1 + theta r_t^alpha |x|^-alpha T_k))^b; the outer
    T expectation sits outside (correlated) or inside (independent) the cell
    exponential.
    """
    _check(density, mode)
    d, r, w, starts = _cell_table(grid)
    t_weights, t_counts = _poisson_weights(blockage.blockage_density * d)
    t_values = blockage.kappa ** _segment_index(t_counts)
    cut, t_cut = starts[1:], np.cumsum(t_counts)[:-1]
    cells = list(zip(np.split(r**-alpha, cut), np.split(w, cut), np.split(t_values, t_cut), np.split(t_weights, t_cut)))

    def at(t, b):
        c = t * r_t**alpha
        log_out = 0.0
        for r_a, w_k, tv, tw in cells:
            g = np.log1p(c * np.outer(tv, r_a))  # (T, nodes)
            integ = (1.0 - np.exp(-b * g)) @ w_k
            if mode == "correlated":  # a cell's factor is at most 1, however its weights' sum rounds
                log_out += min(0.0, math.log(float(np.dot(tw, np.exp(-density * integ)))))
            else:
                log_out += -density * float(np.dot(tw, integ))
        return math.exp(log_out)

    return _moment_grid(b, theta, lambda t: lambda b: at(t, b))


def _shadowed_batch(rng, size, grid, blockage, density, mode):
    """(r, t, counts) of a batch of `size` Poisson patterns on the cell union:
    each point's distance r and gain t = kappa^N, pattern by pattern, and
    each pattern's point count.  It draws the `size` counts, then every
    point's two uniforms, then the blockage counts N, Poisson in the
    cell-center distance: one per cell and pattern (correlated, a size x
    cells array) or one per point (independent).  A kernel may draw more.
    The points are scaled in place, and they go once their cell indices
    and r are taken."""
    half = grid.half_width
    counts = rng.poisson(density * (2.0 * half) ** 2, size)
    pts = rng.random((counts.sum(), 2))
    pts *= 2.0
    pts *= half
    pts -= half
    cell = grid.cell_index(pts)
    r = np.hypot(pts[:, 0], pts[:, 1])
    del pts
    centers = grid.cell_centers()
    mu = blockage.blockage_density * np.hypot(centers[:, 0], centers[:, 1])
    if mode == "correlated":
        blk = rng.poisson(mu, (size, mu.size))
        cell += np.repeat(np.arange(size) * mu.size, counts)  # each point's entry of the flat size x cells array
        n_blk = np.take(blk.ravel(), cell, out=cell)
    else:
        n_blk = rng.poisson(mu[cell])
    t = n_blk.astype(float)
    return r, np.power(blockage.kappa, t, out=t), counts


@simengine.batchwise
def _shadowed_csp_chunk(rng, size, grid, blockage, density, alpha, theta, r_t, mode, b):
    r, t, counts = _shadowed_batch(rng, size, grid, blockage, density, mode)
    t *= theta * r_t**alpha
    return (np.exp(-simengine._link_log_sums(r, counts, t, alpha)) ** b,)


@simengine.batchwise
def _shadowed_interference_chunk(rng, size, grid, blockage, density, alpha, eps, mode):
    r, t, counts = _shadowed_batch(rng, size, grid, blockage, density, mode)
    h = rng.standard_exponential(r.size)
    return (simengine._segment_sums(h * t / (eps + r**alpha), counts),)


def simulate_shadowed(grid, blockage, density, alpha, theta, r_t, mode, cfg, b=1.0):
    """Monte Carlo b-th CSP moment over the cell window; fading is integrated
    analytically."""
    _check(density, mode)
    (samples,) = simengine.run_batches(cfg, "shadowed", _shadowed_csp_chunk, grid, blockage, density, alpha, theta,
                                       r_t, mode, b)
    return simengine.confidence(samples, cfg.master_seed)


def simulate_shadowed_interference(grid, blockage, density, alpha, eps, mode, cfg):
    """Empirical mean and variance of the shadowed interference (fresh
    Rayleigh fading per draw) for the Remark-level ordering checks."""
    _check(density, mode, eps)
    (vals,) = simengine.run_batches(cfg, "shadowed_interference", _shadowed_interference_chunk, grid, blockage,
                                    density, alpha, eps, mode)
    mean = simengine.confidence(vals, cfg.master_seed)
    var = simengine.confidence((vals - vals.mean()) ** 2, cfg.master_seed)
    return mean, var
