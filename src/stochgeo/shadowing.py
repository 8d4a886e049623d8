"""Cell-based shadowing: correlated vs independent attenuation.

The plane is partitioned into square cells of side L; every transmitter in a
cell is attenuated by kappa^N where N is Poisson in the link length.  Under
correlated shadowing all points of a cell share one draw; under independent
shadowing each point draws its own.  The analytic window is the finite union
of cells (the paper's infinite cell sum is truncated; blockage attenuation
makes the truncation error decay exponentially).
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as _sps

from . import simengine
from .numerics import gauss_legendre
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
        """Flat cell index per point (points must lie inside the window)."""
        n = self.cells_per_side
        ij = np.floor((xy + self.half_width) / self.cell_size).astype(int)
        ij = np.clip(ij, 0, n - 1)
        return ij[:, 0] * n + ij[:, 1]


@dataclass(frozen=True)
class BlockageModel:
    kappa: float
    blockage_density: float

    def __post_init__(self):
        if not (0.0 < self.kappa <= 1.0):
            raise ValueError("kappa must lie in (0, 1]")
        if self.blockage_density < 0:
            raise ValueError("blockage density must be nonnegative")


def shadow_mean(blockage, d):
    """E[kappa^N] with N ~ Poisson(blockage_density * d): the Poisson pgf
    gives exp(-blockage_density d (1 - kappa))."""
    if d < 0:
        raise ValueError("distance must be nonnegative")
    return math.exp(-blockage.blockage_density * d * (1.0 - blockage.kappa))


def _poisson_weights(mu):
    """Poisson pmf values 0..N with the truncated tail below 1e-12."""
    if mu == 0.0:
        return np.array([1.0])
    n_max = max(8, int(mu + 12.0 * math.sqrt(mu) + 12))
    while True:
        n = np.arange(n_max + 1)
        p = np.exp(_sps.xlogy(n, mu) - mu - _sps.gammaln(n + 1.0))
        if p.sum() >= 1.0 - 1e-12:
            return p
        n_max *= 2


class _CellTable:
    """Per-cell quantities: center distance, Poisson shadowing weights, and
    Gauss-Legendre nodes for integrals of radial kernels over the cell.

    Cells near the origin get a denser tensor grid (48 x 48 nodes, else
    12 x 12) since the kernels vary fastest there."""

    def __init__(self, grid, blockage):
        self.grid = grid
        self.blockage = blockage
        self.centers = grid.cell_centers()
        self.d_k = np.hypot(self.centers[:, 0], self.centers[:, 1])
        half = grid.cell_size / 2.0

        def tensor(n):
            ox, wx = gauss_legendre(n, -half, half)
            off = np.column_stack([np.repeat(ox, n), np.tile(ox, n)])
            return off, np.outer(wx, wx).ravel()

        self._coarse = tensor(12)
        self._fine = tensor(48)
        self._near = self.d_k < 3.0 * grid.cell_size
        # kappa^N values and weights per cell
        self.t_values = []
        self.t_weights = []
        for d in self.d_k:
            p = _poisson_weights(blockage.blockage_density * d)
            self.t_values.append(blockage.kappa ** np.arange(len(p)))
            self.t_weights.append(p)

    def node_radii(self, k):
        off, w2 = self._fine if self._near[k] else self._coarse
        pts = self.centers[k] + off
        return np.hypot(pts[:, 0], pts[:, 1]), w2

    def cell_integral(self, k, fn):
        """int_cell fn(|x|) dx by tensor Gauss-Legendre."""
        r, w = self.node_radii(k)
        return float(np.dot(w, fn(r)))


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
    """Variance of the shadowed interference (printed per-cell sums).

    Both modes share 2 lam sum_k E[T_k^2] int_cell l_eps^2 plus the per-cell
    mean-square term; correlated shadowing adds lam^2 sum_k V[T_k]
    (int_cell l_eps)^2.  Means are identical across modes.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    table = _CellTable(grid, blockage)
    lam_b = blockage.blockage_density
    kap = blockage.kappa
    total = 0.0
    for k, d in enumerate(table.d_k):
        et = math.exp(-lam_b * d * (1.0 - kap))
        et2 = math.exp(-lam_b * d * (1.0 - kap * kap))
        i1 = table.cell_integral(k, lambda r: 1.0 / (eps + r**alpha))
        i2 = table.cell_integral(k, lambda r: (eps + r**alpha) ** -2.0)
        total += 2.0 * density * et2 * i2 + density**2 * et**2 * i1**2
        if mode == "correlated":
            total += density**2 * (et2 - et * et) * i1**2
    return total


def shadowed_mean_interference(grid, blockage, density, alpha, eps):
    """Mean interference over the cell window (identical for both modes)."""
    table = _CellTable(grid, blockage)
    out = 0.0
    for k, d in enumerate(table.d_k):
        et = shadow_mean(blockage, d)
        out += density * et * table.cell_integral(k, lambda r: 1.0 / (eps + r**alpha))
    return out


def moments_shadowed(b, theta, r_t, grid, blockage, density, alpha, mode):
    """b-th CSP moment with cell-based shadowing (serving link unshadowed).

    Per-cell kernel (1/(1 + theta r_t^alpha |x|^-alpha T_k))^b; the outer
    T expectation sits outside (correlated) or inside (independent) the cell
    exponential.
    """
    if mode not in ("correlated", "independent"):
        raise ValueError("mode must be 'correlated' or 'independent'")
    table = _CellTable(grid, blockage)

    def at(t, b):
        c = t * r_t**alpha
        log_out = 0.0
        for k in range(len(table.d_k)):
            tv, tw = table.t_values[k], table.t_weights[k]
            r, w = table.node_radii(k)
            g = np.log1p(c * np.outer(tv, r**-alpha))  # (T, nodes)
            integ = (1.0 - np.exp(-b * g)) @ w
            if mode == "correlated":
                log_out += math.log(float(np.dot(tw, np.exp(-density * integ))))
            else:
                log_out += -density * float(np.dot(tw, integ))
        return math.exp(log_out)

    return _moment_grid(b, theta, lambda t: lambda b: at(t, b))


def _shadowed_trials(rng, size, grid, blockage, density, mode):
    """Yield (r, t) per trial of one batch: the distances and shadowing gains
    of a PPP on the square cell union.

    Shadowing draws are one kappa^N per cell (correlated) or per point
    (independent), with N Poisson in the cell-center distance.  A caller may
    draw more from rng before asking for the next trial.
    """
    half = grid.half_width
    area = (2.0 * half) ** 2
    lam_b = blockage.blockage_density
    kap = blockage.kappa
    centers = grid.cell_centers()
    d_cells = np.hypot(centers[:, 0], centers[:, 1])
    for _ in range(size):
        n = rng.poisson(density * area)
        pts = rng.random((n, 2)) * 2.0 * half - half
        r = np.hypot(pts[:, 0], pts[:, 1])
        idx = grid.cell_index(pts)
        if mode == "correlated":
            n_blk = rng.poisson(lam_b * d_cells)
            t = kap ** n_blk[idx].astype(float)
        else:
            t = kap ** rng.poisson(lam_b * d_cells[idx]).astype(float)
        yield r, t


@simengine.batchwise
def _shadowed_csp_chunk(rng, size, grid, blockage, density, alpha, theta, r_t, mode, b):
    return (np.asarray([
        math.exp(-float(np.log1p(theta * r_t**alpha * t * r**-alpha).sum())) ** b
        for r, t in _shadowed_trials(rng, size, grid, blockage, density, mode)
    ]),)


@simengine.batchwise
def _shadowed_interference_chunk(rng, size, grid, blockage, density, alpha, eps, mode):
    return (np.asarray([
        float(np.sum(rng.standard_exponential(len(r)) * t / (eps + r**alpha)))
        for r, t in _shadowed_trials(rng, size, grid, blockage, density, mode)
    ]),)


def simulate_shadowed(grid, blockage, density, alpha, theta, r_t, mode, cfg, b=1.0):
    """Monte Carlo b-th CSP moment over the cell window; fading is integrated
    analytically."""
    (samples,) = simengine.run_batches(cfg, "shadowed", _shadowed_csp_chunk, grid, blockage, density, alpha, theta,
                                       r_t, mode, b)
    return simengine.confidence(samples, cfg.master_seed)


def simulate_shadowed_interference(grid, blockage, density, alpha, eps, mode, cfg):
    """Empirical mean and variance of the shadowed interference (fresh
    Rayleigh fading per draw) for the Remark-level ordering checks."""
    (vals,) = simengine.run_batches(cfg, "shadowed_interference", _shadowed_interference_chunk, grid, blockage,
                                    density, alpha, eps, mode)
    mean = simengine.confidence(vals, cfg.master_seed)
    var = simengine.confidence((vals - vals.mean()) ** 2, cfg.master_seed)
    return mean, var
