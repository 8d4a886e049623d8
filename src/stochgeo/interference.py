"""Moments and spatial-temporal correlation of the aggregate interference
under the bounded path loss 1/(eps + |x|^alpha).

All second-order quantities reduce to radial integrals plus one cross
integral of the form  II(K) = int int l(x) l(y) K(|x-y-u|) dx dy.  With
w = x - y it is int K(|w - u|) C1(|w|) dw; the Gaussian kernel's angular
integral is a Bessel I0 and is done in closed form.  Each function takes the
model and the path loss, and their exponents must agree (ValueError).

The path-loss autocorrelation C1(w) = int l(x) l(x - w) dx, which both the
displaced cross terms and the mean product need, is one fixed-node rule for
any number of w at once: 128 Gauss-Legendre angles on [0, pi] times
composite Gauss-Legendre radial panels whose breakpoints halve towards both
peaks of the integrand, r = 0 and r = w, plus a rational map for the tail.
"""

import functools
import math
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np
from scipy import special as _sp

from .numerics import gauss_legendre, lru_get
from .pointprocess import GPP, MCP, PPP, lens_area, require_alpha

__all__ = [
    "PathLossSpec",
    "mean_interference",
    "interference_variance",
    "mean_product",
    "corr_coefficient",
]


@dataclass(frozen=True)
class PathLossSpec:
    alpha: float
    epsilon: float = 1.0

    def __post_init__(self):
        if self.alpha <= 2.0:
            raise ValueError("alpha must exceed 2")
        if self.epsilon <= 0.0:
            raise ValueError("bounded path loss requires epsilon > 0")

    @property
    def delta(self):
        return 2.0 / self.alpha

    def ell(self, r):
        r = np.asarray(r, dtype=float)
        return 1.0 / (self.epsilon + r**self.alpha)


def mean_interference(model, pl):
    """Mean aggregate interference: delta pi^2 lam eps^(delta-1) csc(delta pi).

    Identical for all three fields at equal intensity (Campbell's formula sees
    only the first moment density)."""
    require_alpha(model, pl.alpha)
    lam = model.field.intensity
    d = pl.delta
    return d * math.pi**2 * lam * pl.epsilon ** (d - 1.0) / math.sin(d * math.pi)


def _l2_integral(pl):
    # int_R2 l_eps(x)^2 dx = delta pi^2 (1-delta) eps^(delta-2) csc(delta pi)
    d = pl.delta
    return d * math.pi**2 * (1.0 - d) * pl.epsilon ** (d - 2.0) / math.sin(d * math.pi)


# Fixed rule for C1: Gauss-Legendre orders of the angle, of each radial panel
# and of the tail past the cap, and how many w share one evaluation block.
_C1_ANGLE_NODES = 128
_C1_PANEL_NODES = 12
_C1_TAIL_NODES = 16
_C1_CAP = 4096.0
_C1_W_PER_BLOCK = 4  # about 2000 radial nodes: a (2000, 128) float64 block is 2 MB


@functools.cache
def _c1_angle_rule():
    """The angular rule on [0, pi] as (sin^2(psi/2), weight)."""
    t, wt = gauss_legendre(_C1_ANGLE_NODES, 0.0, 1.0)
    return np.sin(0.5 * math.pi * t) ** 2, math.pi * wt


def _c1_radial_nodes(w, scale):
    """Radial nodes r, weights and owning index into w for each w > 0.

    Panel breakpoints are 0, w and the cap, plus h and w +- h for
    h = scale/4, scale/2, scale, 2 scale, ... up to the cap, where
    scale = eps^(1/alpha) is the width of the integrand's peaks at r = 0 and
    r = w (so h = 2^k/4 at eps = 1).  The cap is 4096 max(1, scale, w); past
    it, r = cap / (1 - t) maps the tail onto t in [0, 1).
    """
    cap = _C1_CAP * np.maximum(max(1.0, scale), w)[:, None]
    steps = scale * 2.0 ** np.arange(math.ceil(math.log2(4.0 * cap.max() / scale)) + 1) / 4.0
    col = w[:, None]
    b = np.concatenate(
        [np.zeros_like(col), col, cap, np.broadcast_to(steps, (w.size, steps.size)), col - steps, col + steps],
        axis=1,
    )
    b = np.sort(np.clip(b, 0.0, cap), axis=1)
    lo, hi = b[:, :-1], b[:, 1:]
    keep = hi > lo  # breakpoints clipped or repeated leave empty panels
    r, wr = gauss_legendre(_C1_PANEL_NODES, lo[keep], hi[keep])
    s, ws = gauss_legendre(_C1_TAIL_NODES, 0.0, 1.0)
    r_tail = cap / (1.0 - s)
    owner = np.concatenate([np.repeat(np.nonzero(keep)[0], _C1_PANEL_NODES), np.repeat(np.arange(w.size), s.size)])
    nodes = np.concatenate([r.ravel(), r_tail.ravel()])
    weights = np.concatenate([wr.ravel(), (ws * r_tail / (1.0 - s)).ravel()])
    return nodes, weights, owner


def _c1(pl, w):
    """C1(w) = int_R2 l(x) l(x - w) dx at every |w| of an array or scalar.

    C1(w) = 2 int_0^inf r l(r) int_0^pi l(|r e^(i psi) - w|) dpsi dr on the
    fixed rule above; w = 0 takes the closed form int l^2.
    """
    w = np.abs(np.asarray(w, dtype=float))
    flat = w.ravel()
    out = np.full(flat.shape, _l2_integral(pl))
    pos = np.flatnonzero(flat)
    sin2, wpsi = _c1_angle_rule()
    scale = pl.epsilon ** (1.0 / pl.alpha)
    for i in range(0, pos.size, _C1_W_PER_BLOCK):
        block = pos[i : i + _C1_W_PER_BLOCK]
        ws = flat[block]
        r, wr, owner = _c1_radial_nodes(ws, scale)
        wo = ws[owner]
        # l(d) in place, d^2 = |r e^(i psi) - w|^2 = (r - w)^2 + 4 r w sin^2(psi/2)
        # (no cancellation near r = w, psi = 0)
        ell_d = np.multiply.outer(4.0 * r * wo, sin2)
        ell_d += ((r - wo) ** 2)[:, None]
        np.power(ell_d, 0.5 * pl.alpha, out=ell_d)
        ell_d += pl.epsilon
        np.reciprocal(ell_d, out=ell_d)
        out[block] = np.bincount(
            owner, weights=2.0 * r * pl.ell(r) * wr * (ell_d @ wpsi), minlength=ws.size
        )
    return out.reshape(w.shape)


class _DisplacedCross:
    """Evaluator for int int l(x) l(y) K(|x - y - u|) dx dy.

    Substituting w = x - y turns it into int K(|w - u|) C1(|w|) dw.  C1 is
    tabulated once per (alpha, eps) on a fixed grid, 81 points on [0, 4] and
    299 on (4, W_MAX], with the fixed-node rule of `_c1`; the kernel's angular
    integral is closed form (Gaussian) or a short fixed quadrature (lens), and
    the radial one a trapezoid over the grid.  The most recently used
    CACHE_SIZE tables are kept.
    """

    W_MAX = 120.0
    CACHE_SIZE = 16
    _cache = OrderedDict()

    def __init__(self, pl):
        self.pl = pl
        self.w, self.g = lru_get(self._cache, (pl.alpha, pl.epsilon), self.CACHE_SIZE, lambda: self._table(pl))

    @classmethod
    def _table(cls, pl):
        w = np.concatenate([np.linspace(0.0, 4.0, 81), np.linspace(4.0, cls.W_MAX, 300)[1:]])
        g = _c1(pl, w)
        w.flags.writeable = g.flags.writeable = False  # shared by every evaluator
        return w, g

    def _integrate(self, angular_kernel):
        # trapezoid over the cached radial grid; integrand = w C1(w) x angular
        vals = self.w * self.g * angular_kernel(self.w)
        return float(np.trapezoid(vals, self.w))

    def gauss(self, a, u):
        u = abs(float(u))
        return self._integrate(
            lambda w: 2.0 * math.pi * np.exp(-a * (w - u) ** 2) * _sp.i0e(2.0 * a * w * u)
        )

    def lens(self, rd, u):
        u = abs(float(u))
        t, wt = gauss_legendre(64, 0.0, 1.0)
        psi, wpsi = math.pi * t, math.pi * wt

        def angular(w):
            w = np.atleast_1d(w)
            d = np.sqrt(
                np.maximum(w[:, None] ** 2 + u * u - 2.0 * w[:, None] * u * np.cos(psi)[None, :], 0.0)
            )
            return 2.0 * lens_area(rd, d) @ wpsi

        return self._integrate(angular)


def _extra_term(field, pl, u=0.0):
    """Field-specific second-order cross term at displacement u: positive for
    the cluster field, negative for the Ginibre field, zero for Poisson.

    The kernel is displaced by u (it enters through the second moment density
    evaluated between the two observation points), so the term vanishes as
    |u| grows and the mean product decorrelates; at u = 0 it reduces to the
    variance cross term.
    """
    if isinstance(field, PPP):
        return 0.0
    cross = _DisplacedCross(pl)
    if isinstance(field, MCP):
        rd = field.cluster_radius
        return field.mean_daughters / (math.pi**2 * rd**4) * cross.lens(rd, u)
    if isinstance(field, GPP):
        a = math.pi * field.density / field.beta
        return -field.density * cross.gauss(a, u)
    raise TypeError(f"unknown field type: {type(field)!r}")


def interference_variance(model, pl):
    """Variance of the aggregate interference.

    Poisson: 2 delta pi^2 lam (1-delta) eps^(delta-2) csc(delta pi); the
    cluster field adds the lens cross term and the Ginibre field subtracts the
    Gaussian-kernel cross term.
    """
    require_alpha(model, pl.alpha)
    field = model.field
    lam = field.intensity
    base = 2.0 * lam * _l2_integral(pl)
    return base + lam * _extra_term(field, pl, 0.0)


def mean_product(model, u, pl):
    """E[I_o^(t1) I_u^(t2)] for independent fading draws at t1 != t2."""
    require_alpha(model, pl.alpha)
    field = model.field
    lam = field.intensity
    mean = mean_interference(model, pl)
    return lam * float(_c1(pl, u)) + mean * mean + lam * _extra_term(field, pl, u)


def corr_coefficient(model, u, pl):
    """Spatial-temporal interference correlation coefficient at displacement u.

    The displaced cross term sits in the covariance; the variance in the
    denominator carries the same term at u = 0."""
    require_alpha(model, pl.alpha)
    field = model.field
    num = float(_c1(pl, u)) + _extra_term(field, pl, u)
    den = 2.0 * _l2_integral(pl) + _extra_term(field, pl, 0.0)
    return num / den
