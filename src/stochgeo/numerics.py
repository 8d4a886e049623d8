"""Special functions, quadrature rules and the Gil-Pelaez inversion.

Everything here is pure, apart from the Gauss-Legendre and Gauss-Jacobi
base rules, built once per order, and `lru_get`, which updates the cache it
is handed.  Complex arguments are supported exactly where the downstream
analysis needs them: the gamma ratio on the whole plane (minus poles), and
the imaginary moments of the Gil-Pelaez inversion.  The gamma function and
Lambert W come from scipy.special.
"""

import cmath
import functools
import math
import warnings
from typing import Callable, NamedTuple

import numpy as np
from scipy import special as _sps

from .core import ToleranceError

__all__ = [
    "QuadResult",
    "gamma_ratio",
    "lambert_w0",
    "gauss_legendre",
    "gauss_jacobi",
    "lru_get",
    "integrate_1d",
    "gil_pelaez_ccdf",
]


class QuadResult(NamedTuple):
    value: float
    error: float
    converged: bool


# ---------------------------------------------------------------------------
# Gamma ratio
# ---------------------------------------------------------------------------


def _is_nonpositive_int(z):
    z = complex(z)
    return z.imag == 0.0 and z.real <= 0.0 and z.real == round(z.real)


def gamma_ratio(a, b):
    """Gamma(a)/Gamma(b) as a complex, computed in log space so tiny magnitudes cancel."""
    if _is_nonpositive_int(a) or _is_nonpositive_int(b):
        raise ValueError(f"gamma pole in Gamma({a})/Gamma({b})")
    return cmath.exp(_sps.loggamma(complex(a)) - _sps.loggamma(complex(b)))


# ---------------------------------------------------------------------------
# Lambert W, principal branch
# ---------------------------------------------------------------------------

_INV_E = 1.0 / math.e


def lambert_w0(x):
    """Principal branch of W(x) e^W(x) = x for x >= -1/e."""
    if x < -_INV_E - 1e-15:
        raise ValueError("lambert_w0 requires x >= -1/e")
    x = max(x, -_INV_E)
    if x == -_INV_E:
        # the float -1/e lies just below the true branch point, where
        # scipy's lambertw returns nan
        return -1.0
    return float(_sps.lambertw(x).real)


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------


@functools.cache
def _legendre_base(n):
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def gauss_legendre(n, lo=-1.0, hi=1.0):
    """Nodes and weights of the n-point Gauss-Legendre rule on [lo, hi]
    (Golub-Welsch; the base rule on [-1, 1] is built once per n).

    `lo` and `hi` may be arrays of panel ends: the nodes and weights then
    have shape lo.shape + (n,), one row per panel.  The map is the midpoint
    form 0.5 (hi + lo) + 0.5 (hi - lo) x, and the weights are 0.5 (hi - lo) w.
    """
    x, w = _legendre_base(n)
    lo = np.asarray(lo, dtype=float)[..., None]
    hi = np.asarray(hi, dtype=float)[..., None]
    half = 0.5 * (hi - lo)
    return 0.5 * (hi + lo) + half * x, half * w


@functools.cache
def _jacobi_base(n, b):
    """The n-point Gauss-Jacobi rule on [-1, 1] for the weight (1 + x)^b,
    b > -1: Golub-Welsch on the Jacobi matrix of that weight (Golub and
    Welsch, Math. Comp. 1969), the nodes its eigenvalues and the weights
    mu_0 times the squared first eigenvector components."""
    s = 2.0 * np.arange(n) + b
    diag = np.empty(n)
    diag[0] = b / (b + 2.0)
    diag[1:] = b * b / (s[1:] * (s[1:] + 2.0))
    k, s = np.arange(1.0, n), s[1:]
    off = 2.0 * k * (k + b) / (s * np.sqrt((s + 1.0) * (s - 1.0)))
    x, v = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    w = 2.0 ** (b + 1.0) / (b + 1.0) * v[0] ** 2
    x.flags.writeable = w.flags.writeable = False
    return x, w


def gauss_jacobi(n, b, lo=-1.0, hi=1.0):
    """Nodes and weights of the n-point Gauss-Jacobi rule on [lo, hi] for
    the weight (t - lo)^b, b > -1, which resolves that endpoint singularity
    exactly (the base rule on [-1, 1] is built once per (n, b)).  The map is
    the one of `gauss_legendre`; the weights are ((hi - lo) / 2)^(1 + b) w."""
    x, w = _jacobi_base(n, b)
    lo = np.asarray(lo, dtype=float)[..., None]
    hi = np.asarray(hi, dtype=float)[..., None]
    half = 0.5 * (hi - lo)
    return 0.5 * (hi + lo) + half * x, half ** (1.0 + b) * w


def lru_get(cache, key, size, build):
    """cache[key] of an OrderedDict, built by build() on a miss; the cache
    keeps its `size` most recently used entries."""
    if key in cache:
        cache.move_to_end(key)
        return cache[key]
    value = cache[key] = build()
    if len(cache) > size:
        cache.popitem(last=False)
    return value


_QUAD_LIMIT = 200  # QUADPACK subinterval limit
_QUAD_ABS_TOL, _QUAD_REL_TOL = 1e-10, 1e-9


def integrate_1d(f, a, b):
    """Integrate a real f over [a, b] by adaptive QUADPACK; b may be numpy.inf.

    Semi-infinite domains are mapped to (0, 1) with x = a + t/(1-t).  Returns
    a QuadResult whose `converged` flag records whether the error estimate
    met absolute 1e-10 or relative 1e-9.
    """
    # imported on first use: scipy.integrate alone doubles the package's import time
    from scipy import integrate

    if np.isinf(b):
        g = lambda t: f(a + t / (1.0 - t)) / (1.0 - t) ** 2
        a, b = 0.0, 1.0
    else:
        g = f
    # QUADPACK's convergence heuristics are reported through the returned
    # error estimate and our `converged` flag, not through warnings
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, err = integrate.quad(g, a, b, epsabs=_QUAD_ABS_TOL, epsrel=_QUAD_REL_TOL, limit=_QUAD_LIMIT)
    if math.isnan(val):
        raise ToleranceError("integrand produced NaN")
    ok = err <= _QUAD_ABS_TOL + _QUAD_REL_TOL * abs(val) + 1e-300 or err <= 10 * _QUAD_ABS_TOL
    return QuadResult(val, err, ok)


# ---------------------------------------------------------------------------
# Gil-Pelaez inversion
# ---------------------------------------------------------------------------


# A 64-point Gauss-Legendre rule applied to a whole panel and to each of its
# halves: 192 offsets from the panel centre, in units of the half-width
_GL_X, _GL_W = gauss_legendre(64)
_GP_OFFSETS = np.concatenate([_GL_X, 0.5 * (_GL_X - 1.0), 0.5 * (_GL_X + 1.0)])
_GP_MAX_DEPTH = 8  # bisections of a panel before it is reported as unconverged
_GP_U_MIN = 1e-6  # lower end of the integral; the integrand is finite at 0
_GP_TAIL_TOL = 1e-8  # |M(j u)| / u below which the tail is cut
_GP_ROWS = 256  # panels per block of the integrand (768 KB per complex array)


def _unit_grid(x):
    """x as a list of floats and whether it was a scalar.  x is a scalar or a
    non-empty 1-D grid inside (0, 1); anything else raises ValueError."""
    xs = np.asarray(x, dtype=float)
    if xs.ndim > 1 or xs.size == 0:
        raise ValueError(f"x must be a scalar or a non-empty 1-D grid, got shape {xs.shape}")
    if not np.all((xs > 0.0) & (xs < 1.0)):
        raise ValueError("x must lie in (0, 1)")
    return [float(v) for v in xs.reshape(-1)], xs.ndim == 0


def _gp_panels(imaginary_moment, log_xs, centres, widths):
    """Value of each panel (centre, width) by the halves rule, one row per
    log x, and whether every x agrees with the whole-panel rule within the
    per-panel tolerance (absolute 1e-11, relative 1e-9).  One moment call per
    distinct width; u and the integrand are formed for _GP_ROWS panels and
    one x at a time, so beside the moment grid an inversion holds a few MB."""
    values = np.empty((len(log_xs), len(centres)))
    ok = np.ones(len(centres), dtype=bool)
    for h in np.unique(widths):
        sel = np.flatnonzero(widths == h)
        c, d = centres[sel], 0.5 * h * _GP_OFFSETS
        m = imaginary_moment(c, d)
        for lo in range(0, len(sel), _GP_ROWS):
            rows = slice(lo, lo + _GP_ROWS)
            u = c[rows, None] + d[None, :]
            for row, log_x in zip(values, log_xs):
                f = (np.exp(-1j * log_x * u) * m[rows]).imag / u
                whole = 0.5 * h * (f[:, :64] @ _GL_W)
                halves = 0.25 * h * ((f[:, 64:128] + f[:, 128:]) @ _GL_W)
                row[sel[rows]] = halves
                ok[sel[rows]] &= np.abs(whole - halves) <= 1e-11 + 1e-9 * np.abs(halves)
    return values, ok


def gil_pelaez_ccdf(
    imaginary_moment: Callable[[np.ndarray, np.ndarray], np.ndarray],
    x,
    u_max_cap: float = 1e4,
    full_output: bool = False,
):
    """CCDF of a [0,1]-supported variable from its imaginary moments, at a
    scalar x (a float) or on a 1-D grid of x (an array).

    F(x) = 1/2 + (1/pi) * int_0^inf Im(exp(-j u log x) M(j u)) / u du, with the
    tail cut at the first u where |M(j u)| / u < _GP_TAIL_TOL (capped at u_max_cap;
    the cap is flagged in `converged`).  Output clamped to [0, 1].

    `imaginary_moment(c, d)` returns M(j u) on the separable grid
    u[p, i] = c[p] + d[i] as a complex (len(c), len(d)) array.  The integral is
    split into panels of one oscillation period of the x farthest from 1;
    each is integrated by a 64-point Gauss-Legendre rule on its two halves,
    checked against the same rule on the whole panel, and a panel that fails
    the check for any x is bisected.  A panel still failing after
    _GP_MAX_DEPTH bisections is flagged in `converged`, like the cap.  M is
    evaluated once per node for the whole grid, so a grid costs about what
    its smallest x costs alone; a grid of one is the scalar call.
    """
    xs, scalar = _unit_grid(x)
    log_xs = [math.log(v) for v in xs]

    # locate the tail cutoff by doubling
    u_max = 64.0
    converged = True
    while abs(imaginary_moment(np.array([u_max]), np.zeros(1))[0, 0]) / u_max >= _GP_TAIL_TOL:
        u_max *= 2.0
        if u_max > u_max_cap:
            u_max = u_max_cap
            converged = False
            break

    # panels of one oscillation period each, so every rule sees a smooth piece
    period = 2.0 * math.pi / max(max(abs(v) for v in log_xs), 1e-3)
    panel = max(period, u_max / 2000.0)
    lo = _GP_U_MIN + panel * np.arange(math.ceil((u_max - _GP_U_MIN) / panel))
    widths = np.full(len(lo), panel)
    widths[-1] = u_max - lo[-1]
    centres = lo + 0.5 * widths

    # bisect failed pieces, all of one round together; `owner` maps each
    # piece to its panel
    owner = np.arange(len(lo))
    values, ok = _gp_panels(imaginary_moment, log_xs, centres, widths)
    for _ in range(_GP_MAX_DEPTH):
        if ok.all():
            break
        bad = ~ok
        quarter = 0.25 * widths[bad]
        c_new = np.concatenate([centres[bad] - quarter, centres[bad] + quarter])
        w_new = np.tile(0.5 * widths[bad], 2)
        v_new, ok_new = _gp_panels(imaginary_moment, log_xs, c_new, w_new)
        owner = np.concatenate([owner[ok], np.tile(owner[bad], 2)])
        centres = np.concatenate([centres[ok], c_new])
        widths = np.concatenate([widths[ok], w_new])
        values = np.concatenate([values[:, ok], v_new], axis=1)
        ok = np.concatenate([ok[ok], ok_new])

    # every panel up to u_max is summed: its tail mass is already computed
    out = [min(1.0, max(0.0, 0.5 + float(np.bincount(owner, weights=row).sum()) / math.pi)) for row in values]
    converged = converged and bool(ok.all())
    value = out[0] if scalar else np.array(out)
    if full_output:
        return value, converged
    return value
