"""Multihop relaying and retransmission/HARQ analysis over a Poisson field.

Two interference regimes throughout: quasi-static (one pattern shared by all
transmission events, "qsi") and fast-varying (a fresh pattern per event,
"fvi").
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as _sps

from .numerics import gauss_legendre
from .pointprocess import PPP, sample_batch
from .sir_analysis import _moment_grid, ppp_link_exponent
from . import simengine

__all__ = [
    "RelayRoute",
    "linear_route",
    "relay_moments",
    "jsp_retx",
    "csp_retx",
    "corr_coeff_retx",
    "p_retx",
    "harq_type1",
    "harq_type2_cc",
    "estimate_relay_jsp",
    "estimate_harq_mrc",
]

_REGIMES = ("qsi", "fvi")


def _check_regime(regime):
    if regime not in _REGIMES:
        raise ValueError(f"regime must be one of {_REGIMES}")


@dataclass(frozen=True)
class RelayRoute:
    """Fixed route: source at `source`, hop receivers at `receivers`."""

    receivers: tuple  # ((x, y), ...) of the M hop receivers
    source: tuple = (0.0, 0.0)

    def __post_init__(self):
        if len(self.receivers) < 1:
            raise ValueError("a route needs at least one hop")
        if any(d <= 0 for d in self.hop_distances):
            raise ValueError("hop distances must be positive")

    @property
    def n_hops(self):
        return len(self.receivers)

    @property
    def hop_distances(self):
        pts = [self.source, *self.receivers]
        return tuple(
            math.hypot(b[0] - a[0], b[1] - a[1]) for a, b in zip(pts, pts[1:])
        )

    def midpoint(self):
        pts = np.array([self.source, *self.receivers], dtype=float)
        return 0.5 * (pts.min(axis=0) + pts.max(axis=0))

    def extent(self):
        pts = np.array([self.source, *self.receivers], dtype=float)
        mid = self.midpoint()
        return float(np.max(np.hypot(pts[:, 0] - mid[0], pts[:, 1] - mid[1])))


def linear_route(n_hops, hop_len):
    """Equally spaced relays on a line starting at the origin."""
    return RelayRoute(tuple((hop_len * (m + 1), 0.0) for m in range(n_hops)))


# ---------------------------------------------------------------------------
# End-to-end CSP moments
# ---------------------------------------------------------------------------

_PSI_NODES = tuple(2.0 * math.pi * a for a in gauss_legendre(96, 0.0, 1.0))  # full circle


def relay_moments(b, route, theta, alpha, density, regime):
    """Moments of the end-to-end conditional success probability.

    qsi: one planar integral of 1 - prod_m (1 + theta d_m^a |x-z_m|^-a)^-b;
    fvi: product over hops of single-link Poisson integrals (each has the
    gamma closed form).  The qsi integral runs in polar form around the route
    midpoint with the truncated tail restored by the single-hop expansion.
    """
    _check_regime(regime)
    if np.any(np.real(b) <= 0):
        raise ValueError("b must be positive")
    dists = route.hop_distances
    if regime == "fvi" or route.n_hops == 1:
        return _moment_grid(b, theta, lambda t: lambda b: math.exp(
            -sum(ppp_link_exponent(density, b, t, alpha, d) for d in dists)))
    return _moment_grid(b, theta, lambda t: lambda b: _qsi_moment(route, b, t, alpha, density))


def _qsi_moment(route, b, theta, alpha, density):
    """The b-th qsi end-to-end moment at one theta > 0."""
    dists = route.hop_distances
    z = np.array(route.receivers, dtype=float) - route.midpoint()
    c_m = theta * np.asarray(dists) ** alpha
    # radius beyond which the product collapses to the sum of single-hop tails
    r_cut = route.extent() + 40.0 * max(1.0, max(dists)) * max(theta, 1.0) ** (1.0 / alpha)
    # far tail: hops are indistinguishable from the midpoint beyond r_cut
    tail = sum(b * cm * 2.0 * math.pi * r_cut ** (2.0 - alpha) / (alpha - 2.0) for cm in c_m)
    return math.exp(-density * (_ring_integral(b, z, c_m, alpha, r_cut) + tail))


def _ring_integral(b, z, c_m, alpha, r_cut):
    """int_0^r_cut r int_0^2pi (1 - prod_m (1 + c_m |x - z_m|^-a)^-b) dpsi dr at
    x = r e^(i psi), receiver m at z[m], on the 96-point angle rule.  The
    ring peaks where it passes a receiver, with width scale = max c_m^(1/a):
    panel edges at 0, r_cut, each receiver's distance rho and rho +-
    scale 2^k (k = -2, -1, ... up to r_cut), 16 Gauss-Legendre nodes each."""
    rho = np.hypot(z[:, 0], z[:, 1])
    scale = c_m.max() ** (1.0 / alpha)
    steps = scale * 2.0 ** np.arange(-2, math.ceil(math.log2(r_cut / scale)) + 1)
    edges = np.concatenate([[0.0, r_cut], rho, np.add.outer(rho, steps).ravel(), np.subtract.outer(rho, steps).ravel()])
    edges = np.unique(np.clip(edges, 0.0, r_cut))
    r, wr = gauss_legendre(16, edges[:-1], edges[1:])
    psi, wpsi = _PSI_NODES
    ring = np.multiply.outer(r.ravel(), np.exp(1j * psi))
    g = sum(np.log1p(c * np.abs(ring - complex(zx, zy)) ** -alpha) for (zx, zy), c in zip(z, c_m))
    return float(np.dot((wr * r).ravel(), -np.expm1(-b * g) @ wpsi))


# ---------------------------------------------------------------------------
# Retransmission joint success probabilities
# ---------------------------------------------------------------------------


def jsp_retx(k, regime, theta, alpha, density, r_t):
    """Probability of K successes in a row over one link.

    qsi: the K-th CSP moment exp(-E(K)); fvi: exp(-K E(1)), where E(b) is
    the Poisson link exponent.
    """
    _check_regime(regime)
    if k < 1:
        raise ValueError("K must be >= 1")
    if regime == "qsi":
        return math.exp(-ppp_link_exponent(density, k, theta, alpha, r_t))
    return math.exp(-k * ppp_link_exponent(density, 1.0, theta, alpha, r_t))


def csp_retx(k, regime, theta, alpha, density, r_t):
    """Success probability of attempt K+1 given K successes: J_{K+1}/J_K."""
    _check_regime(regime)
    if k < 1:
        raise ValueError("K must be >= 1")
    return jsp_retx(k + 1, regime, theta, alpha, density, r_t) / jsp_retx(
        k, regime, theta, alpha, density, r_t
    )


def corr_coeff_retx(theta, alpha, density, r_t, regime="qsi"):
    """Correlation coefficient of two success indicators.

    qsi: (exp(y (1-delta)) - 1)/(exp(y) - 1) with y = E(1), the Poisson link
    exponent; fvi: exactly zero (independent patterns).
    """
    _check_regime(regime)
    if regime == "fvi":
        return 0.0
    if min(theta, density, r_t) <= 0:
        raise ValueError("parameters must be positive")
    y = ppp_link_exponent(density, 1.0, theta, alpha, r_t)
    return math.expm1(y * (1.0 - 2.0 / alpha)) / math.expm1(y)


def p_retx(k, regime, theta, alpha, density, r_t):
    """Success probability within K attempts (inclusion-exclusion sum)."""
    _check_regime(regime)
    if k < 1:
        raise ValueError("K must be >= 1")
    total = 0.0
    for i in range(1, k + 1):
        total += (-1.0) ** (i + 1) * math.comb(k, i) * jsp_retx(
            i, regime, theta, alpha, density, r_t
        )
    return total


def harq_type1(theta, alpha, density, r_t, regime):
    """Type-I HARQ success with one retransmission: 2 J_1 - J_2."""
    return p_retx(2, regime, theta, alpha, density, r_t)


def harq_type2_cc(theta, alpha, density, r_t, regime):
    """Type-II chase-combining HARQ success with one retransmission.

    First term exp(-c theta^delta), with c the Poisson link exponent at b = 1
    and theta = 1, plus the maximal-ratio-combining gain term, an integral
    over the residual threshold u in [0, theta] of the closed-form radial
    integrals below.  It splits at theta/2 into u = (theta/2) y^(2a) and
    theta - u = (theta/2) y^(2a), each on 32 Gauss-Legendre nodes in y, which
    clears the u^(delta-1) and (theta-u)^delta endpoints for every alpha.
    """
    _check_regime(regime)
    if theta < 0:
        raise ValueError("theta must be nonnegative")
    if theta == 0.0:
        return 1.0
    delta = 2.0 / alpha
    c = ppp_link_exponent(density, 1.0, 1.0, alpha, r_t)
    first = math.exp(-c * theta**delta)
    y, wy = gauss_legendre(32, 0.0, 1.0)
    near = 0.5 * theta * y ** (2.0 * alpha)
    du = alpha * theta * y ** (2.0 * alpha - 1.0) * wy
    u = np.concatenate([near, theta - near])
    rest = np.concatenate([theta - near, near])  # theta - u
    gain = _mrc_gain(rest, u, alpha, r_t, regime)
    if regime == "qsi":
        # one pattern carries both slots, so one exponent holds both thresholds
        ex = np.exp(-2.0 * math.pi * density * _qsi_exponent(rest, u, alpha, r_t))
    else:
        ex = np.exp(-c * (u**delta + rest**delta))
    return first + 2.0 * math.pi * density * np.dot(np.tile(du, 2), gain * ex)


def _mrc_gain(p, q, alpha, r_t, regime):
    """int_0^inf w J / (1 + q w)^2 r dr, w = r_t^a r^-a, J = 1/(1 + p w) under
    qsi (one pattern carries both slots) and 1 under fvi, in closed form
    (Gradshteyn-Ryzhik 3.194.3, 3.197.1): (r_t^2/a) q^(delta-1) times
    B(1-delta, 1+delta) (fvi) or B(1-delta, 2+delta) 2F1(1, 1-delta; 3; 1 - p/q)."""
    delta = 2.0 / alpha
    scale = r_t**2 / alpha * q ** (delta - 1.0)
    if regime == "fvi":
        return scale * _sps.beta(1.0 - delta, 1.0 + delta)
    return scale * _sps.beta(1.0 - delta, 2.0 + delta) * _sps.hyp2f1(1.0, 1.0 - delta, 3.0, 1.0 - p / q)


def _qsi_exponent(p, q, alpha, r_t):
    """int_0^inf (1 - 1/((1 + p w)(1 + q w))) r dr, w = r_t^a r^-a, in closed
    form: (r_t^2/2) Gamma(1+delta) Gamma(1-delta) (p^(1+delta) - q^(1+delta))/(p - q),
    as hi^delta expm1((1+delta) x)/expm1(x) with hi = max(p, q) and
    x = log(min/max) < 0, free of overflow and cancellation; the nodes of
    harq_type2_cc never meet p = q, where it tends to (1+delta) q^delta."""
    delta = 2.0 / alpha
    hi = np.maximum(p, q)
    x = np.log(np.minimum(p, q) / hi)
    ratio = np.expm1((1.0 + delta) * x) / np.expm1(x)
    return 0.5 * r_t**2 * math.gamma(1.0 + delta) * math.gamma(1.0 - delta) * hi**delta * ratio


# ---------------------------------------------------------------------------
# Monte Carlo oracles
# ---------------------------------------------------------------------------


def estimate_relay_jsp(route, theta, alpha, density, regime, cfg, b=1.0):
    """End-to-end JSP over sampled Poisson fields.

    qsi: all hops share each trial's pattern; fvi: fresh pattern per hop.
    """
    _check_regime(regime)
    z = np.array(route.receivers, dtype=float) - route.midpoint()
    dists = np.asarray(route.hop_distances)
    radius = (cfg.window_radius or simengine.default_window(density)) + route.extent()
    # per-hop far-field completion (leading order)
    corr = sum(
        b * theta * d**alpha * 2.0 * math.pi * density
        * (radius - route.extent()) ** (2.0 - alpha) / (alpha - 2.0)
        for d in dists
    )
    (samples,) = simengine.run_batches(cfg, "relay", _relay_chunk, z, dists, theta, alpha, density, regime, radius,
                                       b, corr)
    return simengine.confidence(samples, cfg.master_seed)


@simengine.batchwise
def _relay_chunk(rng, size, z, dists, theta, alpha, density, regime, radius, b, corr):
    """Far-field completed end-to-end JSP^b of each trial; hop m ends at z[m]."""
    log_total = np.zeros(size)
    for m, d in enumerate(dists):
        if m == 0 or regime == "fvi":  # qsi: every hop sees the first patterns
            x, y, counts = sample_batch(PPP(density), radius, rng, size, planar=True)
        dd = np.hypot(x - z[m, 0], y - z[m, 1])
        log_total += simengine._segment_sums(np.log1p(theta * d**alpha * dd**-alpha), counts) * b
    return (np.exp(-log_total - corr),)


def estimate_harq_mrc(theta, alpha, density, r_t, regime, cfg):
    """Raw-fading Monte Carlo for Type-II HARQ-CC: the MRC event
    {SIR1 > theta} or {SIR1 + SIR2 > theta} is not product form, so fading is
    sampled explicitly here."""
    _check_regime(regime)
    radius = cfg.window_radius or simengine.default_window(density)
    (hits,) = simengine.run_batches(cfg, "harq_mrc", _harq_chunk, theta, alpha, density, r_t, regime, radius)
    return simengine.confidence(hits, cfg.master_seed)


@simengine.batchwise
def _harq_chunk(rng, size, theta, alpha, density, r_t, regime, radius):
    """1.0 or 0.0 per trial: the MRC success event with drawn fading."""
    sirs = []
    for slot in range(2):
        if slot == 0 or regime == "fvi":  # qsi: both slots see the first patterns
            radii, counts = sample_batch(PPP(density), radius, rng, size)
            ra = radii**-alpha
        inter = simengine._segment_sums(rng.standard_exponential(ra.size) * ra, counts)
        sirs.append(rng.standard_exponential(size) * r_t**-alpha / np.maximum(inter, 1e-300))
    s1, s2 = sirs
    return (((s1 > theta) | (s1 + s2 > theta)).astype(float),)
