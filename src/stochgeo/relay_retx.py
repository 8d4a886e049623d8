"""Multihop relaying and retransmission/HARQ analysis over a Poisson field.

Two interference regimes throughout: quasi-static (one pattern shared by all
transmission events, "qsi") and fast-varying (a fresh pattern per event,
"fvi").
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import ToleranceError
from .numerics import QuadratureSpec, gauss_legendre, integrate_1d
from .pointprocess import PPP, sample_batch
from .sir_analysis import _real_order, ppp_link_exponent
from . import simengine

_HARQ_QUAD = QuadratureSpec(abs_tol=1e-9, rel_tol=1e-7)

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
    b = _real_order(b)
    if b <= 0:
        raise ValueError("b must be positive")
    if theta < 0:
        raise ValueError("theta must be nonnegative")
    if theta == 0.0:
        return 1.0
    dists = route.hop_distances
    if regime == "fvi" or route.n_hops == 1:
        return math.exp(-sum(ppp_link_exponent(density, b, theta, alpha, d) for d in dists))
    mid = route.midpoint()
    z = np.array([route.receivers[m] for m in range(route.n_hops)], dtype=float) - mid
    c_m = theta * np.asarray(dists) ** alpha
    psi, wpsi = _PSI_NODES
    cos_p, sin_p = np.cos(psi), np.sin(psi)

    # radius beyond which the product collapses to the sum of single-hop tails
    r_cut = route.extent() + 40.0 * max(1.0, max(dists)) * max(theta, 1.0) ** (1.0 / alpha)

    def ring(r):
        x = r * cos_p
        y = r * sin_p
        g = np.zeros_like(psi)
        for m in range(len(dists)):
            dd = np.hypot(x - z[m, 0], y - z[m, 1])
            g += np.log1p(c_m[m] * dd**-alpha)
        return r * np.dot(wpsi, 1.0 - np.exp(-b * g))

    res = integrate_1d(ring, 0.0, r_cut)
    if not res.converged:
        raise ToleranceError("relay moment quadrature did not converge")
    # far tail: hops are indistinguishable from the midpoint beyond r_cut
    tail = sum(
        b * cm * 2.0 * math.pi * r_cut ** (2.0 - alpha) / (alpha - 2.0) for cm in c_m
    )
    return math.exp(-density * (res.value + tail))


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
    and theta = 1, plus the maximal-ratio-combining gain term, a double
    integral over the residual threshold u in [0, theta] (substituted
    u = theta(1 - t^2) to tame the (theta-u)^delta endpoint) and an inner
    radial profile.
    """
    _check_regime(regime)
    delta = 2.0 / alpha
    c = ppp_link_exponent(density, 1.0, 1.0, alpha, r_t)
    first = math.exp(-c * theta**delta)
    ra = r_t**alpha

    def inner_gain(u, include_j):
        # int_0^inf r_t^a r^-a [J(r, u)] / (1 + u r_t^a r^-a)^2 r dr; the J
        # factor appears only under quasi-static interference (same pattern
        # carries both slots); under fvi it moves to the second pattern's
        # own exponential
        def f(r):
            w = ra * r**-alpha
            j = 1.0 / (1.0 + (theta - u) * w) if include_j else 1.0
            return w * j / (1.0 + u * w) ** 2 * r

        return integrate_1d(f, 0.0, np.inf, _HARQ_QUAD).require()

    def inner_exp_qsi(u):
        # int_0^inf (1 - J(r,u)/(1 + u r_t^a r^-a)) r dr
        def f(r):
            w = ra * r**-alpha
            return (1.0 - 1.0 / ((1.0 + (theta - u) * w) * (1.0 + u * w))) * r

        return integrate_1d(f, 0.0, np.inf, _HARQ_QUAD).require()

    def outer(t):
        u = theta * (1.0 - t * t)
        du = 2.0 * theta * t
        if regime == "qsi":
            gain = inner_gain(u, include_j=True)
            ex = math.exp(-2.0 * math.pi * density * inner_exp_qsi(u))
        else:
            gain = inner_gain(u, include_j=False)
            ex = math.exp(-c * (u**delta + (theta - u) ** delta))
        return 2.0 * math.pi * density * gain * ex * du

    res = integrate_1d(outer, 0.0, 1.0, _HARQ_QUAD)
    if not res.converged:
        raise ToleranceError("HARQ outer quadrature did not converge")
    return first + res.value


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


def _relay_chunk(batch_iter, z, dists, theta, alpha, density, regime, radius, b, corr):
    """Far-field completed end-to-end JSP^b of each trial; hop m ends at z[m]."""
    samples = []
    for rng, size in batch_iter:
        log_total = np.zeros(size)
        for m, d in enumerate(dists):
            if m == 0 or regime == "fvi":  # qsi: every hop sees the first patterns
                x, y, counts = sample_batch(PPP(density), radius, rng, size, planar=True)
            dd = np.hypot(x - z[m, 0], y - z[m, 1])
            log_total += simengine._segment_sums(np.log1p(theta * d**alpha * dd**-alpha), counts) * b
        samples.append(np.exp(-log_total - corr))
    return (np.concatenate(samples),)


def estimate_harq_mrc(theta, alpha, density, r_t, regime, cfg):
    """Raw-fading Monte Carlo for Type-II HARQ-CC: the MRC event
    {SIR1 > theta} or {SIR1 + SIR2 > theta} is not product form, so fading is
    sampled explicitly here."""
    _check_regime(regime)
    radius = cfg.window_radius or simengine.default_window(density)
    (hits,) = simengine.run_batches(cfg, "harq_mrc", _harq_chunk, theta, alpha, density, r_t, regime, radius)
    return simengine.confidence(hits, cfg.master_seed)


def _harq_chunk(batch_iter, theta, alpha, density, r_t, regime, radius):
    """1.0 or 0.0 per trial: the MRC success event with drawn fading."""
    hits = []
    for rng, size in batch_iter:
        sirs = []
        for slot in range(2):
            if slot == 0 or regime == "fvi":  # qsi: both slots see the first patterns
                radii, counts = sample_batch(PPP(density), radius, rng, size)
                ra = radii**-alpha
            inter = simengine._segment_sums(rng.standard_exponential(ra.size) * ra, counts)
            sirs.append(rng.standard_exponential(size) * r_t**-alpha / np.maximum(inter, 1e-300))
        s1, s2 = sirs
        hits.append(((s1 > theta) | (s1 + s2 > theta)).astype(float))
    return (np.concatenate(hits),)
