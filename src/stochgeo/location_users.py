"""Location-specific users in Poisson downlink networks.

A user is classified by the ratio of its serving-link distance to the
nearest-interferer distance: cell-center (ratio <= rho), cell-boundary
(ratio > rho), and the degenerate edge (two equidistant nearest) and vertex
(three equidistant nearest) cases.  All moments are exact closed forms built
on the general-user hypergeometric.
"""

import math
from dataclasses import dataclass

import numpy as np

from .pointprocess import PPP, NetworkModel, sample_batch
from . import simengine
from .sir_analysis import _moment_grid, downlink_hyp2f1

__all__ = [
    "UserClass",
    "lsu_moments",
    "lsu_misr",
    "lsu_gain",
    "lsu_mc_estimate",
]

_KINDS = ("general", "cell_center", "cell_boundary", "edge", "vertex")


@dataclass(frozen=True)
class UserClass:
    kind: str
    rho: float | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}")
        needs_rho = self.kind in ("cell_center", "cell_boundary")
        if needs_rho and (self.rho is None or not 0.0 <= self.rho <= 1.0):
            raise ValueError("cell_center/cell_boundary need rho in [0, 1]")
        if not needs_rho and self.rho is not None:
            raise ValueError(f"{self.kind} takes no rho")


def _as_class(cls, rho=None):
    if isinstance(cls, UserClass):
        return cls
    return UserClass(cls, rho)


def lsu_moments(cls, b, theta, alpha, rho=None):
    """Moments of the conditional success probability per user class.

    center:   1 / F(rho^alpha theta)
    boundary: (1/F(theta) - rho^2/F(rho^alpha theta)) / (1 - rho^2)
    edge:     1 / ((1+theta)^b F(theta)^2)      (boundary limit rho -> 1)
    vertex:   1 / ((1+theta)^(2b) F(theta)^2)
    """
    c = _as_class(cls, rho)
    return _moment_grid(b, theta, lambda t: lambda b: _class_moment(c, b, t, alpha))


def _class_moment(c, b, theta, alpha):
    """The b-th CSP moment of class c at one theta > 0."""
    if c.kind == "general":
        return 1.0 / downlink_hyp2f1(b, theta, alpha)
    if c.kind == "cell_center":
        return 1.0 / downlink_hyp2f1(b, c.rho**alpha * theta, alpha)
    if c.kind == "cell_boundary":
        if c.rho >= 1.0 - 1e-12:
            # 0/0 mixture at rho = 1; use the edge closed form
            return _class_moment(UserClass("edge"), b, theta, alpha)
        m = 1.0 / downlink_hyp2f1(b, theta, alpha)
        mc = 1.0 / downlink_hyp2f1(b, c.rho**alpha * theta, alpha)
        return (m - c.rho**2 * mc) / (1.0 - c.rho**2)
    if c.kind == "edge":
        return (1.0 + theta) ** -b / downlink_hyp2f1(b, theta, alpha) ** 2
    if c.kind == "vertex":
        return (1.0 + theta) ** (-2.0 * b) / downlink_hyp2f1(b, theta, alpha) ** 2
    raise AssertionError


def lsu_misr(cls, alpha, rho=None):
    """Mean interference-to-signal ratio per class (exact table)."""
    c = _as_class(cls, rho)
    if alpha <= 2:
        raise ValueError("alpha must exceed 2")
    if c.kind == "general":
        return 2.0 / (alpha - 2.0)
    if c.kind == "cell_center":
        return 2.0 * c.rho**alpha / (alpha - 2.0)
    if c.kind == "cell_boundary":
        return 2.0 * (1.0 - c.rho ** (alpha + 2.0)) / ((alpha - 2.0) * (1.0 - c.rho**2))
    if c.kind == "edge":
        return (alpha + 2.0) / (alpha - 2.0)
    if c.kind == "vertex":
        return 2.0 * alpha / (alpha - 2.0)
    raise AssertionError


def lsu_gain(cls, alpha, rho=None):
    """Asymptotic SIR gain relative to the typical general user."""
    return (2.0 / (alpha - 2.0)) / lsu_misr(cls, alpha, rho)


# ---------------------------------------------------------------------------
# Monte Carlo validation
# ---------------------------------------------------------------------------


def lsu_mc_estimate(cls, b, theta, alpha, density, cfg, rho=None):
    """Monte Carlo b-th CSP moment per user class.

    General/center/boundary classify sampled downlink patterns by the
    distance ratio r1/r2.  Edge and vertex users are measure-zero classes and
    are simulated by construction: the serving distance is drawn from
    2 (lambda pi)^2 r^3 exp(-lambda pi r^2), one (edge) or two (vertex) extra
    interferers are placed at exactly that radius, and the remaining
    interferers form a PPP beyond it.
    """
    c = _as_class(cls, rho)
    NetworkModel(PPP(density), alpha=alpha)  # validates density and alpha
    radius = cfg.window_radius or simengine.default_window(density)
    stream, chunk = ("lsu_equidistant", _equidistant_chunk) if c.kind in ("edge", "vertex") else ("lsu", _lsu_chunk)
    (samples,) = simengine.run_batches(cfg, stream, chunk, c, b, theta, alpha, density, radius)
    if not samples.size:
        raise ValueError(f"no samples fell in class {c.kind}; check rho")
    return simengine.confidence(samples, cfg.master_seed)


@simengine.batchwise
def _lsu_chunk(rng, size, c, b, theta, alpha, density, radius):
    """Far-field completed CSP^b of each sampled pattern whose typical user
    falls in class c (general, cell center or cell boundary)."""
    radii, counts = sample_batch(PPP(density), radius, rng, size)
    two = counts >= 2
    radii, counts = radii[np.repeat(two, counts)], counts[two]
    r1, rest = simengine._serving_split(radii, counts)
    csp_b = simengine._downlink_csp(r1, rest, counts, theta, alpha) ** b * simengine._downlink_far_field(
        r1, b, theta, alpha, density, radius)
    ratio = r1 / simengine._segment_mins(rest, counts)
    if c.kind == "cell_center":
        return (csp_b[ratio <= c.rho],)
    if c.kind == "cell_boundary":
        return (csp_b[ratio > c.rho],)
    return (csp_b,)


@simengine.batchwise
def _equidistant_chunk(rng, size, c, b, theta, alpha, density, radius):
    """Far-field completed CSP^b of edge (one extra interferer at the serving
    distance) or vertex (two) users."""
    n_extra = 1 if c.kind == "edge" else 2
    # r1 ~ 2 a^2 r^3 e^(-a r^2) with a = lambda pi: a r1^2 ~ Gamma(2, 1)
    r1 = np.sqrt(rng.standard_gamma(2.0, size) / (density * math.pi))
    # remaining points: PPP on the annulus from the serving radius to the window
    span = np.maximum(radius**2 - r1 * r1, 0.0)
    counts = rng.poisson(density * math.pi * span)
    d = np.sqrt(np.repeat(r1 * r1, counts) + np.repeat(span, counts) * rng.random(counts.sum()))
    csp = (1.0 + theta) ** -float(n_extra) * simengine._downlink_csp(r1, d, counts, theta, alpha)
    return (csp**b * simengine._downlink_far_field(r1, b, theta, alpha, density, radius),)
