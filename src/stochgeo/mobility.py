"""Spatial-temporal joint success under mobility.

Model I: a downlink user moves away from its serving base station and may be
handed off to a closer one.  Model II: a bipolar link is static while every
interferer is displaced independently.  The handoff geometry (void
probabilities of two-disk differences) is exact and validates the simulator;
the joint success probabilities themselves are Monte Carlo (the fading
average per slot is still closed form), on one radius and one uniform angle
per point: in both models a point's move makes an i.i.d. uniform angle.
"""

import math
from dataclasses import dataclass

import numpy as np

from .numerics import gauss_legendre
from .pointprocess import PPP, circle_intersection_area, sample_batch
from . import simengine

__all__ = [
    "MobilitySpec",
    "disk_difference_area",
    "handoff_prob",
    "handoff_prob_avg",
    "r2_conditional_cdf",
    "mobility_report",
]

_MODELS = ("downlink_mobile_user", "bipolar_mobile_interferers")


@dataclass(frozen=True)
class MobilitySpec:
    speed: float
    model: str = "downlink_mobile_user"
    link_distance: float | None = None  # bipolar desired link length

    def __post_init__(self):
        if self.speed < 0:
            raise ValueError("speed must be nonnegative")
        if self.model not in _MODELS:
            raise ValueError(f"model must be one of {_MODELS}")
        if self.model == "bipolar_mobile_interferers" and not self.link_distance:
            raise ValueError("bipolar model needs the desired link distance")


def disk_difference_area(r1, r12, v):
    """|B(u2, r12) \\ B(u1, r1)| with the centers a distance v apart; r1 and
    r12 may be arrays that broadcast."""
    if min(np.min(r1), np.min(r12), v) < 0:
        raise ValueError("radii and speed must be nonnegative")
    return math.pi * r12 * r12 - circle_intersection_area(r1, r12, v)


def _r12(r1, v, phi):
    return np.sqrt(r1 * r1 + v * v + 2.0 * r1 * v * np.cos(phi))


def handoff_prob(density, r1, v, phi):
    """P(handoff | r1, phi) = 1 - exp(-lam |B12 \\ B1|); r1 and phi may be
    arrays that broadcast."""
    if density <= 0:
        raise ValueError("density must be positive")
    r12 = _r12(r1, v, phi)
    return 1.0 - np.exp(-density * disk_difference_area(r1, r12, v))


def handoff_prob_avg(density, v):
    """Handoff probability averaged over the contact distance and a uniform
    motion angle on [0, pi] (symmetry), in s = lam pi r^2 ~ Exp(1) cut at
    s = 40.  The angle average has a kink at r = v, s_v = lam pi v^2, where
    the user can move onto its base station: panel edges s_v 2^k from
    min(s_v, 40)/1024 to 40, 16 Gauss-Legendre nodes each."""
    if density <= 0:
        raise ValueError("density must be positive")
    if v < 0:
        raise ValueError("speed must be nonnegative")
    if v == 0.0:
        return 0.0
    s_v = density * math.pi * v * v
    k = np.arange(math.floor(math.log2(min(s_v, 40.0) / 1024.0 / s_v)), math.ceil(math.log2(40.0 / s_v)) + 1)
    edges = np.unique(np.clip(np.append(s_v * 2.0**k, 0.0), 0.0, 40.0))
    s, ws = (a.ravel() for a in gauss_legendre(16, edges[:-1], edges[1:]))
    t, wt = gauss_legendre(48, 0.0, 1.0)  # the angle on [0, pi] times its density 1/pi
    r = np.sqrt(s / (density * math.pi))[:, None]
    return float(np.dot(ws * np.exp(-s), handoff_prob(density, r, v, math.pi * t) @ wt))


def r2_conditional_cdf(z, r1, phi, v, density):
    """CDF of the new serving distance given a handoff: the stated void-
    probability ratio on [max(0, r1-v), r12], 0 below and 1 above."""
    r12 = _r12(r1, v, phi)
    lo = max(0.0, r1 - v)
    if z <= lo:
        return 0.0
    if z >= r12:
        return 1.0
    num = 1.0 - math.exp(-density * disk_difference_area(r1, z, v))
    return num / handoff_prob(density, r1, v, phi)


# ---------------------------------------------------------------------------
# Monte Carlo joint success
# ---------------------------------------------------------------------------


def _slot_distances(spec, density, radius, rng, size):
    """(slot-1 distances, slot-2 distances, counts) of a batch of patterns on
    a disk of the given radius.  Model I moves a trial's user, Model II each
    interferer, by the speed v: the angle psi between a point's offset and its
    move is i.i.d. uniform either way, so slot 2's distance is
    sqrt((r - v)^2 + 4 r v sin^2(psi/2)).  Draws counts, radii, psi/2pi."""
    v = spec.speed
    d1, counts = sample_batch(PPP(density), radius, rng, size)
    if spec.model == "downlink_mobile_user" and np.any(counts == 0):
        raise ValueError("downlink pattern with no points; enlarge the window")
    d2 = rng.random(d1.size)
    np.sin(np.multiply(d2, math.pi, out=d2), out=d2)
    d2 *= d2
    d2 *= d1 * (4.0 * v)
    gap = np.subtract(d1, v)
    d2 += np.multiply(gap, gap, out=gap)
    return d1, np.sqrt(d2, out=d2), counts


@simengine.batchwise
def _mobility_chunk(rng, size, spec, density, theta, alpha, radius):
    """Per-trial (csp1, csp2, handoff) samples."""
    d1, d2, counts = _slot_distances(spec, density, radius, rng, size)
    if spec.model == "downlink_mobile_user":
        csps, serving = [], []
        for d in (d1, d2):
            r1, rest = simengine._serving_split(d, counts)
            serving.append(np.isinf(rest))
            csps.append(np.exp(-simengine._link_log_sums(rest, counts, np.repeat(theta * r1**alpha, counts), alpha)))
        # a handoff leaves no point serving in both slots
        return csps[0], csps[1], simengine._segment_mins(~(serving[0] & serving[1]), counts).astype(float)
    d2[d2 <= 1e-12] = np.inf
    c = theta * spec.link_distance**alpha
    csp1, csp2 = (np.exp(-simengine._link_log_sums(d, counts, c, alpha)) for d in (d1, d2))
    return csp1, csp2, np.zeros(size)


def mobility_report(spec, density, theta, alpha, cfg):
    """All mobility observables from one sample set: JSP, the two marginal
    success probabilities, the CSP with a batch-resampled standard error, and
    the empirical handoff frequency (Model I)."""
    radius = (cfg.window_radius or simengine.default_window(density)) + spec.speed  # covers one step
    c1, c2, hand = simengine.run_batches(cfg, "mobility", _mobility_chunk, spec, density, theta, alpha, radius)
    jsp = simengine.confidence(c1 * c2, cfg.master_seed)
    p1 = simengine.confidence(c1, cfg.master_seed)
    p2 = simengine.confidence(c2, cfg.master_seed)
    # batch means for a stable stderr of the ratio JSP / P1; no batch is empty
    splits = np.array_split(np.arange(len(c1)), min(len(c1), max(8, min(64, len(c1) // 256))))
    ratios = np.array([np.mean(c1[s] * c2[s]) / np.mean(c1[s]) for s in splits])
    stderr = simengine.confidence(ratios, cfg.master_seed).stderr
    csp = simengine.Estimate(mean=float(jsp.mean / p1.mean), stderr=stderr, n=len(c1), seed=cfg.master_seed)
    out = {"jsp": jsp, "p1": p1, "p2": p2, "csp": csp}
    if spec.model == "downlink_mobile_user":
        out["handoff"] = simengine.confidence(hand, cfg.master_seed)
    return out


def jsp_mobility_mc_raw_fading(spec, density, theta, alpha, cfg):
    """Consistency oracle: joint Bernoulli success with explicitly drawn
    fading (checks the conditional-independence factorization)."""
    radius = (cfg.window_radius or simengine.default_window(density)) + spec.speed
    (hits,) = simengine.run_batches(cfg, "mobility_raw", _raw_fading_chunk, spec, density, theta, alpha, radius)
    return simengine.confidence(hits, cfg.master_seed)


@simengine.batchwise
def _raw_fading_chunk(rng, size, spec, density, theta, alpha, radius):
    """1.0 or 0.0 per trial: both slots' SIRs, with drawn fading, clear theta."""
    d1, d2, counts = _slot_distances(spec, density, radius, rng, size)
    h1 = rng.standard_exponential(d1.size)
    h2 = rng.standard_exponential(d1.size)
    sirs = []
    for d, h in ((d1, h1), (d2, h2)):
        if spec.model == "downlink_mobile_user":
            r1, rest = simengine._serving_split(d, counts)
            signal = simengine._segment_sums(np.where(np.isinf(rest), h, 0.0), counts) * r1**-alpha
            inter = simengine._segment_sums(h * rest**-alpha, counts)
        else:
            signal = rng.standard_exponential(size) * spec.link_distance**-alpha
            inter = simengine._segment_sums(h * d**-alpha, counts)
        sirs.append(signal / np.maximum(inter, 1e-300))
    return (((sirs[0] > theta) & (sirs[1] > theta)).astype(float),)
