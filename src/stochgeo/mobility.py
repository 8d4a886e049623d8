"""Spatial-temporal joint success under mobility.

Model I: a downlink user moves away from its serving base station and may be
handed off to a closer one.  Model II: a bipolar link is static while every
interferer is displaced independently.  The handoff geometry (void
probabilities of two-disk differences) is exact and validates the simulator;
the joint success probabilities themselves are Monte Carlo (the fading
average per slot is still closed form).
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
    slot_gap: float = 1.0  # displacement per step = speed * slot_gap

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


def _slot_distances(spec, density, rng, size):
    """(slot-1 distances, slot-2 distances, counts) of one batch of patterns:
    Model I moves each trial's user by v in a uniform direction, Model II
    moves every interferer by v in its own uniform direction."""
    v = spec.speed * spec.slot_gap
    radius = simengine.default_window(density) + v
    x, y, counts = sample_batch(PPP(density), radius, rng, size, planar=True)
    if spec.model == "downlink_mobile_user":
        if np.any(counts == 0):
            raise ValueError("downlink pattern with no points; enlarge the window")
        ang = rng.random(size) * 2.0 * math.pi
        d2 = np.hypot(x - np.repeat(v * np.cos(ang), counts), y - np.repeat(v * np.sin(ang), counts))
    else:
        ang = rng.random(x.size) * 2.0 * math.pi
        d2 = np.hypot(x + v * np.cos(ang), y + v * np.sin(ang))
    return np.hypot(x, y), d2, counts


def _mobility_chunk(batch_iter, spec, density, theta, alpha):
    """Per-trial (csp1, csp2, handoff) samples."""
    out1, out2, hand = [], [], []
    for rng, size in batch_iter:
        d1, d2, counts = _slot_distances(spec, density, rng, size)
        if spec.model == "downlink_mobile_user":
            csps, serving = [], []
            for d in (d1, d2):
                r1, rest = simengine._serving_split(d, counts)
                logf = np.log1p(theta * np.repeat(r1**alpha, counts) * rest**-alpha)
                csps.append(np.exp(-simengine._segment_sums(logf, counts)))
                serving.append(np.isinf(rest))
            # a handoff leaves no point serving in both slots
            hand.append((simengine._segment_sums(serving[0] & serving[1], counts) == 0).astype(float))
        else:
            c = theta * spec.link_distance**alpha
            d2 = np.where(d2 > 1e-12, d2, np.inf)
            csps = [np.exp(-simengine._segment_sums(np.log1p(c * d**-alpha), counts)) for d in (d1, d2)]
            hand.append(np.zeros(size))
        out1.append(csps[0])
        out2.append(csps[1])
    return np.concatenate(out1), np.concatenate(out2), np.concatenate(hand)


def mobility_report(spec, density, theta, alpha, cfg):
    """All mobility observables from one sample set: JSP, the two marginal
    success probabilities, the CSP with a batch-resampled standard error, and
    the empirical handoff frequency (Model I)."""
    c1, c2, hand = simengine.run_batches(cfg, "mobility", _mobility_chunk, spec, density, theta, alpha)
    jsp = simengine.confidence(c1 * c2, cfg.master_seed)
    p1 = simengine.confidence(c1, cfg.master_seed)
    p2 = simengine.confidence(c2, cfg.master_seed)
    # batch means for a stable stderr of the ratio JSP / P1
    n_batches = max(8, min(64, len(c1) // 256))
    splits = np.array_split(np.arange(len(c1)), n_batches)
    ratios = np.array([np.mean(c1[s] * c2[s]) / np.mean(c1[s]) for s in splits])
    csp = simengine.Estimate(
        mean=float(jsp.mean / p1.mean),
        stderr=float(ratios.std(ddof=1) / math.sqrt(n_batches)),
        n=len(c1),
        seed=cfg.master_seed,
    )
    out = {"jsp": jsp, "p1": p1, "p2": p2, "csp": csp}
    if spec.model == "downlink_mobile_user":
        out["handoff"] = simengine.confidence(hand, cfg.master_seed)
    return out


def jsp_mobility_mc_raw_fading(spec, density, theta, alpha, cfg):
    """Consistency oracle: joint Bernoulli success with explicitly drawn
    fading (checks the conditional-independence factorization)."""
    (hits,) = simengine.run_batches(cfg, "mobility_raw", _raw_fading_chunk, spec, density, theta, alpha)
    return simengine.confidence(hits, cfg.master_seed)


def _raw_fading_chunk(batch_iter, spec, density, theta, alpha):
    """1.0 or 0.0 per trial: both slots' SIRs, with drawn fading, clear theta."""
    hits = []
    for rng, size in batch_iter:
        d1, d2, counts = _slot_distances(spec, density, rng, size)
        h1 = rng.standard_exponential(d1.size)
        h2 = rng.standard_exponential(d1.size)
        sirs = []
        for d, h in ((d1, h1), (d2, h2)):
            if spec.model == "downlink_mobile_user":
                _, rest = simengine._serving_split(d, counts)
                signal = simengine._segment_sums(np.where(np.isinf(rest), h * d**-alpha, 0.0), counts)
                inter = simengine._segment_sums(h * rest**-alpha, counts)
            else:
                signal = rng.standard_exponential(size) * spec.link_distance**-alpha
                inter = simengine._segment_sums(h * d**-alpha, counts)
            sirs.append(signal / np.maximum(inter, 1e-300))
        hits.append(((sirs[0] > theta) & (sirs[1] > theta)).astype(float))
    return (np.concatenate(hits),)
