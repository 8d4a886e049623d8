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

from .numerics import integrate_1d
from .pointprocess import _uniform_disk, circle_intersection_area
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
    """|B(u2, r12) \\ B(u1, r1)| with the centers a distance v apart."""
    if min(r1, r12, v) < 0:
        raise ValueError("radii and speed must be nonnegative")
    return math.pi * r12 * r12 - circle_intersection_area(r1, r12, v)


def _r12(r1, v, phi):
    return math.sqrt(r1 * r1 + v * v + 2.0 * r1 * v * math.cos(phi))


def handoff_prob(density, r1, v, phi):
    """P(handoff | r1, phi) = 1 - exp(-lam |B12 \\ B1|)."""
    if density <= 0:
        raise ValueError("density must be positive")
    r12 = _r12(r1, v, phi)
    return 1.0 - math.exp(-density * disk_difference_area(r1, r12, v))


def handoff_prob_avg(density, v):
    """Handoff probability averaged over the contact distance and a uniform
    motion angle on [0, pi] (symmetry)."""
    if v == 0.0:
        return 0.0
    xg, wg = np.polynomial.legendre.leggauss(48)
    phi = 0.5 * math.pi * (xg + 1.0)
    wphi = 0.5 * math.pi * wg / math.pi  # uniform density 1/pi

    def outer(r):
        val = sum(w * handoff_prob(density, r, v, p) for p, w in zip(phi, wphi))
        return val * 2.0 * math.pi * density * r * math.exp(-density * math.pi * r * r)

    return integrate_1d(outer, 0.0, np.inf).require()


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


def _csp_downlink_at(points, pos, theta, alpha):
    d = np.hypot(points[:, 0] - pos[0], points[:, 1] - pos[1])
    j = int(np.argmin(d))
    r_serv = d[j]
    rest = np.delete(d, j)
    return math.exp(-float(np.log1p(theta * r_serv**alpha * rest**-alpha).sum())), j


def _mobility_chunk(batch_iter, spec, density, theta, alpha):
    """Per-trial (csp1, csp2, handoff) samples."""
    v = spec.speed * spec.slot_gap
    radius = simengine.default_window(density) + v
    area = math.pi * radius**2
    out1, out2, hand = [], [], []
    for rng, size in batch_iter:
        for _ in range(size):
            n = max(int(rng.poisson(density * area)), 2)
            pts = _uniform_disk(n, radius, rng)
            if spec.model == "downlink_mobile_user":
                csp1, j1 = _csp_downlink_at(pts, (0.0, 0.0), theta, alpha)
                ang = rng.random() * 2.0 * math.pi
                u2 = (v * math.cos(ang), v * math.sin(ang))
                csp2, j2 = _csp_downlink_at(pts, u2, theta, alpha)
                hand.append(1.0 if j2 != j1 else 0.0)
            else:
                d0 = spec.link_distance
                dd = np.hypot(pts[:, 0] - 0.0, pts[:, 1])
                csp1 = math.exp(-float(np.log1p(theta * d0**alpha * dd**-alpha).sum()))
                ang = rng.random(n) * 2.0 * math.pi
                moved = pts + v * np.column_stack([np.cos(ang), np.sin(ang)])
                dm = np.hypot(moved[:, 0], moved[:, 1])
                dm = dm[dm > 1e-12]
                csp2 = math.exp(-float(np.log1p(theta * d0**alpha * dm**-alpha).sum()))
                hand.append(0.0)
            out1.append(csp1)
            out2.append(csp2)
    return np.asarray(out1), np.asarray(out2), np.asarray(hand)


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
    v = spec.speed * spec.slot_gap
    radius = simengine.default_window(density) + v
    area = math.pi * radius**2
    hits = []
    for rng, size in batch_iter:
        for _ in range(size):
            n = max(int(rng.poisson(density * area)), 2)
            pts = _uniform_disk(n, radius, rng)
            if spec.model == "downlink_mobile_user":
                d1 = np.hypot(pts[:, 0], pts[:, 1])
                j1 = int(np.argmin(d1))
                ang = rng.random() * 2.0 * math.pi
                u2 = (v * math.cos(ang), v * math.sin(ang))
                d2 = np.hypot(pts[:, 0] - u2[0], pts[:, 1] - u2[1])
                j2 = int(np.argmin(d2))
                h1 = rng.standard_exponential(n)
                h2 = rng.standard_exponential(n)
                i1 = float((h1 * d1**-alpha).sum()) - h1[j1] * d1[j1] ** -alpha
                i2 = float((h2 * d2**-alpha).sum()) - h2[j2] * d2[j2] ** -alpha
                s1 = h1[j1] * d1[j1] ** -alpha / max(i1, 1e-300)
                s2 = h2[j2] * d2[j2] ** -alpha / max(i2, 1e-300)
            else:
                d0 = spec.link_distance
                dd = np.hypot(pts[:, 0], pts[:, 1])
                ang = rng.random(n) * 2.0 * math.pi
                moved = pts + v * np.column_stack([np.cos(ang), np.sin(ang)])
                dm = np.hypot(moved[:, 0], moved[:, 1])
                h1 = rng.standard_exponential(n)
                h2 = rng.standard_exponential(n)
                s1 = rng.standard_exponential() * d0**-alpha / max(float((h1 * dd**-alpha).sum()), 1e-300)
                s2 = rng.standard_exponential() * d0**-alpha / max(float((h2 * dm**-alpha).sum()), 1e-300)
            hits.append(1.0 if (s1 > theta and s2 > theta) else 0.0)
    return (np.asarray(hits),)
