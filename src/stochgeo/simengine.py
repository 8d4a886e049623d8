"""Monte Carlo engine: patterns in, fading-averaged success statistics out.

Fading is never sampled where it can be integrated out analytically: given a
pattern, the Rayleigh-faded success probability of a link is an explicit
product over interferers, so every trial contributes a smooth value in (0, 1]
instead of a Bernoulli draw.  A raw-fading mode exists only for the HARQ
maximal-ratio-combining oracle, where the sum-SIR event is not product form.

Randomness is counter based (Philox) and keyed by (master_seed, batch index),
with a fixed internal batch size, so results are a pure function of
(trials, master_seed, model parameters) and never of scheduling or the
advisory worker hint.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import Curve, Estimate
from .numerics import integrate_1d
from .pointprocess import GPP, MCP, PPP, sample_pattern

__all__ = [
    "SimConfig",
    "seed_stream",
    "confidence",
    "default_window",
    "estimate_success",
    "estimate_moment",
    "estimate_meta",
    "estimate_jsp",
    "csp_sample_batches",
]

_BATCH = 1024  # fixed: part of the determinism contract


@dataclass(frozen=True)
class SimConfig:
    trials: int = 10000
    master_seed: int = 2024
    window_radius: float | None = None
    worker_hint: int = 1  # advisory only; results never depend on it

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")


def seed_stream(master_seed, trial_index, substream=0):
    """Counter-based RNG stream, identical for identical arguments.

    Streams for distinct (trial_index, substream) pairs are statistically
    independent Philox streams under the same master key.
    """
    if not (0 <= substream < 1 << 20):
        raise ValueError("substream must fit in 20 bits")
    key = np.array(
        [np.uint64(master_seed & (2**64 - 1)), (np.uint64(trial_index) << np.uint64(20)) | np.uint64(substream)],
        dtype=np.uint64,
    )
    return np.random.Generator(np.random.Philox(key=key))


def confidence(samples, seed):
    """Sample mean and standard error as an Estimate."""
    samples = np.asarray(samples, dtype=float)
    n = samples.size
    if n == 0:
        raise ValueError("no samples")
    mean = float(samples.mean())
    stderr = float(samples.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return Estimate(mean=mean, stderr=stderr, n=n, seed=seed)


def default_window(model):
    """Default observation radius: about twenty mean nearest distances."""
    return 20.0 / math.sqrt(math.pi * model.intensity)


def default_window_density(density):
    return 20.0 / math.sqrt(math.pi * density)


# ---------------------------------------------------------------------------
# Batched conditional-success sampling
# ---------------------------------------------------------------------------


def _segment_sums(values, counts):
    """Per-segment sums of a flat array split into len(counts) segments."""
    csum = np.concatenate([[0.0], np.cumsum(values)])
    ends = np.cumsum(counts)
    starts = ends - counts
    return csum[ends] - csum[starts]


def _ppp_radii_batch(lam, radius, rng, size):
    counts = rng.poisson(lam * math.pi * radius**2, size)
    total = int(counts.sum())
    r = radius * np.sqrt(rng.random(total))
    return r, counts


def _mcp_radii_batch(field, radius, rng, size):
    r_par = radius + field.cluster_radius
    n_par = rng.poisson(field.parent_density * math.pi * r_par**2, size)
    tot_par = int(n_par.sum())
    pr = r_par * np.sqrt(rng.random(tot_par))
    pt = rng.random(tot_par) * 2.0 * np.pi
    parents = np.column_stack([pr * np.cos(pt), pr * np.sin(pt)])
    daughters = rng.poisson(field.mean_daughters, tot_par)
    tot_d = int(daughters.sum())
    dr = field.cluster_radius * np.sqrt(rng.random(tot_d))
    dt = rng.random(tot_d) * 2.0 * np.pi
    pts = np.repeat(parents, daughters, axis=0)
    pts[:, 0] += dr * np.cos(dt)
    pts[:, 1] += dr * np.sin(dt)
    rad = np.hypot(pts[:, 0], pts[:, 1])
    keep = rad <= radius
    # per-pattern daughter counts after clipping
    pattern_of_parent = np.repeat(np.arange(size), n_par)
    pattern_of_point = np.repeat(pattern_of_parent, daughters)
    counts = np.bincount(pattern_of_point[keep], minlength=size)
    return rad[keep], counts


def _gpp_radii_batch(field, radius, rng, size):
    scale = field.beta / (math.pi * field.density)
    j_max = int(math.ceil(2.0 * math.pi * field.density * radius**2 / field.beta)) + 8
    shapes = np.arange(1, j_max + 1, dtype=float)
    q = rng.standard_gamma(np.broadcast_to(shapes, (size, j_max))) * scale
    keep = (rng.random((size, j_max)) < field.beta) & (q <= radius**2)
    counts = keep.sum(axis=1)
    return np.sqrt(q[keep]), counts


def _radii_batch(model, radius, rng, size):
    f = model.field
    if isinstance(f, PPP):
        return _ppp_radii_batch(f.density, radius, rng, size)
    if isinstance(f, MCP):
        return _mcp_radii_batch(f, radius, rng, size)
    if isinstance(f, GPP):
        return _gpp_radii_batch(f, radius, rng, size)
    raise TypeError(f"unknown field type: {type(f)!r}")


def _far_field_log_corr(model, theta, b, radius, r_t):
    """log of the mean product over interferers beyond the window.

    Exact for the Poisson field; used as the leading correction for MCP/GPP
    whose second-order structure is short ranged compared to the window.
    The integral int_R^inf (1-(1+c r^-a)^-b) r dr is expanded in the small
    parameter c R^-a (well below 1e-3 for every default window).
    """
    lam = model.intensity
    alpha = model.alpha
    c = theta * r_t**alpha
    x = c * radius**-alpha
    if x < 0.1:
        val = (
            b * c * radius ** (2.0 - alpha) / (alpha - 2.0)
            - b * (b + 1.0) / 2.0 * c**2 * radius ** (2.0 - 2 * alpha) / (2 * alpha - 2.0)
            + b * (b + 1.0) * (b + 2.0) / 6.0 * c**3 * radius ** (2.0 - 3 * alpha) / (3 * alpha - 2.0)
        )
    else:
        val = integrate_1d(
            lambda r: (1.0 - (1.0 + c * r**-alpha) ** (-b)) * r, radius, np.inf
        ).value
    return -2.0 * math.pi * lam * val


def csp_sample_batches(model, theta, geometry, cfg, substream=0):
    """Yield (csp_window, r_serving) arrays per batch.

    csp_window is the fading-averaged conditional success probability over the
    windowed pattern; r_serving is the serving distance (downlink) or the
    fixed link distance (ad hoc).  Far-field completion is left to callers
    because its exponent depends on the moment order requested.
    """
    radius = cfg.window_radius or default_window(model)
    alpha = model.alpha
    done = 0
    batch_idx = 0
    while done < cfg.trials:
        size = min(_BATCH, cfg.trials - done)
        rng = seed_stream(cfg.master_seed, batch_idx, substream)
        radii, counts = _radii_batch(model, radius, rng, size)
        if geometry == "adhoc":
            r_t = model.link_distance
            if r_t is None:
                raise ValueError("ad hoc geometry requires a link distance")
            logf = np.log1p(theta * r_t**alpha * radii**-alpha)
            csp = np.exp(-_segment_sums(logf, counts))
            r_serving = np.full(size, r_t)
        elif geometry == "downlink":
            if np.any(counts == 0):
                raise ValueError("downlink pattern with no points; enlarge the window")
            # serving distance = min radius per pattern
            ends = np.cumsum(counts)
            starts = ends - counts
            r1 = np.minimum.reduceat(radii, starts)
            c = theta * np.repeat(r1, counts) ** alpha
            logf = np.log1p(c * radii**-alpha)
            # product over all points includes the serving one: divide it out
            csp = np.exp(-_segment_sums(logf, counts)) * (1.0 + theta)
            r_serving = r1
        else:
            raise ValueError(f"unknown geometry: {geometry}")
        yield csp, r_serving
        done += size
        batch_idx += 1


def _collect_csp(model, theta, geometry, cfg, b=1.0, substream=0):
    radius = cfg.window_radius or default_window(model)
    alpha = model.alpha
    chunks = []
    for csp, r_serv in csp_sample_batches(model, theta, geometry, cfg, substream):
        if geometry == "adhoc":
            corr = math.exp(_far_field_log_corr(model, theta, b, radius, model.link_distance))
            chunks.append(csp**b * corr)
        else:
            # leading-order per-pattern far field: exponent linear in b
            coef = 2.0 * math.pi * model.intensity * b * theta / (alpha - 2.0)
            corr = np.exp(-coef * r_serv**alpha * radius ** (2.0 - alpha))
            chunks.append(csp**b * corr)
    return np.concatenate(chunks)


def estimate_success(model, theta, geometry, cfg):
    """Mean success probability: average of the conditional success
    probability over fresh patterns (fading integrated analytically)."""
    samples = _collect_csp(model, theta, geometry, cfg, b=1.0)
    return confidence(samples, cfg.master_seed)


def estimate_moment(model, b, theta, geometry, cfg):
    """b-th moment of the conditional success probability (real b)."""
    samples = _collect_csp(model, theta, geometry, cfg, b=float(b))
    return confidence(samples, cfg.master_seed)


def estimate_meta(model, theta, x_grid, cfg, geometry="adhoc"):
    """Empirical meta distribution: CCDF of the per-pattern CSP on x_grid."""
    radius = cfg.window_radius or default_window(model)
    chunks = []
    if geometry == "adhoc":
        corr1 = math.exp(_far_field_log_corr(model, theta, 1.0, radius, model.link_distance))
    for csp, r_serv in csp_sample_batches(model, theta, geometry, cfg):
        if geometry == "adhoc":
            chunks.append(csp * corr1)
        else:
            coef = 2.0 * math.pi * model.intensity * theta / (model.alpha - 2.0)
            chunks.append(csp * np.exp(-coef * r_serv**model.alpha * radius ** (2.0 - model.alpha)))
    samples = np.concatenate(chunks)
    x_grid = np.asarray(x_grid, dtype=float)
    n = samples.size
    ccdf = np.array([(samples > x).mean() for x in x_grid])
    se = np.sqrt(ccdf * (1.0 - ccdf) / n)
    return Curve(
        grid=x_grid,
        values=ccdf,
        ci_low=np.clip(ccdf - 3 * se, 0, 1),
        ci_high=np.clip(ccdf + 3 * se, 0, 1),
        meta={"theta": theta, "trials": n, "seed": cfg.master_seed, "kind": "meta-ccdf"},
    )


def estimate_interference_moments(model, pl, u, cfg):
    """Empirical mean, variance and displaced mean product of the aggregate
    interference under bounded path loss, with fresh unit-mean exponential
    fading per slot.

    The windowed mean is completed by the analytic far-field mean
    2 pi lam int_R^inf l_eps(r) r dr (its variance contribution is
    negligible at the default window).  Returns Estimates keyed by
    'mean', 'second_moment', 'mean_product'.
    """
    radius = cfg.window_radius or default_window(model)
    lam = model.intensity
    tail_mean = 2.0 * math.pi * lam * integrate_1d(lambda r: pl.ell(r) * r, radius, np.inf).value
    means, seconds, products = [], [], []
    done = 0
    batch_idx = 0
    while done < cfg.trials:
        size = min(_BATCH, cfg.trials - done)
        rng = seed_stream(cfg.master_seed, batch_idx, 11)
        if u == 0.0:
            radii, counts = _radii_batch(model, radius, rng, size)
            ell = pl.ell(radii)
            ell_u = ell
        else:
            # displaced observation needs planar geometry
            ells, ells_u, counts = [], [], []
            for _ in range(size):
                pat = sample_pattern(model, radius, rng)
                if pat.points is not None:
                    pts = pat.points
                else:
                    ang = pat.angles
                    pts = np.column_stack([pat.radii * np.cos(ang), pat.radii * np.sin(ang)])
                d0 = np.hypot(pts[:, 0], pts[:, 1])
                du = np.hypot(pts[:, 0] - u, pts[:, 1])
                ells.append(pl.ell(d0))
                ells_u.append(pl.ell(du))
                counts.append(len(d0))
            ell = np.concatenate(ells) if ells else np.empty(0)
            ell_u = np.concatenate(ells_u) if ells_u else np.empty(0)
            counts = np.asarray(counts)
        h1 = rng.standard_exponential(ell.shape)
        h2 = rng.standard_exponential(ell.shape)
        i1 = _segment_sums(h1 * ell, counts) + tail_mean
        i2 = _segment_sums(h2 * ell_u, counts) + tail_mean
        means.append(i1)
        seconds.append(i1 * i1)
        products.append(i1 * i2)
        done += size
        batch_idx += 1
    means = np.concatenate(means)
    seconds = np.concatenate(seconds)
    products = np.concatenate(products)
    return {
        "mean": confidence(means, cfg.master_seed),
        "second_moment": confidence(seconds, cfg.master_seed),
        "mean_product": confidence(products, cfg.master_seed),
    }


def estimate_jsp(model, events, regime, theta, cfg, geometry="adhoc"):
    """Joint success probability of K repeated transmissions of one link.

    QSI shares a single pattern across the K events of a trial (the estimator
    is the K-th CSP power); FVI draws a fresh pattern per event.  `events` is
    the integer K; relay routes are handled in relay_retx.
    """
    k = int(events)
    if k < 1:
        raise ValueError("K must be >= 1")
    if regime == "qsi":
        samples = _collect_csp(model, theta, geometry, cfg, b=float(k))
        return confidence(samples, cfg.master_seed)
    if regime == "fvi":
        per_event = []
        for j in range(k):
            per_event.append(_collect_csp(model, theta, geometry, cfg, b=1.0, substream=j + 1))
        samples = np.prod(per_event, axis=0)
        return confidence(samples, cfg.master_seed)
    raise ValueError("regime must be 'qsi' or 'fvi'")
