"""Success probabilities with unsaturated, interacting queues.

Analytic side: the downlink fixed point under random scheduling (mean-field
activity probability) and the bipolar Lambert-W solution.  Simulation side:
a discrete-time network of FIFO queues with Bernoulli arrivals where a head
packet departs iff the per-slot SIR (fresh fading, current active set)
clears the threshold.
"""

import copy
import math
from typing import NamedTuple

import numpy as np

from .numerics import fixed_point_solve, lambert_w0
from .sir_analysis import downlink_hyp2f1, ppp_link_exponent
from . import simengine

__all__ = [
    "cell_size_pmf",
    "downlink_success",
    "bipolar_success",
    "simulate_queues",
    "QueueSolution",
]

_NU = 3.5  # Poisson-Voronoi cell-size shape parameter


class QueueSolution(NamedTuple):
    success: float
    activity: float
    converged: bool


def cell_size_pmf(n, ratio):
    """P[N_u = n]: negative-binomial cell-load approximation with shape 3.5.

    Normalizes to one over n >= 0; the fixed point sums from n >= 1 with the
    n >= 1 tail renormalized (the serving cell holds at least its own user).
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if ratio <= 0:
        raise ValueError("density ratio must be positive")
    nu = _NU
    log_p = (
        nu * math.log(nu)
        + math.lgamma(n + nu)
        - math.lgamma(n + 1)
        - math.lgamma(nu)
        + n * math.log(ratio)
        - (n + nu) * math.log(ratio + nu)
    )
    return math.exp(log_p)


def _mean_inverse_load(ratio):
    """sum_{n>=1} p(n)/n, renormalized over n >= 1, summed until the missing
    mass and the last term are below 1e-10."""
    tail = 1e-10
    p0 = cell_size_pmf(0, ratio)
    total = 0.0
    mass = 0.0
    n = 1
    while True:
        p = cell_size_pmf(n, ratio)
        total += p / n
        mass += p
        if mass >= (1.0 - p0) * (1.0 - tail) and p < tail:
            break
        n += 1
        if n > 100000:
            break
    return total / (1.0 - p0)


def downlink_success(xi_u, theta, alpha, ratio):
    """Downlink success probability with random scheduling.

    Damped fixed-point iteration from P_s = 1 on
    P_s = 1/(1 - p_A + p_A F(theta)), p_A = min(xi_u / (P_s S), 1),
    where F is the downlink hypergeometric and S the renormalized mean
    inverse cell load.
    """
    if not (0.0 <= xi_u <= 1.0):
        raise ValueError("arrival probability must lie in [0, 1]")
    if theta < 0:
        raise ValueError("theta must be nonnegative")
    if theta == 0.0 or xi_u == 0.0:
        return QueueSolution(1.0, 0.0 if xi_u == 0.0 else min(xi_u / _mean_inverse_load(ratio), 1.0), True)
    f = downlink_hyp2f1(1.0, theta, alpha)
    s = _mean_inverse_load(ratio)

    def step(ps):
        p_a = min(xi_u / (max(ps, 1e-12) * s), 1.0)
        return 1.0 / (1.0 - p_a + p_a * f)

    res = fixed_point_solve(step, init=1.0)
    ps = res.value
    p_a = min(xi_u / (ps * s), 1.0)
    return QueueSolution(ps, p_a, res.converged)


def bipolar_success(xi, theta, alpha, density, r_t):
    """Bipolar success probability with infinite buffers.

    P_s = max{exp(W(-xi C)), exp(-C)} with C the Poisson link exponent at
    b = 1, lam pi r_t^2 theta^delta Gamma(1+delta) Gamma(1-delta); the W
    branch exists iff xi C <= 1/e, and the max picks the saturated branch
    exactly when the arrival rate exceeds the saturated service rate.

    Below saturation this is mean field: interferers are active independently
    with activity xi / P_s.  At theta = 20 dB the queue simulation sits 0.03 to
    0.05 below it for xi <= 0.5, as an interferer near a receiver is slowed by
    that link and so busy with it; torus size, warm-up and trial count leave the
    gap unchanged, and at xi = 1 (all links busy) the simulation meets exp(-C).
    """
    if not (0.0 <= xi <= 1.0):
        raise ValueError("arrival probability must lie in [0, 1]")
    c = ppp_link_exponent(density, 1.0, theta, alpha, r_t)
    saturated = math.exp(-c)
    if xi * c <= 1.0 / math.e:
        unsaturated = math.exp(lambert_w0(-xi * c))
        ps = max(unsaturated, saturated)
    else:
        ps = saturated
    p_a = min(xi / ps, 1.0) if xi > 0 else 0.0
    return QueueSolution(ps, p_a, True)


# ---------------------------------------------------------------------------
# Discrete-time queue simulation
# ---------------------------------------------------------------------------


def _torus_gains(tx, rx, half, alpha):
    """Path gains between all transmitters and receivers on the torus."""
    d = np.abs(tx[:, None, :] - rx[None, :, :])
    d = np.minimum(d, 2.0 * half - d)
    dist = np.hypot(d[..., 0], d[..., 1])
    with np.errstate(divide="ignore"):
        return np.where(dist > 0, dist**-alpha, np.inf)


_STACK_ENTRIES = 1 << 20  # padded log-gain entries (8 MB) per stack of bipolar trials


def _bipolar_layout(rng, alpha, density, r_t, half):
    """Torus gains (tx, rx) of one trial's links, the tagged pair first."""
    n = rng.poisson(density * (2.0 * half) ** 2)
    tx = rng.random((n, 2)) * 2.0 * half - half
    ang = rng.random(n) * 2.0 * math.pi
    rx = tx + r_t * np.column_stack([np.cos(ang), np.sin(ang)])
    # tagged pair at the center (Slivnyak)
    tx = np.vstack([[0.0, 0.0], tx])
    rx = np.vstack([[r_t, 0.0], rx])
    rx = (rx + half) % (2.0 * half) - half
    return _torus_gains(tx, rx, half, alpha)


def _simulate_bipolar(batch_iter, points, alpha, density, r_t, slots, warmup, n_target):
    """(point index, per-link values) of every trial at every (xi, theta) point.

    Each trial draws its layout once, and its gains (n^2 floats) are kept for
    the whole sweep.  Its rows, one per point, are stepped point-major in
    stacks of at most _STACK_ENTRIES, each from its own copy of the trial's
    stream after the layout: every row draws what a one-point call draws.
    """
    half = 0.5 * math.sqrt(n_target / density)
    trials = [(rng, _bipolar_layout(rng, alpha, density, r_t, half)) for rng, _ in batch_iter]
    rows, n_max = [], 0  # (point index, stream, log gains, xi) per row
    for k, (xi, theta) in enumerate(points):
        for rng, gains in trials:
            # log factors of the fading-averaged success product, L[j, i] for tx j / rx i
            lg = np.log1p(theta * gains / np.diag(gains)[None, :])
            n_max = max(n_max, len(lg))
            if rows and (len(rows) + 1) * n_max**2 > _STACK_ENTRIES:
                yield from _step_rows(rows, slots, warmup)
                rows, n_max = [], len(lg)
            rows.append((k, copy.deepcopy(rng), lg, xi))
    yield from _step_rows(rows, slots, warmup)


def _step_rows(rows, slots, warmup):
    ks, rngs, lgs, xis = zip(*rows)
    return zip(ks, _bipolar_stack(rngs, lgs, xis, slots, warmup))


def _bipolar_stack(rngs, lgs, xi, slots, warmup):
    """Step the slot loop of several trials together, each on its own stream.

    xi is one arrival probability, or one per trial.  Each trial reads its
    buffer in one-trial order (n arrival draws, then one per active link), and
    the masked einsum adds the active rows of L in row order, as
    lg[idx].sum(axis=0) does: every value is the one-trial value.  A slot whose
    active sets all equal the previous slot's reuses its p.
    """
    n = np.array([len(lg) for lg in lgs])
    k_tot, n_max = len(lgs), int(n.max())
    # an infinite gain (coincident nodes) still gives p = 0, with no 0 * inf
    stack = np.stack([np.minimum(np.pad(lg, (0, n_max - len(lg))), np.finfo(float).max) for lg in lgs])
    own = np.diagonal(stack, axis1=1, axis2=2)
    valid = np.arange(n_max) < n[:, None]
    xi = np.reshape(xi, (-1, 1))
    rows = np.arange(k_tot)[:, None]
    width = 32 * n_max  # 16 slots of at most 2 n_max draws; n_max more columns serve padded links
    buf = np.zeros((k_tot, width + n_max))
    pos = np.full(k_tot, width)  # all read: the first slot fills every buffer
    queues, p_cnt = np.zeros((2, k_tot, n_max), dtype=np.int64)
    p_sum = np.zeros((k_tot, n_max))
    prev = None
    for t in range(slots):
        for k in np.flatnonzero(pos + 2 * n > width):  # refill after the unread tail
            buf[k, :width] = np.concatenate([buf[k, pos[k] : width], rngs[k].random(pos[k])])
            pos[k] = 0
        queues += valid & (buf[rows, pos[:, None] + np.arange(n_max)] < xi)
        active = queues > 0
        rank = np.cumsum(active, axis=1) - 1
        u = buf[rows, (pos + n)[:, None] + rank]
        pos += n + rank[:, -1] + 1
        # conditional success probability of each active link given the
        # active set; successes are conditionally independent Bernoulli
        # (fading columns are disjoint across receivers)
        if (key := active.tobytes()) != prev:
            p = np.exp(-(np.einsum("kj,kji->ki", active.astype(float), stack) - own))
            prev = key
        queues -= active & (u < p)
        if t >= warmup:
            p_sum += np.where(active, p, 0.0)
            p_cnt += active
    for total, count in zip(p_sum, p_cnt):
        yield total[count > 0] / count[count > 0]


def _downlink_layout(rng, alpha, ratio, n_bs_target):
    """Gains from every base station to every user (the tagged user first),
    each user's serving station, and the station count."""
    lam_b = 1.0  # scale free: SIR depends on ratios of distances only
    half = 0.5 * math.sqrt(n_bs_target / lam_b)
    n_bs = max(rng.poisson(lam_b * (2.0 * half) ** 2), 2)
    bs = rng.random((n_bs, 2)) * 2.0 * half - half
    n_u = rng.poisson(lam_b * ratio * (2.0 * half) ** 2)
    users = rng.random((n_u, 2)) * 2.0 * half - half
    users = np.vstack([[0.0, 0.0], users])  # tagged user at the origin
    d = np.abs(users[:, None, :] - bs[None, :, :])
    d = np.minimum(d, 2.0 * half - d)
    dist = np.hypot(d[..., 0], d[..., 1])
    serving = np.argmin(dist, axis=1)
    return dist**-alpha, serving, n_bs  # gains (users, bs)


def _downlink_slots(rng, xi_u, theta, gain_to_user, serving, n_bs, slots, warmup):
    n_users = len(serving)
    own_gain = gain_to_user[np.arange(n_users), serving]
    # log factors per (user, interfering BS)
    lg = np.log1p(theta * gain_to_user / own_gain[:, None])
    own_lg = lg[np.arange(n_users), serving]
    queues = np.zeros(n_users, dtype=np.int64)
    # users of cell b: order[start[b] : start[b] + counts[b]], in index order
    order = np.argsort(serving, kind="stable")
    counts = np.bincount(serving, minlength=n_bs)
    busy = np.flatnonzero(counts)  # cells that serve at least one user
    start = (np.cumsum(counts) - counts)[busy]
    p_sum = np.zeros(n_users)
    p_cnt = np.zeros(n_users, dtype=np.int64)
    for t in range(slots):
        queues += rng.random(n_users) < xi_u
        # random scheduling: each busy cell picks one of its users uniformly;
        # one array draw consumes the stream as one scalar draw per cell does
        scheduled = order[start + rng.integers(0, counts[busy])]
        on = queues[scheduled] > 0
        idx_bs = busy[on]
        if len(idx_bs) == 0:
            continue
        rx_users = scheduled[on]
        logs = lg[np.ix_(rx_users, idx_bs)].sum(axis=1) - own_lg[rx_users]
        p = np.exp(-logs)
        queues[rx_users[rng.random(len(rx_users)) < p]] -= 1
        if t >= warmup:
            p_sum[rx_users] += p
            p_cnt[rx_users] += 1
    seen = p_cnt > 0
    return p_sum[seen] / p_cnt[seen]


def _simulate_downlink(batch_iter, points, alpha, ratio, slots, warmup, n_target):
    """(point index, per-user values) of every trial at every (xi, theta) point;
    each point steps its own copy of the trial's stream after the layout."""
    for rng, _ in batch_iter:
        layout = _downlink_layout(rng, alpha, ratio, n_target)
        for k, (xi, theta) in enumerate(points):
            yield k, _downlink_slots(copy.deepcopy(rng), xi, theta, *layout, slots, warmup)


def simulate_queues(mode, xi, theta, alpha, cfg, density=None, ratio=None, r_t=None, slots=2500, warmup=500,
                    n_target=128):
    """Discrete-time interacting-queue simulation.

    mode 'bipolar' needs density and r_t; mode 'downlink' needs the user/BS
    density ratio.  The measured quantity per link is its long-run
    fading-averaged success probability on slots where it transmits; a trial
    averages it over every link in the window (exchangeability makes each one
    a sample of the typical link, which tames the pattern-to-pattern tail).

    xi and theta are each a scalar or a 1-D sequence, broadcast to one grid of
    (xi, theta) points.  Two scalars give one Estimate, a grid a list of
    Estimates, one per point.  A grid draws each trial's layout once, and each
    point's Estimate equals its one-point call's.
    """
    if slots <= warmup:
        raise ValueError("slots must exceed the warmup period")
    if mode == "bipolar":
        if density is None or r_t is None:
            raise ValueError("bipolar mode needs density and r_t")
    elif mode == "downlink":
        if ratio is None:
            raise ValueError("downlink mode needs the density ratio")
    else:
        raise ValueError("mode must be 'bipolar' or 'downlink'")
    try:
        xis, thetas = np.broadcast_arrays(np.asarray(xi, dtype=float), np.asarray(theta, dtype=float))
    except ValueError:
        raise ValueError("xi and theta grids must have one length") from None
    if xis.ndim > 1 or xis.size == 0:
        raise ValueError("xi and theta must be scalars or non-empty 1-D grids")
    points = list(zip(xis.ravel().tolist(), thetas.ravel().tolist()))
    probs = simengine.run_batches(cfg, "queue", _queue_chunk, mode, points, alpha, density, ratio, r_t, slots,
                                  warmup, n_target)
    if not all(p.size for p in probs):
        raise ValueError("no link transmitted after warmup; increase slots or xi")
    ests = [simengine.confidence(p, cfg.master_seed) for p in probs]
    return ests if xis.ndim else ests[0]


def _queue_chunk(batch_iter, mode, points, alpha, density, ratio, r_t, slots, warmup, n_target):
    """Mean per-link success of each trial in which some link transmitted, one
    array per (xi, theta) point."""
    if mode == "bipolar":
        per_trial = _simulate_bipolar(batch_iter, points, alpha, density, r_t, slots, warmup, n_target)
    else:
        per_trial = _simulate_downlink(batch_iter, points, alpha, ratio, slots, warmup, n_target)
    means = [[] for _ in points]
    for k, p in per_trial:
        if len(p):
            means[k].append(float(np.mean(p)))
    return tuple(np.asarray(m, dtype=float) for m in means)
