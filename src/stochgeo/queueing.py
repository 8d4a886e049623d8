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


_STACK_ENTRIES = 1 << 20  # log-gain entries (8 MB) per stack of queue rows


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


def _by_theta(points):
    """{theta: ([point indices], [xi])} in order of first appearance."""
    groups = {}
    for k, (xi, theta) in enumerate(points):
        ks, xis = groups.setdefault(theta, ([], []))
        ks.append(k)
        xis.append(xi)
    return groups


def _simulate_bipolar(batch_iter, points, alpha, density, r_t, slots, warmup, n_target):
    """(point index, per-link values) of every trial at every (xi, theta) point.

    Each trial draws its layout once, and its log gains L at one theta serve
    every xi at that theta.  A row, one (point, trial), with xi = 1 has
    every link backlogged in every slot: its values are _saturated_values'
    closed form, and it draws nothing.  The other rows of one (trial, theta)
    share one L in stacks of at most _STACK_ENTRIES padded L entries, filled
    trial by trial, each row stepped from its own copy of the trial's stream
    after the layout: every row draws what a one-point call draws.
    """
    half = 0.5 * math.sqrt(n_target / density)
    groups = []  # (theta, saturated point indices, stepped (point index, xi) pairs)
    for theta, (ks, xis) in _by_theta(points).items():
        groups.append((theta, [k for k, xi in zip(ks, xis) if xi == 1.0],
                       [(k, xi) for k, xi in zip(ks, xis) if xi < 1.0]))
    saturated, stack, n_max = [], [], 0  # stack: (stepped pairs, stream, L) per (trial, theta)
    for rng, _ in batch_iter:
        gains = _bipolar_layout(rng, alpha, density, r_t, half)
        for theta, full, live in groups:
            # log factors of the fading-averaged success product, L[j, i] for tx j / rx i
            lg = np.log1p(theta * gains / np.diag(gains)[None, :])
            if full:
                saturated.append((full, np.exp(-(lg.sum(axis=0) - np.diag(lg)))))
            if not live:
                continue
            n_max = max(n_max, len(lg))
            if stack and (len(stack) + 1) * n_max**2 > _STACK_ENTRIES:
                yield from _step_rows(stack, slots, warmup)
                stack, n_max = [], len(lg)
            stack.append((live, rng, lg))
    if stack:
        yield from _step_rows(stack, slots, warmup)
    yield from _saturated_values(saturated, slots - warmup)


def _step_rows(stack, slots, warmup):
    lives, rngs, lgs = zip(*stack)
    xis = [[xi for _, xi in live] for live in lives]
    return zip([k for live in lives for k, _ in live], _bipolar_stack(rngs, lgs, xis, slots, warmup))


def _saturated_values(saturated, count):
    """Per-link values of every (point indices, p) row whose links are all
    active in every slot: p = exp(-(column sums of L - diag L)), the
    one-trial loop's lg.sum(axis=0), added once per counted slot and divided
    by the count, as the loop accumulates it."""
    if not saturated:
        return
    ps = [p for _, p in saturated]
    flat = np.concatenate(ps)
    total = np.zeros_like(flat)
    for _ in range(count):
        total += flat
    for (ks, _), values in zip(saturated, np.split(total / count, np.cumsum(list(map(len, ps)))[:-1])):
        for k in ks:
            yield k, values


def _bipolar_stack(rngs, lgs, xis, slots, warmup):
    """Step the slot loop of several rows together.

    Matrix g of lgs serves one row per arrival probability in xis[g]; the
    values come out matrix by matrix.  Each row draws what the one-trial
    loop draws from its own copy of rngs[g]: n arrival draws, then one per
    active link.  Copies of one
    generator give one sequence, so the rows of matrices that share a
    generator read one buffer of it, each at its own place.  The einsum adds
    the active rows of L in row order, as lg[idx].sum(axis=0) does: every
    value is the one-trial value.
    """
    n = np.array([len(lg) for lg in lgs])
    g_tot, k_max, n_max = len(lgs), max(map(len, xis)), int(n.max())
    # row g * k_max + k steps matrix g at xis[g][k]; a padding row has no links
    real = (np.arange(k_max) < np.array([len(x) for x in xis])[:, None]).ravel()
    xi = np.array([list(x) + [0.0] * (k_max - len(x)) for x in xis]).reshape(-1, 1)
    n_row = np.where(real, np.repeat(n, k_max), 0)
    unique = {id(rng): rng for rng in rngs}
    streams = [copy.deepcopy(rng) for rng in unique.values()]
    index = {key: s for s, key in enumerate(unique)}
    # padding rows read the empty last segment
    row_stream = np.where(real, np.repeat([index[id(rng)] for rng in rngs], k_max), len(streams))
    readers = [np.flatnonzero(row_stream == s) for s in range(len(streams))]
    # an infinite gain (coincident nodes) still gives p = 0, with no 0 * inf
    stack = np.stack([np.minimum(np.pad(lg, (0, n_max - len(lg))), np.finfo(float).max) for lg in lgs])
    own = np.diagonal(stack, axis1=1, axis2=2)[:, None, :]
    valid = np.arange(n_max) < n_row[:, None]
    # segment s of buf holds draws head[s] .. head[s] + cap - 1 of stream s;
    # row r has read used[r] draws, its next is buf[off[r] + used[r]], and
    # reads go n_max at a time through a window view
    head = np.zeros(len(streams) + 1, dtype=np.int64)
    used = np.zeros(len(real), dtype=np.int64)
    buf, cap, off, end, window = np.zeros(n_max), 0, None, None, None

    def grow(new_cap):
        nonlocal buf, cap, off, end, window
        new = np.zeros((len(streams) + 1) * new_cap + n_max)
        for s, stream in enumerate(streams):
            new[s * new_cap : s * new_cap + cap] = buf[s * cap : (s + 1) * cap]
            stream.random(out=new[s * new_cap + cap : (s + 1) * new_cap])
        buf, cap = new, new_cap
        off = row_stream * cap - head[row_stream]
        end = row_stream * cap + cap
        window = np.lib.stride_tricks.sliding_window_view(buf, n_max)

    grow(64 * n_max)  # 32 slots of at most 2 n_max draws
    queues, p_cnt = np.zeros((2, len(real), n_max), dtype=np.int64)
    p_sum = np.zeros((len(real), n_max))
    for t in range(slots):
        start = off + used
        for s in np.unique(row_stream[start + 2 * n_row > end]).tolist():
            # keep what the slowest reader has not read, then draw the rest
            lo = int(used[readers[s]].min())
            need = int((used[readers[s]] + 2 * n_row[readers[s]]).max()) - lo
            if 2 * need > cap:
                grow(cap << ((2 * need - 1) // cap).bit_length())
            seg = buf[s * cap : (s + 1) * cap]
            keep = int(head[s]) + cap - lo
            seg[:keep] = seg[cap - keep :]
            streams[s].random(out=seg[keep:])
            head[s] = lo
            off[readers[s]] = s * cap - lo
            start = off + used
        queues += valid & (window[start] < xi)
        active = queues > 0
        rank = np.cumsum(active, axis=1) - 1
        u = buf.take((start + n_row)[:, None] + rank)
        used += n_row + rank[:, -1] + 1
        # conditional success probability of each active link given the
        # active set; successes are conditionally independent Bernoulli
        # (fading columns are disjoint across receivers)
        on = active.reshape(g_tot, k_max, n_max).astype(float)
        p = np.exp(-(np.einsum("gkj,gji->gki", on, stack) - own)).reshape(-1, n_max)
        queues -= active & (u < p)
        if t >= warmup:
            p_sum += np.where(active, p, 0.0)
            p_cnt += active
    for total, count in zip(p_sum[real], p_cnt[real]):
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


def _simulate_downlink(batch_iter, points, alpha, ratio, slots, warmup, n_target):
    """(point index, per-user values) of every trial at every (xi, theta) point.

    Each trial draws its layout once, and the log gains of one (trial, theta)
    serve every xi at that theta.  The rows, one per (point, trial), are
    stepped together by _downlink_slots in stacks of at most _STACK_ENTRIES
    log-gain entries, each from its own copy of the trial's stream after the
    layout: every row draws what a one-point call draws.
    """
    groups = _by_theta(points)
    rows, entries = [], 0  # (point index, stream, xi, log gains, serving, stations) per row
    for rng, _ in batch_iter:
        gain_to_user, serving, n_bs = _downlink_layout(rng, alpha, ratio, n_target)
        own_gain = gain_to_user[np.arange(len(serving)), serving]
        for theta, (ks, xis) in groups.items():
            # log factors per (user, interfering BS)
            lg = np.log1p(theta * gain_to_user / own_gain[:, None])
            if rows and entries + lg.size > _STACK_ENTRIES:
                yield from _step_downlink(rows, slots, warmup)
                rows, entries = [], 0
            rows += [(k, rng, xi, lg, serving, n_bs) for k, xi in zip(ks, xis)]
            entries += lg.size
    if rows:
        yield from _step_downlink(rows, slots, warmup)


def _step_downlink(rows, slots, warmup):
    ks, *columns = zip(*rows)
    return zip(ks, _downlink_slots(*columns, slots, warmup))


def _downlink_slots(rngs, xis, lgs, servings, n_bss, slots, warmup):
    """Step the slot loop of several rows together, each on its own stream.

    Row r has arrival probability xis[r], log gains lgs[r] (users x
    stations) and serving stations servings[r] out of n_bss[r].  It draws
    from its own copy of rngs[r] what the one-trial loop draws, in the same
    order each slot: random(n_users), the schedule's integers(0, counts) and
    random(m) for its m active cells.  Queues, schedules and tallies are
    updated for every row at once.  Each row's (m, m) block of log gains is
    summed on its own, as numpy sums a contiguous axis pairwise and a sum
    padded past m would round differently.
    """
    streams = [copy.deepcopy(rng) for rng in rngs]
    n_users = [len(serving) for serving in servings]
    u_max = max(n_users)
    # user i of row r is entry r * u_max + i of the flat per-user arrays
    offset = np.arange(len(streams)) * u_max
    own = np.zeros(len(streams) * u_max)
    order = np.zeros(len(streams) * u_max, dtype=np.int64)
    cells, counts, firsts = [], [], []
    for r, (lg, serving, n_bs) in enumerate(zip(lgs, servings, n_bss)):
        users = slice(offset[r], offset[r] + len(serving))
        own[users] = lg[np.arange(len(serving)), serving]
        # users of cell b: order[first[b] : first[b] + n[b]], in index order
        order[users] = offset[r] + np.argsort(serving, kind="stable")
        n = np.bincount(serving, minlength=n_bs)
        busy = np.flatnonzero(n)  # cells that serve at least one user
        cells.append(busy)
        counts.append(n[busy])
        firsts.append(offset[r] + (np.cumsum(n) - n)[busy])
    cell, first = np.concatenate(cells), np.concatenate(firsts)
    flat_lgs = [lg.ravel() for lg in lgs]
    n_cells = np.array([lg.shape[1] for lg in lgs])
    row_of_cell = np.repeat(np.arange(len(streams)), [len(c) for c in cells])
    row_end = np.cumsum([len(c) for c in cells]) - 1
    arrive = np.ones((len(streams), u_max))  # a padding user is never scheduled
    fills = [arrive[r, :n] for r, n in enumerate(n_users)]
    xi = np.reshape(xis, (-1, 1))
    queues, p_cnt = np.zeros((2, len(streams) * u_max), dtype=np.int64)
    p_sum = np.zeros(len(streams) * u_max)
    u = np.empty(len(cell))
    for t in range(slots):
        picks = []
        for stream, fill, n in zip(streams, fills, counts):
            stream.random(out=fill)
            # random scheduling: each busy cell picks one of its users uniformly;
            # one array draw consumes the stream as one scalar draw per cell does
            picks.append(stream.integers(0, n))
        queues += (arrive < xi).ravel()
        scheduled = order[first + np.concatenate(picks)]
        on = queues[scheduled] > 0
        rx = scheduled[on]
        if len(rx) == 0:
            continue
        # user i and cell b of row r are entry i * n_cells[r] + b of flat_lgs[r]
        owner = row_of_cell[on]
        at, bs = (rx - offset[owner]) * n_cells[owner], cell[on]
        logs = np.empty(len(rx))
        lo = 0
        for lg, stream, hi in zip(flat_lgs, streams, np.cumsum(on)[row_end].tolist()):
            if hi > lo:  # row r's active cells are entries lo .. hi - 1
                np.add.reduce(lg.take(at[lo:hi, None] + bs[lo:hi]), axis=1, out=logs[lo:hi])
                stream.random(out=u[lo:hi])
            lo = hi
        p = np.exp(-(logs - own[rx]))
        queues[rx[u[: len(rx)] < p]] -= 1
        if t >= warmup:
            p_sum[rx] += p
            p_cnt[rx] += 1
    for r, n in enumerate(n_users):
        total, count = p_sum[offset[r] : offset[r] + n], p_cnt[offset[r] : offset[r] + n]
        yield total[count > 0] / count[count > 0]


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
    point's Estimate equals its one-point call's.  An xi outside [0, 1] or a
    negative theta raises ValueError before any draw.
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
    if not np.all((xis >= 0.0) & (xis <= 1.0)):
        raise ValueError("arrival probability must lie in [0, 1]")
    if not np.all(thetas >= 0.0):
        raise ValueError("theta must be nonnegative")
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
