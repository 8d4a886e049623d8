"""Success probabilities with unsaturated, interacting queues.

Analytic side: two mean-field fixed points, each in closed form: the
downlink under random scheduling, max(1 - xi (F - 1)/S, 1/F) with the mean
inverse cell load S on a fixed Gauss-Legendre rule, and the bipolar
Lambert-W solution.  Simulation side:
a discrete-time network of FIFO queues with Bernoulli arrivals where a head
packet departs iff the per-slot SIR (fresh fading, current active set)
clears the threshold, drawn with its fading-averaged probability.

The simulation runs on common random numbers: after its layout, a trial's
stream draws one fixed block of uniforms per slot, and every (xi, theta)
row of the trial reads it.  So no draw depends on the activity, on the
other rows or on how rows are stacked, and a grid point equals its
one-point call.
"""

import copy
import math
from typing import NamedTuple

import numpy as np

from .numerics import gauss_legendre, lambert_w0
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


def cell_size_pmf(n, ratio):
    """P[N_u = n]: negative-binomial cell-load approximation with shape 3.5.

    Normalizes to one over n >= 0; the mean inverse load renormalizes over
    n >= 1 (the serving cell holds at least its own user).
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


_S_PANELS, _S_NODES = 4, 32  # fixed Gauss-Legendre rule for the mean inverse load


def _mean_inverse_load(ratio):
    """S = E[1/N | N >= 1] = sum_{n>=1} p(n)/n / (1 - p0) on a fixed rule.

    With the load pgf G(s) = p0 (1 - q s)^-nu, q = ratio/(ratio + nu), and
    u = -log(1 - q s): S (1 - p0) = int_0^1 (G(s) - p0)/s ds
    = int_0^U (e^(-nu (U - u)) - p0)/(e^u - 1) du with U = log(1 + ratio/nu),
    written p0 expm1(nu u)/expm1(u), a smooth integrand, on 4 equal panels of
    32 Gauss-Legendre nodes.
    """
    p0 = cell_size_pmf(0, ratio)
    edges = np.linspace(0.0, math.log1p(ratio / _NU), _S_PANELS + 1)
    u, w = gauss_legendre(_S_NODES, edges[:-1], edges[1:])
    return p0 * float(np.sum(w * np.expm1(_NU * u) / np.expm1(u))) / (1.0 - p0)


def downlink_success(xi_u, theta, alpha, ratio):
    """Downlink success probability with random scheduling.

    The fixed point P_s = 1/(1 - p_A + p_A F(theta)), p_A = min(xi_u/(P_s S), 1),
    where F is the downlink hypergeometric and S the renormalized mean
    inverse cell load, in closed form: eliminating p_A gives
    P_s = max(1 - xi_u (F - 1)/S, 1/F), the saturated branch 1/F exactly
    when xi_u F >= S.  At theta = 0, F = 1 and P_s = 1.
    """
    if not (0.0 <= xi_u <= 1.0):
        raise ValueError("arrival probability must lie in [0, 1]")
    if theta < 0:
        raise ValueError("theta must be nonnegative")
    f = downlink_hyp2f1(1.0, theta, alpha)
    s = _mean_inverse_load(ratio)
    ps = max(1.0 - xi_u * (f - 1.0) / s, 1.0 / f)
    return QueueSolution(ps, min(xi_u / (ps * s), 1.0))


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
    return QueueSolution(ps, p_a)


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


_STACK_ENTRIES = 1 << 20  # log-gain entries (8 MB) per stack, each matrix counted at the stack's largest
_BLOCK_SLOTS = 32  # slots of uniforms drawn per stream call; no value depends on it


def _bipolar_layout(rng, alpha, density, r_t, half):
    """Torus gains (tx, rx) of one trial's links, the tagged pair first, and
    each receiver's transmitter."""
    n = rng.poisson(density * (2.0 * half) ** 2)
    tx = rng.random((n, 2)) * 2.0 * half - half
    ang = rng.random(n) * 2.0 * math.pi
    rx = tx + r_t * np.column_stack([np.cos(ang), np.sin(ang)])
    # tagged pair at the center (Slivnyak)
    tx = np.vstack([[0.0, 0.0], tx])
    rx = np.vstack([[r_t, 0.0], rx])
    rx = (rx + half) % (2.0 * half) - half
    return _torus_gains(tx, rx, half, alpha), np.arange(n + 1)


def _downlink_layout(rng, alpha, ratio, n_bs_target):
    """Gains from every base station to every user (the tagged user first)
    and each user's serving station."""
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
    return dist.T**-alpha, np.argmin(dist, axis=1)


def _by_theta(points):
    """{theta: ([point indices], [xi])} in order of first appearance."""
    groups = {}
    for k, (xi, theta) in enumerate(points):
        ks, xis = groups.setdefault(theta, ([], []))
        ks.append(k)
        xis.append(xi)
    return groups


def _slot_uniforms(rngs, cols, slots):
    """Each slot's uniforms as one array: a copy of stream k draws
    cols[k + 1] - cols[k] uniforms per slot, _BLOCK_SLOTS slots per call,
    into columns cols[k] onward, and a last column holds 1.0."""
    streams = [copy.deepcopy(rng) for rng in rngs]
    block = np.ones((_BLOCK_SLOTS, cols[-1] + 1))
    for t in range(0, slots, _BLOCK_SLOTS):
        b = min(_BLOCK_SLOTS, slots - t)
        for stream, lo, hi in zip(streams, cols, cols[1:]):
            block[:b, lo:hi] = stream.random((b, hi - lo))
        yield from block[:b]


def _bipolar_rows(stack, slots, warmup):
    """(point index, per-link values) of every row of a stack of (stream, L,
    serving, [(point index, xi)]) entries, one per (trial, theta).

    A row at xi = 1 has every link backlogged in every slot: its values are
    exp(-(column sums of L - diag L)), and it steps no slot.  The other rows
    step together, each matrix padded to the largest.  Every slot, a trial's
    stream draws n arrival then n departure uniforms for its n links: link i
    gains a packet if its arrival uniform is below xi and, when active,
    sends it if its departure uniform is below its success probability.
    The einsum adds the active rows of L in row order, as the one-trial
    loop's L[active].sum(axis=0) does.
    """
    live = []
    for rng, lg, _, rows in stack:
        if any(xi == 1.0 for _, xi in rows):
            p = np.exp(-(lg.sum(axis=0) - np.diag(lg)))
            yield from ((k, p) for k, xi in rows if xi == 1.0)
        if any(xi < 1.0 for _, xi in rows):
            live.append((rng, lg, [(k, xi) for k, xi in rows if xi < 1.0]))
    if not live:
        return
    rngs, lgs, rows = zip(*live)
    streams = list(dict.fromkeys(rngs))
    n = np.array([len(lg) for lg in lgs])
    cols = np.cumsum([0] + [2 * len(lgs[rngs.index(rng)]) for rng in streams])
    # uniforms of link i of matrix g: arrival at idx[0, g, 0, i], departure at idx[1, g, 0, i]; a padding
    # link reads the 1.0
    i, n = np.arange(n.max()), n[:, None, None]
    start = cols[[streams.index(rng) for rng in rngs]][:, None, None] + np.array([0, 1])[:, None, None, None] * n
    idx = np.where(i < n, start + i, cols[-1])
    # row (g, k) steps matrix g at xi[g, k]; a padding row has xi = 0 and never holds a packet
    xi = np.zeros((len(rows), max(map(len, rows)), 1))
    for x, r in zip(xi, rows):
        x[: len(r), 0] = [v for _, v in r]
    # an infinite gain (coincident nodes) still gives p = 0, with no 0 * inf
    mats = np.stack([np.minimum(np.pad(lg, (0, len(i) - len(lg))), np.finfo(float).max) for lg in lgs])
    own = np.diagonal(mats, axis1=1, axis2=2)[:, None, :]
    queues, p_cnt = np.zeros((2, *xi.shape[:2], len(i)), dtype=np.int64)
    p_sum = np.zeros(queues.shape)
    for t, u in enumerate(_slot_uniforms(streams, cols, slots)):
        arrive, depart = u.take(idx)
        queues += arrive < xi
        active = queues > 0
        # conditional success probability of each active link given the
        # active set; successes are conditionally independent Bernoulli
        # (fading columns are disjoint across receivers)
        p = np.exp(-(np.einsum("gkj,gji->gki", active.astype(float), mats) - own))
        queues -= active & (depart < p)
        if t >= warmup:
            p_sum += np.where(active, p, 0.0)
            p_cnt += active
    for r, totals, counts in zip(rows, p_sum, p_cnt):
        for (k, _), total, count in zip(r, totals, counts):
            yield k, total[count > 0] / count[count > 0]


def _downlink_rows(stack, slots, warmup):
    """(point index, per-user values) of every row of a stack of (stream, L,
    serving, [(point index, xi)]) entries, one per (trial, theta); L[b, i]
    is station b's log factor at user i.

    Every slot, a trial's stream draws one arrival uniform per user, then
    one schedule uniform per busy cell (a station serving some user), then
    one departure uniform per busy cell.  A cell of load m schedules its
    user floor(u m), capped at m - 1, in index order, for every row of the
    trial; a scheduled user with a packet receives, and sends it if the
    cell's departure uniform is below its success probability.  A
    receiver's log sum over its row's active cells is one segment of a
    ragged gather: np.add.reduceat adds a leading zero and then the cells
    as a contiguous sum of the cells alone does.
    """
    rngs, lgs, servings, rows = zip(*stack)
    # per trial, in stack order: its users' and busy cells' first entries in the per-user and per-cell
    # arrays, and its first column of slot uniforms
    trials, cols, n_users, n_cells = {}, [0], 0, 0
    orders, firsts, loads, draws = [], [], [], [[], [], []]
    for rng, serving in zip(rngs, servings):
        if rng in trials:
            continue
        counts = np.bincount(serving)
        busy = np.flatnonzero(counts)
        trials[rng] = (n_users, n_cells, cols[-1], busy)
        # users of busy cell c: order[first[c] : first[c] + load[c]], in index order
        orders.append(n_users + np.argsort(serving, kind="stable"))
        firsts.append(n_users + (np.cumsum(counts) - counts)[busy])
        loads.append(counts[busy])
        draws[1].append(cols[-1] + len(serving) + np.arange(len(busy)))
        cols.append(cols[-1] + len(serving) + 2 * len(busy))
        n_users, n_cells = n_users + len(serving), n_cells + len(busy)
    order, first, load = map(np.concatenate, (orders, firsts, loads))
    # row r's users are entries bounds[r] .. bounds[r + 1] - 1 of the per-row-user arrays, and its
    # trial's busy cells a run of the per-row-cell ones; flat's last entry is a segment's leading zero
    flat = np.concatenate([lg.ravel() for lg in lgs] + [[0.0]])
    keys, xis, owns, cell, row_of, at, shift, bounds = [], [], [], [], [], [], [], [0]
    for lg, (rng, serving, r), base in zip(lgs, zip(rngs, servings, rows), np.cumsum([0] + [lg.size for lg in lgs])):
        user0, cell0, col0, busy = trials[rng]
        n_u, n_c = len(serving), len(busy)
        for k, xi in r:
            keys.append(k)
            xis.append(np.full(n_u, xi))
            owns.append(lg[serving, np.arange(n_u)])
            draws[0].append(col0 + np.arange(n_u))
            draws[2].append(col0 + n_u + n_c + np.arange(n_c))
            cell.append(cell0 + np.arange(n_c))
            row_of.append(np.full(n_c, len(keys) - 1))
            # for a scheduled user of flat index i: its row entry is shift + i, and L[cell, user] is flat[at + i]
            shift.append(np.full(n_c, bounds[-1] - user0))
            at.append(base + busy * n_u - user0)
            bounds.append(bounds[-1] + n_u)
    xi, own, cell, row_of, at, shift = map(np.concatenate, (xis, owns, cell, row_of, at, shift))
    draw = np.concatenate([np.concatenate(d) for d in draws])  # arrivals, schedules, departures
    queues, p_cnt = np.zeros((2, len(xi)), dtype=np.int64)
    p_sum = np.zeros(len(xi))
    for t, u in enumerate(_slot_uniforms(list(trials), cols, slots)):
        v = u.take(draw)
        queues += v[: len(xi)] < xi
        pick = order[first + np.minimum((v[len(xi) : len(xi) + n_cells] * load).astype(np.int64), load - 1)]
        rx = pick[cell]
        on = np.flatnonzero(queues[shift + rx] > 0)
        if len(on) == 0:
            continue
        row = row_of[on]
        m = np.bincount(row, minlength=len(keys))[row] + 1
        seg = np.cumsum(m) - m
        j = np.arange(seg[-1] + m[-1]) - np.repeat(seg, m)
        partner = on[np.repeat(np.searchsorted(row, row), m) + j - 1]
        logs = np.add.reduceat(flat[np.where(j > 0, at[partner] + np.repeat(rx[on], m), -1)], seg)
        ru = shift[on] + rx[on]
        p = np.exp(-(logs - own[ru]))
        queues[ru[v[len(xi) + n_cells :][on] < p]] -= 1
        if t >= warmup:
            p_sum[ru] += p
            p_cnt[ru] += 1
    for k, lo, hi in zip(keys, bounds, bounds[1:]):
        total, count = p_sum[lo:hi], p_cnt[lo:hi]
        yield k, total[count > 0] / count[count > 0]


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
    array per (xi, theta) point.

    Each trial draws its layout once, and its log gains L at one theta serve
    every xi at that theta.  The (trial, theta) entries are stepped by the
    mode's row stepper in stacks of at most _STACK_ENTRIES entries of L,
    filled trial by trial, each matrix counted at the stack's largest.
    """
    if mode == "bipolar":
        half = 0.5 * math.sqrt(n_target / density)
        layout, step = (lambda rng: _bipolar_layout(rng, alpha, density, r_t, half)), _bipolar_rows
    else:
        layout, step = (lambda rng: _downlink_layout(rng, alpha, ratio, n_target)), _downlink_rows
    groups = _by_theta(points)
    means, stack, largest = [[] for _ in points], [], 0

    def flush():
        for k, p in step(stack, slots, warmup):
            if len(p):
                means[k].append(float(np.mean(p)))

    for rng, _ in batch_iter:
        gains, serving = layout(rng)
        own = gains[serving, np.arange(len(serving))]
        for theta, (ks, xis) in groups.items():
            # log factors of the fading-averaged success product, lg[j, i] for transmitter j and receiver i
            lg = np.log1p(theta * gains / own)
            largest = max(largest, lg.size)
            if stack and (len(stack) + 1) * largest > _STACK_ENTRIES:
                flush()
                stack, largest = [], lg.size
            stack.append((rng, lg, serving, list(zip(ks, xis))))
    if stack:
        flush()
    return tuple(np.asarray(m, dtype=float) for m in means)
