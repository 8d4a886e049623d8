import copy
import math

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import betainc, gammaln, hyp2f1

from stochgeo import queueing, simengine
from stochgeo.core import Estimate
from stochgeo.queueing import (
    _mean_inverse_load,
    bipolar_success,
    cell_size_pmf,
    downlink_success,
    simulate_queues,
)
from stochgeo.simengine import SimConfig


# ------------------------------------------------------------- cell size pmf


def test_pmf_nonnegative_and_normalized():
    total = sum(cell_size_pmf(n, 5.0) for n in range(400))
    assert total == pytest.approx(1.0, abs=1e-10)
    assert all(cell_size_pmf(n, 5.0) >= 0 for n in range(50))


def test_pmf_mode_near_four_at_ratio_five():
    vals = [cell_size_pmf(n, 5.0) for n in range(30)]
    mode = int(np.argmax(vals))
    assert abs(mode - 4) <= 1  # direct enumeration oracle


def test_pmf_validation():
    with pytest.raises(ValueError):
        cell_size_pmf(-1, 5.0)
    with pytest.raises(ValueError):
        cell_size_pmf(1, 0.0)


# ------------------------------------------------------------ downlink fixed point


def _brute_inverse_load(ratio):
    """S = sum_{n>=1} p(n)/n / (1 - p0), the negative-binomial pmf from gammaln,
    summed to the first n_max = 64 * 2^k past which the next term and the
    missing mass P[N > n_max] = I_q(n_max + 1, nu) are both below 1e-16."""
    nu, q = 3.5, ratio / (ratio + 3.5)

    def log_p(n):
        return (nu * math.log(nu) + gammaln(n + nu) - gammaln(n + 1.0) - gammaln(nu)
                + n * math.log(ratio) - (n + nu) * math.log(ratio + nu))

    n_max = 64
    while not (math.exp(log_p(n_max + 1.0)) < 1e-16 and betainc(n_max + 1.0, nu, q) < 1e-16):
        n_max *= 2
    n = np.arange(1.0, n_max + 1.0)
    return float(np.sum(np.exp(log_p(n)) / n)) / (1.0 - math.exp(log_p(0.0)))


def _damped_iteration(xi_u, theta, alpha, ratio):
    """P_s by damped iteration P <- (P + g(P))/2 from P = 1 on
    g(P) = 1/(1 - p_A + p_A F), p_A = min(xi_u/(P S), 1), until |P - g(P)| <= 1e-10:
    the reference algorithm, with S from the brute-force sum."""
    delta = 2.0 / alpha
    f = hyp2f1(1.0, -delta, 1.0 - delta, -theta)
    s = _brute_inverse_load(ratio)

    def step(ps):
        p_a = min(xi_u / (max(ps, 1e-12) * s), 1.0)
        return 1.0 / (1.0 - p_a + p_a * f)

    ps = 1.0
    for _ in range(100000):
        g = step(ps)
        done = abs(ps - g) <= 1e-10
        ps = 0.5 * (ps + g)
        if done:
            return ps
    raise AssertionError("the damped iteration did not converge")


@pytest.mark.parametrize("ratio", [1e-3, 0.5, 5.0, 20.0, 1e3, 1e5])
def test_mean_inverse_load_matches_brute_force_sum(ratio):
    assert _mean_inverse_load(ratio) == pytest.approx(_brute_inverse_load(ratio), rel=1e-9, abs=0.0)


def _kink_theta(xi, ratio, alpha=4.0):
    """theta at which xi F(theta) = S, where the queue saturates."""
    delta = 2.0 / alpha
    return brentq(lambda t: xi * hyp2f1(1.0, -delta, 1.0 - delta, -t) - _mean_inverse_load(ratio), 0.0, 1e12)


def _grid_across_the_kink():
    """(xi, theta, ratio) points on both branches and on both sides of xi F = S."""
    points = [(xi, theta, ratio) for ratio in (0.5, 2.0, 5.0, 20.0) for xi in (0.01, 0.05, 0.2, 0.9)
              for theta in (0.01, 0.1, 1.0, 10.0, 100.0, 1e3)]
    for ratio, xi in ((0.5, 0.05), (5.0, 0.01), (5.0, 0.05), (20.0, 0.01)):
        t = _kink_theta(xi, ratio)
        points += [(xi, t * (1.0 + e), ratio) for e in (-1e-3, -1e-6, 1e-6, 1e-3)]
    return points


def test_downlink_limits():
    for ratio in (0.5, 5.0):
        s = _mean_inverse_load(ratio)
        assert downlink_success(0.0, 1.0, 4.0, ratio) == (1.0, 0.0)
        assert downlink_success(0.05, 0.0, 4.0, ratio) == (1.0, min(0.05 / s, 1.0))


def test_downlink_closed_form_matches_damped_iteration():
    saturated = 0
    for xi, theta, ratio in _grid_across_the_kink():
        sol = downlink_success(xi, theta, 4.0, ratio)
        # p_A = xi/(P_s S) follows from P_s: the fixed-point test checks it
        assert sol.success == pytest.approx(_damped_iteration(xi, theta, 4.0, ratio), abs=1e-8)
        assert 0.0 <= sol.activity <= 1.0
        saturated += sol.activity == 1.0
    assert 0 < saturated < len(_grid_across_the_kink())  # both branches are crossed


def test_downlink_closed_form_meets_the_fixed_point_equation():
    for xi, theta, ratio in _grid_across_the_kink():
        ps, p_a = downlink_success(xi, theta, 4.0, ratio)
        f = hyp2f1(1.0, -0.5, 0.5, -theta)
        assert abs(ps * (1.0 - p_a + p_a * f) - 1.0) <= 1e-14
        assert p_a == min(xi / (ps * _mean_inverse_load(ratio)), 1.0)


def test_downlink_rejects_every_theta_outside_the_domain():
    # alpha <= 2 raises at theta = 0 too, as at theta > 0
    for theta in (0.0, 1.0):
        with pytest.raises(ValueError):
            downlink_success(0.5, theta, 1.5, 5.0)
    for ratio in (0.0, -1.0):
        with pytest.raises(ValueError):
            downlink_success(0.05, 1.0, 4.0, ratio)


def test_downlink_monotone_in_xi_and_theta():
    ps = [downlink_success(x, 1.0, 4.0, 5.0).success for x in (0.01, 0.05, 0.2, 0.8)]
    assert all(a >= b for a, b in zip(ps, ps[1:]))
    ps = [downlink_success(0.05, t, 4.0, 5.0).success for t in (0.1, 1.0, 10.0)]
    assert all(a >= b for a, b in zip(ps, ps[1:]))


def _theta_at_success(target, xi, alpha, ratio):
    lo, hi = 1e-4, 1e5
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        if downlink_success(xi, mid, alpha, ratio).success > target:
            lo = mid
        else:
            hi = mid
    return math.sqrt(lo * hi)


def test_downlink_ten_db_gap():
    # the theta gap at P_s = 0.8 between xi=0.01 and xi=0.05 is ~10 dB
    t1 = _theta_at_success(0.8, 0.01, 4.0, 5.0)
    t2 = _theta_at_success(0.8, 0.05, 4.0, 5.0)
    gap_db = 10.0 * math.log10(t1 / t2)
    assert gap_db > 10.0
    assert abs(gap_db - 10.0) < 2.0 or gap_db > 10.0  # documented "over 10 dB"
    assert 8.0 <= gap_db <= 12.0


# -------------------------------------------------------------- bipolar W


def _c_of(theta, alpha, lam, r_t):
    d = 2.0 / alpha
    return lam * math.pi * r_t**2 * theta**d * math.gamma(1 + d) * math.gamma(1 - d)


def test_bipolar_small_load_limit():
    sol = bipolar_success(1e-6, 1.0, 4.0, 0.001, 2.0)
    assert sol.success == pytest.approx(1.0, abs=1e-4)
    assert sol.activity == pytest.approx(1e-6, rel=1e-3)


def test_bipolar_lower_bound_saturated():
    for xi in (0.1, 0.5, 0.85, 1.0):
        for theta in (0.1, 1.0, 100.0, 1000.0):
            sol = bipolar_success(xi, theta, 4.0, 0.001, 2.0)
            c = _c_of(theta, 4.0, 0.001, 2.0)
            assert sol.success >= math.exp(-c) - 1e-12


def test_bipolar_large_theta_overlap():
    theta = 10.0 ** (2.5)  # 25 dB
    a = bipolar_success(0.85, theta, 4.0, 0.001, 2.0).success
    b = bipolar_success(1.0, theta, 4.0, 0.001, 2.0).success
    assert a == pytest.approx(b, abs=1e-12)  # both saturated


def test_bipolar_activity_monotone_and_saturation():
    acts = [bipolar_success(x, 10.0, 4.0, 0.001, 2.0).activity for x in (0.1, 0.4, 0.7, 1.0)]
    assert all(b >= a - 1e-12 for a, b in zip(acts, acts[1:]))
    # saturated branch has activity exactly one
    theta = 10.0**3
    sol = bipolar_success(0.9, theta, 4.0, 0.001, 2.0)
    c = _c_of(theta, 4.0, 0.001, 2.0)
    if 0.9 > math.exp(-c):
        assert sol.activity == 1.0


def test_bipolar_branch_selection_consistency():
    # unsaturated branch chosen iff xi <= exp(-C) (requires the W branch)
    for xi in (0.05, 0.3, 0.85):
        for theta in (0.5, 5.0, 50.0, 500.0):
            c = _c_of(theta, 4.0, 0.001, 2.0)
            sol = bipolar_success(xi, theta, 4.0, 0.001, 2.0)
            unsat = sol.success > math.exp(-c) + 1e-15
            if unsat:
                assert xi * c <= 1.0 / math.e + 1e-12
                assert xi <= math.exp(-c) + 1e-12
                # W-branch value satisfies P = exp(W(-xi C)) = xi/p_A
                assert sol.success == pytest.approx(xi / sol.activity, rel=1e-9)


# ------------------------------------------------------------- simulations


def test_simulate_bipolar_matches_analytic():
    cfg = SimConfig(trials=48, master_seed=101)
    for xi, theta in [(0.5, 1.0), (0.85, 10.0)]:
        est = simulate_queues(
            "bipolar", xi, theta, 4.0, cfg, density=0.001, r_t=2.0, slots=800, warmup=200,
            n_target=100,
        )
        ana = bipolar_success(xi, theta, 4.0, 0.001, 2.0).success
        assert abs(est.mean - ana) < 0.02


def test_simulate_downlink_matches_analytic_light_load():
    # the mean-field fixed point is accurate in the lightly loaded regime the
    # paper plots; its cell-size treatment understates activity at moderate
    # load (degradation reported, not asserted, by the validation suite)
    cfg = SimConfig(trials=10, master_seed=102)
    for xi, theta in ((0.01, 0.1), (0.01, 1.0), (0.05, 0.1)):
        est = simulate_queues(
            "downlink", xi, theta, 4.0, cfg, ratio=5.0, slots=2500, warmup=500, n_target=100
        )
        ana = downlink_success(xi, theta, 4.0, 5.0).success
        assert abs(est.mean - ana) < 0.03


def test_simulate_downlink_xi_ordering():
    # smaller arrival rate gives higher success at every theta (Fig-22 trend)
    cfg = SimConfig(trials=6, master_seed=104)
    for theta in (0.5, 5.0):
        vals = [
            simulate_queues(
                "downlink", xi, theta, 4.0, cfg, ratio=5.0, slots=1500, warmup=300,
                n_target=64,
            ).mean
            for xi in (0.01, 0.05, 0.2)
        ]
        assert vals[0] > vals[1] > vals[2]


def test_simulate_validation():
    cfg = SimConfig(trials=1, master_seed=103)
    with pytest.raises(ValueError):
        simulate_queues("bipolar", 0.5, 1.0, 4.0, cfg, slots=100, warmup=200)
    with pytest.raises(ValueError):
        simulate_queues("carrier", 0.5, 1.0, 4.0, cfg)


@pytest.mark.parametrize("xi, theta", [(1.5, 1.0), (-0.1, 1.0), (math.nan, 1.0), (0.5, -0.5),
                                       ([0.2, 1.2], 1.0), (0.3, [1.0, -2.0]), ([0.2, math.nan], [1.0, 2.0])])
@pytest.mark.parametrize("mode, kw", [("bipolar", dict(density=0.05, r_t=2.0)), ("downlink", dict(ratio=5.0))])
def test_simulate_rejects_xi_and_theta_outside_their_domains_before_any_draw(monkeypatch, mode, kw, xi, theta):
    # as bipolar_success and downlink_success do
    calls = []
    monkeypatch.setattr(simengine, "run_batches", lambda *a, **k: calls.append(a))
    with pytest.raises(ValueError):
        simulate_queues(mode, xi, theta, 4.0, SimConfig(trials=3, master_seed=1, worker_hint=1), slots=60,
                        warmup=20, n_target=10, **kw)
    assert calls == []


# --------------------------------------------- one-trial reference loops
#
# The simulator steps the rows of many trials together, and every (xi, theta)
# row of a trial reads the same slot uniforms.  These loops step one trial at
# a time and one cell at a time, drawing each slot's uniforms from the trial's
# stream after its layout: n arrival then n departure uniforms for n bipolar
# links; for the downlink one arrival uniform per user, then one schedule and
# one departure uniform per busy cell.  Every Estimate must agree exactly.


def _ref_bipolar_layout(rng, theta, alpha, density, r_t, n_target):
    half = 0.5 * math.sqrt(n_target / density)
    n = rng.poisson(density * (2.0 * half) ** 2)
    tx = rng.random((n, 2)) * 2.0 * half - half
    ang = rng.random(n) * 2.0 * math.pi
    rx = tx + r_t * np.column_stack([np.cos(ang), np.sin(ang)])
    tx = np.vstack([[0.0, 0.0], tx])
    rx = np.vstack([[r_t, 0.0], rx])
    rx = (rx + half) % (2.0 * half) - half
    gains = queueing._torus_gains(tx, rx, half, alpha)
    own = np.diag(gains).copy()
    return np.log1p(theta * gains / own[None, :])


def _ref_bipolar_trial(rng, xi, theta, alpha, density, r_t, slots, warmup, n_target):
    lg = _ref_bipolar_layout(rng, theta, alpha, density, r_t, n_target)
    if xi == 1.0:  # every link is backlogged in every slot
        return list(_saturated_closed_form(lg))
    return _ref_bipolar_slots(rng, lg, xi, slots, warmup)


def _saturated_closed_form(lg):
    return np.exp(-(lg.sum(axis=0) - np.diag(lg)))


def _ref_bipolar_slots(rng, lg, xi, slots, warmup):
    own_lg = np.diag(lg).copy()
    n_tot = len(lg)
    queues = np.zeros(n_tot, dtype=np.int64)
    p_sum = np.zeros(n_tot)
    p_cnt = np.zeros(n_tot, dtype=np.int64)
    for t in range(slots):
        u = rng.random(2 * n_tot)
        arrive, depart = u[:n_tot], u[n_tot:]
        queues += arrive < xi
        idx = np.flatnonzero(queues > 0)
        if len(idx) == 0:
            continue
        logs = lg[idx, :].sum(axis=0)[idx] - own_lg[idx]
        p = np.exp(-logs)
        queues[idx[depart[idx] < p]] -= 1
        if t >= warmup:
            p_sum[idx] += p
            p_cnt[idx] += 1
    seen = p_cnt > 0
    return list(p_sum[seen] / p_cnt[seen])


def _ref_downlink_layout(rng, theta, alpha, ratio, n_bs_target):
    half = 0.5 * math.sqrt(n_bs_target)
    n_bs = max(rng.poisson((2.0 * half) ** 2), 2)
    bs = rng.random((n_bs, 2)) * 2.0 * half - half
    n_u = rng.poisson(ratio * (2.0 * half) ** 2)
    users = rng.random((n_u, 2)) * 2.0 * half - half
    users = np.vstack([[0.0, 0.0], users])
    d = np.abs(users[:, None, :] - bs[None, :, :])
    d = np.minimum(d, 2.0 * half - d)
    dist = np.hypot(d[..., 0], d[..., 1])
    serving = np.argmin(dist, axis=1)
    gain_to_user = dist**-alpha
    own_gain = gain_to_user[np.arange(len(users)), serving]
    return np.log1p(theta * gain_to_user / own_gain[:, None]), serving, n_bs


def _ref_downlink_trial(rng, xi_u, theta, alpha, ratio, slots, warmup, n_bs_target, active_cells=None):
    lg, serving, n_bs = _ref_downlink_layout(rng, theta, alpha, ratio, n_bs_target)
    n_users = len(serving)
    own_lg = lg[np.arange(n_users), serving]
    queues = np.zeros(n_users, dtype=np.int64)
    busy = [b for b in range(n_bs) if np.any(serving == b)]
    members = [np.flatnonzero(serving == b) for b in busy]
    p_sum = np.zeros(n_users)
    p_cnt = np.zeros(n_users, dtype=np.int64)
    for t in range(slots):
        u = rng.random(n_users + 2 * len(busy))
        arrive, pick, depart = u[:n_users], u[n_users : n_users + len(busy)], u[n_users + len(busy) :]
        queues += arrive < xi_u
        # random scheduling: each busy cell picks one of its users uniformly
        scheduled = np.array([mem[min(int(s * len(mem)), len(mem) - 1)] for mem, s in zip(members, pick)])
        active = queues[scheduled] > 0
        idx_bs = np.flatnonzero(active)
        if active_cells is not None:
            active_cells.append(len(idx_bs))
        if len(idx_bs) == 0:
            continue
        rx_users = scheduled[idx_bs]
        logs = lg[np.ix_(rx_users, np.asarray(busy)[idx_bs])].sum(axis=1) - own_lg[rx_users]
        p = np.exp(-logs)
        queues[rx_users[depart[idx_bs] < p]] -= 1
        if t >= warmup:
            p_sum[rx_users] += p
            p_cnt[rx_users] += 1
    seen = p_cnt > 0
    return list(p_sum[seen] / p_cnt[seen])


def _ref_queues(mode, xi, theta, alpha, cfg, density=None, ratio=None, r_t=None, slots=2500, warmup=500,
                n_target=128):
    probs = []
    for rng, _ in simengine.batches(cfg, "queue"):
        if mode == "bipolar":
            p = _ref_bipolar_trial(rng, xi, theta, alpha, density, r_t, slots, warmup, n_target)
        else:
            p = _ref_downlink_trial(rng, xi, theta, alpha, ratio, slots, warmup, n_target)
        if p:
            probs.append(float(np.mean(p)))
    return simengine.confidence(np.asarray(probs), cfg.master_seed)


def _trial_streams(cfg):
    return [rng for rng, _ in simengine.batches(cfg, "queue")]


def _spy_stacks(monkeypatch):
    """The rows of each _bipolar_rows call, as (stream, log gains, xi)."""
    calls = []
    rows = queueing._bipolar_rows

    def spied(stack, *args):
        calls.append([(rng, lg, xi) for rng, lg, _, points in stack for _, xi in points])
        return rows(stack, *args)

    monkeypatch.setattr(queueing, "_bipolar_rows", spied)
    return calls


def _spy_copies(monkeypatch):
    """(state when copied, copy) of every stream that copy.deepcopy copies."""
    copies = []
    deepcopy = copy.deepcopy

    def spied(obj, *args):
        twin = deepcopy(obj, *args)
        if isinstance(obj, np.random.Generator):
            copies.append((deepcopy(obj.bit_generator.state), twin))
        return twin

    monkeypatch.setattr(copy, "deepcopy", spied)
    return copies


@pytest.mark.parametrize("xi, theta", [(0.5, 1.0), (1.0, 100.0)])
def test_bipolar_stacks_match_one_trial_loop(monkeypatch, xi, theta):
    calls, copies = _spy_stacks(monkeypatch), _spy_copies(monkeypatch)
    cfg = SimConfig(trials=24, master_seed=211)
    kw = dict(density=0.001, r_t=2.0, slots=300, warmup=100, n_target=200)
    assert simulate_queues("bipolar", xi, theta, 4.0, cfg, **kw) == _ref_queues("bipolar", xi, theta, 4.0, cfg, **kw)
    sizes = [len(rows) for rows in calls]
    assert len(sizes) > 1 and sum(sizes) == cfg.trials
    # at xi = 1 every link is backlogged in every slot: the closed form steps no slot
    assert (len(copies) == cfg.trials) if xi < 1.0 else copies == []


def test_bipolar_without_interferers_matches_one_trial_loop():
    # a torus of side 4.5 around links of length 2, so the interference is strong
    cfg = SimConfig(trials=30, master_seed=212)
    kw = dict(density=0.05, r_t=2.0, slots=200, warmup=50, n_target=1)
    layouts = [_ref_bipolar_layout(rng, 1.0, 4.0, 0.05, 2.0, 1) for rng in _trial_streams(cfg)]
    assert min(map(len, layouts)) == 1 < max(map(len, layouts))  # some trial is the tagged pair alone
    assert simulate_queues("bipolar", 0.3, 1.0, 4.0, cfg, **kw) == _ref_queues("bipolar", 0.3, 1.0, 4.0, cfg, **kw)


def test_bipolar_idle_trials_match_one_trial_loop():
    # so few arrivals that some trials see no transmission after warm-up
    cfg = SimConfig(trials=30, master_seed=213)
    kw = dict(density=0.05, r_t=2.0, slots=80, warmup=60, n_target=2)
    est = simulate_queues("bipolar", 0.002, 1.0, 4.0, cfg, **kw)
    assert 0 < est.n < cfg.trials
    assert est == _ref_queues("bipolar", 0.002, 1.0, 4.0, cfg, **kw)


def test_bipolar_infinite_gain_matches_one_trial_loop():
    # transmitter 2 sits on receiver 0: its log factor there is infinite
    lg = np.log1p(np.array([[1.0, 0.2, 0.1], [0.3, 1.0, 0.2], [np.inf, 0.1, 1.0]]))
    lgs = [lg, lg[:2, :2]]
    stack = [(np.random.default_rng(k), g, np.arange(len(g)), [(k, 0.6)]) for k, g in zip((1, 2), lgs)]
    got = list(queueing._bipolar_rows(stack, 60, 10))
    want = [_ref_bipolar_slots(np.random.default_rng(k), g, 0.6, 60, 10) for k, g in zip((1, 2), lgs)]
    assert [k for k, _ in got] == [1, 2] and [list(v) for _, v in got] == want
    assert not np.isnan(got[0][1]).any()


def test_downlink_schedule_matches_per_cell_loop():
    cfg = SimConfig(trials=4, master_seed=214)
    kw = dict(ratio=0.3, slots=300, warmup=100, n_target=16)
    for rng in _trial_streams(cfg):
        _, serving, n_bs = _ref_downlink_layout(rng, 1.0, 4.0, 0.3, 16)
        assert np.bincount(serving, minlength=n_bs).min() == 0  # a cell serves no user
    for xi, theta in ((0.3, 1.0), (0.05, 10.0)):
        assert simulate_queues("downlink", xi, theta, 4.0, cfg, **kw) == _ref_queues(
            "downlink", xi, theta, 4.0, cfg, **kw
        )


def test_bipolar_result_does_not_depend_on_stack_cap(monkeypatch):
    calls = _spy_stacks(monkeypatch)
    cfg = SimConfig(trials=6, master_seed=215)
    kw = dict(density=0.001, r_t=2.0, slots=200, warmup=50, n_target=100)
    ests = []
    for cap in (queueing._STACK_ENTRIES, 0, 1 << 62):
        monkeypatch.setattr(queueing, "_STACK_ENTRIES", cap)
        ests.append(simulate_queues("bipolar", 0.85, 10.0, 4.0, cfg, **kw))
    assert ests[0] == ests[1] == ests[2]
    assert [len(rows) for rows in calls] == [6, 1, 1, 1, 1, 1, 1, 6]


# ------------------------------------------------- (xi, theta) sweeps
#
# A sweep draws each trial's layout once and steps every point from its own
# copy of the trial's stream, so each point must equal its one-point call.


def _assert_sweep_matches_points(mode, xis, thetas, cfg, **kw):
    sweep = simulate_queues(mode, xis, thetas, 4.0, cfg, **kw)
    xis, thetas = np.broadcast_arrays(xis, thetas)
    assert sweep == [simulate_queues(mode, float(x), float(t), 4.0, cfg, **kw) for x, t in zip(xis, thetas)]
    return sweep


def test_bipolar_sweep_matches_points_across_stack_boundaries(monkeypatch):
    calls = _spy_stacks(monkeypatch)
    monkeypatch.setattr(queueing, "_STACK_ENTRIES", 4 * 110**2)  # four matrices of about 100 links per stack
    cfg = SimConfig(trials=7, master_seed=221)
    kw = dict(density=0.001, r_t=2.0, slots=250, warmup=50, n_target=100)
    xis, thetas = [0.5, 0.85, 1.0, 0.5], [1.0, 10.0, 100.0, 100.0]
    sweep = simulate_queues("bipolar", xis, thetas, 4.0, cfg, **kw)
    # one row per (point, trial)
    assert len(calls) > 1 and sum(map(len, calls)) == 4 * cfg.trials
    # some stack holds rows of two points, each with its own xi
    assert any(len({xi for _, _, xi in rows}) > 1 for rows in calls)
    assert sweep == [simulate_queues("bipolar", x, t, 4.0, cfg, **kw) for x, t in zip(xis, thetas)]


def test_bipolar_sweep_shares_theta_across_stack_boundaries(monkeypatch):
    # three xi per theta, so each (trial, theta) matrix serves three rows
    calls = _spy_stacks(monkeypatch)
    monkeypatch.setattr(queueing, "_STACK_ENTRIES", 3 * 130**2)  # three matrices of about 100 links per stack
    cfg = SimConfig(trials=5, master_seed=226)
    kw = dict(density=0.001, r_t=2.0, slots=200, warmup=50, n_target=100)
    xis, thetas = [0.3, 0.6, 0.9] * 2, [1.0] * 3 + [30.0] * 3
    sweep = simulate_queues("bipolar", xis, thetas, 4.0, cfg, **kw)
    assert all(sum(lg is g for _, g, _ in rows) == 3 for rows in calls for _, lg, _ in rows)
    streams = [{id(rng) for rng, _, _ in rows} for rows in calls]
    # some trial's two thetas fall on both sides of a stack boundary
    assert any(a & b for a, b in zip(streams, streams[1:]))
    assert sweep == [simulate_queues("bipolar", x, t, 4.0, cfg, **kw) for x, t in zip(xis, thetas)]


def test_bipolar_sweep_with_uneven_xi_counts_matches_points(monkeypatch):
    # two xi at one theta and one at another: a stack pads the one-row matrices
    calls = _spy_stacks(monkeypatch)
    cfg = SimConfig(trials=4, master_seed=229)
    kw = dict(density=0.001, r_t=2.0, slots=150, warmup=50, n_target=100)
    points = ((0.3, 1.0), (0.6, 1.0), (0.5, 10.0), (1.0, 10.0))
    sweep = simulate_queues("bipolar", *zip(*points), 4.0, cfg, **kw)
    # the xi = 1 row takes its closed form: the stepped rows are the other three
    stepped = [[lg for _, lg, xi in rows if xi < 1.0] for rows in calls]
    assert any(len({sum(g is lg for g in lgs) for lg in lgs}) > 1 for lgs in stepped)
    assert sweep == [simulate_queues("bipolar", x, t, 4.0, cfg, **kw) for x, t in points]


def test_bipolar_sweep_matches_points_without_interferers_and_idle():
    # trials that are the tagged pair alone (side 4.5 torus, links of length 2) ...
    cfg = SimConfig(trials=30, master_seed=212)
    kw = dict(density=0.05, r_t=2.0, slots=200, warmup=50, n_target=1)
    _assert_sweep_matches_points("bipolar", 0.3, [0.1, 1.0, 10.0], cfg, **kw)
    # ... and trials with no transmission after warm-up at the lowest xi
    cfg = SimConfig(trials=30, master_seed=213)
    kw = dict(density=0.05, r_t=2.0, slots=80, warmup=60, n_target=2)
    low, high = _assert_sweep_matches_points("bipolar", [0.002, 0.3], 1.0, cfg, **kw)
    assert 0 < low.n < cfg.trials == high.n


def test_bipolar_sweep_matches_points_with_an_infinite_gain(monkeypatch):
    torus_gains = queueing._torus_gains

    def coincident(tx, rx, half, alpha):
        gains = torus_gains(tx, rx, half, alpha)
        gains[-1, 0] = np.inf  # the last transmitter sits on the tagged receiver
        return gains

    monkeypatch.setattr(queueing, "_torus_gains", coincident)
    cfg = SimConfig(trials=5, master_seed=222)
    kw = dict(density=0.001, r_t=2.0, slots=150, warmup=50, n_target=100)
    sweep = _assert_sweep_matches_points("bipolar", [0.4, 1.0], [1.0, 10.0], cfg, **kw)
    assert all(0.0 <= e.mean < 1.0 for e in sweep)


def test_downlink_sweep_matches_points():
    cfg = SimConfig(trials=4, master_seed=214)  # a cell that serves no user, as above
    kw = dict(ratio=0.3, slots=300, warmup=100, n_target=16)
    _assert_sweep_matches_points("downlink", [0.3, 0.05, 0.05], [1.0, 10.0, 0.1], cfg, **kw)
    # an idle point: no user transmits after warm-up in some trials
    cfg = SimConfig(trials=6, master_seed=223)
    kw = dict(ratio=0.3, slots=60, warmup=50, n_target=4)
    low, high = _assert_sweep_matches_points("downlink", [0.01, 0.3], 1.0, cfg, **kw)
    assert 0 < low.n < cfg.trials == high.n


def test_sweep_shapes():
    cfg = SimConfig(trials=2, master_seed=224)
    kw = dict(density=0.001, r_t=2.0, slots=60, warmup=20, n_target=50)
    est = simulate_queues("bipolar", 0.5, 1.0, 4.0, cfg, **kw)
    assert isinstance(est, Estimate)
    assert simulate_queues("bipolar", [0.5], 1.0, 4.0, cfg, **kw) == [est]
    for xis, thetas in (([0.5, 0.85], [1.0, 10.0, 100.0]), ([[0.5]], 1.0), ([], 1.0)):
        with pytest.raises(ValueError):
            simulate_queues("bipolar", xis, thetas, 4.0, cfg, **kw)
    with pytest.raises(ValueError):
        simulate_queues("downlink", [0.01, 0.05], [1.0, 10.0, 0.1], 4.0, cfg, ratio=5.0)


def test_saturated_stack_runs_one_einsum(monkeypatch):
    # at xi = 1 every queue is busy from slot 0 on: p is one column sum per
    # (trial, theta), so no stream is copied and no einsum runs
    copies = _spy_copies(monkeypatch)
    monkeypatch.setattr(queueing, "_STACK_ENTRIES", 4 * 110**2)
    einsums = []
    einsum = np.einsum
    monkeypatch.setattr(np, "einsum", lambda *a, **kw: einsums.append(a[0]) or einsum(*a, **kw))
    cfg = SimConfig(trials=6, master_seed=225)
    ests = simulate_queues("bipolar", 1.0, [1.0, 10.0, 100.0], 4.0, cfg, density=0.001, r_t=2.0, slots=200,
                           warmup=50, n_target=100)
    assert copies == [] and einsums == []
    assert [e.n for e in ests] == [cfg.trials] * 3


def test_saturated_sweep_matches_one_trial_loop(monkeypatch):
    calls = _spy_stacks(monkeypatch)
    cfg = SimConfig(trials=6, master_seed=227)
    kw = dict(density=0.001, r_t=2.0, slots=200, warmup=50, n_target=100)
    thetas = [1.0, 10.0, 100.0]
    sweep = simulate_queues("bipolar", 1.0, thetas, 4.0, cfg, **kw)
    assert sweep == [_ref_queues("bipolar", 1.0, t, 4.0, cfg, **kw) for t in thetas]
    # trials that are the tagged pair alone, next to stepped rows at xi = 0.3
    cfg = SimConfig(trials=30, master_seed=212)
    kw = dict(density=0.05, r_t=2.0, slots=200, warmup=50, n_target=1)
    sweep = simulate_queues("bipolar", [1.0, 0.3], 1.0, 4.0, cfg, **kw)
    assert sweep == [_ref_queues("bipolar", x, 1.0, 4.0, cfg, **kw) for x in (1.0, 0.3)]
    assert any({xi for _, _, xi in rows} == {1.0, 0.3} for rows in calls)


def test_saturated_sweep_matches_one_trial_loop_with_an_infinite_gain(monkeypatch):
    torus_gains = queueing._torus_gains

    def coincident(tx, rx, half, alpha):
        gains = torus_gains(tx, rx, half, alpha)
        gains[-1, 0] = np.inf  # the last transmitter sits on the tagged receiver
        return gains

    monkeypatch.setattr(queueing, "_torus_gains", coincident)
    copies = _spy_copies(monkeypatch)
    cfg = SimConfig(trials=5, master_seed=222)
    kw = dict(density=0.001, r_t=2.0, slots=150, warmup=50, n_target=100)
    sweep = simulate_queues("bipolar", 1.0, [1.0, 10.0], 4.0, cfg, **kw)
    assert sweep == [_ref_queues("bipolar", 1.0, t, 4.0, cfg, **kw) for t in (1.0, 10.0)]
    assert copies == [] and all(0.0 <= e.mean < 1.0 for e in sweep)


@pytest.mark.parametrize("hint, cap", [(1, None), (2, None), (1, 10_000), (1, 0)])
def test_downlink_stacks_match_per_cell_loop(monkeypatch, hint, cap):
    stacks = []
    if cap is not None:
        # 10 000: about two (trial, theta) log-gain matrices, one trial's per stack;
        # 0: one matrix per stack, so each trial's two thetas step in two stacks
        monkeypatch.setattr(queueing, "_STACK_ENTRIES", cap)
        rows = queueing._downlink_rows
        monkeypatch.setattr(queueing, "_downlink_rows",
                            lambda stack, *a: stacks.append(sum(len(r) for *_, r in stack)) or rows(stack, *a))
    cfg = SimConfig(trials=4, master_seed=228, worker_hint=hint)
    kw = dict(ratio=5.0, slots=150, warmup=50, n_target=30)
    points = [(0.3, 1.0), (0.05, 1.0), (0.05, 10.0)]
    sweep = simulate_queues("downlink", *zip(*points), 4.0, cfg, **kw)
    assert sweep == [_ref_queues("downlink", x, t, 4.0, cfg, **kw) for x, t in points]
    assert cap is None or (len(stacks) > 2 and sum(stacks) == len(points) * cfg.trials)
    # in some slot the rows stepped together reduce blocks of different sizes,
    # at least 9 cells wide: a sum padded to a common width would round differently
    active = []
    for x, t in points:
        for rng in _trial_streams(cfg):
            active.append([])
            _ref_downlink_trial(rng, x, t, 4.0, 5.0, 150, 50, 30, active_cells=active[-1])
    assert any(len(set(slot)) > 1 and max(slot) >= 9 for slot in zip(*active))


# ------------------------------------------------ common random numbers
#
# After its layout, a trial's stream draws one fixed block of uniforms per
# slot, which every (xi, theta) row of the trial reads: the draws follow
# neither the activity nor the rows, the stacks or the hint.

MODES = [("bipolar", dict(density=0.001, r_t=2.0, n_target=100)), ("downlink", dict(ratio=5.0, n_target=30))]


def _state(rng):
    return repr(rng.bit_generator.state)


def _post_layout(mode, cfg, kw):
    """{state after its layout: slot-block size} of each trial stream."""
    blocks = {}
    for rng in _trial_streams(cfg):
        if mode == "bipolar":
            size = 2 * len(_ref_bipolar_layout(rng, 1.0, 4.0, kw["density"], kw["r_t"], kw["n_target"]))
        else:
            _, serving, _ = _ref_downlink_layout(rng, 1.0, 4.0, kw["ratio"], kw["n_target"])
            size = len(serving) + 2 * len(np.unique(serving))
        blocks[_state(rng)] = size
    return blocks


@pytest.mark.parametrize("mode, kw", MODES)
@pytest.mark.parametrize("hint, cap", [(1, None), (1, 0), (1, 180_000), (2, None)])
def test_each_trial_draws_one_block_per_slot(monkeypatch, mode, kw, hint, cap):
    copies = _spy_copies(monkeypatch)
    if cap is not None:
        monkeypatch.setattr(queueing, "_STACK_ENTRIES", cap)
    cfg = SimConfig(trials=4, master_seed=230, worker_hint=hint)
    simulate_queues(mode, [0.02, 0.5, 0.9, 1.0], [1.0, 1.0, 10.0, 10.0], 4.0, cfg, slots=75, warmup=20, **kw)
    blocks = _post_layout(mode, cfg, kw)
    # every stack copies each of its trials' streams after the layout (at hint 2, the
    # copies of this process's chunk), and the copy draws 75 blocks
    assert len(copies) >= (1 if hint > 1 else cfg.trials)
    for state, twin in copies:
        ref = np.random.Generator(np.random.Philox())
        ref.bit_generator.state = state
        ref.random(75 * blocks[repr(state)])
        assert _state(twin) == _state(ref)
    if cap == 0:  # one stack per (trial, theta): each trial's stream is copied once per theta
        assert len(copies) == 2 * cfg.trials


@pytest.mark.parametrize("mode, kw", MODES)
def test_slot_block_size_changes_no_value(monkeypatch, mode, kw):
    cfg = SimConfig(trials=3, master_seed=231)
    ests = []
    for block in (queueing._BLOCK_SLOTS, 1, 7, 1000):
        monkeypatch.setattr(queueing, "_BLOCK_SLOTS", block)
        ests.append(simulate_queues(mode, [0.05, 0.5, 1.0], [1.0, 10.0, 10.0], 4.0, cfg, slots=75, warmup=20,
                                    **kw))
    assert all(e == ests[0] for e in ests)


def test_stepped_saturated_loop_meets_the_closed_form():
    # at xi = 1 every link holds a packet in every slot, so each slot's success
    # probability is the closed form; the simulation returns it without stepping
    cfg = SimConfig(trials=5, master_seed=232)
    kw = dict(density=0.001, r_t=2.0, slots=300, warmup=50, n_target=100)
    means = []
    for rng in _trial_streams(cfg):
        lg = _ref_bipolar_layout(rng, 10.0, 4.0, 0.001, 2.0, 100)
        stepped = _ref_bipolar_slots(rng, lg, 1.0, 300, 50)
        assert np.allclose(stepped, _saturated_closed_form(lg), rtol=0.0, atol=1e-12)
        means.append(np.mean(stepped))
    est = simulate_queues("bipolar", 1.0, 10.0, 4.0, cfg, **kw)
    assert est.mean == pytest.approx(np.mean(means), rel=0.0, abs=1e-12)
