import math

import numpy as np
import pytest
from scipy.special import hyp2f1

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


def _downlink_linear_oracle(xi_u, theta, alpha, ratio):
    # the fixed point collapses to P = 1 - xi (F-1)/S on the unsaturated
    # branch and 1/F when saturated (derived by eliminating p_A)
    delta = 2.0 / alpha
    f = hyp2f1(1.0, -delta, 1.0 - delta, -theta)
    s = _mean_inverse_load(ratio)
    return max(1.0 - xi_u * (f - 1.0) / s, 1.0 / f)


def test_downlink_limits():
    assert downlink_success(0.0, 1.0, 4.0, 5.0).success == 1.0
    assert downlink_success(0.05, 0.0, 4.0, 5.0).success == 1.0


def test_downlink_fixed_point_matches_linear_oracle():
    for xi in (0.01, 0.05, 0.2, 0.9):
        for theta in (0.1, 1.0, 10.0, 100.0):
            sol = downlink_success(xi, theta, 4.0, 5.0)
            assert sol.converged
            assert sol.success == pytest.approx(
                _downlink_linear_oracle(xi, theta, 4.0, 5.0), abs=1e-8
            )
            assert 0.0 <= sol.activity <= 1.0


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
