import math

import pytest

from stochgeo.relay_retx import (
    RelayRoute,
    corr_coeff_retx,
    csp_retx,
    estimate_harq_mrc,
    estimate_relay_jsp,
    harq_type1,
    harq_type2_cc,
    jsp_retx,
    linear_route,
    p_retx,
    relay_moments,
)
from stochgeo.pointprocess import PPP, NetworkModel
from stochgeo.simengine import SimConfig, estimate_jsp

LAM, ALPHA, RT = 0.1, 4.0, 1.0


# ------------------------------------------------------------------- routing


def test_route_geometry():
    r = linear_route(3, 1.0)
    assert r.n_hops == 3
    assert r.hop_distances == (1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        RelayRoute(())
    with pytest.raises(ValueError):
        RelayRoute(((0.0, 0.0),))  # zero first hop


def test_relay_single_hop_qsi_equals_fvi():
    r = linear_route(1, 1.0)
    for theta in (0.3, 1.0, 5.0):
        a = relay_moments(1.0, r, theta, ALPHA, LAM, "qsi")
        b = relay_moments(1.0, r, theta, ALPHA, LAM, "fvi")
        assert a == pytest.approx(b, rel=1e-9)


def test_relay_single_hop_matches_ppp_closed_form():
    r = linear_route(1, RT)
    d = 2.0 / ALPHA
    expected = math.exp(
        -math.pi * LAM * 1.0**d * RT**2 * math.gamma(1 - d) * math.gamma(1 + d)
    )
    assert relay_moments(1.0, r, 1.0, ALPHA, LAM, "fvi") == pytest.approx(expected, rel=1e-10)


def test_relay_fvi_product_identity():
    # equal-hop line: M(b, M) = M(b, 1)^M under fvi
    m1 = relay_moments(1.0, linear_route(1, 1.0), 1.0, ALPHA, LAM, "fvi")
    for m in (2, 3, 4):
        mm = relay_moments(1.0, linear_route(m, 1.0), 1.0, ALPHA, LAM, "fvi")
        assert mm == pytest.approx(m1**m, rel=1e-9)


def test_relay_qsi_above_fvi():
    for m in (2, 3, 4):
        r = linear_route(m, 1.0)
        q = relay_moments(1.0, r, 1.0, ALPHA, LAM, "qsi")
        f = relay_moments(1.0, r, 1.0, ALPHA, LAM, "fvi")
        assert q > f


def test_relay_spatial_csp_increases_with_hops():
    # M(1, M)/M(1, M-1) grows with M under qsi
    prev = None
    for m in (2, 3, 4, 5):
        num = relay_moments(1.0, linear_route(m, 1.0), 1.0, ALPHA, LAM, "qsi")
        den = relay_moments(1.0, linear_route(m - 1, 1.0), 1.0, ALPHA, LAM, "qsi")
        ratio = num / den
        if prev is not None:
            assert ratio > prev
        prev = ratio


def test_relay_temporal_csp_decreases_with_hops():
    # E[P^2]/E[P] for the end-to-end product falls as hops accumulate at the
    # equal-hop configuration (alpha=4, lam=0.1, d=1) for every threshold
    # tested; confirmed against brute-force Monte Carlo at each (b, M)
    # (see the decisions log for the conflicting published trend)
    prev = None
    for m in (1, 2, 3):
        r = linear_route(m, 1.0)
        ratio = relay_moments(2.0, r, 1.0, ALPHA, LAM, "qsi") / relay_moments(
            1.0, r, 1.0, ALPHA, LAM, "qsi"
        )
        if prev is not None:
            assert ratio < prev
        prev = ratio


def test_relay_vs_mc_qsi_and_fvi(usable_cpus):
    cfg = SimConfig(trials=20000, master_seed=111, worker_hint=usable_cpus)
    r = linear_route(3, 1.0)
    for regime in ("qsi", "fvi"):
        ana = relay_moments(1.0, r, 1.0, ALPHA, LAM, regime)
        est = estimate_relay_jsp(r, 1.0, ALPHA, LAM, regime, cfg)
        assert est.within(ana, atol=2e-3)


# ------------------------------------------------------------------- JSP/CSP


def test_jsp_k1_regime_independent():
    a = jsp_retx(1, "qsi", 1.0, ALPHA, LAM, RT)
    b = jsp_retx(1, "fvi", 1.0, ALPHA, LAM, RT)
    assert a == pytest.approx(b, rel=1e-12)


def test_d2_gamma_recurrence():
    # D_2(delta) = E(2) / E(1) = 1 + delta exactly, E the Poisson link exponent
    from stochgeo.sir_analysis import ppp_link_exponent

    for delta in (0.2, 0.5, 0.9):
        e1, e2 = (ppp_link_exponent(LAM, b, 1.0, 2.0 / delta, RT) for b in (1.0, 2.0))
        assert e2 / e1 == pytest.approx(1.0 + delta, rel=1e-12)


def test_jsp_qsi_above_fvi():
    for k in (2, 3, 4):
        assert jsp_retx(k, "qsi", 1.0, ALPHA, LAM, RT) > jsp_retx(k, "fvi", 1.0, ALPHA, LAM, RT)


def test_jsp_log_linear_in_density_and_rt2():
    # exponent structure: log J scales linearly with lam and r_t^2
    j1 = jsp_retx(2, "qsi", 1.0, ALPHA, 0.05, 1.0)
    j2 = jsp_retx(2, "qsi", 1.0, ALPHA, 0.10, 1.0)
    j3 = jsp_retx(2, "qsi", 1.0, ALPHA, 0.05, math.sqrt(2.0))
    assert math.log(j2) == pytest.approx(2.0 * math.log(j1), rel=1e-12)
    assert math.log(j3) == pytest.approx(2.0 * math.log(j1), rel=1e-12)


def test_jsp_vs_mc(usable_cpus):
    cfg = SimConfig(trials=20000, master_seed=112, worker_hint=usable_cpus)
    model = NetworkModel(PPP(LAM), alpha=ALPHA, link_distance=RT)
    for k in (2, 3):
        for regime in ("qsi", "fvi"):
            ana = jsp_retx(k, regime, 1.0, ALPHA, LAM, RT)
            est = estimate_jsp(model, k, regime, 1.0, cfg)
            assert est.within(ana, atol=2e-3)


def test_csp_fvi_constant_qsi_increasing():
    vals = [csp_retx(k, "qsi", 1.0, ALPHA, LAM, RT) for k in (1, 2, 3, 4)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    fvi = [csp_retx(k, "fvi", 1.0, ALPHA, LAM, RT) for k in (1, 2, 3)]
    assert fvi[0] == pytest.approx(fvi[1], rel=1e-12)
    assert fvi[0] == pytest.approx(jsp_retx(1, "fvi", 1.0, ALPHA, LAM, RT), rel=1e-12)


def test_csp_qsi_delta_to_zero_limit():
    # alpha -> inf (delta -> 0): fully correlated successes, CSP -> 1
    assert csp_retx(3, "qsi", 1.0, 200.0, LAM, RT) == pytest.approx(1.0, abs=1e-2)


# ------------------------------------------------------- correlation coefficient


def test_corr_small_argument_limit():
    # y -> 0: (e^{y(1-d)} - 1)/(e^y - 1) -> 1 - d, within 1e-3
    for alpha in (3.0, 4.0, 6.0):
        z = corr_coeff_retx(1e-6, alpha, 1e-4, 1.0)
        assert abs(z - (1.0 - 2.0 / alpha)) < 1e-3


def test_corr_decreasing_in_density_and_theta():
    zs = [corr_coeff_retx(1.0, ALPHA, lam, RT) for lam in (0.05, 0.1, 0.2)]
    assert zs[0] > zs[1] > zs[2]
    zs = [corr_coeff_retx(t, ALPHA, LAM, RT) for t in (0.5, 1.0, 5.0)]
    assert zs[0] > zs[1] > zs[2]


def test_corr_delta_to_one_limit():
    assert corr_coeff_retx(1.0, 2.02, LAM, RT) < 0.05
    assert corr_coeff_retx(1.0, ALPHA, LAM, RT, regime="fvi") == 0.0


# ------------------------------------------------------------- retransmission


def test_p1_equals_j1():
    assert p_retx(1, "qsi", 1.0, ALPHA, LAM, RT) == pytest.approx(
        jsp_retx(1, "qsi", 1.0, ALPHA, LAM, RT), rel=1e-12
    )


def test_p_fvi_independence_algebra():
    # P_K = 1 - (1 - J_1)^K to 1e-12
    j1 = jsp_retx(1, "fvi", 1.0, ALPHA, LAM, RT)
    for k in (1, 2, 3, 4, 6):
        assert p_retx(k, "fvi", 1.0, ALPHA, LAM, RT) == pytest.approx(
            1.0 - (1.0 - j1) ** k, abs=1e-12
        )


def test_p_fvi_above_qsi():
    for k in (2, 3, 4):
        assert p_retx(k, "fvi", 1.0, ALPHA, LAM, RT) >= p_retx(k, "qsi", 1.0, ALPHA, LAM, RT)


# ----------------------------------------------------------------------- HARQ


def test_harq_type1_equals_p2():
    for regime in ("qsi", "fvi"):
        assert harq_type1(1.0, ALPHA, LAM, RT, regime) == pytest.approx(
            p_retx(2, regime, 1.0, ALPHA, LAM, RT), rel=1e-12
        )


def test_harq_type1_theta_to_zero():
    assert harq_type1(1e-9, ALPHA, LAM, RT, "qsi") == pytest.approx(1.0, abs=1e-4)


def test_harq_type1_qsi_below_fvi():
    assert harq_type1(1.0, ALPHA, LAM, RT, "qsi") < harq_type1(1.0, ALPHA, LAM, RT, "fvi")


def test_harq_type2_above_type1():
    for regime in ("qsi", "fvi"):
        for theta in (0.2, 1.0, 5.0):
            t2 = harq_type2_cc(theta, ALPHA, LAM, RT, regime)
            t1 = harq_type1(theta, ALPHA, LAM, RT, regime)
            assert t2 >= t1 - 1e-9
            assert t2 <= 1.0 + 1e-9


def test_harq_gap_small_at_low_threshold():
    theta = 0.05 / (1.0 - 0.05)  # 0.05 on the MH axis
    for regime in ("qsi", "fvi"):
        gap = harq_type2_cc(theta, ALPHA, LAM, RT, regime) - harq_type1(
            theta, ALPHA, LAM, RT, regime
        )
        assert 0.0 <= gap < 0.01


def test_harq_type2_vs_mrc_simulation(usable_cpus):
    cfg = SimConfig(trials=30000, master_seed=113, worker_hint=usable_cpus)
    for regime in ("qsi", "fvi"):
        ana = harq_type2_cc(1.0, ALPHA, LAM, RT, regime)
        est = estimate_harq_mrc(1.0, ALPHA, LAM, RT, regime, cfg)
        assert est.within(ana, atol=2e-3)
