import math
import tracemalloc
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate as sciint

from stochgeo import relay_retx
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
from stochgeo import simengine
from stochgeo.pointprocess import PPP, NetworkModel, sample_batch
from stochgeo.simengine import SimConfig, batches, estimate_jsp, seed_stream

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


def _ring_by_quad(b, z, c_m, alpha, r_cut):
    """The ring integral of relay_moments, one radius at a time on the same
    angular rule, by adaptive quad (epsrel 1e-13) split at the receivers."""
    psi, wpsi = relay_retx._PSI_NODES

    def ring(r):
        g = sum(np.log1p(c * np.hypot(r * np.cos(psi) - zx, r * np.sin(psi) - zy) ** -alpha)
                for (zx, zy), c in zip(z, c_m))
        return r * np.dot(wpsi, -np.expm1(-b * g))

    edges = sorted({0.0, r_cut, *(float(v) for v in np.hypot(z[:, 0], z[:, 1]) if 0.0 < v < r_cut)})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", sciint.IntegrationWarning)
        return sum(sciint.quad(ring, lo, hi, epsabs=0.0, epsrel=1e-13, limit=2000)[0]
                   for lo, hi in zip(edges, edges[1:]))


@pytest.mark.parametrize("n_hops", [2, 3, 4])
def test_relay_ring_matches_adaptive_quadrature(n_hops):
    # at the radius relay_moments cuts at; an even route has a receiver at its midpoint
    route = linear_route(n_hops, 1.0)
    z = np.array(route.receivers) - route.midpoint()
    for theta in (0.1, 1.0, 10.0, 100.0):
        for alpha in (3.0, 4.0):
            c_m = theta * np.asarray(route.hop_distances) ** alpha
            r_cut = route.extent() + 40.0 * max(1.0, max(route.hop_distances)) * max(theta, 1.0) ** (1.0 / alpha)
            for b in (0.5, 1.0, 2.0):
                want = _ring_by_quad(b, z, c_m, alpha, r_cut)
                assert relay_retx._ring_integral(b, z, c_m, alpha, r_cut) == pytest.approx(want, rel=1e-10)


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


def _harq_by_mpmath(theta, alpha, density, r_t, regime):
    """30-digit Type-II HARQ-CC: the inner radial integrals as Beta and 2F1
    closed forms, the u-integral by tanh-sinh split at theta/2."""
    with mp.workdps(30):
        th, a, lam, rt = map(mp.mpf, (theta, alpha, density, r_t))
        d = 2 / a
        c = lam * mp.pi * rt**2 * mp.gamma(1 - d) * mp.gamma(1 + d)
        scale = 2 * mp.pi * lam * rt**2 / a * mp.beta(1 - d, 1 + d if regime == "fvi" else 2 + d)

        def f(u):
            p, q = th - u, u
            if regime == "fvi":
                return scale * q ** (d - 1) * mp.exp(-c * (q**d + p**d))
            expo = c * ((p ** (1 + d) - q ** (1 + d)) / (p - q) if p != q else (1 + d) * q**d)
            return scale * q ** (d - 1) * mp.hyp2f1(1, 1 - d, 3, 1 - p / q) * mp.exp(-expo)

        return float(mp.exp(-c * th**d) + mp.quad(f, [0, th / 2, th]))


@pytest.mark.parametrize("alpha", [2.5, 3.0, 4.0, 6.0])
def test_harq_type2_matches_mpmath_reference(alpha):
    for theta in (0.05, 0.2, 1.0, 10.0, 100.0):
        for regime in ("qsi", "fvi"):
            want = _harq_by_mpmath(theta, alpha, LAM, RT, regime)
            assert harq_type2_cc(theta, alpha, LAM, RT, regime) == pytest.approx(want, rel=1e-10)


def _radial_by_quad(k, alpha, r_t):
    """int_0^inf w k(w) r dr with w = r_t^a r^-a, for a bounded k: [0, 1] as
    it stands, and [1, inf) as t = 1/r, where the integrand is
    r_t^a k(w) t^(a-3) and the t^(a-3) end is a QAWS weight."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", sciint.IntegrationWarning)
        head = sciint.quad(lambda r: r_t**alpha * r ** (1.0 - alpha) * k(r_t**alpha * r**-alpha), 0.0, 1.0,
                           epsabs=0.0, epsrel=1e-12, limit=500)[0]
        tail = sciint.quad(lambda t: r_t**alpha * k(r_t**alpha * t**alpha), 0.0, 1.0, weight="alg",
                           wvar=(alpha - 3.0, 0.0), epsabs=0.0, epsrel=1e-12, limit=500)[0]
    return head + tail


@pytest.mark.parametrize("alpha", [2.5, 4.0, 6.0])
def test_harq_inner_closed_forms_match_quadrature(alpha):
    r_t = 1.3
    for p, q in ((0.3, 0.31), (2.0, 0.01), (0.01, 2.0), (50.0, 7.0)):
        gain_fvi = _radial_by_quad(lambda w: 1.0 / (1.0 + q * w) ** 2, alpha, r_t)
        gain_qsi = _radial_by_quad(lambda w: 1.0 / ((1.0 + p * w) * (1.0 + q * w) ** 2), alpha, r_t)
        # 1 - 1/((1 + p w)(1 + q w)) = w (p + q + p q w)/((1 + p w)(1 + q w))
        expo = _radial_by_quad(lambda w: (p + q + p * q * w) / ((1.0 + p * w) * (1.0 + q * w)), alpha, r_t)
        pa, qa = np.array([p]), np.array([q])
        assert relay_retx._mrc_gain(pa, qa, alpha, r_t, "fvi")[0] == pytest.approx(gain_fvi, rel=1e-10)
        assert relay_retx._mrc_gain(pa, qa, alpha, r_t, "qsi")[0] == pytest.approx(gain_qsi, rel=1e-10)
        assert relay_retx._qsi_exponent(pa, qa, alpha, r_t)[0] == pytest.approx(expo, rel=1e-10)


def test_harq_type2_threshold_domain():
    for regime in ("qsi", "fvi"):
        assert harq_type2_cc(0.0, ALPHA, LAM, RT, regime) == 1.0
        with pytest.raises(ValueError):
            harq_type2_cc(-0.5, ALPHA, LAM, RT, regime)


def test_harq_type2_vs_mrc_simulation(usable_cpus):
    cfg = SimConfig(trials=30000, master_seed=113, worker_hint=usable_cpus)
    for regime in ("qsi", "fvi"):
        ana = harq_type2_cc(1.0, ALPHA, LAM, RT, regime)
        est = estimate_harq_mrc(1.0, ALPHA, LAM, RT, regime, cfg)
        assert est.within(ana, atol=2e-3)


def _ref_harq_kernel(rng, size, theta, alpha, density, r_t, regime, radius):
    # the kernel out of place, with one points-sized fading draw per slot
    sirs = []
    for slot in range(2):
        if slot == 0 or regime == "fvi":
            radii, counts = sample_batch(PPP(density), radius, rng, size)
            ra = radii**-alpha
        h = rng.standard_exponential(ra.size)
        ends = np.cumsum(counts)
        csum = np.concatenate([[0.0], np.cumsum(h * ra)])
        inter = csum[ends] - csum[ends - counts]
        sirs.append(rng.standard_exponential(size) * r_t**-alpha / np.maximum(inter, 1e-300))
    s1, s2 = sirs
    return ((s1 > theta) | (s1 + s2 > theta)).astype(float)


@pytest.mark.parametrize("regime", ["qsi", "fvi"])
def test_harq_kernel_draws_the_reference_bits(regime):
    # 5 blocks of fading per slot in the first batch, a part batch after it
    cfg, args = SimConfig(trials=1500, master_seed=17), (1.0, ALPHA, 1.0, RT, regime, 10.0)
    (got,) = simengine.run_batches(cfg, "harq_mrc", relay_retx._harq_chunk, *args)
    want = np.concatenate([_ref_harq_kernel(rng, size, *args) for rng, size in batches(cfg, "harq_mrc")])
    assert 0 < got.sum() < got.size and np.array_equal(got, want)


@pytest.mark.parametrize("regime", ["qsi", "fvi"])
def test_a_harq_batch_holds_one_point_sized_array(regime):
    """One 1024-trial batch holds its gains r^-alpha beside block-sized
    fading buffers, and fvi drops the first slot's before it samples the
    second: it peaks at 1.22 arrays, against 3.02 out of place.  The two
    fvi samples differ in size by Poisson noise, about 0.2 % here."""
    stream = simengine.STREAMS["harq_mrc"][0]
    points = sample_batch(PPP(1.0), 10.0, seed_stream(1, 0, stream), 1024)[0].size
    tracemalloc.start()
    try:
        relay_retx._harq_chunk.__wrapped__(seed_stream(1, 0, stream), 1024, 1.0, ALPHA, 1.0, RT, regime, 10.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.3 * points * 8
