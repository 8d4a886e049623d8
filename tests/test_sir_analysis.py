import cmath
import math
import warnings

import numpy as np
import pytest
from scipy import integrate as sciint

from stochgeo import sir_analysis
from stochgeo.core import theta_from_mh, theta_mh
from stochgeo.location_users import lsu_moments
from stochgeo.numerics import gamma_ratio, gauss_legendre
from stochgeo.pointprocess import GPP, MCP, PPP, NetworkModel
from stochgeo.queueing import bipolar_success, downlink_success
from stochgeo.relay_retx import harq_type1, jsp_retx, linear_route, p_retx, relay_moments
from stochgeo.shadowing import BlockageModel, ShadowGrid, moments_shadowed
from stochgeo.simengine import SimConfig, estimate_meta, estimate_moment, estimate_success
from stochgeo.sir_analysis import (
    DownlinkImagMoments,
    GppAdhocMoments,
    meta_distribution,
    misr_estimate,
    misr_ppp,
    moments_adhoc,
    moments_downlink_ppp,
    sir_gain_g0,
)

PPP_MODEL = NetworkModel(PPP(0.1), alpha=4.0, link_distance=1.0)
MCP_MODEL = NetworkModel(MCP(0.02, 5.0, 1.0), alpha=4.0, link_distance=1.0)
GPP_MODEL = NetworkModel(GPP(0.1, 1.0), alpha=4.0, link_distance=1.0)


# ------------------------------------------------------------ ad hoc moments


def test_ppp_moment_closed_form_value():
    # Gamma(1.5)Gamma(0.5) = pi/2 -> exp(-0.1 pi^2 / 2)
    got = moments_adhoc(PPP_MODEL, 1.0, 1.0)
    assert got == pytest.approx(math.exp(-0.1 * math.pi**2 / 2.0), rel=1e-12)


def test_ppp_moment_vs_mc():
    cfg = SimConfig(trials=30000, master_seed=61)
    for b in (1.0, 2.0):
        ana = moments_adhoc(PPP_MODEL, b, 1.0)
        est = estimate_moment(PPP_MODEL, b, 1.0, "adhoc", cfg)
        assert est.within(ana)


def test_moment_theta_zero_is_one():
    for m in (PPP_MODEL, MCP_MODEL, GPP_MODEL):
        assert moments_adhoc(m, 1.0, 0.0) == 1.0


@pytest.mark.parametrize("model", [PPP_MODEL, MCP_MODEL, GPP_MODEL])
def test_adhoc_orders_at_or_below_minus_delta_diverge(model):
    # delta = 0.5: the nearest interferer makes E[(1 + theta r^-4)^-b] infinite for b <= -0.5
    got = moments_adhoc(model, [-0.5, -0.6, -1.0, 0.0, 1.0], [0.5, 1.0])
    assert np.all(got[:, :3] == math.inf) and np.all(got[:, 3] == 1.0)
    assert np.array_equal(got[:, 4], [moments_adhoc(model, 1.0, t) for t in (0.5, 1.0)])
    assert moments_adhoc(model, 0.0, 1.0) == 1.0 and moments_adhoc(model, -1.0, 0.0) == 1.0


def test_ppp_negative_orders_above_minus_delta_keep_the_closed_form():
    # exp(-lam pi theta^d r_t^2 G(1-d) G(b+d)/G(b)) at b = -0.3, d = 0.5
    want = math.exp(-0.1 * math.pi * math.gamma(0.5) * math.gamma(0.2) / math.gamma(-0.3))
    assert moments_adhoc(PPP_MODEL, -0.3, 1.0) == pytest.approx(want, rel=1e-12)


def test_mcp_moment_vs_mc():
    cfg = SimConfig(trials=30000, master_seed=62)
    for b, theta in [(1.0, 1.0), (2.0, 0.5)]:
        ana = moments_adhoc(MCP_MODEL, b, theta)
        est = estimate_moment(MCP_MODEL, b, theta, "adhoc", cfg)
        assert est.within(ana, atol=2e-3)


def test_gpp_moment_vs_mc():
    cfg = SimConfig(trials=30000, master_seed=63)
    for b, theta in [(1.0, 1.0), (2.0, 0.5)]:
        ana = moments_adhoc(GPP_MODEL, b, theta)
        est = estimate_moment(GPP_MODEL, b, theta, "adhoc", cfg)
        assert est.within(ana, atol=2e-3)


def test_gpp_moment_vs_bruteforce_factors():
    # independent oracle: direct per-index quadrature of the factors
    # 1 - beta(1 - E[v(Q_j)^b]) up to J, then the alpha=4 telescoping tail
    # sum_{j>J} E[Q_j^-2] = scale^-2 / (J-1) for the remaining log factors.
    # The Gamma(j, scale) density is written out in logs, which is the same
    # function as scipy.stats.gamma.pdf at a small share of the call cost.
    from scipy import special

    field, theta, alpha, r_t, b = GPP(0.2, 0.6), 0.8, 4.0, 1.0, 2.0
    c = theta * r_t**alpha
    scale = field.beta / (math.pi * field.density)
    log_m = 0.0
    J = 3000
    for j in range(1, J + 1):
        log_gamma_j = float(special.gammaln(j))
        val, _ = sciint.quad(
            lambda q: math.exp((j - 1) * math.log(q / scale) - q / scale - log_gamma_j) / scale
            * (1 + c * q ** (-alpha / 2)) ** -b,
            special.gammaincinv(j, 1e-12) * scale,
            special.gammainccinv(j, 1e-12) * scale,
        )
        log_m += math.log(1.0 - field.beta * (1.0 - val))
    log_m += -field.beta * b * c * scale**-2 / (J - 1)
    oracle = math.exp(log_m)
    got = moments_adhoc(NetworkModel(field, alpha=alpha, link_distance=r_t), b, theta)
    assert got == pytest.approx(oracle, rel=1e-6)


def test_fig11_ordering_analytic():
    for theta in (0.1, 0.5, 1.0, 3.0, 10.0):
        m_mcp = moments_adhoc(MCP_MODEL, 1.0, theta)
        m_ppp = moments_adhoc(PPP_MODEL, 1.0, theta)
        m_gpp = moments_adhoc(GPP_MODEL, 1.0, theta)
        assert m_mcp > m_ppp > m_gpp


def test_moment_jensen_and_bound_invariants():
    for m in (PPP_MODEL, MCP_MODEL, GPP_MODEL):
        m1 = moments_adhoc(m, 1.0, 1.0)
        m2 = moments_adhoc(m, 2.0, 1.0)
        assert m1**2 - 1e-12 <= m2 <= m1 + 1e-12
        # positive temporal correlation of success events
        assert m2 / m1 >= m1 - 1e-12


# ------------------------------------------------------------------- downlink


def test_downlink_moment_value():
    got = moments_downlink_ppp(1.0, 1.0, 4.0)
    assert got == pytest.approx(1.0 / (1.0 + math.pi / 4.0), rel=1e-12)
    # alpha=4: 2F1(1, -1/2; 1/2; -theta) = 1 + sqrt(theta) arctan sqrt(theta)
    for theta in (0.25, 9.0, 1e4):
        expected = 1.0 + math.sqrt(theta) * math.atan(math.sqrt(theta))
        assert moments_downlink_ppp(1.0, theta, 4.0) == pytest.approx(1.0 / expected, rel=1e-12)


def test_downlink_moment_vs_mpmath():
    # oracle: mpmath's 2F1 at 40 digits, theta from -10 to 30 dB
    mp = pytest.importorskip("mpmath")
    for alpha in (3.0, 4.0, 6.0):
        delta = 2.0 / alpha
        for b in (1.0, 2.0):
            for theta_db in range(-10, 31, 5):
                theta = 10.0 ** (theta_db / 10.0)
                with mp.workdps(40):
                    ref = float(1 / mp.hyp2f1(b, -mp.mpf(delta), 1 - mp.mpf(delta), -mp.mpf(theta)))
                assert moments_downlink_ppp(b, theta, alpha) == pytest.approx(ref, rel=1e-12, abs=0.0)
                assert lsu_moments("general", b, theta, alpha) == pytest.approx(ref, rel=1e-12, abs=0.0)


def test_moment_orders_must_be_real():
    # imaginary orders reach the library only through meta_distribution
    grid, blockage = ShadowGrid(4.0, 1.0), BlockageModel(0.5, 0.1)
    for moment in (
        lambda b: moments_adhoc(PPP_MODEL, b, 1.0),
        lambda b: moments_downlink_ppp(b, 1.0, 4.0),
        lambda b: lsu_moments("general", b, 1.0, 4.0),
        lambda b: relay_moments(b, linear_route(2, 1.0), 1.0, 4.0, 0.1, "fvi"),
        lambda b: moments_shadowed(b, 1.0, 1.0, grid, blockage, 0.1, 4.0, "correlated"),
    ):
        with pytest.raises(ValueError):
            moment(1.0 + 0.5j)


@pytest.mark.parametrize("moment", [
    lambda b, t: moments_adhoc(GPP_MODEL, b, t),
    lambda b, t: moments_downlink_ppp(b, t, 4.0),
    lambda b, t: lsu_moments("cell_boundary", b, t, 4.0, rho=0.5),
    lambda b, t: moments_shadowed(b, t, 1.0, ShadowGrid(4.0, 1.0), BlockageModel(0.5, 0.3), 0.5, 4.0, "correlated"),
    lambda b, t: relay_moments(b, linear_route(3, 1.0), t, 4.0, 0.1, "qsi"),
], ids=["adhoc", "downlink", "lsu", "shadowed", "relay"])
def test_a_theta_and_order_grid_equals_the_scalar_calls(moment):
    # one call over theta x b has shape theta.shape + b.shape, each entry
    # bit for bit its scalar call, and a scalar call gives a float
    thetas = np.array([0.0, 0.1, 1.0, 10.0])
    grid = moment([1.0, 2.0], thetas)
    assert grid.shape == (len(thetas), 2)
    scalar = [[moment(b, float(t)) for b in (1.0, 2.0)] for t in thetas]
    assert all(type(v) is float for row in scalar for v in row)
    assert grid.tolist() == scalar
    assert moment(2.0, thetas).tolist() == [row[1] for row in scalar]
    assert moment([1.0, 2.0], 1.0).tolist() == scalar[2]


@pytest.mark.parametrize("alpha", [1.5, 2.0])
def test_the_downlink_closed_forms_need_alpha_above_two(alpha):
    # the hypergeometric closed form is valid only for alpha > 2: below it
    # gave a negative probability, at 2 exactly 0
    for call in (lambda: moments_downlink_ppp(1.0, 1.0, alpha),
                 lambda: lsu_moments("general", 1.0, 1.0, alpha),
                 lambda: downlink_success(0.05, 1.0, alpha, 5.0)):
        with pytest.raises(ValueError, match="path-loss exponent must exceed 2"):
            call()


def test_downlink_moment_real_order_given_as_complex():
    # a complex order with zero imaginary part is a real order
    got = moments_downlink_ppp(1 + 0j, 1.0, 4.0)
    assert got == moments_downlink_ppp(1.0, 1.0, 4.0)
    assert got == lsu_moments("general", 1 + 0j, 1.0, 4.0)


def test_downlink_imag_moments_grid_matches_node_sum():
    # the separable product equals the direct node sum
    # F(ju) = 1 + 2 sum_k w_k (1 - e^(-j u t_k)); 400 rows make the node loop
    # take more than one block at theta = 1
    ev = DownlinkImagMoments(1.0, 4.0)
    rng = np.random.default_rng(10)
    c = rng.uniform(0.0, DownlinkImagMoments.U_CAP, 400)
    d = rng.uniform(-30.0, 30.0, 192)
    assert sir_analysis._FACTOR_CAP // len(c) < len(ev._t)
    grid = ev(c, d)
    assert grid.shape == (400, 192)

    def direct(u):
        return 1.0 + 2.0 * np.sum(ev._w * (1.0 - np.exp(-1j * u * ev._t)))

    for p in (0, 199, 399):
        ref = np.array([direct(c[p] + di) for di in d])
        assert np.max(np.abs(1.0 / grid[p] - ref) / np.abs(ref)) < 1e-12
    probe = ev(np.array([4000.0]), np.zeros(1))  # the tail cut-off's 1-element call
    assert probe.shape == (1, 1)
    assert abs(1.0 / probe[0, 0] - direct(4000.0)) < 1e-12 * abs(direct(4000.0))


@pytest.mark.parametrize("theta", [2.0 / 3.0, 10.0])
@pytest.mark.parametrize("alpha", [2.5, 4.0, 6.0])
def test_downlink_imag_moments_match_the_2f1(alpha, theta):
    # oracle: M(ju) = 1 / 2F1(ju, -delta; 1 - delta; -theta) from mpmath at
    # 30 digits, for u up to the cap; one Gauss-Jacobi rule over the whole
    # of [0, log(1 + theta)] missed by 1.0e-9 at theta = 10, alpha = 4
    mp = pytest.importorskip("mpmath")
    us = np.array([0.5, 3.0, 17.0, 120.0, 800.0, 2500.0, 3999.0, DownlinkImagMoments.U_CAP])
    got = DownlinkImagMoments(theta, alpha)(us, np.zeros(1))[:, 0]
    delta = 2.0 / alpha
    with mp.workdps(30):
        ref = [complex(1 / mp.hyp2f1(1j * u, -mp.mpf(delta), 1 - mp.mpf(delta), -mp.mpf(theta))) for u in us]
    assert np.max(np.abs(got - ref)) < 1e-11


def test_a_downlink_inversion_holds_a_few_mb():
    """The nine-point downlink grid at theta = 2/3 peaks at 10.5 MB traced
    beside its built rule: the moment grid, node-sum factors of 1 MB and
    integrand blocks of 256 panels.  With 8 MB factors and the integrand
    of every panel at once it peaked at 44.6 MB."""
    import tracemalloc

    model = NetworkModel(PPP(1.0), alpha=4.0)
    DownlinkImagMoments(2.0 / 3.0, 4.0)
    tracemalloc.start()
    try:
        meta_distribution(model, 2.0 / 3.0, np.arange(0.1, 0.95, 0.1), "downlink")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12e6


def test_downlink_theta_zero():
    assert moments_downlink_ppp(1.0, 0.0, 4.0) == 1.0


def test_downlink_mean_local_delay_has_its_phase_transition():
    # b = -1: the 2F1 is 1 - delta theta / (1 - delta), so M_-1 is +inf from theta = (1 - delta)/delta on
    assert moments_downlink_ppp(-1.0, 0.5, 4.0) == pytest.approx(2.0, rel=1e-12)
    assert moments_downlink_ppp(-1.0, 0.25, 3.0) == pytest.approx(2.0, rel=1e-12)
    assert np.all(moments_downlink_ppp(-1.0, [1.0, 2.0, 10.0], 4.0) == math.inf)
    assert moments_downlink_ppp(-1.0, 0.6, 3.0) == math.inf
    assert moments_downlink_ppp(0.0, 5.0, 4.0) == 1.0


@pytest.mark.parametrize("moment", [moments_downlink_ppp, lambda b, t, a: lsu_moments("general", b, t, a)],
                         ids=["downlink", "lsu_general"])
def test_mean_local_delay_is_infinite_from_the_transition_on(moment):
    # b = -1: the 2F1 is (alpha - 2 - 2 theta)/(alpha - 2), exactly 0 at theta = (alpha - 2)/2
    for alpha in (3.0, 4.0):
        edge = (alpha - 2.0) / 2.0
        assert moment(-1.0, edge, alpha) == math.inf and moment(-1.0, 2.0 * edge, alpha) == math.inf
        for theta in (0.01, 0.3 * edge, 0.9 * edge, edge - 1e-6):
            want = (alpha - 2.0) / (alpha - 2.0 - 2.0 * theta)
            assert moment(-1.0, theta, alpha) == pytest.approx(want, rel=1e-12, abs=0.0)


def test_lsu_mean_local_delay_follows_the_downlink_rule():
    # every class is +inf where the general 2F1 is <= 0; the edge and vertex
    # classes square it, which once hid its sign
    for cls, rho in (("general", None), ("cell_boundary", 0.5), ("edge", None), ("vertex", None)):
        assert lsu_moments(cls, -1.0, [1.0, 2.0], 4.0, rho=rho).tolist() == [math.inf, math.inf]
    assert lsu_moments("cell_center", -1.0, 2.0, 4.0, rho=0.5) == pytest.approx(1.0 / 0.875, rel=1e-12)
    assert lsu_moments("cell_center", -1.0, 16.0, 4.0, rho=0.5) == math.inf


def test_relay_order_zero_is_exactly_one():
    for regime in ("qsi", "fvi"):
        assert relay_moments(0.0, linear_route(2, 1.0), 1.0, 4.0, 0.1, regime) == 1.0
        assert relay_moments([0.0, 1.0], linear_route(2, 1.0), 1.0, 4.0, 0.1, regime)[0] == 1.0
        with pytest.raises(ValueError, match="b must be nonnegative"):
            relay_moments(-0.5, linear_route(2, 1.0), 1.0, 4.0, 0.1, regime)


def test_downlink_moment_monotone_in_b():
    m1 = moments_downlink_ppp(1.0, 1.0, 4.0)
    m2 = moments_downlink_ppp(2.0, 1.0, 4.0)
    assert 0.0 < m2 < m1


def test_downlink_moment_vs_mc():
    cfg = SimConfig(trials=30000, master_seed=64)
    model = NetworkModel(PPP(0.5), alpha=4.0)
    thetas = (0.3, 1.0, 5.0)
    for theta, est in zip(thetas, estimate_success(model, thetas, "downlink", cfg)):
        ana = moments_downlink_ppp(1.0, theta, 4.0)
        assert est.within(ana, atol=1e-3)


# ------------------------------------------------------------------- meta


def test_meta_limits_ppp():
    # approaches 1 as x -> 0+ and 0 as x -> 1- (verified against the
    # 1e5-trial empirical CCDF: 0.983 at x=1e-3)
    low = [meta_distribution(PPP_MODEL, 1.0, x) for x in (1e-4, 1e-3, 1e-2)]
    assert low[0] > low[1] > low[2]
    assert low[1] == pytest.approx(0.9835, abs=5e-3)
    assert meta_distribution(PPP_MODEL, 1.0, 0.999) < 0.01
    with pytest.raises(ValueError):
        meta_distribution(PPP_MODEL, 1.0, 1.5)


def test_meta_ppp_vs_empirical_reduced():
    cfg = SimConfig(trials=20000, master_seed=65)
    xg = np.array([0.1, 0.3, 0.5, 0.7, 0.9])
    emp = estimate_meta(PPP_MODEL, 1.0, xg, cfg)
    for x, e in zip(xg, emp.values):
        ana = meta_distribution(PPP_MODEL, 1.0, float(x))
        assert abs(ana - e) < 0.012


def test_meta_integrates_to_mean():
    # int_0^1 F(x) dx = M(1) and int_0^1 2x F(x) dx = M(2), on one 24-point
    # Gauss-Legendre x-grid per geometry; the rule leaves residuals of 2e-6
    # to 9e-6
    x, w = gauss_legendre(24, 0.0, 1.0)
    for geometry, moment, tol in (("adhoc", lambda b: moments_adhoc(PPP_MODEL, b, 1.0), 1e-5),
                                  ("downlink", lambda b: moments_downlink_ppp(b, 1.0, 4.0), 2e-5)):
        meta = meta_distribution(PPP_MODEL, 1.0, x, geometry)
        assert np.dot(w, meta) == pytest.approx(moment(1.0), abs=tol)
        assert np.dot(w, 2.0 * x * meta) == pytest.approx(moment(2.0), abs=tol)


def test_meta_downlink_monotone():
    vals = [meta_distribution(NetworkModel(PPP(1.0), alpha=4.0), 1.0, x, geometry="downlink")
            for x in (0.2, 0.5, 0.8)]
    assert vals[0] > vals[1] > vals[2]


def _quad_panel_ccdf(moment, x, u_max_cap=1e4):
    """Gil-Pelaez inversion as it was before the panel rule: adaptive QUADPACK
    on each panel of one oscillation period, with a scalar u -> M(ju)."""
    log_x = math.log(x)
    u_max = 64.0
    while abs(moment(u_max)) / u_max >= 1e-8:
        u_max *= 2.0
        if u_max > u_max_cap:
            u_max = u_max_cap
            break
    f = lambda u: (cmath.exp(-1j * u * log_x) * moment(u)).imag / u
    panel = max(2.0 * math.pi / max(abs(log_x), 1e-3), u_max / 2000.0)
    total, u_lo, small = 0.0, 1e-6, 0
    while u_lo < u_max:
        u_hi = min(u_lo + panel, u_max)
        val = sciint.quad(f, u_lo, u_hi, epsabs=1e-11, epsrel=1e-9, limit=100)[0]
        total += val
        u_lo = u_hi
        small = small + 1 if abs(val) < 1e-10 else 0
        if small >= 4 and u_lo > 200.0:
            break
    return min(1.0, max(0.0, 0.5 + total / math.pi))


def _ppp_scalar_moment(u):
    # PPP_MODEL at theta = 1: pi lambda theta^delta r_t^2 Gamma(1 - delta)
    return cmath.exp(-math.pi * 0.1 * math.gamma(0.5) * gamma_ratio(1j * u + 0.5, 1j * u))


def _downlink_scalar_moment(theta):
    # 1 / F(ju) with F the node sum 1 + 2 sum_k w_k (1 - cos(u t_k) + j sin(u t_k))
    ev = DownlinkImagMoments(theta, 4.0)

    def moment(u):
        ut = u * ev._t
        return 1.0 / complex(1.0 + 2.0 * np.dot(ev._w, 1.0 - np.cos(ut)), 2.0 * np.dot(ev._w, np.sin(ut)))

    return moment


@pytest.mark.parametrize(
    "geometry, theta, x",
    [("ppp", 1.0, 0.1), ("ppp", 1.0, 0.5), ("ppp", 1.0, 0.9),
     ("downlink", 2.0 / 3.0, 0.5), ("downlink", 10.0, 0.5), ("downlink", 10.0, 0.9),
     ("ginibre", 1.0, 0.5)],
)
def test_meta_matches_quad_panel_oracle(geometry, theta, x):
    # theta = 10, x = 0.9 needs the bisection: one 64-point rule per panel
    # misses there by about 2e-6
    if geometry == "ppp":
        got = meta_distribution(PPP_MODEL, theta, x)
        ref = _quad_panel_ccdf(_ppp_scalar_moment, x)
    elif geometry == "downlink":
        got = meta_distribution(NetworkModel(PPP(1.0), alpha=4.0), theta, x, geometry="downlink")
        ref = _quad_panel_ccdf(_downlink_scalar_moment(theta), x, DownlinkImagMoments.U_CAP)
    else:
        ref_ev = _ScalarGppReference(GppAdhocMoments(GPP_MODEL.field, theta, 4.0, 1.0))
        got = meta_distribution(GPP_MODEL, theta, x)
        ref = _quad_panel_ccdf(lambda u: ref_ev(1j * u), x)
    assert abs(got - ref) < 1e-9


@pytest.mark.parametrize(
    "geometry, theta, xs, tol",
    [("downlink", 1.0 / 1.5, np.arange(0.1, 0.95, 0.1), 1e-12),
     ("downlink", 10.0, np.array([0.5, 0.9]), 1e-12),
     # both sum every panel to the tail cut; the grid's panels are one period
     # of x = 0.1, narrower than each larger x's own
     ("adhoc", 1.0, np.arange(0.1, 0.95, 0.1), 5e-9)],
)
def test_meta_grid_matches_the_one_x_calls(geometry, theta, xs, tol):
    model = NetworkModel(PPP(1.0), alpha=4.0) if geometry == "downlink" else PPP_MODEL
    grid = meta_distribution(model, theta, xs, geometry)
    one = [meta_distribution(model, theta, float(x), geometry) for x in xs]
    assert isinstance(grid, np.ndarray) and grid.shape == xs.shape
    assert np.abs(grid - one).max() < tol


@pytest.mark.parametrize("x", [[], [[0.5, 0.7]], [0.5, 1.0], "half"], ids=["empty", "2d", "x_at_1", "text"])
def test_meta_rejects_a_bad_x_grid(x):
    for geometry in ("adhoc", "downlink"):
        with pytest.raises(ValueError):
            meta_distribution(PPP_MODEL, 1.0, x, geometry)


def test_meta_rejects_a_negative_theta():
    for geometry in ("adhoc", "downlink"):
        with pytest.raises(ValueError, match="theta must be nonnegative"):
            meta_distribution(PPP_MODEL, -1.0, 0.5, geometry=geometry)


@pytest.mark.parametrize(
    "call",
    [lambda: jsp_retx(2, "qsi", -1.0, 4.0, 0.1, 1.0),
     lambda: jsp_retx(2, "fvi", -1.0, 4.0, 0.1, 1.0),
     lambda: p_retx(2, "qsi", -1.0, 4.0, 0.1, 1.0),
     lambda: harq_type1(-1.0, 4.0, 0.1, 1.0, "fvi"),
     lambda: bipolar_success(0.5, -1.0, 4.0, 0.001, 2.0),
     lambda: relay_moments(1.0, linear_route(2, 1.0), -1.0, 4.0, 0.1, "fvi"),
     lambda: relay_moments(1.0, linear_route(2, 1.0), -1.0, 4.0, 0.1, "qsi"),
     lambda: moments_shadowed(1.0, -1.0, 1.0, ShadowGrid(4.0, 1.0), BlockageModel(0.5, 0.3), 0.1, 4.0,
                              "correlated")],
    ids=["jsp_qsi", "jsp_fvi", "p_retx", "harq_type1", "bipolar_success", "relay_fvi",
         "relay_qsi", "moments_shadowed"],
)
def test_a_negative_theta_is_rejected(call):
    with pytest.raises(ValueError, match="theta must be nonnegative"):
        call()


def test_adhoc_meta_needs_a_link_distance():
    for field in (PPP(0.1), GPP(0.1, 1.0)):
        with pytest.raises(ValueError, match="link_distance"):
            meta_distribution(NetworkModel(field, alpha=4.0), 1.0, 0.5)


def test_meta_at_theta_zero_is_exactly_one():
    # every link succeeds at theta = 0, so P[CSP > x] = 1 for each x
    assert meta_distribution(PPP_MODEL, 0.0, 0.5) == 1.0
    assert meta_distribution(GPP_MODEL, 0.0, 0.99) == 1.0
    assert meta_distribution(PPP_MODEL, 0.0, 0.5, geometry="downlink") == 1.0
    assert np.all(meta_distribution(MCP_MODEL, 0.0, [0.1, 0.5, 0.9]) == 1.0)
    with pytest.raises(ValueError):
        meta_distribution(PPP_MODEL, 0.0, 1.5)


@pytest.mark.parametrize("field", [PPP(0.0), MCP(0.0, 5.0, 1.0), GPP(0.0, 1.0), GPP(0.0, 0.5)])
def test_an_empty_field_has_moments_and_meta_distribution_one(field):
    # no interferers: every link succeeds, analytically and in simulation
    model = NetworkModel(field, alpha=4.0, link_distance=1.0)
    assert moments_adhoc(model, 2.0, 1.0) == 1.0
    assert meta_distribution(model, 1.0, 0.5) == 1.0
    assert np.all(meta_distribution(model, 1.0, [0.1, 0.9]) == 1.0)
    assert estimate_moment(model, 1.0, 1.0, "adhoc", SimConfig(trials=200, master_seed=7)).mean == 1.0


def test_meta_gpp_moment_function_consistency():
    # the grid's node sums at imaginary orders agree with the one-order path,
    # which at u -> -jb is the real-order moment
    ev = GppAdhocMoments(GPP(0.1, 1.0), 1.0, 4.0, 1.0)
    u = np.array([0.5, 3.0, 40.0])
    assert ev(u, np.zeros(1))[:, 0] == pytest.approx([ev.at(1j * v) for v in u], rel=1e-8)
    for b in (1.0, 2.0):
        direct = moments_adhoc(GPP_MODEL, b, 1.0)
        assert complex(ev.at(complex(b))).real == pytest.approx(direct, rel=1e-8)


# ---------------------------------------------------------------------- MH


def test_mh_trivia_and_roundtrip():
    assert theta_from_mh(0.0) == 0.0
    assert theta_from_mh(0.5) == pytest.approx(1.0)
    assert theta_mh(theta_from_mh(0.3)) == pytest.approx(0.3, rel=1e-12)
    with np.errstate(divide="ignore"):
        assert math.isinf(theta_from_mh(1.0))


# ------------------------------------------------------------------- MISR


def test_misr_ppp_alpha4():
    assert misr_ppp(4.0) == pytest.approx(1.0)
    assert misr_ppp(3.0) == pytest.approx(2.0)


@pytest.mark.parametrize("field", [PPP(1.0), GPP(1.0, 0.5)])
def test_misr_chunk_matches_a_pattern_loop(field):
    # the sorted-distance loop the batch reduction replaced, on the same draws
    # (radius 1.2 leaves some patterns with fewer than two points)
    from stochgeo import simengine
    from stochgeo.pointprocess import sample_batch
    from stochgeo.sir_analysis import _misr_chunk

    cfg = SimConfig(trials=300, master_seed=65)
    model = NetworkModel(field, alpha=4.0)
    sums, r1a = _misr_chunk(simengine.batches(cfg, "misr"), model, 4.0, 1.2)
    ((rng, size),) = simengine.batches(cfg, "misr")
    radii, counts = sample_batch(field, 1.2, rng, size)
    ends = np.cumsum(counts)
    patterns = [np.sort(radii[lo:hi]) for lo, hi in zip(ends - counts, ends) if hi - lo >= 2]
    assert len(patterns) < size
    # segment sums difference one running total over the batch: their error
    # is absolute, a few eps times that total (here a few hundred)
    assert sums == pytest.approx([np.sum((d[0] / d[1:]) ** 4.0) for d in patterns], rel=1e-12, abs=1e-12)
    assert r1a == pytest.approx([d[0] ** 4.0 for d in patterns], rel=1e-12)


def _ref_misr_kernel(rng, size, model, alpha, radius):
    # the kernel before it worked in place: its values must stay bit for bit
    from stochgeo import simengine
    from stochgeo.pointprocess import sample_batch

    radii, counts = sample_batch(model.field, radius, rng, size)
    keep = counts >= 2
    radii, counts = radii[np.repeat(keep, counts)], counts[keep]
    r1 = simengine._segment_mins(radii, counts)
    return simengine._segment_sums((np.repeat(r1, counts) / radii) ** alpha, counts) - 1.0, r1**alpha


@pytest.mark.parametrize("density, radius", [(1.0, None), (0.1, 5.0), (1.0, 1.0)])  # R = 1: some patterns drop out
def test_misr_kernel_draws_the_reference_bits(density, radius):
    from stochgeo import simengine
    from stochgeo.sir_analysis import _misr_chunk

    model, cfg = NetworkModel(PPP(density), alpha=4.0), SimConfig(trials=1500, master_seed=67)
    radius = radius or simengine.default_window(density)
    got = simengine.run_batches(cfg, "misr", _misr_chunk, model, 4.0, radius)
    parts = [_ref_misr_kernel(rng, size, model, 4.0, radius) for rng, size in simengine.batches(cfg, "misr")]
    for g, w in zip(got, zip(*parts)):
        assert np.array_equal(g, np.concatenate(w))


def test_a_misr_batch_holds_two_point_sized_arrays():
    """The ratios overwrite the radii beside one repeated r_1 array: 2.01
    points-sized arrays at the default window, against 3.01 out of place."""
    import tracemalloc

    from stochgeo import simengine
    from stochgeo.pointprocess import sample_batch
    from stochgeo.sir_analysis import _misr_chunk

    model = NetworkModel(PPP(1.0), alpha=4.0)
    radius = simengine.default_window(1.0)
    points = sample_batch(model.field, radius, simengine.seed_stream(1, 0, 7), 1024)[0].size
    tracemalloc.start()
    try:
        _misr_chunk.__wrapped__(simengine.seed_stream(1, 0, 7), 1024, model, 4.0, radius)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.2 * points * 8


def test_misr_estimate_names_a_window_with_no_two_point_pattern():
    cfg = SimConfig(trials=50, master_seed=65, window_radius=0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="window of radius 0.5"):
            misr_estimate(NetworkModel(PPP(0.1), alpha=4.0), 4.0, cfg)


def test_misr_estimate_ppp_self_consistency():
    cfg = SimConfig(trials=20000, master_seed=66)
    est = misr_estimate(NetworkModel(PPP(1.0), alpha=4.0), 4.0, cfg)
    assert abs(est.mean - 1.0) < 0.02


def test_misr_estimate_gpp_matches_gain_rule():
    cfg = SimConfig(trials=20000, master_seed=67)
    est = misr_estimate(NetworkModel(GPP(1.0, 1.0), alpha=4.0), 4.0, cfg)
    assert abs(est.mean - misr_ppp(4.0) / 1.5) < 0.05 * misr_ppp(4.0)


def test_sir_gain_values():
    assert sir_gain_g0(NetworkModel(PPP(1.0), 4.0), 4.0) == 1.0
    assert sir_gain_g0(NetworkModel(GPP(1.0, 1.0), 4.0), 4.0) == pytest.approx(1.5)


def test_misr_and_gain_reject_an_alpha_that_is_not_the_models(monkeypatch):
    # each function reads one of the two exponents, so a second that differs raises
    from stochgeo import simengine

    monkeypatch.setattr(simengine, "run_batches", lambda *a, **k: pytest.fail("drew before the check"))
    cfg = SimConfig(trials=200, master_seed=1)
    for field in (PPP(1.0), GPP(1.0, 1.0), MCP(0.2, 5.0, 1.0)):
        model = NetworkModel(field, 3.0)
        with pytest.raises(ValueError, match="path-loss exponent"):
            misr_estimate(model, 4.0, cfg)
        with pytest.raises(ValueError, match="path-loss exponent"):
            sir_gain_g0(model, 4.0, cfg)


# ------------------------------------------------------------------ ASAPPP


def test_asappp_gpp_downlink_vs_mc():
    # the shifted Poisson curve approximates the Ginibre downlink success
    # probability within 0.02 for theta <= 0 dB (exact as theta -> 0)
    cfg = SimConfig(trials=20000, master_seed=68)
    g0 = 1.5
    model = NetworkModel(GPP(0.1, 1.0), alpha=4.0)
    thetas = (0.25, 0.5, 1.0)
    for theta, est in zip(thetas, estimate_success(model, thetas, "downlink", cfg)):
        approx = moments_downlink_ppp(1.0, theta / g0, 4.0)
        assert abs(est.mean - approx) < 0.02


def test_downlink_moment_cache_is_lru(monkeypatch):
    from collections import OrderedDict

    from stochgeo.sir_analysis import DownlinkImagMoments

    monkeypatch.setattr(DownlinkImagMoments, "_cache", OrderedDict())
    monkeypatch.setattr(DownlinkImagMoments, "CACHE_SIZE", 2)
    first = DownlinkImagMoments(1.0, 4.0)
    second = DownlinkImagMoments(0.5, 4.0)
    assert DownlinkImagMoments(1.0, 4.0) is first  # a hit, and now the most recent
    DownlinkImagMoments(2.0, 4.0)  # evicts (0.5, 4), the least recently used
    assert list(DownlinkImagMoments._cache) == [(1.0, 4.0), (2.0, 4.0)]
    rebuilt = DownlinkImagMoments(0.5, 4.0)
    u, zero = np.array([3.0]), np.zeros(1)
    assert rebuilt is not second and np.array_equal(rebuilt(u, zero), second(u, zero))


# ----------------------------------------------------------- Ginibre table


def _stats_gpp_table(beta, density, alpha):
    """The theta-free Ginibre table built with scipy.stats.gamma, as the
    evaluator built it before taking the scipy.special calls directly."""
    from scipy import stats

    scale = beta / (math.pi * density)
    xg, wg = np.polynomial.legendre.leggauss(GppAdhocMoments.N_NODES)
    j = np.arange(1, GppAdhocMoments.J_NUMERIC + 1)
    lo = stats.gamma.ppf(1e-15, j) * scale
    hi = stats.gamma.isf(1e-15, j) * scale
    mid = 0.5 * (hi + lo)[:, None] + 0.5 * (hi - lo)[:, None] * xg[None, :]
    w = 0.5 * (hi - lo)[:, None] * wg[None, :]
    dens = stats.gamma.pdf(mid / scale, j[:, None]) / scale
    return lo ** (-alpha / 2.0), w * dens, mid ** (-alpha / 2.0)


@pytest.mark.parametrize("beta, density, alpha", [(1.0, 0.1, 4.0), (0.5, 1.0, 3.0)])
def test_gpp_table_equals_scipy_stats_build(beta, density, alpha):
    got = GppAdhocMoments._table(beta, density, alpha)
    for a, b in zip(got, _stats_gpp_table(beta, density, alpha)):
        assert np.array_equal(a, b)


def test_the_gpp_table_is_built_in_row_blocks():
    """The (J, N) arrays are filled 256 indices at a time: 6.3 MB traced,
    the two 2.56 MB outputs and block temporaries, against 15.5 MB when
    every temporary was a whole table."""
    import tracemalloc

    tracemalloc.start()
    try:
        GppAdhocMoments._table(1.0, 0.1, 4.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 7e6


@pytest.mark.parametrize("beta, density, alpha, theta, r_t", [(1.0, 0.1, 4.0, 1.0, 1.0), (0.5, 1.0, 3.0, 10.0, 0.7)])
def test_gpp_evaluator_sums_equal_the_whole_table_arithmetic(beta, density, alpha, theta, r_t):
    # the phases and tail moments that __init__ forms in place and by row
    # blocks, against the out-of-place build over the whole table
    ev = GppAdhocMoments(GPP(density, beta), theta, alpha, r_t)
    lo_pow, w, mid_pow = _stats_gpp_table(beta, density, alpha)
    c = theta * r_t**alpha
    g = np.log1p(c * mid_pow)
    m1, m2, m3 = (np.sum(w * g**p, axis=1) for p in (1, 2, 3))
    terms = np.pad([m1, m2, m3, m1 * m1, m1 * m2, m1**3], ((0, 0), (0, 1)))
    assert np.array_equal(ev._g, g) and np.array_equal(ev._g_upper, np.log1p(c * lo_pow))
    assert np.array_equal(ev._cum, np.cumsum(terms[:, ::-1], axis=1)[:, ::-1])


def test_gpp_table_cache_is_bounded_and_keyed_by_every_input(monkeypatch):
    from collections import OrderedDict

    monkeypatch.setattr(GppAdhocMoments, "_cache", OrderedDict())
    monkeypatch.setattr(GppAdhocMoments, "CACHE_SIZE", 2)
    # fields that differ only in beta, and one field at two path-loss exponents
    cases = [(GPP(0.1, 1.0), 4.0), (GPP(0.1, 0.5), 4.0), (GPP(0.1, 1.0), 4.0), (GPP(0.1, 1.0), 3.0)]

    def values(ev):
        return ev.at(1.0), ev.at(2.0), ev(np.array([0.5]), np.zeros(1))[0, 0]

    warm = []
    for field, alpha in cases:
        warm.append(values(GppAdhocMoments(field, 2.0, alpha, 1.0)))
        assert len(GppAdhocMoments._cache) <= 2
    # the third case was a hit, the fourth evicted the beta = 0.5 table
    assert list(GppAdhocMoments._cache) == [(1.0, 0.1, 4.0), (1.0, 0.1, 3.0)]
    assert len(set(warm)) == 3
    for (field, alpha), expected in zip(cases, warm):
        GppAdhocMoments._cache.clear()
        assert values(GppAdhocMoments(field, 2.0, alpha, 1.0)) == expected


# ------------------------------------------------------- Ginibre evaluator


class _ScalarGppReference:
    """The scalar Ginibre evaluator that the grid evaluator replaced, kept
    as an independent reference: one order b at a time, factor by factor,
    on the nodes of a GppAdhocMoments `ev`."""

    def __init__(self, ev):
        self.ev = ev
        m1 = np.sum(ev._w * ev._g, axis=1)
        m2 = np.sum(ev._w * ev._g**2, axis=1)
        m3 = np.sum(ev._w * ev._g**3, axis=1)

        def revcum(a):
            return np.cumsum(a[::-1])[::-1]

        self._cum = {
            "m1": revcum(m1),
            "m2": revcum(m2),
            "m3": revcum(m3),
            "m1m1": revcum(m1 * m1),
            "m1m2": revcum(m1 * m2),
            "m1m1m1": revcum(m1**3),
        }

    def __call__(self, b):
        ev = self.ev
        b = complex(b)
        mag = max(abs(b), 1.0)
        # exact factors while |b| g could exceed TAIL_CUT
        j_exact = int(np.searchsorted(-ev._g_upper, -ev.TAIL_CUT / mag))
        j_exact = min(max(j_exact, 4), ev.J_NUMERIC)
        evj = np.sum(ev._w[:j_exact] * np.exp(-b * ev._g[:j_exact]), axis=1)
        factors = 1.0 - ev.beta * (1.0 - evj)
        keep = np.abs(factors - 1.0) >= ev.TRUNC
        if not np.all(keep):
            last = int(np.argmin(keep))
            log_m = complex(np.sum(np.log(factors[:last].astype(complex))))
            return cmath.exp(log_m)
        log_m = complex(np.sum(np.log(factors.astype(complex))))
        # expansion tail over j_exact..J_NUMERIC plus the analytic super-tail
        if j_exact < ev.J_NUMERIC:
            c = {k: v[j_exact] for k, v in self._cum.items()}
            c["m1"] += ev._m1_super
        else:
            c = {k: 0.0 for k in self._cum}
            c["m1"] = ev._m1_super
        bt = ev.beta
        x1 = b * c["m1"] - b * b * c["m2"] / 2.0 + b**3 * c["m3"] / 6.0
        x2 = b * b * c["m1m1"] - b**3 * c["m1m2"]
        x3 = b**3 * c["m1m1m1"]
        log_m += -bt * x1 - bt * bt * x2 / 2.0 - bt**3 * x3 / 3.0
        return cmath.exp(log_m)


def _rel_err(got, ref):
    got, ref = np.asarray(got, dtype=complex), np.asarray(ref, dtype=complex)
    return float(np.max(np.abs(got - ref) / np.abs(ref)))


# At beta = 1 a factor is E[v^(ju)] itself, which comes within 5e-3 of zero
# at u near 1000, and the phases u g of the first index reach 1e4 rad.
# Rounding those phases limits any double evaluation there: against a
# 40-digit sum over the same nodes at u = 1002.36, the reference is off by
# 2.5e-12 and the grid (which rounds c g and d g, not (c + d) g) by 5.8e-12.
# At beta = 0.5 every factor stays above 0.5 in modulus.
@pytest.mark.parametrize("beta, tol", [(0.5, 1e-12), (1.0, 2e-11)])
def test_gpp_grid_matches_the_scalar_reference(monkeypatch, beta, tol):
    # u from 0 to 1100, the reach of the inversion, over more than one row
    # block; every c + d is exact, so both evaluate the same u
    ev = GppAdhocMoments(GPP(0.1, beta), 1.0, 4.0, 1.0)
    ref = _ScalarGppReference(ev)
    blocks = []
    kernel = sir_analysis._node_sums
    monkeypatch.setattr(sir_analysis, "_node_sums", lambda *a: blocks.append(a[2]) or kernel(*a))
    c, d = 19.625 * np.arange(56), np.arange(96) / 64.0
    grid = ev(c, d)
    assert len(blocks) >= 2 and sorted(np.concatenate(blocks)) == sorted(c)
    assert _rel_err(grid, [[ref(1j * (ci + di)) for di in d] for ci in c]) < tol


def test_gpp_grid_matches_the_scalar_reference_at_its_edges():
    ev = GppAdhocMoments(GPP(0.1, 1.0), 1.0, 4.0, 1.0)
    ref = _ScalarGppReference(ev)
    # u = 1e-12: a factor within TRUNC of one stops the product
    b = 1e-12j
    j_exact = ev._j_exact(b)
    evj = np.sum(ev._w[:j_exact] * np.exp(-b * ev._g[:j_exact]), axis=1)
    assert np.any(np.abs(ev.beta * (1.0 - evj)) < ev.TRUNC)
    assert _rel_err(ev(np.array([1e-12]), np.zeros(1))[0, 0], ref(b)) < 1e-12
    # real orders, and one order off both axes, from their directly formed rows
    for b in (0.5, 1.0, 2.0, 5.0, 1.0 + 3.0j):
        assert _rel_err(ev.at(b), ref(b)) < 1e-12
    # u = 3e6: every tabulated index is an exact factor.  Both round the same
    # phases (up to 3e7 rad, each off by up to 2e-9 relative against a
    # 30-digit sum) and differ in how they form and sum 4000 factors: 1.9e-12
    assert ev._j_exact(3e6) == ev.J_NUMERIC
    assert _rel_err(ev(np.array([3e6]), np.zeros(1))[0, 0], ref(3e6j)) < 1e-11


def _gamma_factor_sum(field, theta, alpha, r_t, j, u):
    """Adaptive-quad S_j(ju) = E[1 - v(Q_j)^(ju)] over the Gamma(j, scale)
    density, between the 1e-15 quantiles that the node rule spans."""
    from scipy import special

    scale = field.beta / (math.pi * field.density)
    c = theta * r_t**alpha
    log_gamma_j = float(special.gammaln(j))

    def dens(q):
        return math.exp((j - 1) * math.log(q / scale) - q / scale - log_gamma_j) / scale

    def phase(q):
        return u * math.log1p(c * q ** (-alpha / 2.0))

    lo, hi = special.gammaincinv(j, 1e-15) * scale, special.gammainccinv(j, 1e-15) * scale
    kw = dict(epsabs=1e-13, epsrel=1e-12, limit=400)
    re = sciint.quad(lambda q: dens(q) * (1.0 - math.cos(phase(q))), lo, hi, **kw)[0]
    im = sciint.quad(lambda q: dens(q) * math.sin(phase(q)), lo, hi, **kw)[0]
    return complex(re, im)


@pytest.mark.parametrize(
    "j, u",
    [(20, 2.0), (20, 50.0), (20, 500.0), (20, 1000.0), (100, 2.0), (100, 50.0), (100, 500.0), (100, 1000.0),
     pytest.param(1, 50.0, marks=[
         pytest.mark.xfail(strict=True, reason="80-node rule at j = 1: E[v^(50j)] = 0.256 - 0.131j, "
                                               "adaptive quad 0.024 - 0.145j (the Ginibre meta defect)"),
         pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")])],
)
def test_gpp_imaginary_order_factor_vs_quad(j, u):
    # the node sums S_j(ju) that the grid evaluator multiplies, one index at a time
    field, theta, alpha, r_t = GPP(0.1, 1.0), 1.0, 4.0, 1.0
    ev = GppAdhocMoments(field, theta, alpha, r_t)
    got = sir_analysis._node_sums(ev._g[j - 1 : j], ev._w[j - 1 : j], np.array([u]), np.zeros(1))[0, 0, 0]
    assert abs(got - _gamma_factor_sum(field, theta, alpha, r_t, j, u)) < 1e-10


def test_gpp_meta_grid_calls_the_evaluator_once_per_width_and_round(monkeypatch):
    # a 9-point x-grid: one call per tail doubling (a single u), and one per
    # panel width in each bisection round, at most two widths a round (the
    # panel and the short last one); the scalar path made one call per node
    from stochgeo import numerics

    calls = []
    grid_call = GppAdhocMoments.__call__

    def counted(ev, c, d):
        calls.append(len(c) * len(d))
        return grid_call(ev, c, d)

    monkeypatch.setattr(GppAdhocMoments, "__call__", counted)
    meta_distribution(GPP_MODEL, 10.0, np.arange(0.1, 0.95, 0.1))
    panels = [n for n in calls if n > 1]
    assert len(calls) - len(panels) <= math.ceil(math.log2(1e4 / 64.0)) + 1
    assert 1 <= len(panels) <= 2 * (numerics._GP_MAX_DEPTH + 1)


@pytest.mark.parametrize("geometry", ["ginibre", "downlink"])
def test_row_blocks_do_not_change_the_meta_grid(geometry, monkeypatch):
    # the integrand formed 256 panels at a time and the Ginibre table and
    # tail moments built 256 indices at a time give every value of a
    # whole-array build
    from stochgeo import numerics

    model, theta = (GPP_MODEL, 1.0) if geometry == "ginibre" else (NetworkModel(PPP(1.0), alpha=4.0), 2.0 / 3.0)
    xs = np.arange(0.1, 0.95, 0.1)
    blocked = meta_distribution(model, theta, xs, geometry if geometry == "downlink" else "adhoc")
    monkeypatch.setattr(numerics, "_GP_ROWS", 1 << 30)
    monkeypatch.setattr(GppAdhocMoments, "ROWS", GppAdhocMoments.J_NUMERIC)
    monkeypatch.setattr(GppAdhocMoments, "_cache", type(GppAdhocMoments._cache)())
    whole = meta_distribution(model, theta, xs, geometry if geometry == "downlink" else "adhoc")
    assert np.array_equal(blocked, whole)


def test_node_sum_blocks_do_not_change_the_grids(monkeypatch):
    # a smaller cap splits the Ginibre rows into smaller blocks, which leaves
    # every value as it was while each block keeps two or more rows (a block
    # of one goes through BLAS's matrix-vector product, which rounds
    # differently); it splits the downlink's node sum into more steps, a
    # regrouped sum that agrees to rounding
    rng = np.random.default_rng(3)
    c, d = rng.uniform(0.0, 1100.0, 40), np.linspace(-1.4, 1.4, 192)
    gpp = GppAdhocMoments(GPP(0.1, 1.0), 1.0, 4.0, 1.0)
    down = DownlinkImagMoments(1.0, 4.0)
    gpp_default, down_default = gpp(c, d), down(c, d)
    monkeypatch.setattr(sir_analysis, "_FACTOR_CAP", 1 << 17)
    assert np.array_equal(gpp(c, d), gpp_default)
    assert _rel_err(down(c, d), down_default) < 1e-14
    monkeypatch.setattr(sir_analysis, "_FACTOR_CAP", 1 << 12)
    assert _rel_err(gpp(c[:8], d), gpp_default[:8]) < 1e-12
    assert _rel_err(down(c[:8], d), down_default[:8]) < 1e-13


def _loaded_after(code, module):
    """Whether `module` is in sys.modules after a fresh interpreter imports
    stochgeo.cli and runs `code`."""
    import os
    import subprocess
    import sys

    import stochgeo

    code = f"import sys, stochgeo.cli\n{code}\nprint({module!r} in sys.modules)\n"
    src = os.path.dirname(os.path.dirname(os.path.abspath(stochgeo.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip() == "True"


def test_ginibre_moment_leaves_scipy_stats_unimported():
    code = (
        "from stochgeo.pointprocess import GPP, NetworkModel\n"
        "from stochgeo.sir_analysis import moments_adhoc\n"
        "moments_adhoc(NetworkModel(GPP(0.1, 1.0), 4.0, 1.0), 1.0, 1.0)"
    )
    assert not _loaded_after(code, "scipy.stats")


def test_downlink_meta_leaves_scipy_linalg_unimported():
    # the Gauss-Jacobi head is built with numpy.linalg, not scipy.special.roots_jacobi
    code = (
        "from stochgeo.pointprocess import PPP, NetworkModel\n"
        "from stochgeo.sir_analysis import meta_distribution\n"
        "meta_distribution(NetworkModel(PPP(1.0), 4.0), 1.0, 0.5, 'downlink')"
    )
    assert not _loaded_after(code, "scipy.linalg")
