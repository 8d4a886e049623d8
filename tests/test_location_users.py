import math

import numpy as np
import pytest

from stochgeo import location_users, simengine
from stochgeo.location_users import (
    UserClass,
    lsu_gain,
    lsu_misr,
    lsu_mc_estimate,
    lsu_moments,
)
from stochgeo.simengine import SimConfig
from stochgeo.sir_analysis import moments_downlink_ppp


def test_user_class_validation():
    with pytest.raises(ValueError):
        UserClass("middle")
    with pytest.raises(ValueError):
        UserClass("cell_center")  # rho required
    with pytest.raises(ValueError):
        UserClass("edge", rho=0.5)  # rho forbidden
    UserClass("cell_boundary", rho=0.3)


def test_center_rho1_equals_general():
    for b, theta in [(1.0, 1.0), (2.0, 0.3)]:
        assert lsu_moments("cell_center", b, theta, 4.0, rho=1.0) == pytest.approx(
            lsu_moments("general", b, theta, 4.0), rel=1e-12
        )


def test_general_matches_downlink_moments():
    for theta in (0.2, 1.0, 5.0):
        assert lsu_moments("general", 1.0, theta, 4.0) == pytest.approx(
            moments_downlink_ppp(1.0, theta, 4.0), rel=1e-12
        )


def test_edge_identity_exact():
    # M_e(b) = M(b)^2 / (1+theta)^b, to 1e-10
    for b in (1.0, 2.0, 3.5):
        for theta in (0.5, 1.0, 4.0):
            m = lsu_moments("general", b, theta, 4.0)
            me = lsu_moments("edge", b, theta, 4.0)
            assert abs(me - m * m / (1.0 + theta) ** b) < 1e-10


def test_vertex_identity_exact():
    # M_v(b) = M_e(b)/(1+theta)^b, to 1e-10
    for b in (1.0, 2.0):
        for theta in (0.5, 1.0, 4.0):
            me = lsu_moments("edge", b, theta, 4.0)
            mv = lsu_moments("vertex", b, theta, 4.0)
            assert abs(mv - me / (1.0 + theta) ** b) < 1e-10


def test_mixture_identity_exact():
    # rho^2 M_c + (1-rho^2) M_b = M, to 1e-10 (exact by construction)
    for rho in (0.3, 0.5, 0.8):
        for b in (1.0, 2.0):
            m = lsu_moments("general", b, 1.0, 4.0)
            mc = lsu_moments("cell_center", b, 1.0, 4.0, rho=rho)
            mb = lsu_moments("cell_boundary", b, 1.0, 4.0, rho=rho)
            assert abs(rho**2 * mc + (1 - rho**2) * mb - m) < 1e-10


def test_boundary_rho_one_uses_edge_limit():
    got = lsu_moments("cell_boundary", 1.0, 1.0, 4.0, rho=1.0)
    assert got == pytest.approx(lsu_moments("edge", 1.0, 1.0, 4.0), rel=1e-12)
    # continuity: approaching the limit
    near = lsu_moments("cell_boundary", 1.0, 1.0, 4.0, rho=0.999)
    assert near == pytest.approx(got, abs=1e-3)


def test_moment_ordering_across_classes():
    for theta in (0.3, 1.0, 5.0):
        m_c = lsu_moments("cell_center", 1.0, theta, 4.0, rho=0.6)
        m = lsu_moments("general", 1.0, theta, 4.0)
        m_b = lsu_moments("cell_boundary", 1.0, theta, 4.0, rho=0.6)
        m_e = lsu_moments("edge", 1.0, theta, 4.0)
        m_v = lsu_moments("vertex", 1.0, theta, 4.0)
        assert m_c >= m >= m_b >= m_e >= m_v


def test_temporal_csp_center_above_boundary():
    for rho in (0.4, 0.7):
        cc = lsu_moments("cell_center", 2.0, 1.0, 4.0, rho=rho) / lsu_moments(
            "cell_center", 1.0, 1.0, 4.0, rho=rho
        )
        cb = lsu_moments("cell_boundary", 2.0, 1.0, 4.0, rho=rho) / lsu_moments(
            "cell_boundary", 1.0, 1.0, 4.0, rho=rho
        )
        assert cc > cb


def test_misr_table_alpha4():
    assert lsu_misr("general", 4.0) == pytest.approx(1.0)
    assert lsu_gain("edge", 4.0) == pytest.approx(1.0 / 3.0)
    assert lsu_gain("vertex", 4.0) == pytest.approx(0.25)
    assert lsu_gain("cell_center", 4.0, rho=0.5) == pytest.approx(0.5**-4.0)


def test_misr_mixture_identity():
    # rho^2 misr_center + (1-rho^2) misr_boundary = misr_general (algebra)
    for alpha in (3.0, 4.0, 5.5):
        for rho in (0.2, 0.6, 0.9):
            lhs = rho**2 * lsu_misr("cell_center", alpha, rho=rho) + (
                1 - rho**2
            ) * lsu_misr("cell_boundary", alpha, rho=rho)
            assert lhs == pytest.approx(lsu_misr("general", alpha), rel=1e-12)


def test_mc_center_and_general():
    cfg = SimConfig(trials=15000, master_seed=81)
    est_c = lsu_mc_estimate("cell_center", 1.0, 1.0, 4.0, 1.0, cfg, rho=0.5)
    ana_c = lsu_moments("cell_center", 1.0, 1.0, 4.0, rho=0.5)
    assert est_c.within(ana_c, atol=1e-3)
    est_g = lsu_mc_estimate("general", 1.0, 1.0, 4.0, 1.0, cfg)
    assert est_g.within(moments_downlink_ppp(1.0, 1.0, 4.0), atol=1e-3)


def test_mc_weighted_mixture_matches_general():
    cfg = SimConfig(trials=15000, master_seed=82)
    rho = 0.6
    est_c = lsu_mc_estimate("cell_center", 1.0, 1.0, 4.0, 1.0, cfg, rho=rho)
    est_b = lsu_mc_estimate("cell_boundary", 1.0, 1.0, 4.0, 1.0, cfg, rho=rho)
    est_g = lsu_mc_estimate("general", 1.0, 1.0, 4.0, 1.0, cfg)
    mix = rho**2 * est_c.mean + (1 - rho**2) * est_b.mean
    se = math.hypot(rho**2 * est_c.stderr, (1 - rho**2) * est_b.stderr) + est_g.stderr
    assert abs(mix - est_g.mean) < 3 * se + 1e-3


def test_mc_vertex_construction_matches_closed_form():
    cfg = SimConfig(trials=15000, master_seed=83)
    est = lsu_mc_estimate("vertex", 1.0, 1.0, 4.0, 1.0, cfg)
    ana = lsu_moments("vertex", 1.0, 1.0, 4.0)
    assert est.within(ana, atol=1e-3)


def test_mc_edge_construction_matches_closed_form():
    cfg = SimConfig(trials=15000, master_seed=84)
    est = lsu_mc_estimate("edge", 1.0, 1.0, 4.0, 1.0, cfg)
    ana = lsu_moments("edge", 1.0, 1.0, 4.0)
    assert est.within(ana, atol=1e-3)


def test_mc_empty_class_flagged():
    cfg = SimConfig(trials=200, master_seed=85)
    with pytest.raises(ValueError):
        lsu_mc_estimate("cell_center", 1.0, 1.0, 4.0, 1.0, cfg, rho=0.0)


@pytest.mark.parametrize("kind", ["general", "cell_center", "cell_boundary"])
def test_lsu_chunk_matches_a_pattern_loop(kind):
    # the sorted-distance loop the batch reduction replaced, on the same draws
    c = UserClass(kind, 0.6 if kind.startswith("cell_") else None)
    b, theta, alpha, density, radius = 2.0, 1.0, 4.0, 1.0, 6.0
    cfg = SimConfig(trials=400, master_seed=77)
    (got,) = location_users._lsu_chunk(simengine.batches(cfg, "lsu"), c, b, theta, alpha, density, radius)
    ((rng, size),) = simengine.batches(cfg, "lsu")
    radii, counts = location_users.sample_batch(location_users.PPP(density), radius, rng, size)
    ends = np.cumsum(counts)
    want = []
    for lo, hi in zip(ends - counts, ends):
        d = np.sort(radii[lo:hi])
        if len(d) < 2 or (kind == "cell_center" and d[0] / d[1] > c.rho) or (
                kind == "cell_boundary" and d[0] / d[1] <= c.rho):
            continue
        csp = math.exp(-np.log1p(theta * d[0] ** alpha * d[1:] ** -alpha).sum())
        corr = math.exp(-2.0 * math.pi * density * b * theta * d[0] ** alpha * radius ** (2.0 - alpha) / (alpha - 2.0))
        want.append(csp**b * corr)
    assert got == pytest.approx(want, rel=1e-12)


def test_an_equidistant_batch_holds_two_point_sized_arrays():
    """The distances are formed in place beside one repeated array at a
    time: 2.02 points-sized arrays, against 3.01 out of place."""
    import tracemalloc

    c, density = UserClass("vertex"), 1.0
    radius = simengine.default_window(density)
    rng = simengine.seed_stream(1, 0, 7)
    r1 = np.sqrt(rng.standard_gamma(2.0, 1024) / (density * math.pi))
    points = rng.poisson(density * math.pi * np.maximum(radius**2 - r1 * r1, 0.0)).sum()
    tracemalloc.start()
    try:
        location_users._equidistant_chunk.__wrapped__(simengine.seed_stream(1, 0, 7), 1024, c, 1.0, 1.0, 4.0,
                                                      density, radius)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.2 * points * 8
