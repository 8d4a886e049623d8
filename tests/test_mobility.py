import math

import numpy as np
import pytest

from stochgeo.mobility import (
    MobilitySpec,
    disk_difference_area,
    handoff_prob,
    handoff_prob_avg,
    jsp_mobility_mc_raw_fading,
    mobility_report,
    r2_conditional_cdf,
)
from stochgeo.simengine import SimConfig, estimate_moment
from stochgeo.pointprocess import PPP, NetworkModel

LAM = 0.001


def test_spec_validation():
    with pytest.raises(ValueError):
        MobilitySpec(-1.0)
    with pytest.raises(ValueError):
        MobilitySpec(1.0, model="hovering")
    with pytest.raises(ValueError):
        MobilitySpec(1.0, model="bipolar_mobile_interferers")


# -------------------------------------------------------------- disk geometry


def test_disk_difference_zero_speed():
    assert disk_difference_area(1.0, 1.0, 0.0) == pytest.approx(0.0, abs=1e-12)


def test_disk_difference_disjoint():
    r1, r12, v = 1.0, 2.0, 4.0
    assert disk_difference_area(r1, r12, v) == pytest.approx(math.pi * r12**2, rel=1e-12)


def test_disk_difference_hit_or_miss_oracle():
    # r1=1, v=1, phi=pi/2 -> r12=sqrt(2); check by 1e6-point hit-or-miss
    r1, v = 1.0, 1.0
    r12 = math.sqrt(2.0)
    rng = np.random.default_rng(3)
    pts = rng.random((1000000, 2)) * 8.0 - 4.0
    in12 = (pts[:, 0] - v) ** 2 + pts[:, 1] ** 2 <= r12**2
    in1 = pts[:, 0] ** 2 + pts[:, 1] ** 2 <= r1**2
    mc = (in12 & ~in1).mean() * 64.0
    assert disk_difference_area(r1, r12, v) == pytest.approx(mc, rel=0.005)


# ------------------------------------------------------------------- handoff


def test_handoff_zero_speed():
    assert handoff_prob(LAM, 10.0, 0.0, 1.0) == pytest.approx(0.0, abs=1e-12)
    assert handoff_prob_avg(LAM, 0.0) == 0.0


def test_handoff_monotone_in_speed():
    vals = [handoff_prob(LAM, 10.0, v, 0.0) for v in (0.0, 2.0, 5.0, 10.0)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_handoff_avg_monotone_in_speed_and_density():
    vs = [handoff_prob_avg(LAM, v) for v in (1.0, 5.0, 20.0)]
    assert vs[0] < vs[1] < vs[2]
    assert handoff_prob_avg(2 * LAM, 5.0) > handoff_prob_avg(LAM, 5.0)


def test_handoff_empirical_vs_analytic():
    cfg = SimConfig(trials=6000, master_seed=121)
    for v in (5.0, 10.0):
        spec = MobilitySpec(v)
        rep = mobility_report(spec, LAM, 10 ** (-0.1), 4.0, cfg)
        ana = handoff_prob_avg(LAM, v)
        assert rep["handoff"].within(ana, atol=2e-3)


# ------------------------------------------------------ conditional r2 law


def test_r2_cdf_bounds():
    r1, phi, v = 10.0, 1.0, 5.0
    r12 = math.sqrt(r1**2 + v**2 + 2 * r1 * v * math.cos(phi))
    assert r2_conditional_cdf(r12 + 1e-9, r1, phi, v, LAM) == 1.0
    assert r2_conditional_cdf(max(0.0, r1 - v) - 1e-9, r1, phi, v, LAM) == 0.0
    mid = 0.5 * (max(0.0, r1 - v) + r12)
    val = r2_conditional_cdf(mid, r1, phi, v, LAM)
    assert 0.0 < val < 1.0


def test_r2_cdf_empirical():
    # conditional new-serving-distance law given a handoff, against the
    # void-probability formula
    rng = np.random.default_rng(9)
    r1, phi, v = 15.0, math.pi / 3, 10.0
    r12 = math.sqrt(r1**2 + v**2 + 2 * r1 * v * math.cos(phi))
    # serving BS at distance r1 from the start; user moves along +x by v;
    # the BS sits at angle phi from the motion direction
    u2 = np.array([v, 0.0])
    radius = 120.0
    samples = []
    for _ in range(4000):
        n = rng.poisson(LAM * math.pi * radius**2)
        r = radius * np.sqrt(rng.random(n))
        t = rng.random(n) * 2 * math.pi
        pts = np.column_stack([r * np.cos(t), r * np.sin(t)])
        d1 = np.hypot(pts[:, 0] - 0.0, pts[:, 1])
        pts = pts[d1 > r1]  # condition: serving BS nearest at t1
        d2 = np.hypot(pts[:, 0] - u2[0], pts[:, 1] - u2[1])
        dmin = d2.min() if len(d2) else np.inf
        if dmin < r12:  # handoff occurred
            samples.append(dmin)
    samples = np.asarray(samples)
    for z in np.linspace(max(0, r1 - v) + 0.5, r12 - 0.5, 5):
        emp = (samples <= z).mean()
        ana = r2_conditional_cdf(float(z), r1, phi, v, LAM)
        se = math.sqrt(max(ana * (1 - ana), 1e-4) / len(samples))
        assert abs(emp - ana) < 4 * se + 0.01


# --------------------------------------------------------------------- JSP/CSP


def test_model2_v0_is_second_moment():
    cfg = SimConfig(trials=20000, master_seed=122)
    spec = MobilitySpec(0.0, model="bipolar_mobile_interferers", link_distance=8.0)
    jsp = mobility_report(spec, LAM, 1.0, 4.0, cfg)["jsp"]
    model = NetworkModel(PPP(LAM), alpha=4.0, link_distance=8.0)
    m2 = estimate_moment(model, 2.0, 1.0, "adhoc", cfg)
    assert abs(jsp.mean - m2.mean) < 3 * (jsp.stderr + m2.stderr)


def test_baseline_speed_independent():
    cfg = SimConfig(trials=15000, master_seed=123)
    theta = 10 ** (-0.1)
    base = []
    for v in (0.0, 10.0, 50.0):
        spec = MobilitySpec(v, model="bipolar_mobile_interferers", link_distance=8.0)
        rep = mobility_report(spec, LAM, theta, 4.0, cfg)
        base.append(rep["p2"])
    for a in base[1:]:
        assert abs(a.mean - base[0].mean) < 2 * (a.stderr + base[0].stderr)


def test_csp_above_baseline_and_converges():
    cfg = SimConfig(trials=15000, master_seed=124)
    theta = 10 ** (-0.1)
    gaps = []
    for v in (0.0, 2.0, 10.0, 50.0):
        spec = MobilitySpec(v, model="bipolar_mobile_interferers", link_distance=8.0)
        rep = mobility_report(spec, LAM, theta, 4.0, cfg)
        gap = rep["csp"].mean - rep["p2"].mean
        assert gap > -2.0 * rep["csp"].stderr  # positive correlation
        gaps.append((gap, rep["csp"].stderr, rep["p2"].stderr))
    # decaying correlation: at v=50 the gap is within 2 se of zero
    g, se_c, se_b = gaps[-1]
    assert g < 2.0 * (se_c + se_b)
    # and the zero-speed gap is the largest
    assert gaps[0][0] > gaps[-1][0]


def test_model1_csp_above_baseline():
    cfg = SimConfig(trials=12000, master_seed=125)
    theta = 10 ** (-0.1)
    spec = MobilitySpec(2.0)
    rep = mobility_report(spec, LAM, theta, 4.0, cfg)
    assert rep["csp"].mean > rep["p2"].mean - 2 * rep["csp"].stderr
    # marginals at both instants agree (stationarity)
    assert abs(rep["p1"].mean - rep["p2"].mean) < 3 * (rep["p1"].stderr + rep["p2"].stderr)


def test_factorized_vs_raw_fading_jsp():
    cfg = SimConfig(trials=20000, master_seed=126)
    spec = MobilitySpec(5.0)
    a = mobility_report(spec, LAM, 1.0, 4.0, cfg)["jsp"]
    b = jsp_mobility_mc_raw_fading(spec, LAM, 1.0, 4.0, cfg)
    assert abs(a.mean - b.mean) < 3 * (a.stderr + b.stderr)
