import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import integrate as sciint

from stochgeo import mobility, simengine
from stochgeo.mobility import (
    MobilitySpec,
    disk_difference_area,
    handoff_prob,
    handoff_prob_avg,
    jsp_mobility_mc_raw_fading,
    mobility_report,
    r2_conditional_cdf,
)
from stochgeo.interference import PathLossSpec, _c1
from stochgeo.simengine import SimConfig, default_window, estimate_moment, seed_stream
from stochgeo.pointprocess import PPP, NetworkModel, sample_batch
from stochgeo.sir_analysis import moments_adhoc

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


def _handoff_avg_by_quad(density, v):
    """The contact-distance average in r by adaptive quad split at r = v, of
    the same 48-point angle average."""
    t, wt = np.polynomial.legendre.leggauss(48)
    phi, wphi = 0.5 * math.pi * (t + 1.0), 0.5 * wt

    def f(r):
        return np.dot(wphi, handoff_prob(density, r, v, phi)) * 2.0 * math.pi * density * r * math.exp(-density * math.pi * r * r)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", sciint.IntegrationWarning)
        return sum(sciint.quad(f, lo, hi, epsabs=1e-14, epsrel=1e-12, limit=1000)[0]
                   for lo, hi in ((0.0, v), (v, np.inf)))


@pytest.mark.parametrize("density", [0.001, 0.01, 1.0])
def test_handoff_avg_matches_adaptive_quadrature(density):
    for v in (0.1, 1.0, 5.0, 20.0, 50.0):
        assert handoff_prob_avg(density, v) == pytest.approx(_handoff_avg_by_quad(density, v), abs=1e-9)


def test_handoff_avg_domain():
    for density, v in ((0.0, 1.0), (-1.0, 1.0), (0.0, 0.0), (LAM, -1.0)):
        with pytest.raises(ValueError):
            handoff_prob_avg(density, v)


def test_handoff_prob_of_arrays_is_the_scalar_values():
    r, phi = np.array([[0.5], [3.0], [40.0]]), np.array([0.0, 1.0, math.pi])
    got = handoff_prob(LAM, r, 5.0, phi)
    assert got.shape == (3, 3)
    for i, ri in enumerate(r[:, 0]):
        for j, p in enumerate(phi):
            assert got[i, j] == pytest.approx(handoff_prob(LAM, float(ri), 5.0, float(p)), rel=1e-15, abs=0.0)


def test_handoff_empirical_vs_analytic(usable_cpus):
    cfg = SimConfig(trials=6000, master_seed=121, worker_hint=usable_cpus)
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


def test_model2_v0_is_second_moment(usable_cpus):
    cfg = SimConfig(trials=20000, master_seed=122, worker_hint=usable_cpus)
    spec = MobilitySpec(0.0, model="bipolar_mobile_interferers", link_distance=8.0)
    jsp = mobility_report(spec, LAM, 1.0, 4.0, cfg)["jsp"]
    model = NetworkModel(PPP(LAM), alpha=4.0, link_distance=8.0)
    m2 = estimate_moment(model, 2.0, 1.0, "adhoc", cfg)
    assert abs(jsp.mean - m2.mean) < 3 * (jsp.stderr + m2.stderr)


def test_baseline_speed_independent(usable_cpus):
    cfg = SimConfig(trials=15000, master_seed=123, worker_hint=usable_cpus)
    theta = 10 ** (-0.1)
    base = []
    for v in (0.0, 10.0, 50.0):
        spec = MobilitySpec(v, model="bipolar_mobile_interferers", link_distance=8.0)
        rep = mobility_report(spec, LAM, theta, 4.0, cfg)
        base.append(rep["p2"])
    for a in base[1:]:
        assert abs(a.mean - base[0].mean) < 2 * (a.stderr + base[0].stderr)


def test_csp_above_baseline_and_converges(usable_cpus):
    cfg = SimConfig(trials=15000, master_seed=124, worker_hint=usable_cpus)
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


def test_model1_csp_above_baseline(usable_cpus):
    cfg = SimConfig(trials=12000, master_seed=125, worker_hint=usable_cpus)
    theta = 10 ** (-0.1)
    spec = MobilitySpec(2.0)
    rep = mobility_report(spec, LAM, theta, 4.0, cfg)
    assert rep["csp"].mean > rep["p2"].mean - 2 * rep["csp"].stderr
    # marginals at both instants agree (stationarity)
    assert abs(rep["p1"].mean - rep["p2"].mean) < 3 * (rep["p1"].stderr + rep["p2"].stderr)


def _model2_jsp(density, r_t, theta, alpha, v):
    """Model II's JSP by the PGFL, exp(-2 lam C + lam K(v)), with
    g(r) = c/(r^a + c), c = theta r_t^a, C = int g = pi r_t^2 theta^d
    Gamma(1+d) Gamma(1-d) and K(v) = int g(|x|) g(|x + v e|) dx: g is c times
    the bounded path loss at eps = c, so K = c^2 C1(v).  Returns (JSP, C, K)."""
    d = 2.0 / alpha
    c = theta * r_t**alpha
    big_c = math.pi * r_t**2 * theta**d * math.gamma(1.0 + d) * math.gamma(1.0 - d)
    k = c * c * float(_c1(PathLossSpec(alpha, c), v))
    return math.exp(-2.0 * density * big_c + density * k), big_c, k


def test_model2_closed_form_at_zero_speed_is_the_second_moment():
    theta, alpha, r_t = 10 ** (-0.1), 4.0, 8.0
    jsp, big_c, k = _model2_jsp(LAM, r_t, theta, alpha, 0.0)
    assert k == pytest.approx(big_c * (1.0 - 2.0 / alpha), rel=1e-12)
    assert jsp == pytest.approx(moments_adhoc(NetworkModel(PPP(LAM), alpha, r_t), 2.0, theta), rel=1e-12)


def test_model2_jsp_matches_the_closed_form(usable_cpus):
    # criterion 12's setup: the radial slot-2 law draws the mobile
    # interferers without bias at every speed
    theta, alpha, r_t = 10 ** (-0.1), 4.0, 8.0
    cfg = SimConfig(trials=30000, master_seed=129, worker_hint=usable_cpus)
    for v in (0.0, 5.0, 20.0, 50.0):
        spec = MobilitySpec(v, model="bipolar_mobile_interferers", link_distance=r_t)
        jsp = mobility_report(spec, LAM, theta, alpha, cfg)["jsp"]
        assert abs(jsp.mean - _model2_jsp(LAM, r_t, theta, alpha, v)[0]) < 3.0 * jsp.stderr


@pytest.mark.parametrize("trials", [1, 2, 7])
@pytest.mark.parametrize("spec", [MobilitySpec(5.0), MobilitySpec(5.0, "bipolar_mobile_interferers", 8.0)])
def test_fewer_trials_than_csp_batches(spec, trials):
    # the CSP's batch means take one trial each at most; one trial has
    # stderr 0, as simengine.confidence gives (RuntimeWarnings are errors)
    rep = mobility_report(spec, LAM, 1.0, 4.0, SimConfig(trials=trials, master_seed=130))
    assert rep["csp"].n == trials
    assert math.isfinite(rep["csp"].mean) and math.isfinite(rep["csp"].stderr)
    assert (rep["csp"].stderr == 0.0) == (trials == 1)


@pytest.mark.parametrize("spec", [MobilitySpec(5.0), MobilitySpec(5.0, "bipolar_mobile_interferers", 8.0)])
def test_a_mobility_batch_peaks_at_a_few_point_sized_arrays(spec):
    """One 512-trial batch's traced peak is at most 3.5 float arrays the size
    of its points: 3.3 (Model I) and 3.0 (Model II) on radial samples, with
    the serving split in place, against 5.4 and 6.0 before."""
    radius, stream = default_window(LAM) + spec.speed, simengine.STREAMS["mobility"][0]
    points = sample_batch(PPP(LAM), radius, seed_stream(1, 0, stream), 512)[0].size
    tracemalloc.start()
    try:
        mobility._mobility_chunk.__wrapped__(seed_stream(1, 0, stream), 512, spec, LAM, 1.0, 4.0, radius)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * points * 8


def test_factorized_vs_raw_fading_jsp(usable_cpus):
    cfg = SimConfig(trials=20000, master_seed=126, worker_hint=usable_cpus)
    spec = MobilitySpec(5.0)
    a = mobility_report(spec, LAM, 1.0, 4.0, cfg)["jsp"]
    b = jsp_mobility_mc_raw_fading(spec, LAM, 1.0, 4.0, cfg)
    assert abs(a.mean - b.mean) < 3 * (a.stderr + b.stderr)


# ------------------------------------------- batch reductions vs trial loops


def _radius(spec):
    return simengine.default_window(0.01) + spec.speed


def _trial_segments(spec, cfg):
    """(slot-1, slot-2 distances) per trial of the first batch, and the
    batch's generator after its patterns were drawn."""
    ((rng, size),) = simengine.batches(cfg, "mobility")
    d1, d2, counts = mobility._slot_distances(spec, 0.01, _radius(spec), rng, size)
    ends = np.cumsum(counts)
    return [(d1[lo:hi], d2[lo:hi]) for lo, hi in zip(ends - counts, ends)], rng


def test_downlink_chunks_match_a_trial_loop():
    # each trial's serving point and handoff, found by argmin one trial at a time
    spec, theta, alpha = MobilitySpec(5.0), 1.0, 4.0
    cfg = SimConfig(trials=300, master_seed=127)
    radius = _radius(spec)
    c1, c2, hand = mobility._mobility_chunk(simengine.batches(cfg, "mobility"), spec, 0.01, theta, alpha, radius)
    (hits,) = mobility._raw_fading_chunk(simengine.batches(cfg, "mobility"), spec, 0.01, theta, alpha, radius)
    trials, rng = _trial_segments(spec, cfg)
    n = sum(len(a) for a, _ in trials)
    h1, h2 = rng.standard_exponential(n), rng.standard_exponential(n)
    start = 0
    for i, (a, b) in enumerate(trials):
        j1, j2 = int(np.argmin(a)), int(np.argmin(b))
        for d, j, got in ((a, j1, c1[i]), (b, j2, c2[i])):
            rest = np.delete(d, j)
            assert got == pytest.approx(math.exp(-np.log1p(theta * d[j] ** alpha * rest**-alpha).sum()), rel=1e-12)
        assert hand[i] == (j1 != j2)
        sirs = []
        for d, j, h in ((a, j1, h1[start:start + len(a)]), (b, j2, h2[start:start + len(a)])):
            p = h * d**-alpha
            sirs.append(p[j] / max(p.sum() - p[j], 1e-300))
        assert hits[i] == (sirs[0] > theta and sirs[1] > theta)
        start += len(a)
    assert 0 < hand.sum() < len(hand)


# ---------------------------------------------------------- observation window


@pytest.mark.parametrize("spec, jsp, hits", [
    pytest.param(MobilitySpec(5.0), 0.3977380800115237, 0.39, id="downlink"),
    pytest.param(MobilitySpec(5.0, "bipolar_mobile_interferers", 8.0), 0.613550212722076, 0.6316666666666667,
                 id="bipolar"),
])
def test_window_radius_reaches_the_sampler(monkeypatch, spec, jsp, hits):
    # a set window grows by one step of the speed, as the default one does;
    # the default window keeps the values it gave before a set one reached
    # the sampler (approx only for the last-bit spread of numpy's vectorised
    # exp and log across CPUs)
    radii, sampler = [], mobility.sample_batch

    def spy(field, radius, rng, size, planar=False):
        radii.append(radius)
        return sampler(field, radius, rng, size, planar=planar)

    monkeypatch.setattr(mobility, "sample_batch", spy)
    means = []
    for window in (None, 60.0):
        cfg = SimConfig(trials=600, master_seed=128, window_radius=window)
        means.append((mobility_report(spec, LAM, 1.0, 4.0, cfg)["jsp"].mean,
                      jsp_mobility_mc_raw_fading(spec, LAM, 1.0, 4.0, cfg).mean))
    assert radii == [default_window(LAM) + 5.0] * 4 + [65.0] * 4  # two batches per call
    assert means[0] == (pytest.approx(jsp, rel=1e-12), pytest.approx(hits, rel=1e-12))
    assert means[1] != means[0]
