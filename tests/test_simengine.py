import math

import numpy as np
import pytest

from stochgeo import simengine
from stochgeo.core import Estimate
from stochgeo.interference import PathLossSpec
from stochgeo.location_users import lsu_mc_estimate
from stochgeo.pointprocess import GPP, MCP, PPP, NetworkModel, sample_batch
from stochgeo.simengine import (
    FVI_EVENTS,
    STREAMS,
    SimConfig,
    batches,
    confidence,
    default_window,
    estimate_jsp,
    estimate_meta,
    estimate_moment,
    estimate_success,
    seed_stream,
)

ADHOC_PPP = NetworkModel(PPP(0.1), alpha=4.0, link_distance=1.0)


def _ppp_adhoc_success(lam, theta, alpha, r_t):
    # closed form: exp(-pi lam theta^d r_t^2 G(1-d) G(1+d)), d = 2/alpha
    d = 2.0 / alpha
    return math.exp(-math.pi * lam * theta**d * r_t**2 * math.gamma(1 - d) * math.gamma(1 + d))


# -------------------------------------------------------------- rng contract


def test_seed_stream_determinism():
    a = seed_stream(123, 5, 3).random(16)
    b = seed_stream(123, 5, 3).random(16)
    np.testing.assert_array_equal(a, b)


def test_seed_stream_distinct_pairs_differ():
    a = seed_stream(123, 5, 3).random(8)
    for t, s in [(5, 4), (6, 3), (0, 0)]:
        assert not np.allclose(a, seed_stream(123, t, s).random(8))


def test_seed_stream_collision_check():
    # birthday bound over 1e6 uint64 draws spread across streams
    draws = []
    for t in range(20):
        g = seed_stream(7, t, t % 4)
        draws.append(g.integers(0, 2**63, size=50000, dtype=np.uint64))
    flat = np.concatenate(draws)
    assert flat.size == 10**6
    assert np.unique(flat).size == flat.size


def test_seed_stream_substream_range():
    with pytest.raises(ValueError):
        seed_stream(1, 0, 1 << 20)


def test_stream_registry_ids_distinct_and_clear_of_fvi_events():
    ids = [sid for sid, _ in STREAMS.values()]
    assert len(set(ids)) == len(ids)
    assert FVI_EVENTS == 6
    assert [name for name, (sid, _) in STREAMS.items() if 1 <= sid <= 6] == []
    assert STREAMS["csp"][0] == 0


def test_batches_sizes_and_streams():
    drawn = list(batches(SimConfig(trials=2500, master_seed=9), "csp"))
    assert [size for _, size in drawn] == [1024, 1024, 452]
    for i, (rng, _) in enumerate(drawn):
        np.testing.assert_array_equal(rng.random(4), seed_stream(9, i, 0).random(4))


def test_estimate_jsp_fvi_rejects_more_events_than_substreams():
    # event 7 would draw from the substream of another estimator
    with pytest.raises(ValueError):
        estimate_jsp(ADHOC_PPP, 7, "fvi", 1.0, SimConfig(trials=10, master_seed=1))


# ---------------------------------------------------------------- confidence


def test_confidence_constant_sample():
    est = confidence(np.full(100, 0.25), seed=1)
    assert est.mean == 0.25
    assert est.stderr == 0.0
    assert est.n == 100


def test_confidence_empty_raises():
    with pytest.raises(ValueError):
        confidence([], seed=1)


# ----------------------------------------------------------------- estimates


def test_estimate_success_ppp_adhoc_vs_closed_form():
    cfg = SimConfig(trials=20000, master_seed=42)
    est = estimate_success(ADHOC_PPP, theta=1.0, geometry="adhoc", cfg=cfg)
    target = _ppp_adhoc_success(0.1, 1.0, 4.0, 1.0)
    assert target == pytest.approx(0.6105, abs=2e-4)  # frozen from the formula
    assert est.within(target)


def test_estimate_success_theta_to_zero():
    cfg = SimConfig(trials=2000, master_seed=43)
    est = estimate_success(ADHOC_PPP, theta=1e-9, geometry="adhoc", cfg=cfg)
    assert est.mean == pytest.approx(1.0, abs=1e-4)


def test_estimates_reject_a_negative_theta():
    cfg = SimConfig(trials=200, master_seed=43)
    for call in (lambda: estimate_success(ADHOC_PPP, [1.0, -1.0], "adhoc", cfg),
                 lambda: estimate_moment(ADHOC_PPP, 2.0, -0.5, "downlink", cfg),
                 lambda: estimate_meta(ADHOC_PPP, -1.0, [0.5], cfg),
                 lambda: estimate_jsp(ADHOC_PPP, 2, "qsi", -1.0, cfg),
                 lambda: estimate_jsp(ADHOC_PPP, 2, "fvi", -1.0, cfg)):
        with pytest.raises(ValueError, match="theta must be nonnegative"):
            call()


def test_estimate_success_downlink_vs_arctan_identity():
    cfg = SimConfig(trials=20000, master_seed=44)
    model = NetworkModel(PPP(0.5), alpha=4.0)
    est = estimate_success(model, theta=1.0, geometry="downlink", cfg=cfg)
    target = 1.0 / (1.0 + math.atan(1.0))  # = 1/(1 + pi/4) = 0.56010
    assert target == pytest.approx(0.56010, abs=1e-5)
    assert est.within(target)


def test_estimate_moment_b1_equals_success():
    cfg = SimConfig(trials=5000, master_seed=45)
    a = estimate_success(ADHOC_PPP, 1.0, "adhoc", cfg)
    b = estimate_moment(ADHOC_PPP, 1.0, 1.0, "adhoc", cfg)
    assert a.mean == pytest.approx(b.mean, rel=1e-12)


def test_estimate_moment_variance_consistency():
    cfg = SimConfig(trials=30000, master_seed=46)
    m1 = estimate_moment(ADHOC_PPP, 1.0, 1.0, "adhoc", cfg)
    m2 = estimate_moment(ADHOC_PPP, 2.0, 1.0, "adhoc", cfg)
    # Jensen and boundedness
    assert m2.mean >= m1.mean**2 - 3 * m2.stderr
    assert m2.mean <= m1.mean + 3 * m2.stderr


def test_estimate_meta_monotone_and_limits():
    cfg = SimConfig(trials=4000, master_seed=47)
    xg = np.array([0.05, 0.3, 0.6, 0.9])
    curve = estimate_meta(ADHOC_PPP, 1.0, xg, cfg)
    v = curve.values
    assert np.all(np.diff(v) <= 1e-12)
    assert v[0] > 0.8 and v[-1] < 0.4


def test_estimate_jsp_qsi_is_square_moment():
    cfg = SimConfig(trials=4000, master_seed=48)
    j2 = estimate_jsp(ADHOC_PPP, 2, "qsi", 1.0, cfg)
    m2 = estimate_moment(ADHOC_PPP, 2.0, 1.0, "adhoc", cfg)
    assert j2.mean == pytest.approx(m2.mean, rel=1e-12)


def test_estimate_jsp_fvi_independence():
    cfg = SimConfig(trials=30000, master_seed=49)
    j2 = estimate_jsp(ADHOC_PPP, 2, "fvi", 1.0, cfg)
    p1 = estimate_success(ADHOC_PPP, 1.0, "adhoc", cfg)
    assert abs(j2.mean - p1.mean**2) < 3 * (j2.stderr + 2 * p1.mean * p1.stderr)


def test_worker_hint_never_changes_results():
    base = None
    for hint in (1, 4, 16):
        cfg = SimConfig(trials=3000, master_seed=50, worker_hint=hint)
        est = estimate_success(ADHOC_PPP, 1.0, "adhoc", cfg)
        if base is None:
            base = est.mean
        assert est.mean == base


def test_bit_identical_reruns():
    cfg = SimConfig(trials=3000, master_seed=51)
    a = estimate_success(ADHOC_PPP, 1.0, "adhoc", cfg)
    b = estimate_success(ADHOC_PPP, 1.0, "adhoc", cfg)
    assert (a.mean, a.stderr) == (b.mean, b.stderr)


def test_window_doubling_stays_unbiased():
    m = ADHOC_PPP
    r0 = default_window(m.intensity)
    target = _ppp_adhoc_success(0.1, 1.0, 4.0, 1.0)
    e1 = estimate_success(m, 1.0, "adhoc", SimConfig(trials=20000, master_seed=52, window_radius=r0))
    e2 = estimate_success(m, 1.0, "adhoc", SimConfig(trials=20000, master_seed=52, window_radius=2 * r0))
    assert e1.within(target) and e2.within(target)
    # the two draws are independent: bound the gap at 3 joint standard errors
    assert abs(e1.mean - e2.mean) < 3.0 * math.hypot(e1.stderr, e2.stderr)


def test_mcp_and_gpp_geometries_run():
    cfg = SimConfig(trials=2000, master_seed=53)
    mcp = NetworkModel(MCP(0.02, 5.0, 1.0), alpha=4.0, link_distance=1.0)
    gpp = NetworkModel(GPP(0.1, 1.0), alpha=4.0, link_distance=1.0)
    em = estimate_success(mcp, 1.0, "adhoc", cfg)
    eg = estimate_success(gpp, 1.0, "adhoc", cfg)
    ep = estimate_success(ADHOC_PPP, 1.0, "adhoc", cfg)
    # Fig. 11 ordering: clustering helps, repulsion hurts (ad hoc)
    assert em.mean > ep.mean > eg.mean


# ------------------------------------------------- theta sweep vs one theta


def _one_theta_csp_batches(model, theta, geometry, cfg, event=0):
    """The one-threshold batch kernel that the sweep replaced, kept as the
    reference: each call redraws every batch."""
    radius = cfg.window_radius or default_window(model.intensity)
    alpha = model.alpha
    for rng, size in batches(cfg, "csp", event):
        radii, counts = sample_batch(model.field, radius, rng, size)
        if geometry == "adhoc":
            r_t = model.link_distance
            logf = np.log1p(theta * r_t**alpha * radii**-alpha)
            csp = np.exp(-simengine._segment_sums(logf, counts))
            r_serving = np.full(size, r_t)
        else:
            ends = np.cumsum(counts)
            starts = ends - counts
            r1 = np.minimum.reduceat(radii, starts)
            c = theta * np.repeat(r1, counts) ** alpha
            logf = np.log1p(c * radii**-alpha)
            csp = np.exp(-simengine._segment_sums(logf, counts)) * (1.0 + theta)
            r_serving = r1
        yield csp, r_serving


def _one_theta_estimate(model, b, theta, geometry, cfg):
    radius = cfg.window_radius or default_window(model.intensity)
    alpha = model.alpha
    chunks = []
    for csp, r_serv in _one_theta_csp_batches(model, theta, geometry, cfg):
        if geometry == "adhoc":
            corr = math.exp(simengine._far_field_log_corr(model, theta, b, radius, model.link_distance))
        else:
            coef = 2.0 * math.pi * model.intensity * b * theta / (alpha - 2.0)
            corr = np.exp(-coef * r_serv**alpha * radius ** (2.0 - alpha))
        chunks.append(csp**b * corr)
    return confidence(np.concatenate(chunks), cfg.master_seed)


SWEEP_CASES = {
    "ppp-adhoc": (ADHOC_PPP, "adhoc"),
    "mcp-adhoc": (NetworkModel(MCP(0.02, 5.0, 1.0), alpha=4.0, link_distance=1.0), "adhoc"),
    "gpp-adhoc": (NetworkModel(GPP(0.1, 1.0), alpha=4.0, link_distance=1.0), "adhoc"),
    "ppp-downlink": (NetworkModel(PPP(0.5), alpha=4.0), "downlink"),
    "gpp-downlink": (NetworkModel(GPP(0.1, 1.0), alpha=3.5), "downlink"),
}
# theta = 0, the grid of the figures, and 1e6, where the ad hoc far field
# leaves its series for the quadrature
SWEEP_THETAS = np.array([0.0, 0.1, 1.0, 10.0, 1e6])


@pytest.mark.parametrize("b", [1.0, 2.0])
@pytest.mark.parametrize("case", list(SWEEP_CASES))
def test_theta_sweep_matches_one_theta_kernel(case, b):
    model, geometry = SWEEP_CASES[case]
    cfg = SimConfig(trials=1500, master_seed=57)
    assert cfg.trials > STREAMS["csp"][1]  # two batches, the second partial
    if b == 1.0:
        got = estimate_success(model, SWEEP_THETAS, geometry, cfg)
    else:
        got = estimate_moment(model, b, SWEEP_THETAS, geometry, cfg)
    ref = [_one_theta_estimate(model, b, t, geometry, cfg) for t in SWEEP_THETAS]
    assert got == ref
    assert got[0].mean == 1.0


def test_scalar_theta_returns_one_estimate():
    cfg = SimConfig(trials=1500, master_seed=58)
    est = estimate_success(ADHOC_PPP, 1.0, "adhoc", cfg)
    assert isinstance(est, Estimate)
    assert est == _one_theta_estimate(ADHOC_PPP, 1.0, 1.0, "adhoc", cfg)
    (one,) = estimate_success(ADHOC_PPP, [1.0], "adhoc", cfg)
    assert one == est


def test_theta_grid_must_be_one_dimensional():
    with pytest.raises(ValueError):
        estimate_success(ADHOC_PPP, np.ones((2, 2)), "adhoc", SimConfig(trials=10))


# ------------------------------------------- estimates pinned across commits

# (mean, stderr) recorded before the field samplers were merged into
# pointprocess.sample_batch; the csp, interference (u = 0) and lsu streams
# must keep drawing these numbers.  lsu sums its log factors in another
# order since its loop was vectorised, hence rel 1e-12 instead of equality.
# The Ginibre entries were recorded again when its sampler stopped drawing
# the gamma variates beyond GPP_TAIL and the thinning uniforms at beta = 1;
# each new mean lies within 1.05 stderr of the value it replaced.
PINNED_FIELDS = {"ppp": PPP(0.1), "mcp": MCP(0.02, 5.0, 1.0), "gpp": GPP(0.1, 1.0)}
PINNED_SUCCESS = {
    ("ppp", "adhoc"): (0.6084424289115452, 0.008415878763689684),
    ("ppp", "downlink"): (0.5651732350907268, 0.008105305926746464),
    ("mcp", "adhoc"): (0.7518351153124339, 0.008512468988429072),
    ("mcp", "downlink"): (0.18994883800247833, 0.006935599842933596),
    ("gpp", "adhoc"): (0.5749636097216853, 0.007654835652093135),
    ("gpp", "downlink"): (0.6464187146916621, 0.007339756592073619),
}
PINNED_INTERFERENCE = {
    "ppp": {"mean": (0.4890209163572477, 0.02717045757596482),
            "second_moment": (0.6813434818023775, 0.09066310873871915),
            "mean_product": (0.4805851840753805, 0.047189929403800006)},
    "mcp": {"mean": (0.5872721522237253, 0.05472730046616802),
            "second_moment": (2.138939953149713, 0.38033640775347577),
            "mean_product": (1.8241256675725601, 0.26650863682254156)},
    "gpp": {"mean": (0.457111956826865, 0.02042850374693389),
            "second_moment": (0.45892827651184254, 0.04481745242102445),
            "mean_product": (0.3348044629098364, 0.029244370489707697)},
}
PINNED_LSU_CELL_CENTER = (0.8868341244662842, 0.005132030868352833)


def _assert_pinned(est, pinned):
    assert (est.mean, est.stderr) == pytest.approx(pinned, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("key", list(PINNED_SUCCESS))
def test_success_draws_are_pinned(key):
    field, geometry = key
    model = NetworkModel(PINNED_FIELDS[field], 4.0, 1.0 if geometry == "adhoc" else None)
    _assert_pinned(estimate_success(model, 1.0, geometry, SimConfig(trials=1500, master_seed=61)),
                   PINNED_SUCCESS[key])


@pytest.mark.parametrize("field", list(PINNED_INTERFERENCE))
def test_interference_draws_at_u0_are_pinned(field):
    model = NetworkModel(PINNED_FIELDS[field], 4.0)
    got = simengine.estimate_interference_moments(model, PathLossSpec(4.0, 1.0), 0.0,
                                                  SimConfig(trials=600, master_seed=61))
    for name, pinned in PINNED_INTERFERENCE[field].items():
        _assert_pinned(got[name], pinned)


def test_interference_of_a_ginibre_field_takes_only_an_origin_observer():
    # the Ginibre sampler is exact for statistics referred to the origin only
    model = NetworkModel(GPP(1.0, 1.0), 4.0)
    with pytest.raises(ValueError, match="u = 0"):
        simengine.estimate_interference_moments(model, PathLossSpec(4.0, 1.0), 2.0, SimConfig(trials=10, master_seed=1))


def test_lsu_draws_are_pinned():
    est = lsu_mc_estimate("cell_center", 1.0, 1.0, 4.0, 1.0, SimConfig(trials=1500, master_seed=61), rho=0.6)
    _assert_pinned(est, PINNED_LSU_CELL_CENTER)
