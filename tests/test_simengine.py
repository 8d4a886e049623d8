import math
import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import stochgeo
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
from stochgeo.sir_analysis import meta_distribution

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


def test_estimate_meta_rejects_a_theta_grid_before_any_draw(monkeypatch):
    drawn = []  # the pointprocess sampler, as simengine calls it
    sample = simengine.sample_batch
    monkeypatch.setattr(simengine, "sample_batch", lambda *a, **kw: drawn.append(a) or sample(*a, **kw))
    cfg = SimConfig(trials=200, master_seed=44)
    for theta in ([1.0, 2.0], np.array([1.0]), [[1.0]]):
        with pytest.raises(ValueError, match="theta must be a scalar"):
            estimate_meta(ADHOC_PPP, theta, [0.5], cfg)
    assert drawn == []
    estimate_meta(ADHOC_PPP, 1.0, [0.5], cfg)
    assert drawn  # the spy sees the draws of a scalar theta


@pytest.mark.parametrize("regime", ["qsi", "fvi"])
def test_estimate_jsp_rejects_a_theta_grid_before_any_draw(monkeypatch, regime):
    # FVI reads one theta per event and QSI one power per call: a grid has no answer
    calls = []
    run = simengine.run_batches
    monkeypatch.setattr(simengine, "run_batches", lambda *a, **kw: calls.append(a) or run(*a, **kw))
    cfg = SimConfig(trials=200, master_seed=4417)
    for theta in ([1.0, 10.0], np.array([1.0]), [[1.0]]):
        with pytest.raises(ValueError, match="theta must be a scalar"):
            estimate_jsp(ADHOC_PPP, 2, regime, theta, cfg)
    assert calls == []
    estimate_jsp(ADHOC_PPP, 2, regime, 1.0, cfg)
    assert calls  # the spy sees the batches of a scalar theta


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


# ------------------------------- in-place kernels: the same bits, bounded memory

# _segment_sums and the interference kernel as they were before they worked
# in place, kept as the reference: every value must stay bit for bit theirs.


def _ref_segment_sums(values, counts):
    csum = np.concatenate([[0.0], np.cumsum(values)])
    ends = np.cumsum(counts)
    starts = ends - counts
    return csum[ends] - csum[starts]


def _ref_interference_kernel(rng, size, model, pl, u, radius, tail_mean):
    if u == 0.0:
        radii, counts = sample_batch(model.field, radius, rng, size)
        ell = ell_u = pl.ell(radii)
    else:
        x, y, counts = sample_batch(model.field, radius, rng, size, planar=True)
        ell = pl.ell(np.hypot(x, y))
        ell_u = pl.ell(np.hypot(x - u, y))
    h1 = rng.standard_exponential(ell.shape)
    h2 = rng.standard_exponential(ell.shape)
    i1 = _ref_segment_sums(h1 * ell, counts) + tail_mean
    i2 = _ref_segment_sums(h2 * ell_u, counts) + tail_mean
    return i1, i1 * i1, i1 * i2


@pytest.mark.parametrize("counts", [[0, 3, 2], [3, 0, 2], [3, 2, 0], [0, 0, 4, 0, 1, 0], [0, 0, 0], [5]])
def test_segment_sums_match_the_reference_and_consume_their_input(counts):
    counts = np.array(counts)
    values = seed_stream(4, 0).standard_normal(counts.sum()) * 1e3
    want = _ref_segment_sums(values, counts)
    got = simengine._segment_sums(values.copy(), counts)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    consumed = values.copy()
    simengine._segment_sums(consumed, counts)
    assert np.array_equal(consumed, np.cumsum(values))  # overwritten by its running sum


def test_segment_sums_reject_a_mask():
    # a running sum of a bool mask in place would saturate at True
    counts = np.array([0, 4, 0, 3, 0])
    mask = seed_stream(4, 1).random(counts.sum()) < 0.5
    kept = mask.copy()
    with pytest.raises(TypeError, match="float64"):
        simengine._segment_sums(mask, counts)
    assert np.array_equal(mask, kept)


@pytest.mark.parametrize("counts", [
    pytest.param([0, 5, 9, 3], id="first-empty"),
    pytest.param([6, 0, 0, 8, 4], id="middle-empty"),
    pytest.param([7, 9, 1, 0], id="last-empty"),
    pytest.param([0, 0, 0], id="all-empty"),
    pytest.param([2, 3], id="below-one-block"),
    pytest.param([3, 0, 11], id="whole-blocks"),
    pytest.param([30, 1, 0, 16, 2], id="many-blocks"),
])
def test_faded_sums_draw_and_sum_as_one_draw_does(counts, monkeypatch):
    # blocks of 7 points: a segment may end at, start at or span a block edge
    monkeypatch.setattr(simengine, "_BLOCK", 7)
    counts = np.array(counts)
    gain = seed_stream(4, 2).random(counts.sum()) * 10.0
    want_rng, got_rng = seed_stream(4, 3), seed_stream(4, 3)
    want = simengine._segment_sums(want_rng.standard_exponential(gain.size) * gain, counts)
    got = simengine._faded_sums(got_rng, gain, counts)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    assert got_rng.random() == want_rng.random()  # the stream stands where one draw leaves it


@pytest.mark.parametrize("counts", [
    pytest.param([0, 5, 9, 3], id="first-empty"),
    pytest.param([7, 9, 1, 0], id="last-empty"),
    pytest.param([0, 0, 0], id="all-empty"),
    pytest.param([2, 3], id="below-one-block"),
    pytest.param([30, 1, 0, 16, 2], id="many-blocks"),
])
def test_faded_sums_of_two_slots_follow_one_another(counts, monkeypatch):
    # one pass over blocks of both slots' gains draws what two whole draws
    # in a row draw: slot 2's fading starts where slot 1's n values end
    monkeypatch.setattr(simengine, "_BLOCK", 7)
    counts = np.array(counts)
    gains = [seed_stream(4, 2).random(counts.sum()) * 10.0, seed_stream(4, 4).random(counts.sum())]
    want_rng, got_rng = seed_stream(4, 3), seed_stream(4, 3)
    want = [simengine._segment_sums(want_rng.standard_exponential(g.size) * g, counts) for g in gains]
    blocks = zip(*[[g[lo:lo + 5] for lo in range(0, g.size, 5)] for g in gains])  # not the skip's blocks
    got = simengine._faded_sums(got_rng, blocks, counts, slots=2)
    assert got.shape == (2, counts.size) and np.array_equal(got, want)
    assert got_rng.random() == want_rng.random()


@pytest.mark.parametrize("u, arrays", [pytest.param(0.0, 1.3, id="u0"), pytest.param(2.0, 2.5, id="u2")])
def test_an_interference_batch_draws_its_fading_in_blocks(u, arrays):
    """One batch holds block-sized path losses and buffers: it peaks at
    0.63 and 1.44 arrays, against 2.02 and 3.02 with a points-sized fading
    buffer."""
    model, pl, size = NetworkModel(PPP(1.0), 4.0), PathLossSpec(4.0, 1.0), 1024
    points = sample_batch(model.field, 10.0, seed_stream(1, 0, 11), size)[0].size
    tracemalloc.start()
    try:
        simengine._interference_chunk.__wrapped__(seed_stream(1, 0, 11), size, model, pl, u, 10.0, 0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= arrays * points * 8


@pytest.mark.parametrize("u", [0.0, 2.0])
@pytest.mark.parametrize("field", [PPP(0.3), MCP(0.05, 5.0, 1.0), PPP(3.0)])  # PPP(3.0): six blocks per batch
def test_interference_kernel_draws_the_reference_bits(field, u):
    model, pl, cfg = NetworkModel(field, 4.0), PathLossSpec(4.0, 1.0), SimConfig(trials=2500, master_seed=8)
    args = (model, pl, u, 6.0, 0.01)
    got = simengine.run_batches(cfg, "interference", simengine._interference_chunk, *args)
    parts = [_ref_interference_kernel(rng, size, *args) for rng, size in batches(cfg, "interference")]
    for g, w in zip(got, zip(*parts)):
        assert np.array_equal(g, np.concatenate(w))


@pytest.mark.parametrize("radius", [10.0, 25.0])
@pytest.mark.parametrize("u, limit", [pytest.param(0.0, 2e6, id="u0"), pytest.param(2.0, 5e6, id="u2")])
def test_a_poisson_interference_batch_holds_no_point_sized_array(u, limit, radius):
    """A Poisson batch is replayed block by block, so its peak does not grow
    with the window: 1.61 MB at u = 0 and 3.71 MB at u = 2, at R = 10
    (321 k points) and R = 25 (2.0 M points) alike.  At u = 2 one pass
    holds a block's x, y and both path losses."""
    model, pl = NetworkModel(PPP(1.0), 4.0), PathLossSpec(4.0, 1.0)
    tracemalloc.start()
    try:
        simengine._interference_chunk.__wrapped__(seed_stream(1, 0, 11), 1024, model, pl, u, radius, 0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= limit


def test_an_interference_batch_holds_two_point_sized_arrays():
    """One batch at u = 0 peaks at 2.5 float arrays the size of its points
    (the kernel before the in-place rewrite peaked at seven)."""
    model, pl, size = NetworkModel(PPP(1.0), 4.0), PathLossSpec(4.0, 1.0), 1024
    points = sample_batch(model.field, 10.0, seed_stream(1, 0, 11), size)[0].size
    tracemalloc.start()
    try:
        simengine._interference_chunk.__wrapped__(seed_stream(1, 0, 11), size, model, pl, 0.0, 10.0, 0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * points * 8


@pytest.mark.parametrize("b", [-0.25, -0.3, -1.0])
def test_an_adhoc_moment_of_infinite_variance_raises_before_any_draw(b, monkeypatch):
    # delta/2 = 0.25 at alpha = 4: E[CSP^2b] diverges for b <= -0.25
    calls = []
    run = simengine.run_batches
    monkeypatch.setattr(simengine, "run_batches", lambda *a, **kw: calls.append(a) or run(*a, **kw))
    with pytest.raises(ValueError, match="infinite sample variance"):
        estimate_moment(ADHOC_PPP, b, 1.0, "adhoc", SimConfig(trials=200, master_seed=3))
    assert calls == []
    estimate_moment(ADHOC_PPP, -0.2, 1.0, "adhoc", SimConfig(trials=200, master_seed=3))
    estimate_moment(NetworkModel(PPP(0.1), 4.0), b, 0.5, "downlink", SimConfig(trials=200, master_seed=3))
    assert len(calls) == 2


# ------------------------------------------------- one pattern pass, cached

CACHE_MODELS = {
    "ppp": (ADHOC_PPP, "adhoc"),
    "mcp": (NetworkModel(MCP(0.02, 5.0, 1.0), alpha=4.0, link_distance=1.0), "adhoc"),
    "gpp": (NetworkModel(GPP(0.1, 1.0), alpha=4.0, link_distance=1.0), "adhoc"),
    "ppp-downlink": (NetworkModel(PPP(0.1), alpha=4.0), "downlink"),
}
# every CSP estimator, each reading the log-sums at theta = 1
CACHE_CALLS = {
    "success": lambda m, g, c: estimate_success(m, [0.5, 1.0], g, c),
    "moment": lambda m, g, c: estimate_moment(m, 2.0, 1.0, g, c),
    "meta": lambda m, g, c: tuple(estimate_meta(m, 1.0, [0.25, 0.5, 0.75], c, geometry=g).values),
    "qsi": lambda m, g, c: estimate_jsp(m, 3, "qsi", 1.0, c, geometry=g),
}


@pytest.fixture
def csp_cache(monkeypatch):
    """The cache at its default cap (the autouse fixture turns it off)."""
    monkeypatch.setattr(simengine, "_CSP_CACHE_FLOATS", 1 << 20)
    return simengine._CSP_CACHE


@pytest.fixture
def draws(monkeypatch):
    """Counts the batches that simengine samples."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return sample_batch(*args, **kwargs)

    monkeypatch.setattr(simengine, "sample_batch", counted)
    return calls


@pytest.mark.parametrize("key", list(CACHE_MODELS))
def test_a_cache_hit_equals_a_fresh_computation_and_draws_nothing(key, monkeypatch, draws):
    model, geometry = CACHE_MODELS[key]
    cfg = SimConfig(trials=1500, master_seed=71)
    fresh = {name: call(model, geometry, cfg) for name, call in CACHE_CALLS.items()}
    assert len(draws) == 2 * len(CACHE_CALLS)  # with the cache off, every call draws both batches
    monkeypatch.setattr(simengine, "_CSP_CACHE_FLOATS", 1 << 20)
    CACHE_CALLS["success"](model, geometry, cfg)
    draws.clear()
    for name, call in CACHE_CALLS.items():
        assert call(model, geometry, cfg) == fresh[name], name
    assert draws == []


def test_a_grid_draws_only_for_the_thresholds_it_misses(csp_cache, monkeypatch):
    cfg = SimConfig(trials=1500, master_seed=72)
    fresh = [estimate_success(ADHOC_PPP, t, "adhoc", cfg) for t in (0.5, 1.0, 2.0)]
    csp_cache.clear()
    estimate_success(ADHOC_PPP, 1.0, "adhoc", cfg)
    drawn = []
    chunk = simengine._csp_chunk
    monkeypatch.setattr(simengine, "_csp_chunk", lambda it, model, thetas, *rest: (
        drawn.append(list(thetas)), chunk(it, model, thetas, *rest))[1])
    assert estimate_success(ADHOC_PPP, [0.5, 1.0, 2.0, 0.5], "adhoc", cfg) == fresh + fresh[:1]
    assert drawn == [[0.5, 2.0]]


CACHE_MISSES = {
    "theta": lambda c: estimate_success(ADHOC_PPP, 2.0, "adhoc", c),
    "field": lambda c: estimate_success(NetworkModel(PPP(0.2), 4.0, 1.0), 1.0, "adhoc", c),
    "alpha": lambda c: estimate_success(NetworkModel(PPP(0.1), 3.5, 1.0), 1.0, "adhoc", c),
    "r_t": lambda c: estimate_success(NetworkModel(PPP(0.1), 4.0, 2.0), 1.0, "adhoc", c),
    "geometry": lambda c: estimate_success(ADHOC_PPP, 1.0, "downlink", c),
    "window": lambda c: estimate_success(ADHOC_PPP, 1.0, "adhoc", SimConfig(c.trials, c.master_seed, 20.0)),
    "trials": lambda c: estimate_success(ADHOC_PPP, 1.0, "adhoc", SimConfig(c.trials + 1, c.master_seed)),
    "seed": lambda c: estimate_success(ADHOC_PPP, 1.0, "adhoc", SimConfig(c.trials, c.master_seed + 1)),
    "event": lambda c: estimate_jsp(ADHOC_PPP, 1, "fvi", 1.0, c),
}


@pytest.mark.parametrize("part", list(CACHE_MISSES))
def test_every_key_part_forces_a_miss(part, csp_cache, draws):
    cfg = SimConfig(trials=1500, master_seed=73)
    estimate_success(ADHOC_PPP, 1.0, "adhoc", cfg)
    draws.clear()
    estimate_success(ADHOC_PPP, 1.0, "adhoc", SimConfig(1500, 73, worker_hint=2))  # the hint is no key part
    assert draws == []
    CACHE_MISSES[part](cfg)
    assert draws


def test_the_float_cap_evicts_the_least_recently_used_entry(csp_cache, monkeypatch):
    cfg = SimConfig(trials=1000, master_seed=74)
    monkeypatch.setattr(simengine, "_CSP_CACHE_FLOATS", 3000)
    estimate_success(ADHOC_PPP, [1.0, 2.0, 3.0], "adhoc", cfg)
    estimate_success(ADHOC_PPP, 1.0, "adhoc", cfg)  # a hit: 1.0 becomes the most recent
    estimate_success(ADHOC_PPP, 4.0, "adhoc", cfg)
    assert [key[2] for key in csp_cache] == [3.0, 1.0, 4.0]
    # a downlink entry holds the serving distances too: 2000 floats each
    estimate_success(CACHE_MODELS["ppp-downlink"][0], 1.0, "downlink", cfg)
    assert [key[2] for key in csp_cache] == [4.0, 1.0]
    csp_cache.clear()
    monkeypatch.setattr(simengine, "_CSP_CACHE_FLOATS", 999)  # one entry is larger than the cap
    estimate_success(ADHOC_PPP, 1.0, "adhoc", cfg)
    assert not csp_cache


def test_cached_arrays_are_read_only(csp_cache):
    cfg = SimConfig(trials=1500, master_seed=75)
    estimate_success(ADHOC_PPP, 1.0, "adhoc", cfg)
    estimate_success(CACHE_MODELS["ppp-downlink"][0], [1.0, 2.0], "downlink", cfg)
    arrays = [a for value in csp_cache.values() for a in value]
    assert len(arrays) == 5
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0


def test_a_raising_downlink_call_stores_nothing(csp_cache):
    # a 1.5 window leaves a pattern with no point in batch 1
    cfg = SimConfig(trials=2048, master_seed=8, window_radius=1.5)
    with pytest.raises(ValueError, match="enlarge the window"):
        estimate_success(NetworkModel(PPP(1.0), 4.0), [0.5, 1.0], "downlink", cfg)
    assert not csp_cache


@pytest.mark.parametrize("first", [1, 2])
def test_hints_1_and_2_agree_with_the_cache_on(first, csp_cache):
    model, geometry = CACHE_MODELS["ppp-downlink"]
    fresh = estimate_moment(model, 2.0, [0.5, 1.0], geometry, SimConfig(trials=2500, master_seed=76))
    csp_cache.clear()
    got = [estimate_moment(model, 2.0, [0.5, 1.0], geometry, SimConfig(trials=2500, master_seed=76, worker_hint=h))
           for h in (first, 3 - first)]
    assert got[0] == got[1] == fresh


def test_threads_share_the_cache_without_lost_updates(monkeypatch):
    # more threads than cores, a cap that evicts on most stores, a short switch interval
    cfg = SimConfig(trials=300, master_seed=77)
    thetas = [0.25 * k for k in range(1, 9)]
    fresh = {t: estimate_success(ADHOC_PPP, t, "adhoc", cfg) for t in thetas}
    monkeypatch.setattr(simengine, "_CSP_CACHE_FLOATS", 900)
    got, errors = [], []

    def work(k):
        try:
            for t in thetas[k % 8:] + thetas[: k % 8]:
                got.append((t, estimate_success(ADHOC_PPP, t, "adhoc", cfg)))
        except Exception as e:  # reported below
            errors.append(e)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert errors == []
    assert len(got) == 64 and all(est == fresh[t] for t, est in got)
    assert sum(a.size for value in simengine._CSP_CACHE.values() for a in value) <= 900


# ---------------------------------------------------------- closed-form tails


def _quad(f, a, b, **kwargs):
    """Adaptive quadrature at epsrel 1e-13 that must report meeting it."""
    from scipy import integrate

    val, err = integrate.quad(f, a, b, epsabs=0.0, epsrel=1e-13, limit=500, **kwargs)
    assert err <= 1e-13 * abs(val)
    return val


@pytest.mark.parametrize("alpha", [2.5, 3.0, 4.0, 6.0])
@pytest.mark.parametrize("eps", [0.01, 1.0, 10.0])
def test_interference_tail_mean_matches_quad(alpha, eps):
    # eps R^-alpha from 1e-10 to about 1e4
    for radius in (0.1, 0.5, 1.0, 5.0, 30.0):
        pl = PathLossSpec(alpha, eps)
        want = _quad(lambda r: r / (eps + r**alpha), radius, np.inf)
        assert simengine._tail_mean(pl, radius) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("alpha", [2.5, 3.0, 4.0, 6.0, 10.0])
@pytest.mark.parametrize("b", [0.5, 1.0, 2.0, 6.0])
def test_far_field_closed_form_matches_quad(alpha, b):
    # int_R^inf (1 - (1 + c r^-a)^-b) r dr = (c^d/a) int_0^x (1 - (1 + y)^-b) y^(-d-1) dy, x = c R^-a;
    # y = x t^p with p = 1/(1-d) makes it p x^(1-d) int_0^1 h(x t^p) dt, h(z) = (1 - (1+z)^-b)/z smooth,
    # which mpmath's quadrature takes at 30 digits, with a knee where x t^p = 1
    mp = pytest.importorskip("mpmath")
    model, radius = NetworkModel(PPP(0.1), alpha, 1.0), 10.0
    # from far below the default windows' x ~ 1e-5 up to x = 1e5
    for x in (1e-12, 1e-9, 1e-6, 1e-4, 9.99e-4, 1e-3, 1e-2, 0.05, 0.099, 0.11, 0.3, 1.0, 10.0, 1e3, 1e5):
        c = x * radius**alpha
        with mp.workdps(30):
            d = mp.mpf(2) / alpha
            p, xm = 1 / (1 - d), mp.mpf(c) / mp.mpf(radius) ** alpha
            knee = xm ** -(1 / p)

            def h(t):
                return -mp.expm1(-b * mp.log1p(xm * t**p)) / (xm * t**p) if t else mp.mpf(b)

            inner = p * xm ** (1 - d) * mp.quad(h, [0, knee, 1] if knee < 1 else [0, 1])
            want = float(-2 * mp.pi * mp.mpf(0.1) * mp.mpf(c) ** d / alpha * inner)
        assert simengine._far_field_log_corr(model, c, b, radius, 1.0) == pytest.approx(want, rel=1e-12)


def test_estimators_never_import_quadrature():
    code = (
        "import sys\n"
        "from stochgeo.interference import PathLossSpec\n"
        "from stochgeo.pointprocess import PPP, NetworkModel\n"
        "from stochgeo.simengine import *\n"
        "from stochgeo.simengine import estimate_interference_moments\n"
        "m, cfg = NetworkModel(PPP(0.1), 4.0, 1.0), SimConfig(trials=300, master_seed=3)\n"
        "estimate_success(m, [0.5, 1.0], 'adhoc', cfg)\n"
        "estimate_success(m, 1.0, 'downlink', cfg)\n"
        "estimate_moment(m, 2.0, 1.0, 'adhoc', SimConfig(trials=300, master_seed=4))\n"
        "estimate_meta(m, 1.0, [0.5], SimConfig(trials=300, master_seed=5))\n"
        "estimate_jsp(m, 2, 'qsi', 1.0, SimConfig(trials=300, master_seed=6))\n"
        "estimate_jsp(m, 2, 'fvi', 1.0, cfg)\n"
        "for u in (0.0, 2.0):\n"
        "    estimate_interference_moments(m, PathLossSpec(4.0, 1.0), u, cfg)\n"
        "print('scipy.integrate' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(stochgeo.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# -------------------------------------------------------------- empty downlink


@pytest.mark.parametrize("theta", [0.0, 1.0])
def test_an_empty_downlink_raises_the_same_error_everywhere(theta):
    model, cfg = NetworkModel(PPP(0.0), 4.0), SimConfig(trials=100, master_seed=1)
    message = "a downlink needs base stations: the field's density must be positive"
    for call in (
        lambda: meta_distribution(model, theta, 0.5, "downlink"),
        lambda: estimate_success(model, theta, "downlink", cfg),
        lambda: estimate_meta(model, theta, [0.5], cfg, geometry="downlink"),
        lambda: estimate_jsp(model, 2, "fvi", theta, cfg, geometry="downlink"),
    ):
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == message
