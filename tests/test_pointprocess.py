import math

import numpy as np
import pytest
from scipy import integrate as sciint
from scipy import stats
from scipy.special import gammainc

from stochgeo import pointprocess
from stochgeo.pointprocess import (
    GPP,
    MCP,
    PPP,
    NetworkModel,
    circle_intersection_area,
    contact_cdf,
    contact_pdf,
    distance_ratio_cdf,
    distance_ratio_pdf,
    lens_area,
    pcf_analytic,
    pcf_estimate,
    sample_batch,
    vertex_contact_pdf,
)
from stochgeo.simengine import default_window, seed_stream


# ------------------------------------------------------------------ samplers


def _pattern(field, radius, rng):
    """Sorted origin distances of one pattern, drawn as a planar batch of
    one, so that every pattern in a loop also consumes its angles."""
    x, y, _ = sample_batch(field, radius, rng, 1, planar=True)
    return np.sort(np.hypot(x, y))


def _stacked(field, radius, rng, n):
    """n patterns drawn one at a time, joined into one planar batch."""
    parts = [sample_batch(field, radius, rng, 1, planar=True) for _ in range(n)]
    return tuple(np.concatenate(col) for col in zip(*parts))



def test_ppp_zero_density_empty():
    _, counts = sample_batch(PPP(0.0), 10.0, seed_stream(1, 0), 1)
    assert counts[0] == 0


def test_ppp_mean_count():
    rng = seed_stream(11, 0)
    counts = [len(_pattern(PPP(1.0), 10.0, rng)) for _ in range(10000)]
    mean = np.mean(counts)
    expected = 100.0 * math.pi
    # Poisson: 3 sigma / sqrt(n) band
    assert abs(mean - expected) < 3.0 * math.sqrt(expected / len(counts))


def test_ppp_contact_distance_ks():
    rng = seed_stream(12, 0)
    lam = 0.5
    nearest = []
    for _ in range(10000):
        d = _pattern(PPP(lam), 6.0, rng)
        if len(d):
            nearest.append(d[0])
    # KS against 1 - exp(-lam pi r^2) (CDF form of the printed CCDF density)
    stat, _ = stats.kstest(nearest, lambda r: 1.0 - np.exp(-lam * math.pi * np.asarray(r) ** 2))
    assert stat < 0.02


def test_ppp_joint_two_nearest_law():
    # f(r1, r2) = e^{-lam pi r2^2} (2 lam pi)^2 r1 r2: equivalently
    # lam*pi*r1^2 and lam*pi*(r2^2 - r1^2) are iid Exp(1)
    rng = seed_stream(13, 0)
    lam = 1.0
    e1, e2 = [], []
    for _ in range(8000):
        d = _pattern(PPP(lam), 5.0, rng)
        if len(d) >= 2:
            e1.append(lam * math.pi * d[0] ** 2)
            e2.append(lam * math.pi * (d[1] ** 2 - d[0] ** 2))
    s1, _ = stats.kstest(e1, "expon")
    s2, _ = stats.kstest(e2, "expon")
    assert s1 < 0.02 and s2 < 0.02
    assert abs(np.corrcoef(e1, e2)[0, 1]) < 0.03


def test_mcp_zero_daughters_empty():
    _, counts = sample_batch(MCP(0.1, 0.0, 1.0), 10.0, seed_stream(2, 0), 1)
    assert counts[0] == 0


def test_mcp_intensity():
    rng = seed_stream(21, 0)
    lam_p, cbar, rd, R = 0.1, 5.0, 1.0, 12.0
    counts = [len(_pattern(MCP(lam_p, cbar, rd), R, rng)) for _ in range(10000)]
    target = lam_p * cbar * math.pi * R * R
    assert abs(np.mean(counts) / target - 1.0) < 0.02


def test_gpp_empty_window():
    _, counts = sample_batch(GPP(1.0, 0.5), 0.0, seed_stream(3, 0), 1)
    assert counts[0] == 0


@pytest.mark.parametrize("field", [PPP(0.0), MCP(0.0, 5.0, 1.0), GPP(0.0, 1.0), GPP(0.0, 0.5)])
def test_an_empty_field_draws_empty_patterns(field):
    radii, counts = sample_batch(field, 10.0, seed_stream(3, 0), 4)
    assert radii.size == 0 and np.array_equal(counts, np.zeros(4))
    x, y, counts = sample_batch(field, 10.0, seed_stream(3, 0), 4, planar=True)
    assert x.size == y.size == 0 and np.array_equal(counts, np.zeros(4))


@pytest.mark.parametrize("radius", [-1.0, math.nan, math.inf])
def test_sampler_rejects_a_bad_window(radius):
    for field in (PPP(1.0), MCP(0.1, 5.0, 1.0), GPP(1.0, 0.5)):
        with pytest.raises(ValueError, match="window radius"):
            sample_batch(field, radius, seed_stream(3, 0), 1)


def test_gpp_intensity():
    rng = seed_stream(31, 0)
    lam, beta, R = 1.0, 0.5, 8.0
    counts = [len(_pattern(GPP(lam, beta), R, rng)) for _ in range(4000)]
    target = lam * math.pi * R * R
    assert abs(np.mean(counts) / target - 1.0) < 0.03


def _gpp_contact_ccdf(lam, beta, r):
    # independent oracle from the gamma-mixture representation:
    # P(r1 > r) = prod_j (1 - beta P(Q_j <= r^2))
    t = math.pi * lam * r * r / beta
    j = np.arange(1, 400)
    return float(np.prod(1.0 - beta * stats.gamma.cdf(t, j)))


def test_gpp_contact_distance_below_ppp():
    # the void probability of a determinantal process is below Poisson's, so
    # the origin contact distance is stochastically smaller than the PPP's
    # (consistent with repulsion lowering the ad hoc success probability)
    rng = seed_stream(32, 0)
    lam = 1.0
    g, p = [], []
    for _ in range(4000):
        dg = _pattern(GPP(lam, 1.0), 5.0, rng)
        dp = _pattern(PPP(lam), 5.0, rng)
        if len(dg) and len(dp):
            g.append(dg[0])
            p.append(dp[0])
    assert np.mean(g) < np.mean(p)


def test_gpp_contact_ccdf_matches_representation_oracle():
    rng = seed_stream(33, 0)
    lam, beta = 1.0, 1.0
    near = []
    for _ in range(8000):
        d = _pattern(GPP(lam, beta), 5.0, rng)
        near.append(d[0] if len(d) else np.inf)
    near = np.asarray(near)
    for r in (0.2, 0.4, 0.6, 0.9):
        emp = (near > r).mean()
        ana = _gpp_contact_ccdf(lam, beta, r)
        se = math.sqrt(max(ana * (1 - ana), 1e-4) / len(near))
        assert abs(emp - ana) < 4.0 * se
        assert ana < math.exp(-lam * math.pi * r * r)  # strictly below PPP


def _gpp_index_probs(lam, beta, radius):
    """P(Q_j <= R^2) for j out to four times the expected number of Q_j
    below the window (plus 64, so that R = 0 still has indices), with the
    sampler's last index."""
    y = math.pi * lam * radius**2 / beta
    j = np.arange(1.0, 4 * math.ceil(y) + 65)
    return gammainc(j, y), pointprocess._gpp_last_index(y)


@pytest.mark.parametrize("lam, beta, radius", [
    (1.0, 1.0, default_window(1.0)),
    (1.0, 0.5, default_window(1.0)),
    (0.1, 1.0, default_window(0.1)),
    (0.1, 0.5, 3.0),
    (1.0, 1.0, 0.0),
    (1.0, 0.5, 0.0),
])
def test_gpp_indices_left_out_hold_below_1e15_points(lam, beta, radius):
    p, last = _gpp_index_probs(lam, beta, radius)
    assert last == np.count_nonzero(p >= pointprocess.GPP_TAIL)
    assert p[last:].sum() * beta <= 1e-15
    if radius == 0.0:
        assert last == 0


def test_gpp_last_index_at_the_default_window():
    # pi lambda R^2 = 400 at the default window
    assert pointprocess._gpp_last_index(400.0) == 575


def test_gpp_draw_order():
    # gammas pattern-major, thinning uniforms only for beta < 1, then angles
    radius, size = 4.0, 3
    for beta in (0.5, 1.0):
        field = GPP(1.0, beta)
        scale = beta / math.pi
        last = pointprocess._gpp_last_index(radius**2 / scale)
        x, y, counts = sample_batch(field, radius, seed_stream(35, 0), size, planar=True)
        twin = seed_stream(35, 0)
        q = twin.standard_gamma(np.broadcast_to(np.arange(1.0, last + 1), (size, last))) * scale
        keep = q <= radius**2
        if beta < 1.0:
            keep &= twin.random((size, last)) < beta
        t = twin.random(int(keep.sum())) * 2.0 * np.pi
        r = np.sqrt(q[keep])
        np.testing.assert_array_equal(counts, keep.sum(axis=1))
        np.testing.assert_array_equal(x, r * np.cos(t))
        np.testing.assert_array_equal(y, r * np.sin(t))


@pytest.mark.parametrize("beta", [0.5, 1.0])
def test_gpp_window_count_law(beta):
    # the window count is a sum of independent Bernoulli(beta P_j)
    radius, n = default_window(1.0), 4000
    p, _ = _gpp_index_probs(1.0, beta, radius)
    bp = beta * p
    mean, var = bp.sum(), (bp * (1.0 - bp)).sum()
    kurt = (bp * (1.0 - bp) * (1.0 - 6.0 * bp * (1.0 - bp))).sum()
    _, counts = sample_batch(GPP(1.0, beta), radius, seed_stream(36, 0), n)
    assert abs(counts.mean() - mean) < 4.0 * math.sqrt(var / n)
    # SE of the sample variance: (mu_4 - sigma^4) / n, mu_4 = kappa_4 + 3 sigma^4
    assert abs(counts.var(ddof=1) - var) < 4.0 * math.sqrt((kurt + 2.0 * var**2) / n)


def test_sampler_determinism():
    a = sample_batch(PPP(1.0), 5.0, seed_stream(77, 4, 2), 1, planar=True)
    b = sample_batch(PPP(1.0), 5.0, seed_stream(77, 4, 2), 1, planar=True)
    for col_a, col_b in zip(a, b):
        np.testing.assert_array_equal(col_a, col_b)


# ------------------------------------------------------------- two-circle geometry


def test_lens_area_full_overlap():
    assert lens_area(2.0, 0.0) == pytest.approx(math.pi * 4.0, rel=1e-12)


def test_lens_area_tangent():
    assert lens_area(1.5, 3.0) == 0.0


def test_lens_area_half_distance():
    # frozen numeric oracle: 2 arccos(1/2) - sqrt(3)/2 = 2 pi/3 - 0.8660...
    expected = 2.0 * math.acos(0.5) - math.sqrt(3.0) / 2.0
    assert expected == pytest.approx(1.2283696986087567, rel=1e-12)
    assert lens_area(1.0, 1.0) == pytest.approx(expected, rel=1e-12)


def test_lens_area_of_an_array_is_the_scalar_values():
    r = np.array([[0.0, 0.5, 1.0], [1.9, 2.0, 2.5]])
    got = lens_area(1.0, r)
    assert isinstance(got, np.ndarray) and got.shape == r.shape
    assert np.array_equal(got, [[lens_area(1.0, float(v)) for v in row] for row in r])
    assert isinstance(lens_area(1.0, 0.5), float)
    with pytest.raises(ValueError):
        lens_area(1.0, np.array([0.5, -0.1]))


def test_circle_intersection_matches_lens_for_equal_radii():
    for d in (0.0, 0.5, 1.0, 1.9, 2.5):
        assert circle_intersection_area(1.0, 1.0, d) == pytest.approx(
            lens_area(1.0, d), abs=1e-12
        )


def test_circle_intersection_of_arrays_is_the_scalar_values():
    r1 = np.array([[1.0], [0.5], [2.0]])
    d = np.array([0.0, 0.4, 1.2, 2.9, 3.5])
    got = circle_intersection_area(r1, 1.3, d)
    assert isinstance(got, np.ndarray) and got.shape == (3, 5)
    for i, a in enumerate(r1[:, 0]):
        for j, g in enumerate(d):
            assert got[i, j] == pytest.approx(circle_intersection_area(float(a), 1.3, float(g)), rel=1e-15, abs=0.0)
    assert isinstance(circle_intersection_area(1.0, 1.3, 0.4), float)
    with pytest.raises(ValueError):
        circle_intersection_area(1.0, 1.0, np.array([0.5, -0.1]))


def test_circle_intersection_containment():
    assert circle_intersection_area(1.0, 3.0, 0.5) == pytest.approx(math.pi, rel=1e-12)


def test_circle_intersection_hit_or_miss_oracle():
    rng = np.random.default_rng(5)
    r1, r2, d = 1.3, 0.9, 1.1
    pts = rng.random((200000, 2)) * 4.0 - 2.0
    in1 = (pts**2).sum(1) <= r1 * r1
    in2 = ((pts - [d, 0.0]) ** 2).sum(1) <= r2 * r2
    mc = (in1 & in2).mean() * 16.0
    assert circle_intersection_area(r1, r2, d) == pytest.approx(mc, rel=0.02)


# --------------------------------------------------------- contact distances


def test_ppp_contact_pdf_normalizes():
    val, _ = sciint.quad(lambda r: contact_pdf(PPP(0.7), r), 0, np.inf)
    assert val == pytest.approx(1.0, rel=1e-9)


def test_vertex_pdf_mode():
    lam = 0.8
    mode = math.sqrt(3.0 / (2.0 * lam * math.pi))
    rs = np.linspace(0.01, 3.0, 2000)
    vals = vertex_contact_pdf(lam, rs)
    assert rs[np.argmax(vals)] == pytest.approx(mode, abs=2e-3)
    norm, _ = sciint.quad(lambda r: vertex_contact_pdf(lam, r), 0, np.inf)
    assert norm == pytest.approx(1.0, rel=1e-9)


def test_mcp_contact_cdf_saturates():
    field = MCP(0.1, 5.0, 1.0)
    assert contact_cdf(field, 8.0) == pytest.approx(1.0, abs=1e-4)
    assert contact_cdf(field, 0.0) == 0.0


def test_mcp_contact_cdf_vs_empirical():
    field = MCP(0.15, 4.0, 1.0)
    rng = seed_stream(41, 0)
    nearest = []
    for _ in range(4000):
        d = _pattern(MCP(0.15, 4.0, 1.0), 10.0, rng)
        if len(d):
            nearest.append(d[0])
        else:
            nearest.append(np.inf)
    nearest = np.asarray(nearest)
    for r in (0.5, 1.0, 2.0):
        emp = (nearest <= r).mean()
        ana = contact_cdf(field, r)
        assert abs(emp - ana) < 3.0 * math.sqrt(ana * (1 - ana) / len(nearest)) + 0.01


def test_mcp_contact_pdf_is_cdf_derivative():
    field = MCP(0.1, 5.0, 1.0)
    for r in (0.4, 1.1, 2.0):
        h = 1e-5
        num = (contact_cdf(field, r + h) - contact_cdf(field, r - h)) / (2 * h)
        assert contact_pdf(field, r) == pytest.approx(num, rel=1e-4)


def _mcp_contact_by_quad(field, r):
    """(CDF, PDF) of the MCP contact distance from the scalar geometry, by
    adaptive quad split where the cluster disk leaves the ball around 0."""
    rd, cbar = field.cluster_radius, field.mean_daughters
    area = math.pi * rd * rd

    def integral(f):
        return sum(
            sciint.quad(f, lo, hi, epsabs=1e-15, epsrel=1e-13, limit=500)[0]
            for lo, hi in ((0.0, abs(r - rd)), (abs(r - rd), r + rd))
        )

    def frac(x):
        return circle_intersection_area(r, rd, x) / area

    expo = 2.0 * math.pi * field.parent_density * integral(lambda x: -math.expm1(-cbar * frac(x)) * x)
    dexpo = 2.0 * math.pi * field.parent_density * integral(
        lambda x: math.exp(-cbar * frac(x)) * cbar * float(pointprocess._arc_inside(r, rd, x)) / area * x
    )
    return -math.expm1(-expo), math.exp(-expo) * dexpo


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("field", [MCP(0.1, 5.0, 1.0), MCP(0.01, 20.0, 3.0)])
def test_mcp_contact_laws_match_adaptive_quadrature(field):
    # both ends of the lens range, r = R_d = 1 (no closed-form piece) and r far past R_d
    for r in (0.01, 0.5, 1.0, 1.7, 3.0, 7.0):
        cdf, pdf = _mcp_contact_by_quad(field, r)
        assert contact_cdf(field, r) == pytest.approx(cdf, abs=1e-12)
        assert contact_pdf(field, r) == pytest.approx(pdf, abs=1e-12)


def test_arc_inside_of_an_array_is_the_piecewise_length():
    # inside the cluster disk, crossing it, outside it, and holding it
    x = np.array([0.0, 0.2, 1.0, 1.5, 2.5])
    arc = pointprocess._arc_inside(0.5, 1.0, x)
    crossing = 2.0 * 0.5 * np.arccos((0.25 + x[2:4] ** 2 - 1.0) / (2.0 * 0.5 * x[2:4]))
    assert np.array_equal(arc, [math.pi, math.pi, *crossing, 0.0])
    assert pointprocess._arc_inside(3.0, 1.0, 0.5) == 0.0


# -------------------------------------------------------------- distance ratios


def test_distance_ratio_cdf_at_one():
    for j in (2, 3, 10):
        assert distance_ratio_cdf(j, 1.0) == pytest.approx(1.0)


def test_distance_ratio_moment_alpha4():
    # E[rho_2^4] = int_0^1 r^4 * 2 r dr = 1/3 (quadrature oracle)
    oracle, _ = sciint.quad(lambda r: r**4 * distance_ratio_pdf(2, r), 0, 1)
    assert oracle == pytest.approx(1.0 / 3.0, rel=1e-10)


def test_distance_ratio_empirical_ks():
    rng = seed_stream(42, 0)
    ratios = []
    for _ in range(6000):
        d = _pattern(PPP(1.0), 6.0, rng)
        if len(d) >= 3:
            ratios.append(d[0] / d[2])
    stat, _ = stats.kstest(ratios, lambda x: distance_ratio_cdf(3, np.asarray(x)))
    assert stat < 0.02


def test_distance_ratio_domain():
    with pytest.raises(ValueError):
        distance_ratio_pdf(1, 0.5)
    with pytest.raises(ValueError):
        distance_ratio_cdf(3, 1.2)


# ----------------------------------------------------------------------- pcf


def test_pcf_ppp_flat():
    np.testing.assert_allclose(pcf_analytic(PPP(2.0), np.linspace(0, 4, 9)), 1.0)


def test_pcf_mcp_values():
    field = MCP(0.2, 5.0, 1.0)
    lam = field.intensity
    # beyond one cluster diameter the points are independent
    assert pcf_analytic(field, 2.0) == pytest.approx(1.0)
    assert pcf_analytic(field, 2.5) == pytest.approx(1.0)
    # at zero separation: 1 + cbar / (lam pi R_d^2)
    expected = 1.0 + 5.0 / (lam * math.pi)
    assert pcf_analytic(field, 0.0) == pytest.approx(expected, rel=1e-12)


def test_pcf_gpp_kernel_form():
    field = GPP(1.0, 0.5)
    assert pcf_analytic(field, 0.0) == pytest.approx(0.0, abs=1e-12)
    r = 1.0
    assert pcf_analytic(field, r) == pytest.approx(
        1.0 - math.exp(-math.pi * 1.0 * r * r / 0.5), rel=1e-12
    )


def test_pcf_estimate_ppp_near_one():
    rng = seed_stream(43, 0)
    pats = _stacked(PPP(1.0), 10.0, rng, 150)
    curve = pcf_estimate(pats, 10.0, np.array([0.5, 1.0, 2.0]), bin_width=0.25)
    np.testing.assert_allclose(curve.values, 1.0, atol=0.1)


def test_pcf_estimate_mcp_shape():
    rng = seed_stream(44, 0)
    pats = _stacked(MCP(0.1, 5.0, 1.0), 12.0, rng, 150)
    curve = pcf_estimate(pats, 12.0, np.array([0.3, 3.0]), bin_width=0.3)
    assert curve.values[0] > 1.5  # strong clustering inside the cluster radius
    assert curve.values[1] == pytest.approx(1.0, abs=0.15)


def test_pcf_estimate_empty_raises():
    with pytest.raises(ValueError):
        pcf_estimate((np.empty(0), np.empty(0), np.empty(0, dtype=int)), 10.0, np.array([1.0]))


# ------------------------------------------------------------------ misc


def test_network_model_validation():
    with pytest.raises(ValueError):
        NetworkModel(PPP(1.0), alpha=2.0)
    with pytest.raises(ValueError):
        GPP(1.0, 1.5)
    m = NetworkModel(MCP(0.1, 5.0, 1.0), alpha=4.0, link_distance=1.0)
    assert m.intensity == pytest.approx(0.5)
    assert m.delta == pytest.approx(0.5)
