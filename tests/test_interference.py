import math

import numpy as np
import pytest
from scipy import integrate as sciint

from stochgeo.interference import (
    PathLossSpec,
    coherence_time,
    corr_coefficient,
    interference_variance,
    mean_interference,
    mean_product,
)
from stochgeo.pointprocess import GPP, MCP, PPP, NetworkModel
from stochgeo.simengine import SimConfig, estimate_interference_moments

PL4 = PathLossSpec(alpha=4.0, epsilon=1.0)
PPP_M = NetworkModel(PPP(1.0), alpha=4.0)
MCP_M = NetworkModel(MCP(0.2, 5.0, 1.0), alpha=4.0)
GPP_M = NetworkModel(GPP(1.0, 1.0), alpha=4.0)


def test_mean_interference_value():
    # radial oracle: 2 pi int r/(1+r^4) dr = 2 pi * pi/4 = pi^2/2
    oracle, _ = sciint.quad(lambda r: 2 * math.pi * r / (1 + r**4), 0, np.inf)
    assert oracle == pytest.approx(math.pi**2 / 2.0, rel=1e-9)
    assert mean_interference(PPP_M, PL4) == pytest.approx(oracle, rel=1e-10)


def test_mean_interference_linear_in_density():
    a = mean_interference(NetworkModel(PPP(0.5), 4.0), PL4)
    b = mean_interference(NetworkModel(PPP(1.5), 4.0), PL4)
    assert b == pytest.approx(3.0 * a, rel=1e-12)


def test_mean_interference_model_independent():
    vals = [mean_interference(m, PL4) for m in (PPP_M, MCP_M, GPP_M)]
    assert vals[0] == pytest.approx(vals[1], rel=1e-12)
    assert vals[0] == pytest.approx(vals[2], rel=1e-12)


def test_mean_interference_requires_bounded():
    with pytest.raises(ValueError):
        mean_interference(PPP_M, PathLossSpec(alpha=4.0, epsilon=1.0, bounded=False))


def test_mean_interference_vs_mc():
    cfg = SimConfig(trials=30000, master_seed=71, window_radius=20.0)
    est = estimate_interference_moments(PPP_M, PL4, 0.0, cfg)
    ana = mean_interference(PPP_M, PL4)
    assert abs(est["mean"].mean - ana) < max(3 * est["mean"].stderr, 0.02 * ana)


def test_variance_ppp_closed_form():
    # 2 * delta pi^2 lam (1-delta) eps^(d-2) csc(d pi) at d=1/2 -> pi^2/2
    assert interference_variance(PPP_M, PL4) == pytest.approx(math.pi**2 / 2.0, rel=1e-10)


def test_variance_ordering_mcp_ppp_gpp():
    v_mcp = interference_variance(MCP_M, PL4)
    v_ppp = interference_variance(PPP_M, PL4)
    v_gpp = interference_variance(GPP_M, PL4)
    assert v_mcp > v_ppp > v_gpp > 0.0


def test_variance_mcp_excess_positive():
    diff = interference_variance(MCP_M, PL4) - interference_variance(PPP_M, PL4)
    assert diff > 0.0


def test_variance_ppp_vs_mc_second_moment():
    cfg = SimConfig(trials=40000, master_seed=72, window_radius=25.0)
    est = estimate_interference_moments(PPP_M, PL4, 0.0, cfg)
    ana = interference_variance(PPP_M, PL4) + mean_interference(PPP_M, PL4) ** 2
    assert abs(est["second_moment"].mean - ana) < 3 * est["second_moment"].stderr + 0.02 * ana


def test_mean_product_decorrelates_far():
    mp = mean_product(PPP_M, 50.0, PL4)
    m2 = mean_interference(PPP_M, PL4) ** 2
    assert mp == pytest.approx(m2, rel=1e-3)


def test_mean_product_u0_matches_l2():
    # E[I I'] - mean^2 = lam int l^2 at u=0 for the PPP (independent fading)
    oracle, _ = sciint.quad(lambda r: 2 * math.pi * r / (1 + r**4) ** 2, 0, np.inf)
    got = mean_product(PPP_M, 0.0, PL4) - mean_interference(PPP_M, PL4) ** 2
    assert got == pytest.approx(oracle, rel=1e-8)


def test_mean_product_symmetric_in_u():
    assert mean_product(PPP_M, 2.0, PL4) == pytest.approx(mean_product(PPP_M, -2.0, PL4), rel=1e-12)


def test_mean_product_vs_mc():
    cfg = SimConfig(trials=30000, master_seed=73, window_radius=25.0)
    est = estimate_interference_moments(PPP_M, PL4, 2.0, cfg)
    ana = mean_product(PPP_M, 2.0, PL4)
    assert abs(est["mean_product"].mean - ana) < 3 * est["mean_product"].stderr + 0.02 * ana


def test_corr_half_at_zero_displacement():
    # numerator = lam int l^2, denominator = 2 lam int l^2 exactly
    for alpha in (3.0, 4.0, 6.0):
        pl = PathLossSpec(alpha=alpha, epsilon=1.0)
        z = corr_coefficient(NetworkModel(PPP(0.7), alpha), 0.0, pl)
        assert z == pytest.approx(0.5, abs=1e-6)
    # other eps and lam do not matter
    z = corr_coefficient(NetworkModel(PPP(0.1), 4.0), 0.0, PathLossSpec(4.0, 0.3))
    assert z == pytest.approx(0.5, abs=1e-6)


def test_corr_orderings_on_u_grid():
    pl = PathLossSpec(alpha=4.0, epsilon=1.0)
    mcp = NetworkModel(MCP(0.02, 5.0, 1.0), alpha=4.0)
    ppp = NetworkModel(PPP(0.1), alpha=4.0)
    gpp = NetworkModel(GPP(0.1, 1.0), alpha=4.0)
    prev = None
    for u in np.linspace(0.0, 5.0, 6):
        z_m = corr_coefficient(mcp, float(u), pl)
        z_p = corr_coefficient(ppp, float(u), pl)
        z_g = corr_coefficient(gpp, float(u), pl)
        # clustering raises, repulsion lowers, at every displacement;
        # the Ginibre coefficient may turn negative mid-range (anticorrelated
        # counts), so only the ordering and |z|<=1 are asserted for it
        assert z_m > z_p > z_g
        assert 0.0 < z_m <= 1.0 and 0.0 < z_p <= 0.5 + 1e-12 and abs(z_g) <= 1.0
        if prev is not None:
            assert z_p <= prev + 1e-9  # PPP correlation non-increasing in |u|
        prev = z_p


def test_corr_displaced_kernel_consistency_at_zero():
    # displaced cross terms must reduce to the direct variance cross terms
    from stochgeo.interference import (
        _cross_integral_gauss,
        _cross_integral_lens,
        _DisplacedCross,
    )

    dc = _DisplacedCross(PL4)
    a = math.pi * 0.1 / 1.0
    assert dc.gauss(a, 0.0) == pytest.approx(_cross_integral_gauss(PL4, a), rel=2e-3)
    assert dc.lens(1.0, 0.0) == pytest.approx(_cross_integral_lens(PL4, 1.0), rel=2e-3)


@pytest.mark.parametrize("alpha", [4.0, 6.0])
def test_c1_far_field_keeps_both_peaks(alpha):
    # far out, l(x) l(x - w) has two equal peaks, at x = 0 and at x = w, so
    # C1(w) -> 2 l(w) int l; a rule that misses the peak at w returns half
    from stochgeo.interference import _c1, _DisplacedCross

    pl = PathLossSpec(alpha, 1.0)
    total = mean_interference(NetworkModel(PPP(1.0), alpha), pl)
    w = np.array([30.0, 60.0, 90.0, 119.6])
    assert _c1(pl, w) == pytest.approx(2.0 * pl.ell(w) * total, rel=0.02)
    dc = _DisplacedCross(pl)
    far = dc.w >= 30.0
    assert dc.g[far] == pytest.approx(2.0 * pl.ell(dc.w[far]) * total, rel=0.02)


def test_c1_matches_nested_quad():
    from stochgeo.interference import _c1

    for alpha in (2.5, 4.0, 6.0):
        for eps in (0.3, 1.0):
            pl = PathLossSpec(alpha, eps)
            for w in (0.5, 2.0, 10.0):

                def radial(r):
                    inner, _ = sciint.quad(
                        lambda p: pl.ell(math.sqrt(r * r + w * w - 2.0 * r * w * math.cos(p))),
                        0.0, math.pi, epsabs=0.0, epsrel=1e-11, limit=200,
                    )
                    return 2.0 * r * pl.ell(r) * inner

                hi = 2.0 * w + 10.0
                near, _ = sciint.quad(radial, 0.0, hi, points=[w], epsabs=0.0, epsrel=1e-10, limit=200)
                tail, _ = sciint.quad(radial, hi, np.inf, epsabs=0.0, epsrel=1e-10, limit=200)
                assert float(_c1(pl, w)) == pytest.approx(near + tail, rel=1e-6)
    # vectorised over w, symmetric in the sign of w, closed form at w = 0
    got = _c1(PL4, [[0.0, 2.0], [-2.0, 10.0]])
    assert got.shape == (2, 2)
    assert got[0, 0] == pytest.approx(math.pi**2 / 4.0, rel=1e-12)  # int 1/(1+r^4)^2
    assert got[1, 0] == got[0, 1]
    assert got[1, 1] == pytest.approx(float(_c1(PL4, 10.0)), rel=1e-12)


def test_displaced_cross_cache_is_lru(monkeypatch):
    from collections import OrderedDict

    from stochgeo.interference import _DisplacedCross

    monkeypatch.setattr(_DisplacedCross, "_cache", OrderedDict())
    monkeypatch.setattr(_DisplacedCross, "CACHE_SIZE", 2)
    specs = [PathLossSpec(4.0, eps) for eps in (1.0, 0.5, 2.0)]
    first = _DisplacedCross(specs[0])
    _DisplacedCross(specs[1])
    assert _DisplacedCross(specs[0]).g is first.g  # a hit, and now the most recent
    _DisplacedCross(specs[2])  # evicts (4, 0.5), the least recently used
    assert list(_DisplacedCross._cache) == [(4.0, 1.0), (4.0, 2.0)]
    assert not first.g.flags.writeable


def test_coherence_time_grid_search():
    seq = [1.0, 0.8, 0.5, 0.3, 0.1]
    assert coherence_time(seq, 0.5) == 2
    assert coherence_time(seq, 0.05) is None
    with pytest.raises(ValueError):
        coherence_time(seq, 0.0)


def test_pathloss_spec_validation():
    with pytest.raises(ValueError):
        PathLossSpec(alpha=2.0)
    with pytest.raises(ValueError):
        PathLossSpec(alpha=4.0, epsilon=0.0)
