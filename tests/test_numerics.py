import cmath
import math

import numpy as np
import pytest

from stochgeo.core import ToleranceError
from stochgeo.numerics import (
    fixed_point_solve,
    gamma_ratio,
    gauss_legendre,
    gil_pelaez_ccdf,
    integrate_1d,
    lambert_w0,
)
from stochgeo.sir_analysis import downlink_hyp2f1


# ---------------------------------------------------------------- gamma ratio


def test_gamma_recurrence_real_and_complex():
    for z in [0.3, 1.7, 4.2, 11.5, 0.9 + 2.1j, 3.0 + 0.5j, 0.2 - 3.3j]:
        assert cmath.isclose(gamma_ratio(z + 1, z), z, rel_tol=1e-12)


def test_gamma_relative_error_on_real_axis():
    # real orders, as in the Ginibre super-tail Gamma(j - alpha/2)/Gamma(j - 1)
    for x in np.linspace(0.05, 30.0, 73):
        assert gamma_ratio(x, 1.0) == pytest.approx(math.gamma(x), rel=1e-12)
        assert gamma_ratio(x, x + 2.5) == pytest.approx(math.gamma(x) / math.gamma(x + 2.5), rel=1e-12)


def test_gamma_pole_raises():
    for z in (0.0, -1.0, -7.0):
        with pytest.raises(ValueError):
            gamma_ratio(0.5, z)
        with pytest.raises(ValueError):
            gamma_ratio(z, 0.5)


def test_gamma_ratio_matches_direct_for_imaginary_order():
    # oracle: mpmath's log-gamma; the ratio stays finite at u = 800, where
    # each gamma alone underflows
    mp = pytest.importorskip("mpmath")
    for u in (1.0, 50.0, 800.0):
        with mp.workdps(30):
            direct = complex(mp.exp(mp.loggamma(mp.mpc(0.5, u)) - mp.loggamma(mp.mpc(0.0, u))))
        assert cmath.isclose(gamma_ratio(0.5 + 1j * u, 1j * u), direct, rel_tol=1e-9)
    # asymptotically (j u)^delta
    assert abs(gamma_ratio(0.5 + 800j, 800j)) == pytest.approx(math.sqrt(800.0), rel=1e-2)


# ------------------------------------------------------------------- 2F1


def test_2f1_downlink_identity():
    # alpha=4 downlink: 2F1(1, -1/2; 1/2; -t) = 1 + sqrt(t) arctan sqrt(t)
    for theta in (0.25, 1.0, 9.0):
        expected = 1.0 + math.sqrt(theta) * math.atan(math.sqrt(theta))
        assert downlink_hyp2f1(1.0, theta, 4.0) == pytest.approx(expected, rel=1e-12)
    assert downlink_hyp2f1(1.0, 1.0, 4.0) == pytest.approx(1.0 + math.pi / 4.0, rel=1e-12)


# ------------------------------------------------------------------ lambert w


def test_lambert_w_trivia():
    assert lambert_w0(0.0) == 0.0
    assert lambert_w0(-1.0 / math.e) == pytest.approx(-1.0, abs=1e-7)


def test_lambert_w1_vs_bisection_oracle():
    # oracle: bisection on w e^w = 1
    lo, hi = 0.0, 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if mid * math.exp(mid) < 1.0:
            lo = mid
        else:
            hi = mid
    oracle = 0.5 * (lo + hi)
    assert oracle == pytest.approx(0.5671432904097838, abs=1e-12)  # frozen
    assert lambert_w0(1.0) == pytest.approx(oracle, abs=1e-12)


def test_lambert_w_defining_identity_across_range():
    xs = np.concatenate(
        [np.linspace(-1 / math.e + 1e-9, 1.0, 40), np.geomspace(1.0, 1e3, 30)]
    )
    for x in xs:
        w = lambert_w0(float(x))
        assert abs(w * math.exp(w) - x) <= 1e-12 * max(1.0, abs(x))


def test_lambert_w_domain_error():
    with pytest.raises(ValueError):
        lambert_w0(-1.0)


# ----------------------------------------------------------------- quadrature


@pytest.mark.parametrize("n", [1, 5, 12, 64])
def test_gauss_legendre_panels_are_the_scalar_calls_and_exact_to_degree_2n_minus_1(n):
    lo = np.array([[-1.0, 0.0], [0.25, 3.0]])
    hi = np.array([[2.0, 0.5], [2.0, 10.0]])
    x, w = gauss_legendre(n, lo, hi)
    assert x.shape == w.shape == (2, 2, n)
    for idx in np.ndindex(lo.shape):
        xs, ws = gauss_legendre(n, lo[idx], hi[idx])
        assert np.array_equal(x[idx], xs) and np.array_equal(w[idx], ws)
        k = 2 * n - 1
        exact = (hi[idx] ** (k + 1) - lo[idx] ** (k + 1)) / (k + 1)
        assert np.dot(ws, xs**k) == pytest.approx(exact, rel=1e-12)


def test_integrate_exponential():
    res = integrate_1d(lambda x: math.exp(-x), 0.0, np.inf)
    assert res.converged
    assert res.value == pytest.approx(1.0, rel=1e-10)


def test_integrate_pathloss_tails():
    # oracle (u = r^2): int_0^inf r/(1+r^4) dr = pi/4; squared kernel -> pi/8
    res1 = integrate_1d(lambda r: r / (1 + r**4), 0.0, np.inf)
    assert res1.value == pytest.approx(math.pi / 4.0, rel=1e-9)
    res2 = integrate_1d(lambda r: r / (1 + r**4) ** 2, 0.0, np.inf)
    assert res2.value == pytest.approx(math.pi / 8.0, rel=1e-9)


def test_integrate_nan_propagates():
    with pytest.raises(ToleranceError):
        integrate_1d(lambda x: float("nan"), 0.0, 1.0)


# ----------------------------------------------------------------- gil-pelaez


def test_gil_pelaez_point_mass_step():
    p = 0.6
    moment = lambda c, d: np.exp(1j * np.add.outer(c, d) * math.log(p))
    assert gil_pelaez_ccdf(moment, 0.3) == pytest.approx(1.0, abs=5e-3)
    assert gil_pelaez_ccdf(moment, 0.9) == pytest.approx(0.0, abs=5e-3)


def test_gil_pelaez_monotone_in_x():
    # smooth CSP-style moment function: M(ju) for exp(-E) with E ~ Exp(2)
    # (a genuinely [0,1]-supported variable, M(b) = 2/(2+b))
    moment = lambda c, d: 2.0 / (2.0 + 1j * np.add.outer(c, d))
    xs = np.linspace(0.05, 0.95, 13)
    vals = [gil_pelaez_ccdf(moment, float(x)) for x in xs]
    assert all(a >= b - 1e-6 for a, b in zip(vals, vals[1:]))
    # closed form: P(exp(-E) > x) = P(E < -ln x) = 1 - x^2
    for x, v in zip(xs, vals):
        assert v == pytest.approx(1.0 - x**2, abs=1e-6)


def test_gil_pelaez_flags_a_panel_bisection_cannot_resolve():
    # both moments pass the tail cut-off by u = 128, below the cap; a jump in
    # M at u = 100.3 defeats the panel rule at every bisection depth
    smooth = lambda c, d: np.exp(-np.add.outer(c, d) ** 2 / 100.0) + 0j
    jump = lambda c, d: (np.add.outer(c, d) < 100.3) + 0j
    assert gil_pelaez_ccdf(smooth, 0.5, full_output=True)[1]
    assert not gil_pelaez_ccdf(jump, 0.5, full_output=True)[1]
    # one flag for a whole grid: true only while every x resolves
    assert gil_pelaez_ccdf(smooth, [0.2, 0.5, 0.8], full_output=True)[1] is True
    assert gil_pelaez_ccdf(jump, [0.2, 0.5, 0.8], full_output=True)[1] is False


def test_gil_pelaez_domain():
    with pytest.raises(ValueError):
        gil_pelaez_ccdf(lambda c, d: np.ones((len(c), len(d))), 1.5)


def _exp2_moment(c, d):
    # M(ju) of exp(-E) with E ~ Exp(2): the CCDF is 1 - x^2
    return 2.0 / (2.0 + 1j * np.add.outer(c, d))


def test_gil_pelaez_grid_of_one_is_the_scalar_call():
    scalar = gil_pelaez_ccdf(_exp2_moment, 0.3)
    grid = gil_pelaez_ccdf(_exp2_moment, [0.3])
    assert type(scalar) is float
    assert isinstance(grid, np.ndarray) and grid.shape == (1,)
    assert grid[0] == scalar
    # this moment decays like 2/u, so the tail search stops at the cap
    values, converged = gil_pelaez_ccdf(_exp2_moment, np.array([0.3, 0.6]), full_output=True)
    assert isinstance(values, np.ndarray) and values.shape == (2,)
    assert converged is False


@pytest.mark.parametrize("x", [[0.2, 1.0], [0.5, float("nan")], [], [[0.5]], -0.1],
                         ids=["one_outside", "nan", "empty", "2d", "scalar_outside"])
def test_gil_pelaez_rejects_a_bad_grid_before_any_moment_call(x):
    def moment(c, d):
        raise AssertionError("the moment was called")

    with pytest.raises(ValueError):
        gil_pelaez_ccdf(moment, x)


def test_gil_pelaez_grid_calls_the_moment_no_more_than_its_smallest_x():
    calls = []

    def counted(c, d):
        calls.append(len(c) * len(d))
        return _exp2_moment(c, d)

    xs = np.linspace(0.1, 0.9, 9)
    gil_pelaez_ccdf(counted, float(xs[0]))
    one = len(calls)
    calls.clear()
    gil_pelaez_ccdf(counted, xs)
    assert len(calls) <= one


def test_gil_pelaez_grid_matches_the_closed_form():
    xs = np.linspace(0.05, 0.95, 13)
    vals = gil_pelaez_ccdf(_exp2_moment, xs)
    assert np.all(np.diff(vals) <= 1e-6)
    assert np.abs(vals - (1.0 - xs**2)).max() < 1e-6


# ---------------------------------------------------------------- fixed point


def test_fixed_point_constant_map():
    res = fixed_point_solve(lambda x: 0.5, init=0.1)
    assert res.converged
    assert res.value == pytest.approx(0.5, abs=1e-9)


def test_fixed_point_cosine_vs_bisection_oracle():
    lo, hi = 0.0, 1.0  # oracle: bisection on cos x - x
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if math.cos(mid) > mid:
            lo = mid
        else:
            hi = mid
    oracle = 0.5 * (lo + hi)
    assert oracle == pytest.approx(0.7390851332151607, abs=1e-12)  # frozen
    res = fixed_point_solve(math.cos, init=0.5)
    assert res.converged
    assert res.value == pytest.approx(oracle, abs=1e-8)


def test_fixed_point_non_convergence_flagged():
    res = fixed_point_solve(lambda x: 2.0 * x + 1.0, init=0.0, damping=1.0, max_iter=50)
    assert not res.converged

