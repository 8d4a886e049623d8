"""Moments of the conditional success probability, SIR meta distribution,
MISR and the SIR gain G0 of the ASAPPP threshold-shift approximation.

Geometries: "adhoc" (dedicated link of length r_t over an interferer field
that does not contain the serving transmitter) and "downlink" (nearest-point
association; interferers are the remaining points).

Every real-order moment function takes b and theta each as a scalar or a 1-D
grid (`_moment_grid`): a float for two scalars, else an array of shape
theta.shape + b.shape, each entry equal to its scalar call.
"""

import math
from collections import OrderedDict

import numpy as np
from scipy import special as _sps

from .core import ToleranceError
from .numerics import _unit_grid, gamma_ratio, gauss_jacobi, gauss_legendre, gil_pelaez_ccdf, integrate_1d, lru_get
from .pointprocess import GPP, MCP, PPP, require_alpha, require_base_stations, sample_batch
from . import simengine

__all__ = [
    "moments_adhoc",
    "moments_downlink_ppp",
    "meta_distribution",
    "misr_ppp",
    "misr_estimate",
    "sir_gain_g0",
]


# ---------------------------------------------------------------------------
# Ad hoc moments for the three fields
# ---------------------------------------------------------------------------


def ppp_link_exponent(density, b, theta, alpha, r_t):
    """lam pi r_t^2 theta^delta Gamma(1-delta) Gamma(b+delta)/Gamma(b): minus
    the log of the b-th CSP moment of a link of length r_t over a Poisson
    field.  b may be a complex array; the value is real for a real b."""
    if theta < 0:
        raise ValueError("theta must be nonnegative")
    b = np.asarray(b)
    bc = b.astype(complex)
    if np.any((bc.imag == 0) & (bc.real <= 0) & (bc.real == np.round(bc.real))):
        raise ValueError(f"gamma pole at order b = {b}")
    delta = 2.0 / alpha
    scale = math.pi * density * theta**delta * r_t**2 * math.gamma(1.0 - delta)
    out = scale * np.exp(_sps.loggamma(bc + delta) - _sps.loggamma(bc))
    return out if np.iscomplexobj(b) else out.real


def _real_order(b):
    """The moment order b as a float; a non-zero imaginary part raises
    ValueError (imaginary orders are inverted by `meta_distribution`)."""
    b = complex(b)
    if b.imag != 0:
        raise ValueError(f"moment order must be real, got {b}")
    return b.real


def _moment_grid(b, theta, moment):
    """M(b) at every (theta, b) of the two grids, in the shape the module
    docstring states.  The orders must be real and theta nonnegative.
    theta = 0 or b = 0 gives exactly 1; every other theta makes one call
    moment(theta), whose b -> M(b) function serves every other order."""
    orders = [_real_order(v) for v in np.ravel(b)]
    thetas = np.asarray(theta, dtype=float)
    if np.any(thetas < 0):
        raise ValueError("theta must be nonnegative")
    out = np.ones((thetas.size, len(orders)))
    for row, t in zip(out, thetas.ravel()):
        if t != 0.0:
            m = moment(float(t))
            row[:] = [m(v) if v != 0.0 else 1.0 for v in orders]
    if np.ndim(b) == 0 and thetas.ndim == 0:
        return float(out[0, 0])
    return out.reshape(thetas.shape + np.shape(b))


def _mcp_vb_nodes(rd):
    """Precomputed quadrature nodes for V_b(x)/(pi R_d^2) as a function of the
    parent distance x, for cluster radius `rd`: returns (rho nodes, psi nodes,
    combined weights)."""
    # Gauss-Legendre, 48 nodes on [0, rd] and 64 on [0, pi] (symmetric half)
    t, wt = gauss_legendre(48, 0.0, 1.0)
    rho, wr = rd * t, rd * wt
    t, wt = gauss_legendre(64, 0.0, 1.0)
    psi, wpsi = math.pi * t, math.pi * wt
    # daughter-position measure over the disk: (2 / (pi rd^2)) rho drho dpsi on the half circle
    w = (rho * wr)[:, None] * wpsi[None, :] * (2.0 / (math.pi * rd * rd))
    return rho, psi, w


def _mcp_mean_vb(x, theta, alpha, r_t, b, nodes):
    rho, psi, w = nodes
    d2 = rho[:, None] ** 2 + x * x - 2.0 * x * rho[:, None] * np.cos(psi[None, :])
    d = np.sqrt(np.maximum(d2, 1e-300))
    g = np.log1p(theta * r_t**alpha * d**-alpha)
    return np.sum(w * np.exp(-b * g))


def _moments_mcp_adhoc(field, b, theta, alpha, r_t):
    """The b-th moment (real b) of the ad hoc CSP over a Matern cluster field."""
    nodes = _mcp_vb_nodes(field.cluster_radius)
    cbar = field.mean_daughters

    def integrand(x):
        vfrac = _mcp_mean_vb(x, theta, alpha, r_t, b, nodes)
        return (1.0 - np.exp(-cbar * (1.0 - vfrac))) * x

    res = integrate_1d(integrand, 0.0, np.inf)
    if not res.converged:
        raise ToleranceError("MCP moment quadrature did not converge")
    return math.exp(-2.0 * math.pi * field.parent_density * res.value)


class GppAdhocMoments:
    """Evaluator for the b-th CSP moment over a beta-Ginibre field.

    The moment factorizes over the gamma-mixture distances: the j-th factor is
    1 - beta (1 - E[v(Q_j)^b]) with Q_j ~ Gamma(j, beta / (pi lambda)) and
    v(q) = 1/(1 + theta r_t^alpha q^(-alpha/2)).  Factors are evaluated
    exactly (Gauss-Legendre on the concentrated gamma mass) out to the index
    where |b| log(1 + theta r_t^alpha q^(-alpha/2)) < 0.02, and the remaining
    tail is summed through a cubic expansion in b with closed-form gamma-ratio
    super-tails; the product is truncated where factors differ from one by
    less than 1e-10.
    """

    N_NODES = 80
    J_NUMERIC = 4000
    TAIL_CUT = 0.02
    TRUNC = 1e-10
    ROWS = 256  # indices per block of the table build and of the tail moments
    CACHE_SIZE = 4
    _cache = OrderedDict()  # (beta, density, alpha) -> theta-free table

    @classmethod
    def _table(cls, beta, density, alpha):
        """The theta-free part of the evaluator, read only: lo^(-alpha/2) at
        the lower gamma quantiles, the (J, N) quadrature weights times the
        gamma density, and mid^(-alpha/2) at the (J, N) nodes.  The
        quantiles and the density are the scipy.special calls that
        scipy.stats.gamma makes, so the table equals its build.  The (J, N)
        arrays are filled ROWS indices at a time, each row by the same
        arithmetic as a whole-table build."""
        scale = beta / (math.pi * density)
        j = np.arange(1, cls.J_NUMERIC + 1)
        lo = _sps.gammaincinv(j, 1e-15) * scale
        hi = _sps.gammainccinv(j, 1e-15) * scale
        weights, mid_pow = np.empty((2, cls.J_NUMERIC, cls.N_NODES))
        for r in range(0, cls.J_NUMERIC, cls.ROWS):
            rows = slice(r, r + cls.ROWS)
            mid, w = gauss_legendre(cls.N_NODES, lo[rows], hi[rows])
            q = mid / scale
            dens = np.exp(_sps.xlogy(j[rows, None] - 1.0, q) - q - _sps.gammaln(j[rows, None])) / scale
            weights[rows] = w * dens
            mid_pow[rows] = mid ** (-alpha / 2.0)
        table = (lo ** (-alpha / 2.0), weights, mid_pow)
        for a in table:
            a.flags.writeable = False
        return table

    def __init__(self, field, theta, alpha, r_t):
        self.beta = field.beta
        scale = field.beta / (math.pi * field.density)
        # the tables of the CACHE_SIZE most recently used fields are kept
        key = (field.beta, field.density, alpha)
        lo_pow, self._w, mid_pow = lru_get(self._cache, key, self.CACHE_SIZE, lambda: self._table(*key))
        c = theta * r_t**alpha
        self._g = c * mid_pow  # (J, N)
        np.log1p(self._g, out=self._g)
        # upper envelope of g at the lower gamma quantile (g is decreasing in q)
        self._g_upper = np.log1p(c * lo_pow)
        # super-tail (j > J_NUMERIC): leading order sum of E[Q^(-alpha/2)]
        a1 = alpha / 2.0
        jbig = self.J_NUMERIC + 1
        self._m1_super = c * (1.0 / scale) ** a1 * abs(gamma_ratio(jbig - a1, jbig - 1)) / (a1 - 1.0)
        # per-index tail moments E[g^m], ROWS indices at a time, and their
        # products for the log expansion, summed from each index on (an
        # empty sum at J_NUMERIC)
        m1, m2, m3 = moments = np.empty((3, self.J_NUMERIC))
        for r in range(0, self.J_NUMERIC, self.ROWS):
            rows = slice(r, r + self.ROWS)
            for p, m in enumerate(moments, 1):
                m[rows] = np.sum(self._w[rows] * self._g[rows] ** p, axis=1)
        terms = np.pad([m1, m2, m3, m1 * m1, m1 * m2, m1**3], ((0, 0), (0, 1)))
        self._cum = np.cumsum(terms[:, ::-1], axis=1)[:, ::-1]

    def _j_exact(self, b):
        """The count of exact factors per order: those where |b| g could exceed TAIL_CUT."""
        return np.clip(np.searchsorted(-self._g_upper, -self.TAIL_CUT / np.maximum(np.abs(b), 1.0)), 4, self.J_NUMERIC)

    def _moment(self, s, b, j_exact):
        """M(b) from the node sums s[j] = sum_k w_jk (1 - e^(-b g_jk)) of the first
        len(s) indices, overwriting s; b and j_exact have the shape of s[0].  The
        product runs over each order's first j_exact factors, plus the expansion
        tail from there, or stops before the first factor within TRUNC of one."""
        j = np.arange(len(s)).reshape((-1,) + (1,) * np.ndim(b))
        s += (1.0 - self._w[: len(s)].sum(axis=1)).reshape(j.shape)  # 1 - E[v^b]: S plus the missing mass
        small = (j < j_exact) & (self.beta * np.abs(s) < self.TRUNC)
        stopped = small.any(axis=0)
        used = j < np.where(stopped, small.argmax(axis=0), j_exact)
        factors = np.subtract(1.0, np.multiply(self.beta, s, out=s), out=s)
        log_m = np.sum(np.log(factors, out=factors, where=used), axis=0, where=used)
        # expansion tail over j_exact..J_NUMERIC plus the analytic super-tail:
        # per factor log(1 - beta x) with x = E[1 - v^b] expanded through
        # third order in b g (|b| g < TAIL_CUT there)
        m1, m2, m3, m11, m12, m111 = self._cum[:, j_exact]
        bt = self.beta
        x1 = b * (m1 + self._m1_super) - b * b * m2 / 2.0 + b**3 * m3 / 6.0
        x2 = b * b * m11 - b**3 * m12
        x3 = b**3 * m111
        log_m += np.where(stopped, 0.0, -bt * x1 - bt * bt * x2 / 2.0 - bt**3 * x3 / 3.0)
        return np.exp(log_m)

    def at(self, b):
        """M(b) at one order b, from its row of node sums formed directly."""
        j = self._j_exact(b)
        return self._moment(np.sum(self._w[:j] * -np.expm1(-b * self._g[:j]), axis=1), b, j)

    def __call__(self, c, d):
        """M(ju) on the grid u[p, i] = c[p] + d[i], one node-sum group per index
        j.  The rows needing the most indices go first, in blocks whose node
        sums stay within _FACTOR_CAP entries."""
        c = np.asarray(c, dtype=float)
        u = np.add.outer(c, d)
        j_exact = self._j_exact(u)
        out = np.empty(u.shape, dtype=complex)
        rows = np.argsort(-j_exact.max(axis=1), kind="stable")
        while rows.size:
            n = j_exact[rows[0]].max()
            block, rows = np.split(rows, [max(1, _FACTOR_CAP // (n * len(d)))])
            out[block] = self._moment(_node_sums(self._g[:n], self._w[:n], c[block], d), 1j * u[block], j_exact[block])
        return out


def _adhoc_moments(model, theta):
    """The ad hoc CSP moments over the model's field at one theta > 0, the one
    dispatch on the field type: a pair of b -> M(b) for a real order b != 0
    and the M(ju) grid function (c, d) -> M(j(c + d)) that `gil_pelaez_ccdf`
    takes, None for the Matern cluster field.  M(b) is +inf at b <= -delta:
    near r = 0 each field's nearest interferer has a density bounded below
    by a multiple of r, so E[(1 + theta r_t^a r^-a)^-b] diverges."""
    r_t = model.link_distance
    if r_t is None:
        raise ValueError("ad hoc moments need model.link_distance")
    f, alpha = model.field, model.alpha
    if isinstance(f, PPP):
        expo = lambda b: ppp_link_exponent(f.density, b, theta, alpha, r_t)
        real, imag = (lambda b: math.exp(-expo(b))), (lambda c, d: np.exp(-expo(1j * np.add.outer(c, d))))
    elif isinstance(f, GPP):
        gpp = GppAdhocMoments(f, theta, alpha, r_t)
        real, imag = (lambda b: float(gpp.at(b).real)), gpp
    elif isinstance(f, MCP):
        real, imag = (lambda b: _moments_mcp_adhoc(f, b, theta, alpha, r_t)), None
    else:
        raise TypeError(f"unknown field type: {type(f)!r}")
    return (lambda b: math.inf if b <= -model.delta else real(b)), imag


def moments_adhoc(model, b, theta):
    """b-th moment of the ad hoc CSP over the model's interferer field (real
    b): exactly 1 at b = 0, and +inf at b <= -delta (`_adhoc_moments`)."""
    empty = model.field.intensity == 0.0  # no interference: the CSP is 1
    return _moment_grid(b, theta, lambda t: (lambda b: 1.0) if empty else _adhoc_moments(model, t)[0])


# ---------------------------------------------------------------------------
# Downlink (Poisson) moments
# ---------------------------------------------------------------------------


def downlink_hyp2f1(b, theta, alpha):
    """2F1(b, -delta; 1-delta; -theta) for a real order b: the reciprocal of
    the b-th downlink CSP moment.  At b = -1 the series ends after one term,
    1 - delta theta / (1 - delta) = (alpha - 2 - 2 theta) / (alpha - 2),
    taken in that form: it is exactly 0 at the phase transition
    theta = (alpha - 2) / 2, where scipy's 2F1 can round to 1e-16."""
    if alpha <= 2:
        raise ValueError("path-loss exponent must exceed 2")
    if b == -1.0:
        return (alpha - 2.0 - 2.0 * theta) / (alpha - 2.0)
    delta = 2.0 / alpha
    return float(_sps.hyp2f1(b, -delta, 1.0 - delta, -theta))


def downlink_moment(b, theta, alpha, scale=1.0, power=1):
    """scale / 2F1(b, -delta; 1-delta; -theta)^power at one theta > 0 while
    the 2F1 is positive, +inf where it is not: with scale 1 and power 1 the
    b-th downlink CSP moment, the one rule for every downlink moment."""
    f = downlink_hyp2f1(b, theta, alpha)
    return scale / f**power if f > 0.0 else math.inf


class DownlinkImagMoments:
    """Vectorized M(ju) for the downlink meta distribution.

    Substituting t = log(1 + theta v^alpha) in the relative-distance-process
    integral gives F(ju) = 1 + 2 int_0^T t^-delta psi_u(t) dt, T = log(1 +
    theta), with a linear oscillation phase and psi_u smooth.  The rule is
    composite and built in O(n): a RULE-point Gauss-Jacobi head for the
    t^-delta weight on [0, t1], t1 = min(T, HEAD_PERIODS periods of the
    fastest oscillation the inversion reaches, 2 pi / U_CAP each), then
    RULE-point Gauss-Legendre panels of width about t1 on [t1, T], their
    weights times t^-delta.  M(ju) agrees with mpmath's
    1/2F1(ju, -delta; 1-delta; -theta) within 1e-15 for u up to U_CAP, at
    alpha from 2.2 to 8 and theta from 1e-4 to 1e5.  The most recently used
    CACHE_SIZE evaluators are kept.
    """

    U_CAP = 4.0e3
    RULE = 64
    HEAD_PERIODS = 8.0
    CACHE_SIZE = 16
    _cache = OrderedDict()

    def __new__(cls, theta, alpha):
        return lru_get(cls._cache, (theta, alpha), cls.CACHE_SIZE, lambda: object.__new__(cls))

    def __init__(self, theta, alpha):
        if hasattr(self, "_w"):
            return
        self.delta = 2.0 / alpha
        t_top = math.log1p(theta)
        t_head = min(t_top, self.HEAD_PERIODS * 2.0 * math.pi / self.U_CAP)
        t0, w0 = gauss_jacobi(self.RULE, -self.delta, 0.0, t_head)
        ends = np.linspace(t_head, t_top, math.ceil((t_top - t_head) / t_head) + 1)
        t1, w1 = gauss_legendre(self.RULE, ends[:-1], ends[1:])
        t1, w1 = t1.ravel(), w1.ravel()
        t = np.concatenate([t0, t1])
        w = np.concatenate([w0, w1 * t1**-self.delta])
        # psi(t) = t^delta G(t), G(t) = theta^delta e^t (e^t - 1)^(-1-delta)/alpha
        em1 = np.expm1(t)
        g_td = theta**self.delta * np.exp(t) * em1 ** (-1.0 - self.delta) * t**self.delta / alpha
        self._t = t
        self._w = w * g_td

    def __call__(self, c, d):
        """M(ju) = 1/F on the grid u[p, i] = c[p] + d[i], where
        F = 2F1(ju, -delta; 1-delta; -theta) = 1 + 2 sum_k w_k (1 - e^(-j u t_k)),
        formed in place over the node sums, whose factors stay within
        _FACTOR_CAP / 8 entries (1 MB)."""
        f = _node_sums(self._t[None], self._w[None], c, d, _FACTOR_CAP >> 3)[0]
        f *= 2.0
        f += 1.0
        return np.divide(1.0, f, out=f)


def moments_downlink_ppp(b, theta, alpha):
    """Moments of the typical downlink user's CSP: 1 / 2F1(b,-d;1-d;-theta)
    (real b) while the 2F1 is positive, +inf where it is not.  At b = -1,
    the mean local delay, the 2F1 is 1 - delta theta / (1 - delta): +inf
    from theta = (1 - delta) / delta on is the local delay's phase
    transition."""
    return _moment_grid(b, theta, lambda t: lambda b: downlink_moment(b, t, alpha))


# ---------------------------------------------------------------------------
# Meta distribution
# ---------------------------------------------------------------------------

_FACTOR_CAP = 1 << 19  # complex entries (8 MB) per node-sum factor, and per Ginibre block of node sums


def _node_sums(t, w, c, d, cap=None):
    """S[g, p, i] = sum_k w[g, k] (1 - e^(-j (c[p] + d[i]) t[g, k])) for the
    node groups t, w of shape (G, n), on the grid u[p, i] = c[p] + d[i].

    With a_pk = e^(-j c_p t_k) and b_ki = e^(-j d_i t_k), the split
    1 - a b = (1 - a) + a (1 - b) gives each group a row sum plus one complex
    matrix product: P n + n D exponentials in place of P D n.  The factors
    1 - e^(-jx) are formed without cancellation, so large weights near t = 0
    keep their digits.  The nodes go in steps and the rows in blocks so that
    no factor exceeds `cap` entries (default _FACTOR_CAP); each step's b
    factor serves every row block."""
    cap = cap or _FACTOR_CAP
    s = np.zeros((len(t), len(c), len(d)), dtype=complex)
    step = max(1, min(t.shape[1], cap // len(d)))
    rows = max(1, cap // step)
    for tg, wg, sg in zip(t, w, s):
        for k in range(0, len(tg), step):
            tk, wk = tg[k : k + step], wg[k : k + step]
            one_minus_b = _one_minus_exp(np.outer(tk, d))
            for r in range(0, len(c), rows):
                one_minus_a = _one_minus_exp(np.outer(c[r : r + rows], tk))
                sr = sg[r : r + rows]
                sr += (one_minus_a @ wk)[:, None]
                a = 1.0 - one_minus_a
                a *= wk
                sr += a @ one_minus_b
    return s


def _one_minus_exp(x):
    """1 - e^(-jx) = 2 sin^2(x/2) + j sin(x) for real x, accurate at small x."""
    out = np.empty(x.shape, dtype=complex)
    half = np.sin(0.5 * x)
    np.multiply(2.0 * half, half, out=out.real)
    np.sin(x, out=out.imag)
    return out


def meta_distribution(model, theta, x, geometry="adhoc"):
    """SIR meta distribution: P[CSP > x], by Gil-Pelaez inversion of the
    imaginary moments b = ju.  x is a scalar (a float) or a 1-D grid (an
    array, inverted in one pass that evaluates each moment node once).

    Downlink, and ad hoc over the Poisson and Ginibre fields.  The Matern
    cluster field has no analytic imaginary moments here, so its ad hoc
    meta distribution raises ValueError (apart from theta = 0 and an empty
    field, where it is exactly 1); `simengine.estimate_meta` estimates it.
    A downlink over an empty field has no serving station: ValueError, as
    in `simengine.estimate_meta`."""
    xs, scalar = _unit_grid(x)
    if theta < 0:
        raise ValueError("theta must be nonnegative")
    if geometry == "downlink":
        require_base_stations(model)
    # every link succeeds at theta = 0 and over an empty field: the CSP is 1
    if theta == 0.0 or (geometry != "downlink" and model.field.intensity == 0.0):
        return 1.0 if scalar else np.ones(len(xs))
    if geometry == "downlink":
        # downlink moments decay only polynomially in u: cap the inversion
        return gil_pelaez_ccdf(DownlinkImagMoments(theta, model.alpha), x, u_max_cap=DownlinkImagMoments.U_CAP)
    imaginary = _adhoc_moments(model, theta)[1]
    if imaginary is None:
        raise ValueError("no analytic meta distribution for the Matern cluster field")
    return gil_pelaez_ccdf(imaginary, x)


# ---------------------------------------------------------------------------
# MISR / SIR gain
# ---------------------------------------------------------------------------


def misr_ppp(alpha):
    """Mean interference-to-signal ratio of the Poisson downlink: 2/(alpha-2)."""
    if alpha <= 2:
        raise ValueError("alpha must exceed 2")
    return 2.0 / (alpha - 2.0)


def misr_estimate(model, alpha, cfg):
    """Monte Carlo MISR: E[sum_{k>=2} (r_1/r_k)^alpha] over downlink patterns.

    The truncated window tail is restored analytically with Campbell's
    formula: E[sum_{r_k > R} (r_1/r_k)^alpha] = 2 pi lam E[r_1^alpha]
    R^(2-alpha)/(alpha-2).  alpha must be the model's own.
    """
    require_alpha(model, alpha)
    radius = cfg.window_radius or simengine.default_window(model.intensity)
    sums, r1a = simengine.run_batches(cfg, "misr", _misr_chunk, model, alpha, radius)
    if not r1a.size:
        raise ValueError(f"no pattern in the window of radius {radius} holds two points; widen cfg.window_radius")
    tail = 2.0 * math.pi * model.intensity * np.mean(r1a) * radius ** (2.0 - alpha) / (alpha - 2.0)
    return simengine.confidence(sums + tail, cfg.master_seed)


@simengine.batchwise
def _misr_chunk(rng, size, model, alpha, radius):
    """(windowed ISR sum, r_1^alpha) of each pattern with two or more points."""
    radii, counts = sample_batch(model.field, radius, rng, size)
    keep = counts >= 2
    if not keep.all():
        radii, counts = radii[np.repeat(keep, counts)], counts[keep]
    r1 = simengine._segment_mins(radii, counts)
    ratios = np.divide(np.repeat(r1, counts), radii, out=radii)
    ratios **= alpha  # `**` dispatches as `**=` does, so the powers keep their bits
    # the serving term (r_1 / r_1)^alpha is exactly 1
    return simengine._segment_sums(ratios, counts) - 1.0, r1**alpha


def sir_gain_g0(model, alpha, cfg=None):
    """Asymptotic SIR gain G0 = MISR_PPP / MISR of the model.

    Ginibre uses the 1 + beta/2 approximation; PPP is 1; the cluster model
    falls back to the Monte Carlo MISR (cfg required).  alpha must be the
    model's own.
    """
    require_alpha(model, alpha)
    f = model.field
    if isinstance(f, PPP):
        return 1.0
    if isinstance(f, GPP):
        return 1.0 + f.beta / 2.0
    if isinstance(f, MCP):
        if cfg is None:
            raise ValueError("MCP gain needs a SimConfig for the MISR estimate")
        return misr_ppp(alpha) / misr_estimate(model, alpha, cfg).mean
    raise TypeError(f"unknown field type: {type(f)!r}")
