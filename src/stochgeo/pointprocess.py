"""Interferer field models: samplers and analytic spatial descriptors.

Three stationary planar fields are supported: the homogeneous Poisson
process (independent points), the Matern cluster process (attraction), and
the beta-Ginibre process (repulsion).  The Ginibre sampler produces the
origin-centric distance representation, which is distributionally exact for
every origin-referenced statistic used downstream.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as _sps

from .core import Curve
from .numerics import gauss_legendre

__all__ = [
    "PPP",
    "MCP",
    "GPP",
    "NetworkModel",
    "require_base_stations",
    "sample_batch",
    "contact_pdf",
    "contact_cdf",
    "vertex_contact_pdf",
    "distance_ratio_pdf",
    "distance_ratio_cdf",
    "pcf_analytic",
    "pcf_estimate",
    "lens_area",
    "circle_intersection_area",
]


# ---------------------------------------------------------------------------
# Model types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PPP:
    density: float

    def __post_init__(self):
        if self.density < 0:
            raise ValueError("density must be nonnegative")

    @property
    def intensity(self):
        return self.density


@dataclass(frozen=True)
class MCP:
    parent_density: float
    mean_daughters: float
    cluster_radius: float

    def __post_init__(self):
        if min(self.parent_density, self.mean_daughters, self.cluster_radius) < 0:
            raise ValueError("MCP parameters must be nonnegative")

    @property
    def intensity(self):
        # lambda = lambda_p * cbar
        return self.parent_density * self.mean_daughters


@dataclass(frozen=True)
class GPP:
    density: float
    beta: float

    def __post_init__(self):
        if self.density < 0:
            raise ValueError("density must be nonnegative")
        if not (0.0 < self.beta <= 1.0):
            raise ValueError("beta must lie in (0, 1]")

    @property
    def intensity(self):
        return self.density


@dataclass(frozen=True)
class NetworkModel:
    """An interferer field plus link geometry: path-loss exponent and, for
    ad hoc links, the dedicated transmitter distance."""

    field: PPP | MCP | GPP
    alpha: float
    link_distance: float | None = None

    def __post_init__(self):
        if self.alpha <= 2.0:
            raise ValueError("path-loss exponent must exceed 2")
        if self.link_distance is not None and self.link_distance <= 0:
            raise ValueError("link distance must be positive")

    @property
    def delta(self):
        return 2.0 / self.alpha

    @property
    def intensity(self):
        return self.field.intensity


def require_base_stations(model):
    """A downlink user is served by the nearest point of the field, so a
    downlink over a field of intensity 0 is undefined: ValueError."""
    if model.intensity <= 0:
        raise ValueError("a downlink needs base stations: the field's density must be positive")


# ---------------------------------------------------------------------------
# Sampler
# ---------------------------------------------------------------------------

# The Ginibre sampler draws Q_j only while P(Q_j <= R^2) >= GPP_TAIL.
GPP_TAIL = 1e-16


def _uniform_radii(n, radius, rng):
    return radius * np.sqrt(rng.random(n))


def _polar(r, rng):
    t = rng.random(r.size) * 2.0 * np.pi
    return r * np.cos(t), r * np.sin(t)


def _mcp_batch(field, radius, rng, size):
    """Matern cluster points of `size` patterns: parents on the inflated disk
    of radius + R_d, so that clipping the daughters to the window does not
    bias the intensity near its boundary."""
    r_par = radius + field.cluster_radius
    n_par = rng.poisson(field.parent_density * math.pi * r_par**2, size)
    px, py = _polar(_uniform_radii(int(n_par.sum()), r_par, rng), rng)
    daughters = rng.poisson(field.mean_daughters, px.size)
    dx, dy = _polar(_uniform_radii(int(daughters.sum()), field.cluster_radius, rng), rng)
    x = np.repeat(px, daughters) + dx
    y = np.repeat(py, daughters) + dy
    rad = np.hypot(x, y)
    keep = rad <= radius
    pattern_of_point = np.repeat(np.repeat(np.arange(size), n_par), daughters)
    return x[keep], y[keep], rad[keep], np.bincount(pattern_of_point[keep], minlength=size)


def _gpp_last_index(y):
    """The last index j with P(Gamma(j, 1) <= y) >= GPP_TAIL, or 0 when even
    j = 1 falls below it.  The probability falls as j grows, so the doubling
    and the bisection need about 2 log2(j) calls of `gammainc`."""
    lo, hi = 0, 1
    while _sps.gammainc(hi, y) >= GPP_TAIL:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if _sps.gammainc(mid, y) >= GPP_TAIL else (lo, mid)
    return lo


def _gpp_radii(field, radius, rng, size):
    """beta-Ginibre origin distances of `size` patterns.

    Squared distances are {Q_j ~ Gamma(j, beta / (pi lambda))}, each kept
    with probability beta.  j runs to the last index whose
    P(Q_j <= R^2) = gammainc(j, pi lambda R^2 / beta) is at least GPP_TAIL,
    so the indices left out hold below 1e-15 expected points per pattern
    (j = 575 at pi lambda R^2 = 400 and beta = 1, the default window; j = 0
    at R = 0).  The gammas are drawn pattern-major, then, for beta < 1 only,
    the thinning uniforms.
    """
    n = _gpp_last_index(math.pi * field.density * radius**2 / field.beta)
    if n == 0:  # an empty field or window: no draws
        return np.empty(0), np.zeros(size, dtype=int)
    q = rng.standard_gamma(np.broadcast_to(np.arange(1.0, n + 1), (size, n)))
    q *= field.beta / (math.pi * field.density)
    keep = q <= radius**2
    if field.beta < 1.0:
        keep &= rng.random((size, n)) < field.beta
    return np.sqrt(q[keep]), keep.sum(axis=1)


def sample_batch(field, window_radius, rng, size, planar=False):
    """`size` independent patterns of `field` on the disk of radius
    `window_radius` around the origin, drawn from `rng`.

    Returns (radii, counts): the origin distances of every pattern's points,
    pattern by pattern, and each pattern's point count, so pattern i holds
    the counts[i] entries after the first sum(counts[:i]).  With `planar`,
    returns (x, y, counts) instead.  The Poisson and Ginibre fields draw
    their points' angles after all the radii, so a planar batch draws the
    radii that a radial one does; the Ginibre radii and angles are the
    origin-centric representation, exact for every statistic referred to
    the origin.  The Ginibre field draws Q_j only while P(Q_j <= R^2) is at
    least GPP_TAIL, which leaves out below 1e-15 expected points per
    pattern, and draws its thinning uniforms only for beta < 1.  The Matern
    field builds planar points either way.
    """
    if not 0.0 <= window_radius < math.inf:
        raise ValueError("window radius must be finite and nonnegative")
    if isinstance(field, MCP):
        x, y, radii, counts = _mcp_batch(field, window_radius, rng, size)
        return (x, y, counts) if planar else (radii, counts)
    if isinstance(field, PPP):
        counts = rng.poisson(field.density * math.pi * window_radius**2, size)
        radii = _uniform_radii(int(counts.sum()), window_radius, rng)
    elif isinstance(field, GPP):
        radii, counts = _gpp_radii(field, window_radius, rng, size)
    else:
        raise TypeError(f"unknown field type: {type(field)!r}")
    return (*_polar(radii, rng), counts) if planar else (radii, counts)


# ---------------------------------------------------------------------------
# Two-circle geometry
# ---------------------------------------------------------------------------


def circle_intersection_area(r1, r2, d):
    """Area of the intersection of disks with radii r1, r2 and center gap d.

    The arguments are scalars (a float is returned) or arrays that broadcast
    together (an array of their shape)."""
    r1, r2, d = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in (r1, r2, d)))
    if np.any(r1 < 0) or np.any(r2 < 0) or np.any(d < 0):
        raise ValueError("radii and distance must be nonnegative")
    out = np.zeros(d.shape)
    inner = d <= np.abs(r1 - r2)  # one disk holds the other
    out[inner] = math.pi * np.minimum(r1, r2)[inner] ** 2
    lens = ~inner & (d < r1 + r2)
    a, b, g = r1[lens], r2[lens], d[lens]
    c1 = np.clip((g * g + a * a - b * b) / (2.0 * g * a), -1.0, 1.0)
    c2 = np.clip((g * g + b * b - a * a) / (2.0 * g * b), -1.0, 1.0)
    term = 0.5 * np.sqrt(np.maximum(0.0, (-g + a + b) * (g + a - b) * (g - a + b) * (g + a + b)))
    out[lens] = a * a * np.arccos(c1) + b * b * np.arccos(c2) - term
    return out if out.ndim else float(out)


def lens_area(cluster_radius, r):
    """Intersection area of two equal disks of radius R_d a distance r apart:
    2 R_d^2 arccos(r / 2R_d) - r sqrt(R_d^2 - r^2/4) on [0, 2 R_d], else 0.

    r is a scalar (a float is returned) or an array (an array of its shape)."""
    if cluster_radius <= 0:
        raise ValueError("cluster radius must be positive")
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise ValueError("distance must be nonnegative")
    rd = cluster_radius
    out = np.zeros(r.shape)
    inside = r < 2.0 * rd
    ri = r[inside]
    out[inside] = 2.0 * rd * rd * np.arccos(ri / (2.0 * rd)) - ri * np.sqrt(np.maximum(rd * rd - ri * ri / 4.0, 0.0))
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# Contact distance distributions
# ---------------------------------------------------------------------------


_LENS_S, _LENS_W = gauss_legendre(32, 0.0, 1.0)


def _mcp_radial_integral(h, r, rd):
    """int_0^(r + R_d) h(x) x dx for an h of B(0, r) n B(x, R_d).  One disk
    holds the other on [0, |r - R_d|], where h is constant; the lens range
    takes 32 Gauss-Legendre nodes mapped by (1 - cos(pi s))/2, which clears
    its square-root ends."""
    lo, hi = abs(r - rd), r + rd
    x = lo + (hi - lo) * 0.5 * (1.0 - np.cos(math.pi * _LENS_S))
    w = (hi - lo) * 0.5 * math.pi * np.sin(math.pi * _LENS_S) * _LENS_W
    return float(h(0.5 * lo)) * 0.5 * lo * lo + np.dot(w, h(x) * x)


def _mcp_void_exponent(field, r):
    # Lambda(r) = lambda_p * int_R2 (1 - exp(-cbar * p(r | x))) dx where
    # p(r | x) = |B(0,r) n B(x, R_d)| / (pi R_d^2) is a daughter's chance of
    # falling within distance r of the origin.
    rd = field.cluster_radius
    area = math.pi * rd * rd

    def h(x):
        return -np.expm1(-field.mean_daughters * circle_intersection_area(r, rd, x) / area)

    return 2.0 * math.pi * field.parent_density * _mcp_radial_integral(h, r, rd)


def contact_cdf(field, r):
    """CDF of the distance from the origin to the nearest point."""
    if r < 0:
        raise ValueError("r must be nonnegative")
    if isinstance(field, PPP):
        return 1.0 - math.exp(-field.density * math.pi * r * r)
    if isinstance(field, MCP):
        if r == 0.0:
            return 0.0
        return 1.0 - math.exp(-_mcp_void_exponent(field, r))
    raise TypeError("contact distribution implemented for PPP and MCP fields")


def contact_pdf(field, r):
    """PDF of the contact distance (PPP closed form, MCP numeric)."""
    if r < 0:
        raise ValueError("r must be nonnegative")
    if isinstance(field, PPP):
        lam = field.density
        return 2.0 * math.pi * lam * r * math.exp(-lam * math.pi * r * r)
    if isinstance(field, MCP):
        if r == 0.0:
            return 0.0
        rd = field.cluster_radius
        area = math.pi * rd * rd
        cbar = field.mean_daughters

        # d/dr of the void exponent: boundary arc length inside B(x, R_d)
        def h(x):
            frac = circle_intersection_area(r, rd, x) / area
            return np.exp(-cbar * frac) * cbar * _arc_inside(r, rd, x) / area

        dexpo = 2.0 * math.pi * field.parent_density * _mcp_radial_integral(h, r, rd)
        return math.exp(-_mcp_void_exponent(field, r)) * dexpo
    raise TypeError("contact distribution implemented for PPP and MCP fields")


def _arc_inside(r, rd, x):
    """d/dr |B(0,r) n B(x,rd)|, the length of the circle of radius r inside
    B(x,rd), at a scalar or an array of x."""
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):  # x = 0 takes a branch below
        cosv = np.clip((r * r + x * x - rd * rd) / (2.0 * r * x), -1.0, 1.0)
        arc = np.where((x >= r + rd) | (r >= x + rd), 0.0, 2.0 * r * np.arccos(cosv))
    # a circle entirely inside the cluster disk
    return np.where(x + r <= rd, 2.0 * math.pi * r, arc)


def vertex_contact_pdf(density, r):
    """Contact-distance density of the typical vertex user in a Poisson
    downlink network: 2 (lambda pi)^2 r^3 exp(-lambda pi r^2)."""
    a = density * math.pi
    return 2.0 * a * a * r**3 * np.exp(-a * r * r)


# ---------------------------------------------------------------------------
# Distance-ratio law of the PPP
# ---------------------------------------------------------------------------


def distance_ratio_cdf(j, rho):
    """CDF of r_1 / r_j for a PPP: 1 - (1 - rho^2)^(j-1) on [0, 1]."""
    if j < 2:
        raise ValueError("distance ratio defined for j >= 2")
    rho = np.asarray(rho, dtype=float)
    if np.any((rho < 0) | (rho > 1)):
        raise ValueError("ratio must lie in [0, 1]")
    return 1.0 - (1.0 - rho**2) ** (j - 1)


def distance_ratio_pdf(j, rho):
    if j < 2:
        raise ValueError("distance ratio defined for j >= 2")
    rho = np.asarray(rho, dtype=float)
    if np.any((rho < 0) | (rho > 1)):
        raise ValueError("ratio must lie in [0, 1]")
    return 2.0 * (j - 1) * rho * (1.0 - rho**2) ** (j - 2)


# ---------------------------------------------------------------------------
# Pair correlation
# ---------------------------------------------------------------------------


def pcf_analytic(field, r):
    """Pair correlation function.

    The Ginibre expression follows the kernel-based second moment density,
    g(r) = 1 - exp(-pi lambda r^2 / beta); see the decisions log for the
    discrepancy with the other published form.
    """
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise ValueError("r must be nonnegative")
    if isinstance(field, PPP):
        return np.ones_like(r)
    if isinstance(field, MCP):
        lam = field.intensity
        rd = field.cluster_radius
        return 1.0 + field.mean_daughters * lens_area(rd, r) / (lam * math.pi**2 * rd**4)
    if isinstance(field, GPP):
        return 1.0 - np.exp(-math.pi * field.density * r**2 / field.beta)
    raise TypeError(f"unknown field type: {type(field)!r}")


def pcf_estimate(batch, window_radius, r_grid, bin_width=None):
    """Ring-count estimator of g(r) from a planar batch (x, y, counts), as
    `sample_batch(..., planar=True)` returns it, on the disk of radius
    `window_radius`.

    Pair distances are counted in annuli of width `bin_width` around each
    grid point; only centers at least max(r_grid)+bin from the boundary are
    used, which removes edge bias at the price of a smaller sample.
    """
    x, y, n_points = batch
    if not len(n_points):
        raise ValueError("at least one pattern is required")
    r_grid = np.asarray(r_grid, dtype=float)
    if bin_width is None:
        bin_width = float(np.min(np.diff(r_grid))) if r_grid.size > 1 else 0.1
    r_max = r_grid.max() + bin_width
    counts = np.zeros_like(r_grid)
    norm = np.zeros_like(r_grid)
    ends = np.cumsum(n_points)
    for start, n in zip(ends - n_points, n_points):
        if n < 2:
            continue
        pts = np.column_stack([x[start:start + n], y[start:start + n]])
        lam_hat = n / (math.pi * window_radius**2)
        rad = np.hypot(pts[:, 0], pts[:, 1])
        inner = rad <= window_radius - r_max
        if not np.any(inner):
            continue
        centers = pts[inner]
        d = np.sqrt(((centers[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
        d[d == 0.0] = np.inf  # self pairs
        for k, r0 in enumerate(r_grid):
            lo, hi = max(r0 - bin_width / 2.0, 0.0), r0 + bin_width / 2.0
            ring = math.pi * (hi * hi - lo * lo)
            counts[k] += ((d >= lo) & (d < hi)).sum()
            norm[k] += len(centers) * lam_hat * ring
    with np.errstate(invalid="ignore", divide="ignore"):
        g = counts / norm
    return Curve(grid=r_grid, values=g, meta={"estimator": "ring-count", "bin_width": bin_width})
