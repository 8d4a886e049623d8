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

from .core import Curve, ToleranceError
from .numerics import integrate_1d

__all__ = [
    "PPP",
    "MCP",
    "GPP",
    "NetworkModel",
    "PointPattern",
    "sample_ppp",
    "sample_mcp",
    "sample_gpp_distances",
    "sample_pattern",
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


@dataclass
class PointPattern:
    """One realization: planar points, or origin-centric sorted distances."""

    window_radius: float
    points: np.ndarray | None = None  # (n, 2), meters
    radii: np.ndarray | None = None  # sorted ascending, meters
    angles: np.ndarray | None = None

    def __post_init__(self):
        if self.points is None and self.radii is None:
            self.points = np.empty((0, 2))
        if self.points is not None:
            self.points = np.asarray(self.points, dtype=float).reshape(-1, 2)
        if self.radii is not None:
            self.radii = np.asarray(self.radii, dtype=float)
            if np.any(np.diff(self.radii) < 0):
                raise ValueError("origin distances must be sorted ascending")

    @property
    def n_points(self):
        return len(self.points) if self.points is not None else len(self.radii)

    def origin_distances(self):
        """Sorted distances to the origin (works in either representation)."""
        if self.radii is not None:
            return self.radii
        return np.sort(np.hypot(self.points[:, 0], self.points[:, 1]))


# ---------------------------------------------------------------------------
# Samplers
# ---------------------------------------------------------------------------


def _uniform_disk(n, radius, rng, center=(0.0, 0.0)):
    r = radius * np.sqrt(rng.random(n))
    t = rng.random(n) * 2.0 * np.pi
    return np.column_stack([center[0] + r * np.cos(t), center[1] + r * np.sin(t)])


def sample_ppp(density, window_radius, rng):
    """Homogeneous PPP on a disk: Poisson count, i.i.d. uniform positions."""
    if density < 0 or window_radius < 0:
        raise ValueError("density and window radius must be nonnegative")
    n = rng.poisson(density * math.pi * window_radius**2)
    return PointPattern(window_radius=window_radius, points=_uniform_disk(n, window_radius, rng))


def sample_mcp(parent_density, mean_daughters, cluster_radius, window_radius, rng):
    """Matern cluster process: parents on an inflated window (radius + R_d) so
    daughter clipping does not bias the intensity near the boundary."""
    r_parent = window_radius + cluster_radius
    n_par = rng.poisson(parent_density * math.pi * r_parent**2)
    parents = _uniform_disk(n_par, r_parent, rng)
    counts = rng.poisson(mean_daughters, n_par)
    total = int(counts.sum())
    if total == 0:
        return PointPattern(window_radius=window_radius)
    centers = np.repeat(parents, counts, axis=0)
    pts = centers + _uniform_disk(total, cluster_radius, rng)
    keep = np.hypot(pts[:, 0], pts[:, 1]) <= window_radius
    return PointPattern(window_radius=window_radius, points=pts[keep])


def sample_gpp_distances(density, beta, window_radius, rng):
    """beta-Ginibre origin-centric distances.

    Squared distances are distributed as {Q_j ~ Gamma(j, beta/(pi lambda))}
    thinned independently with retention probability beta; angles are
    i.i.d. uniform.  J_max carries a safety factor of 2 over the expected
    number of gamma variates with mass below the window.
    """
    if window_radius <= 0:
        return PointPattern(window_radius=window_radius, radii=np.empty(0), angles=np.empty(0))
    scale = beta / (math.pi * density)
    j_max = int(math.ceil(2.0 * math.pi * density * window_radius**2 / beta)) + 8
    shapes = np.arange(1, j_max + 1, dtype=float)
    q = rng.standard_gamma(shapes) * scale
    keep = (rng.random(j_max) < beta) & (q <= window_radius**2)
    radii = np.sort(np.sqrt(q[keep]))
    angles = rng.random(radii.size) * 2.0 * np.pi
    return PointPattern(window_radius=window_radius, radii=radii, angles=angles)


def sample_pattern(model, window_radius, rng):
    f = model if not isinstance(model, NetworkModel) else model.field
    if isinstance(f, PPP):
        return sample_ppp(f.density, window_radius, rng)
    if isinstance(f, MCP):
        return sample_mcp(f.parent_density, f.mean_daughters, f.cluster_radius, window_radius, rng)
    if isinstance(f, GPP):
        return sample_gpp_distances(f.density, f.beta, window_radius, rng)
    raise TypeError(f"unknown field type: {type(f)!r}")


# ---------------------------------------------------------------------------
# Two-circle geometry
# ---------------------------------------------------------------------------


def circle_intersection_area(r1, r2, d):
    """Area of the intersection of disks with radii r1, r2 and center gap d."""
    if r1 < 0 or r2 < 0 or d < 0:
        raise ValueError("radii and distance must be nonnegative")
    if d >= r1 + r2:
        return 0.0
    if d <= abs(r1 - r2):
        r = min(r1, r2)
        return math.pi * r * r
    c1 = (d * d + r1 * r1 - r2 * r2) / (2.0 * d * r1)
    c2 = (d * d + r2 * r2 - r1 * r1) / (2.0 * d * r2)
    c1 = min(1.0, max(-1.0, c1))
    c2 = min(1.0, max(-1.0, c2))
    term = 0.5 * math.sqrt(
        max(0.0, (-d + r1 + r2) * (d + r1 - r2) * (d - r1 + r2) * (d + r1 + r2))
    )
    return r1 * r1 * math.acos(c1) + r2 * r2 * math.acos(c2) - term


def lens_area(cluster_radius, r):
    """Intersection area of two equal disks of radius R_d a distance r apart:
    2 R_d^2 arccos(r / 2R_d) - r sqrt(R_d^2 - r^2/4) on [0, 2 R_d], else 0."""
    if cluster_radius <= 0:
        raise ValueError("cluster radius must be positive")
    if r < 0:
        raise ValueError("distance must be nonnegative")
    if r >= 2.0 * cluster_radius:
        return 0.0
    return 2.0 * cluster_radius**2 * math.acos(r / (2.0 * cluster_radius)) - r * math.sqrt(
        cluster_radius**2 - r * r / 4.0
    )


# ---------------------------------------------------------------------------
# Contact distance distributions
# ---------------------------------------------------------------------------


def _mcp_void_exponent(field, r):
    # Lambda(r) = lambda_p * int_R2 (1 - exp(-cbar * p(r | x))) dx where
    # p(r | x) = |B(0,r) n B(x, R_d)| / (pi R_d^2) is a daughter's chance of
    # falling within distance r of the origin.
    rd = field.cluster_radius
    area = math.pi * rd * rd

    def integrand(x):
        frac = circle_intersection_area(r, rd, x) / area
        return (1.0 - math.exp(-field.mean_daughters * frac)) * x

    hi = r + rd
    res = integrate_1d(integrand, 0.0, hi)
    return 2.0 * math.pi * field.parent_density * res.value, res


def contact_cdf(field, r):
    """CDF of the distance from the origin to the nearest point."""
    if r < 0:
        raise ValueError("r must be nonnegative")
    if isinstance(field, PPP):
        return 1.0 - math.exp(-field.density * math.pi * r * r)
    if isinstance(field, MCP):
        if r == 0.0:
            return 0.0
        expo, res = _mcp_void_exponent(field, r)
        if not res.converged:
            raise ToleranceError("MCP contact CDF quadrature did not converge")
        return 1.0 - math.exp(-expo)
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
        expo, res = _mcp_void_exponent(field, r)

        # d/dr of the void exponent: boundary arc length inside B(x, R_d)
        def integrand(x):
            frac = circle_intersection_area(r, rd, x) / area
            darc = _arc_inside(r, rd, x)
            return math.exp(-field.mean_daughters * frac) * field.mean_daughters * darc / area * x

        dres = integrate_1d(integrand, 0.0, r + rd)
        if not (res.converged and dres.converged):
            raise ToleranceError("MCP contact PDF quadrature did not converge")
        dexpo = 2.0 * math.pi * field.parent_density * dres.value
        return math.exp(-expo) * dexpo
    raise TypeError("contact distribution implemented for PPP and MCP fields")


def _arc_inside(r, rd, x):
    # d/dr |B(0,r) n B(x,rd)|: length of the circle of radius r inside B(x,rd)
    if x + r <= rd:
        return 2.0 * math.pi * r  # circle entirely inside the cluster disk
    if x >= r + rd or r >= x + rd:
        return 0.0
    cosv = (r * r + x * x - rd * rd) / (2.0 * r * x)
    cosv = min(1.0, max(-1.0, cosv))
    return 2.0 * r * math.acos(cosv)


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
        a = np.vectorize(lambda rr: lens_area(rd, rr))(r)
        return 1.0 + field.mean_daughters * a / (lam * math.pi**2 * rd**4)
    if isinstance(field, GPP):
        return 1.0 - np.exp(-math.pi * field.density * r**2 / field.beta)
    raise TypeError(f"unknown field type: {type(field)!r}")


def pcf_estimate(patterns, r_grid, bin_width=None):
    """Ring-count estimator of g(r) from planar patterns.

    Pair distances are counted in annuli of width `bin_width` around each
    grid point; only centers at least max(r_grid)+bin from the boundary are
    used, which removes edge bias at the price of a smaller sample.
    """
    if not patterns:
        raise ValueError("at least one pattern is required")
    r_grid = np.asarray(r_grid, dtype=float)
    if bin_width is None:
        bin_width = float(np.min(np.diff(r_grid))) if r_grid.size > 1 else 0.1
    r_max = r_grid.max() + bin_width
    counts = np.zeros_like(r_grid)
    norm = np.zeros_like(r_grid)
    for pat in patterns:
        if pat.points is None:
            raise ValueError("pcf estimation needs planar patterns")
        pts = pat.points
        n = len(pts)
        if n < 2:
            continue
        lam_hat = n / (math.pi * pat.window_radius**2)
        rad = np.hypot(pts[:, 0], pts[:, 1])
        inner = rad <= pat.window_radius - r_max
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
