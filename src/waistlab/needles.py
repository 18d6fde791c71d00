"""Single-needle localization machinery and its property checks.

A needle is a low-dimensional convex piece of the unit sphere carrying a
probability density whose (1/m)-th power obeys a midpoint concavity
inequality corrected by the modulus of convexity ("weak m-concavity"). This
module builds such densities on arcs (and, at desk scale, on geodesic caps
of the round 2-sphere), checks the decay / mass-ratio / ball-mass chain that
the waist bound rests on, and reconstructs densities derived from
shrinking lunes empirically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .bounds import (
    F_UPPER_PI,
    BoundInputs,
    sine_integrals,
    waist_lower_bound,
)
from .cone import derive_seed, rng_stream, sample_conical, sample_in_ball
from .norms import (
    ModulusCurve,
    NormDescriptor,
    euclidean_modulus_curve,
    euclidean_norm,
    norm_eval,
)

__all__ = [
    "ArcDensity",
    "CapDensity",
    "ConvexCapSpec",
    "WeakConcavityReport",
    "MaxStructureReport",
    "DecayReport",
    "NeedleBoundsReport",
    "DerivedDensityDiagnostics",
    "is_weakly_concave",
    "max_structure_check",
    "decay_bound_check",
    "needle_ratio_and_ball",
    "random_arc_density",
    "random_cap_density",
    "lune_spec",
    "validate_convexity",
    "derived_density_estimate",
    "needle_suite",
]

# Default slack for midpoint-interpolated concavity checks; sized to dominate
# the linear-interpolation error of f^(1/m) on grids of >= 1e3 points.
WEAK_CONCAVITY_TOL = 1e-6
# Slack for direct quadrature comparisons in the lemma-chain checks.
QUADRATURE_TOL = 1e-9


# ---------------------------------------------------------------------------
# Arc densities (1-dimensional needles)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ArcDensity:
    """A density on an arc of the unit sphere.

    The arc is the section of the sphere by the 2-plane spanned by the
    orthonormal pair ``plane``, parametrized by the Euclidean angle theta;
    ``values`` is the density with respect to the normalized 1-dimensional
    cone measure of the arc, ``m`` the concavity exponent n - k >= 1.
    """

    norm: NormDescriptor
    grid: np.ndarray
    values: np.ndarray
    m: int
    modulus: ModulusCurve
    plane: Optional[tuple] = None

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        if grid.ndim != 1 or grid.size < 3:
            raise ValueError("grid must be 1-D with at least 3 points")
        if np.any(np.diff(grid) <= 0):
            raise ValueError("grid must be strictly increasing")
        if values.shape != grid.shape:
            raise ValueError("values must match grid shape")
        if np.any(values < 0):
            raise ValueError("density values must be nonnegative")
        if self.m < 1:
            raise ValueError("m = n - k must be >= 1")
        if grid[-1] - grid[0] >= math.pi:
            raise ValueError("arc must span less than half a section circle")
        if self.plane is None:
            u = np.zeros(self.norm.dim)
            v = np.zeros(self.norm.dim)
            u[0], v[1] = 1.0, 1.0
            object.__setattr__(self, "plane", (u, v))
        u, v = self.plane
        dirs = np.outer(np.cos(grid), u) + np.outer(np.sin(grid), v)
        radii = 1.0 / np.asarray(norm_eval(self.norm, dirs))
        points = dirs * radii[:, None]
        # 1-D cone measure in theta: the 2-D sector area element is
        # (1/2) r(theta)^2 d theta; normalize to a probability weight.
        w = radii**2
        w = w / np.trapezoid(w, grid)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "section2d", np.column_stack(
            [radii * np.cos(grid), radii * np.sin(grid)]))
        object.__setattr__(self, "cone_weight", w)
        total = float(np.trapezoid(values * w, grid))
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"density must integrate to 1, got {total:.12f}")

    @classmethod
    def from_profile(cls, norm, grid, profile, m, modulus, plane=None
                     ) -> "ArcDensity":
        """Normalize a nonnegative profile on the grid into an ArcDensity."""
        probe = cls(norm=norm, grid=grid, m=m, modulus=modulus, plane=plane,
                    values=_normalized_profile(norm, grid, profile, plane))
        return probe

    @property
    def argmax_index(self) -> int:
        return int(np.argmax(self.values))

    def dist_to_index(self, idx: int) -> np.ndarray:
        """Norm distances from every grid point to grid point ``idx``."""
        if self.norm.kind == "euclidean":
            d = self.section2d - self.section2d[idx]
            return np.hypot(d[:, 0], d[:, 1])
        return np.asarray(norm_eval(self.norm, self.points - self.points[idx]))

    def pair_dist(self, idx_i: np.ndarray, idx_j: np.ndarray) -> np.ndarray:
        if self.norm.kind == "euclidean":
            d = self.section2d[idx_i] - self.section2d[idx_j]
            return np.hypot(d[:, 0], d[:, 1])
        return np.asarray(norm_eval(self.norm, self.points[idx_i] - self.points[idx_j]))

    def mass_where(self, inside_signed: np.ndarray) -> float:
        """Measure of {theta : s(theta) <= 0} for a grid-sampled signed
        function s, with linear interpolation at sign crossings."""
        return _mass_below(self.grid, self.values * self.cone_weight,
                           np.asarray(inside_signed, dtype=float))


def _normalized_profile(norm, grid, profile, plane):
    grid = np.asarray(grid, dtype=float)
    values = np.asarray(profile, dtype=float).copy()
    if plane is None:
        u = np.zeros(norm.dim)
        v = np.zeros(norm.dim)
        u[0], v[1] = 1.0, 1.0
    else:
        u, v = plane
    dirs = np.outer(np.cos(grid), u) + np.outer(np.sin(grid), v)
    radii = 1.0 / np.asarray(norm_eval(norm, dirs))
    w = radii**2
    w = w / np.trapezoid(w, grid)
    values /= np.trapezoid(values * w, grid)
    return values


def _mass_below(grid: np.ndarray, fw: np.ndarray, s: np.ndarray) -> float:
    h = np.diff(grid)
    f0, f1 = fw[:-1], fw[1:]
    s0, s1 = s[:-1], s[1:]
    out = 0.0
    full = (s0 <= 0) & (s1 <= 0)
    out += float(np.sum(h[full] * 0.5 * (f0[full] + f1[full])))
    enter = (s0 <= 0) & (s1 > 0)
    if np.any(enter):
        t = -s0[enter] / (s1[enter] - s0[enter])
        fc = f0[enter] + t * (f1[enter] - f0[enter])
        out += float(np.sum(h[enter] * t * 0.5 * (f0[enter] + fc)))
    leave = (s0 > 0) & (s1 <= 0)
    if np.any(leave):
        t = -s0[leave] / (s1[leave] - s0[leave])
        fc = f0[leave] + t * (f1[leave] - f0[leave])
        out += float(np.sum(h[leave] * (1.0 - t) * 0.5 * (fc + f1[leave])))
    return out


# ---------------------------------------------------------------------------
# Weak concavity and the lemma chain
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeakConcavityReport:
    ok: bool
    checked_pairs: int
    witness: Optional[tuple] = None  # (i, j) of the first violating pair
    worst_margin: float = math.inf   # min over pairs of rhs + tol - lhs


def is_weakly_concave(d: ArcDensity, tol: float = WEAK_CONCAVITY_TOL,
                      pair_stride: int = 1) -> WeakConcavityReport:
    """Check the corrected midpoint concavity of f^(1/m) over grid pairs.

    For each pair (x, y) with radial midpoint z = (x+y)/2 / ||(x+y)/2||,
    requires (f^(1/m)(x) + f^(1/m)(y)) / 2 <= (1 - delta(||x-y||)) f^(1/m)(z)
    plus a slack of tol*(1 + rhs) absorbing the grid interpolation of z.
    ``pair_stride`` subsamples pairs for bulk runs.
    """
    g = d.grid
    n = g.size
    hroot = np.power(d.values, 1.0 / d.m)
    idx_i, idx_j = np.triu_indices(n, k=1)
    if pair_stride > 1:
        idx_i, idx_j = idx_i[::pair_stride], idx_j[::pair_stride]
    dist = d.pair_dist(idx_i, idx_j)
    mid = 0.5 * (d.section2d[idx_i] + d.section2d[idx_j])
    theta_mid = np.arctan2(mid[:, 1], mid[:, 0])
    center = 0.5 * (g[0] + g[-1])
    theta_mid += 2.0 * math.pi * np.round((center - theta_mid) / (2.0 * math.pi))
    lhs = 0.5 * (hroot[idx_i] + hroot[idx_j])
    rhs = (1.0 - np.asarray(d.modulus(dist))) * np.interp(theta_mid, g, hroot)
    margin = rhs + tol * (1.0 + np.abs(rhs)) - lhs
    bad = margin < 0
    worst = float(margin.min()) if margin.size else math.inf
    if not np.any(bad):
        return WeakConcavityReport(ok=True, checked_pairs=idx_i.size,
                                   worst_margin=worst)
    first = int(np.flatnonzero(bad)[0])
    return WeakConcavityReport(
        ok=False, checked_pairs=idx_i.size,
        witness=(int(idx_i[first]), int(idx_j[first])), worst_margin=worst,
    )


@dataclass(frozen=True)
class MaxStructureReport:
    unique_max: bool
    local_minima: int
    argmax_index: int


def max_structure_check(d: ArcDensity, atol: float = 1e-9) -> MaxStructureReport:
    """A weakly concave density has one maximum point and no local minima.

    On the grid, the near-maximum set (within ``atol``) must be one
    contiguous run of indices (a smooth peak straddled by two grid points is
    fine; two separated near-max plateaus are not), and no interior point may
    be a strict local minimum beyond ``atol``.
    """
    v = d.values
    near = np.flatnonzero(v >= v.max() - atol)
    unique = bool(near.size > 0 and np.all(np.diff(near) == 1))
    interior = np.arange(1, v.size - 1)
    minima = (v[interior] < v[interior - 1] - atol) & (v[interior] < v[interior + 1] - atol)
    return MaxStructureReport(unique_max=unique,
                              local_minima=int(minima.sum()),
                              argmax_index=d.argmax_index)


@dataclass(frozen=True)
class DecayReport:
    ok: bool
    checked: int
    vacuous: bool
    worst_margin: float = math.inf


def decay_bound_check(d: ArcDensity, z_index: int, eps: float,
                      tol: float = QUADRATURE_TOL) -> DecayReport:
    """Decay estimate away from the maximum: every grid point x with
    ||x - z|| >= 2 eps must satisfy

        f(x) <= (1 - 2 delta(eps))^m * min f on the [z, x] segment within
                the eps-ball around z,

    the minimum taken over grid points (including z itself). Vacuously true
    if nothing lies outside the 2 eps ball.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    v = d.values
    dist = d.dist_to_index(z_index)
    factor = max(0.0, 1.0 - 2.0 * float(d.modulus(eps))) ** d.m
    worst = math.inf
    checked = 0
    ok = True
    for side in (np.arange(z_index, v.size), np.arange(z_index, -1, -1)):
        seg_dist = dist[side]
        in_ball = side[seg_dist <= eps]
        m_in = float(v[in_ball].min()) if in_ball.size else float(v[z_index])
        far = side[seg_dist >= 2.0 * eps]
        if far.size == 0:
            continue
        margin = factor * m_in + tol - v[far]
        checked += far.size
        worst = min(worst, float(margin.min()))
        ok = ok and bool(np.all(margin >= 0))
    return DecayReport(ok=ok, checked=checked, vacuous=checked == 0,
                       worst_margin=worst)


@dataclass(frozen=True)
class NeedleBoundsReport:
    ratio: float
    ratio_bound: float
    ball_mass: float
    ball_bound: float
    ratio_ok: bool
    ball_ok: bool


def needle_ratio_and_ball(d, eps: float, n: int, k: int = 1,
                          f_upper: str = F_UPPER_PI,
                          tol: float = QUADRATURE_TOL) -> NeedleBoundsReport:
    """Quadrature check of the mass-ratio and ball-mass estimates around the
    density maximum z:

        mu(B(z, 2 eps)^c) / mu(B(z, eps))
            <= (1 - 2 delta(eps))^(n-k) (k+1)^(k+1) * far_mass / near_mass

    and mu(B(z, eps)) >= the waist lower bound at eps, with the sine masses
    taken at eps. Dispatches on ArcDensity (k = 1) or CapDensity (k = 2).
    """
    if isinstance(d, CapDensity):
        if k != 2:
            raise ValueError("CapDensity needles have k = 2")
        ball, outer = d.ball_and_outer_mass(eps)
    else:
        if k != 1:
            raise ValueError("ArcDensity needles have k = 1")
        z = d.argmax_index
        dist = d.dist_to_index(z)
        ball = d.mass_where(dist - eps)
        outer = 1.0 - d.mass_where(dist - 2.0 * eps)
    if d.m != n - k:
        raise ValueError(f"density has m={d.m}, expected n-k={n - k}")
    F, G = sine_integrals(k, eps, f_upper)
    shrink = max(0.0, 1.0 - 2.0 * float(d.modulus(eps))) ** (n - k)
    # G underflows to 0 at tiny eps, where the waist bound is 0 and the
    # ratio bound is vacuous
    ratio_bound = (shrink * (k + 1.0) ** (k + 1.0) * (F / G) if G > 0.0
                   else math.inf)
    ratio = outer / ball if ball > 0 else math.inf
    ball_bound = waist_lower_bound(
        BoundInputs(n=n, k=k, eps=eps, modulus=d.modulus, f_upper=f_upper)
    ).value
    return NeedleBoundsReport(
        ratio=ratio, ratio_bound=ratio_bound,
        ball_mass=ball, ball_bound=ball_bound,
        ratio_ok=bool(ratio <= ratio_bound + tol),
        ball_ok=bool(ball >= ball_bound - tol),
    )


# ---------------------------------------------------------------------------
# Random needle generators
# ---------------------------------------------------------------------------

def random_arc_density(
    rng: np.random.Generator,
    m: int,
    norm: Optional[NormDescriptor] = None,
    grid_size: int = 1024,
    span_range: tuple = (0.8, 2.4),
    funcs_range: tuple = (2, 6),
    modulus: Optional[ModulusCurve] = None,
    plane: Optional[tuple] = None,
) -> ArcDensity:
    """Draw a weakly m-concave arc density.

    The 1-homogeneous extension is the minimum of finitely many linear
    functionals kept positive on the cone over the arc; its restriction to
    the arc, raised to the power m and normalized, is weakly m-concave by
    construction for any valid modulus curve of the norm.
    """
    if norm is None:
        norm = euclidean_norm(m + 2)  # ambient n + 1 with k = 1
    if modulus is None:
        modulus = euclidean_modulus_curve()
    length = rng.uniform(*span_range)
    start = rng.uniform(0.0, 2.0 * math.pi)
    grid = start + np.linspace(0.0, length, grid_size)
    lo, hi = grid[-1] - math.pi / 2.0 + 0.05, grid[0] + math.pi / 2.0 - 0.05
    n_funcs = int(rng.integers(funcs_range[0], funcs_range[1] + 1))
    phases = rng.uniform(lo, hi, size=n_funcs)
    scales = np.exp(rng.uniform(math.log(0.3), math.log(3.0), size=n_funcs))
    if plane is None and norm.kind != "euclidean":
        a = rng.standard_normal(norm.dim)
        a /= np.linalg.norm(a)
        b = rng.standard_normal(norm.dim)
        b -= (b @ a) * a
        b /= np.linalg.norm(b)
        plane = (a, b)
    # Section radius enters through the homogeneous extension: the linear
    # functional at the unit-norm point x(theta) is r(theta) * cos offset.
    if plane is None:
        radii = np.ones(grid_size)
    else:
        u, v = plane
        dirs = np.outer(np.cos(grid), u) + np.outer(np.sin(grid), v)
        radii = 1.0 / np.asarray(norm_eval(norm, dirs))
    h = np.min(scales[None, :] * np.cos(grid[:, None] - phases[None, :]),
               axis=1) * radii
    profile = np.power(h, m)
    values = _normalized_profile(norm, grid, profile, plane)
    return ArcDensity(norm=norm, grid=grid, values=values, m=m,
                      modulus=modulus, plane=plane)


# ---------------------------------------------------------------------------
# Gridded cap needles on the round 2-sphere (k = 2, desk scale)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CapDensity:
    """A density on a geodesic cap of the round 2-sphere, on a polar grid
    (t = geodesic angle from the cap center, omega = azimuth)."""

    cap_angle: float
    t_grid: np.ndarray
    omega_grid: np.ndarray
    values: np.ndarray  # (T, W)
    m: int
    modulus: ModulusCurve

    def __post_init__(self):
        t = np.asarray(self.t_grid, dtype=float)
        om = np.asarray(self.omega_grid, dtype=float)
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "t_grid", t)
        object.__setattr__(self, "omega_grid", om)
        object.__setattr__(self, "values", v)
        if v.shape != (t.size, om.size):
            raise ValueError("values must have shape (len(t), len(omega))")
        if np.any(v < 0):
            raise ValueError("density values must be nonnegative")
        weight = np.sin(t)[:, None] * np.ones_like(om)[None, :]
        total = float(np.trapezoid(np.trapezoid(v * weight, om, axis=1), t))
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"density must integrate to 1, got {total:.12f}")

    def grid_points(self) -> np.ndarray:
        t = self.t_grid[:, None]
        om = self.omega_grid[None, :]
        return np.stack([np.sin(t) * np.cos(om) * np.ones_like(om),
                         np.sin(t) * np.sin(om) * np.ones_like(om),
                         np.cos(t) * np.ones_like(om)], axis=-1)

    @property
    def argmax_indices(self) -> tuple:
        flat = int(np.argmax(self.values))
        return np.unravel_index(flat, self.values.shape)

    def ball_and_outer_mass(self, eps: float) -> tuple[float, float]:
        """(mu(B(z, eps)), mu(B(z, 2 eps)^c)) in chordal distance around the
        density maximum z, by masked 2-D trapezoid quadrature."""
        pts = self.grid_points()
        iz = self.argmax_indices
        z = pts[iz]
        dist = np.linalg.norm(pts - z, axis=-1)
        w = np.sin(self.t_grid)[:, None] * self.values
        def mass(mask):
            return float(np.trapezoid(
                np.trapezoid(np.where(mask, w, 0.0), self.omega_grid, axis=1),
                self.t_grid))
        ball = mass(dist <= eps)
        outer = 1.0 - mass(dist <= 2.0 * eps)
        return ball, outer


def random_cap_density(
    rng: np.random.Generator,
    m: int,
    cap_angle: float = 0.9,
    t_points: int = 160,
    omega_points: int = 320,
    funcs_range: tuple = (2, 5),
    modulus: Optional[ModulusCurve] = None,
) -> CapDensity:
    """Weakly m-concave density on a geodesic cap, built like the arc
    generator from a minimum of linear functionals positive on the cone."""
    if not (0 < cap_angle < math.pi / 2):
        raise ValueError("cap_angle must lie in (0, pi/2)")
    if modulus is None:
        modulus = euclidean_modulus_curve()
    t = np.linspace(0.0, cap_angle, t_points)
    om = np.linspace(0.0, 2.0 * math.pi, omega_points)
    pts = np.stack([np.outer(np.sin(t), np.cos(om)),
                    np.outer(np.sin(t), np.sin(om)),
                    np.outer(np.cos(t), np.ones_like(om))], axis=-1)
    n_funcs = int(rng.integers(funcs_range[0], funcs_range[1] + 1))
    margin = 0.1
    h = np.full(pts.shape[:2], np.inf)
    for _ in range(n_funcs):
        # Functional directions confined to a cap around the pole keep the
        # minimum positive on the cone over the needle cap.
        tilt = rng.uniform(0.0, max(1e-3, math.pi / 2.0 - cap_angle - margin))
        az = rng.uniform(0.0, 2.0 * math.pi)
        c = np.array([math.sin(tilt) * math.cos(az),
                      math.sin(tilt) * math.sin(az), math.cos(tilt)])
        scale = math.exp(rng.uniform(math.log(0.3), math.log(3.0)))
        h = np.minimum(h, scale * (pts @ c))
    vals = np.power(h, m)
    weight = np.sin(t)[:, None] * np.ones_like(om)[None, :]
    vals = vals / np.trapezoid(np.trapezoid(vals * weight, om, axis=1), t)
    return CapDensity(cap_angle=cap_angle, t_grid=t, omega_grid=om,
                      values=vals, m=m, modulus=modulus)


# ---------------------------------------------------------------------------
# Convex sets on the round 2-sphere and empirically derived densities
# ---------------------------------------------------------------------------

class EmptyConvexSetError(ValueError):
    """Rejection sampling found no points of the convex set."""


class NonConvexSpecError(ValueError):
    """The generated set failed the sampled convexity validation."""


@dataclass(frozen=True)
class ConvexCapSpec:
    """A lune of the round sphere S^2: the wedge of azimuth within
    ``half_angle`` of a meridian half-circle about ``axis``. Convex for
    half-angles up to pi/2, which ``lune_spec`` enforces; convexity is
    validated by sampling."""

    axis: np.ndarray
    half_angle: float
    norm: NormDescriptor = field(default_factory=lambda: euclidean_norm(3))

    def contains(self, points: np.ndarray) -> np.ndarray:
        u, v = _axis_frame(self.axis)
        points = np.atleast_2d(points)
        az = np.arctan2(points @ v, points @ u)
        return np.abs(az) <= self.half_angle


def _axis_frame(axis):
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    helper = np.array([1.0, 0.0, 0.0])
    if abs(axis @ helper) > 0.9:
        helper = np.array([0.0, 1.0, 0.0])
    u = helper - (helper @ axis) * axis
    u /= np.linalg.norm(u)
    v = np.cross(axis, u)
    return u, v


def lune_spec(half_angle: float, axis=(0.0, 0.0, 1.0)) -> ConvexCapSpec:
    if not (0 < half_angle <= math.pi / 2):
        raise ValueError("lune half-angle must lie in (0, pi/2]")
    return ConvexCapSpec(axis=np.asarray(axis, dtype=float),
                         half_angle=float(half_angle))


def validate_convexity(spec: ConvexCapSpec, samples: int = 4000,
                       seed: int = 0) -> bool:
    """Sampled geodesic convexity: for random point pairs in the set, the
    normalized convex combinations must stay in the set."""
    batch = sample_conical(spec.norm, samples, seed)
    inside = batch.points[spec.contains(batch.points)]
    if inside.shape[0] < 8:
        raise EmptyConvexSetError("too few sample points land in the set")
    rng = rng_stream(seed, 7)
    n_pairs = min(2000, inside.shape[0] ** 2)
    i = rng.integers(0, inside.shape[0], size=n_pairs)
    j = rng.integers(0, inside.shape[0], size=n_pairs)
    x, y = inside[i], inside[j]
    ok = np.ones(n_pairs, dtype=bool)
    for lam in (0.25, 0.5, 0.75):
        mid = lam * x + (1.0 - lam) * y
        norms = np.linalg.norm(mid, axis=-1)
        good = norms > 1e-6  # skip near-antipodal pairs
        ok[good] &= spec.contains(mid[good] / norms[good, None])
    return bool(np.all(ok))


@dataclass(frozen=True)
class DerivedDensityDiagnostics:
    alphas: tuple
    bin_centers: np.ndarray
    densities: tuple            # theta-densities, one per alpha
    accepted: tuple             # accepted sample counts, one per alpha
    l1_deltas: tuple            # successive L1 distances
    converged: bool             # successive L1 within the sampling noise floor
    l1_vs_limit: float          # L1 distance of the last density to sin(theta)/2
    sup_density: float          # sup of density w.r.t. the great-circle cone measure
    sup_density_bound: float
    homogeneity: tuple          # (t, observed, expected, sigma) rows
    radial_exponent: float      # fitted exponent of the radial mass law
    density_exponent: float     # implied homogeneity degree of the cone density
    small_ball: tuple           # (theta, r, mass, bound) rows
    small_ball_constant: float  # tightest observed constant mass * rho / r
    cap_bound: tuple            # (theta, r, mass, lower_bound) rows
    ok: bool


def derived_density_estimate(
    specs: Sequence[ConvexCapSpec],
    sample_budget: int,
    seed: int,
    bins: int = 40,
    probes: int = 20,
) -> tuple[ArcDensity, DerivedDensityDiagnostics]:
    """Empirical density of the measure derived from a shrinking family of
    lunes on the round 2-sphere.

    Samples the cone measure conditioned on each lune, bins the colatitude,
    and checks: convergence along the family, the cubic radial mass law of
    the cone over the set, the bounded-density estimate
    sup <= 2^(n+1) / mu_1(S), the small-ball bound 2^(n+2) r / rho, and the
    projected cap lower bound with angle phi(r) = 2 asin(r / (4 sqrt(n+1))).
    """
    if not specs:
        raise ValueError("need at least one spec")
    norm = specs[0].norm
    n = norm.sphere_dim
    if n != 2:
        raise ValueError("desk-scale reconstruction runs on the 2-sphere")
    for spec in specs:
        if not validate_convexity(spec, seed=seed):
            raise NonConvexSpecError("spec failed convexity validation")

    edges = np.linspace(0.0, math.pi, bins + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    axis = np.asarray(specs[0].axis, dtype=float)
    axis = axis / np.linalg.norm(axis)

    densities = []
    accepted_counts = []
    chunk = 1_000_000
    for idx, spec in enumerate(specs):
        counts = np.zeros(bins)
        accepted = 0
        drawn = 0
        piece = 0
        while drawn < sample_budget:
            take = min(chunk, sample_budget - drawn)
            pts = sample_conical(norm, take, derive_seed(seed, idx, piece)).points
            keep = pts[spec.contains(pts)]
            theta = np.arccos(np.clip(keep @ axis, -1.0, 1.0))
            counts += np.histogram(theta, bins=edges)[0]
            accepted += keep.shape[0]
            drawn += take
            piece += 1
        if accepted < 1000:
            raise EmptyConvexSetError(
                f"insufficient acceptance: {accepted} points in budget")
        densities.append(counts / (accepted * (edges[1] - edges[0])))
        accepted_counts.append(accepted)

    l1 = [float(np.sum(np.abs(densities[i + 1] - densities[i]))
                * (edges[1] - edges[0])) for i in range(len(densities) - 1)]
    # Successive estimates should differ by no more than their combined
    # binomial noise floor (L1 of binned noise is about 0.8 sqrt(bins / N)).
    converged = all(
        delta <= 3.0 * 0.8 * math.sqrt(bins) *
        (accepted_counts[i] ** -0.5 + accepted_counts[i + 1] ** -0.5) + 0.01
        for i, delta in enumerate(l1)
    )
    limit = 0.5 * np.sin(centers)
    l1_vs_limit = float(np.sum(np.abs(densities[-1] - limit)) * (edges[1] - edges[0]))

    # Density w.r.t. the normalized great-circle cone measure d theta / 2 pi;
    # the support is a half circle, so mu_1(S) = 1/2.
    sup_density = float(densities[-1].max() * 2.0 * math.pi)
    sup_bound = 2.0 ** (n + 1) / 0.5

    # Radial mass law of the cone over the smallest lune.
    ball_pts = sample_in_ball(norm, sample_budget // 4, derive_seed(seed, 99, 0))
    r = np.linalg.norm(ball_pts, axis=-1)
    ok_r = r > 0
    dirs = ball_pts[ok_r] / r[ok_r, None]
    in_cone = specs[-1].contains(dirs)
    radii = r[ok_r][in_cone]
    homog_rows = []
    homog_ok = True
    for t in (0.5, 0.75):
        obs = float(np.mean(radii <= t))
        exp = t ** (n + 1)
        sigma = math.sqrt(exp * (1.0 - exp) / radii.size)
        homog_rows.append((t, obs, exp, sigma))
        homog_ok = homog_ok and abs(obs - exp) <= 3.0 * sigma
    lo_m, hi_m = float(np.mean(radii <= 0.5)), float(np.mean(radii <= 0.75))
    radial_exponent = math.log(hi_m / lo_m) / math.log(0.75 / 0.5)

    rho = 2.0  # norm diameter of the half-circle support (antipodal chord)
    rng = rng_stream(seed, 5)
    small_rows = []
    tight = 0.0
    cap_rows = []
    ok = homog_ok and sup_density <= sup_bound
    width = edges[1] - edges[0]
    for _ in range(probes):
        theta_x = float(rng.uniform(0.1, math.pi - 0.1))
        r_probe = float(rng.uniform(0.05, 0.8))
        half = 2.0 * math.asin(min(1.0, r_probe / 2.0))
        window = (centers >= theta_x - half) & (centers <= theta_x + half)
        mass = float(np.sum(densities[-1][window]) * width)
        bound = 2.0 ** (n + 2) * r_probe / rho
        small_rows.append((theta_x, r_probe, mass, bound))
        tight = max(tight, mass * rho / r_probe)
        phi = 2.0 * math.asin(r_probe / (4.0 * math.sqrt(n + 1.0)))
        cap_lower = 0.5 * (1.0 - math.cos(phi))
        cap_rows.append((theta_x, r_probe, mass, cap_lower))
        ok = ok and mass <= bound and mass >= cap_lower

    u0 = _axis_frame(axis)[0]
    estimate = ArcDensity.from_profile(
        norm=norm,
        grid=centers,  # bin centers span pi - pi/bins < pi
        profile=densities[-1],
        m=n - 1,
        modulus=euclidean_modulus_curve(),
        plane=(axis, u0),
    )
    diag = DerivedDensityDiagnostics(
        alphas=tuple(s.half_angle for s in specs),
        bin_centers=centers,
        densities=tuple(densities),
        accepted=tuple(accepted_counts),
        l1_deltas=tuple(l1),
        converged=bool(converged),
        l1_vs_limit=l1_vs_limit,
        sup_density=sup_density,
        sup_density_bound=sup_bound,
        homogeneity=tuple(homog_rows),
        radial_exponent=radial_exponent,
        # radial mass scales like r^(n+1); peeling off the k+1 powers of the
        # support's own cone leaves the density's homogeneity degree n - k
        density_exponent=radial_exponent - 2.0,
        small_ball=tuple(small_rows),
        small_ball_constant=tight,
        cap_bound=tuple(cap_rows),
        ok=bool(ok and converged),
    )
    return estimate, diag


# ---------------------------------------------------------------------------
# Bulk property suite over random needles
# ---------------------------------------------------------------------------

def needle_suite(
    trials: int,
    seed: int,
    n_range: tuple = (2, 8),
    eps_choices: Sequence[float] = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6),
    grid_size: int = 1024,
    f_upper: str = F_UPPER_PI,
) -> list[dict]:
    """Run the lemma-chain checks over random weakly concave arc needles
    (k = 1) and summarize one report per check:
    {lemma, trials, violations, worst_margin, seed}.
    """
    rng = rng_stream(seed, 0)
    modulus = euclidean_modulus_curve()
    eps_choices = tuple(float(e) for e in eps_choices)
    stats = {name: {"violations": 0, "worst": math.inf}
             for name in ("max_structure", "decay", "mass_ratio", "ball_mass")}
    k = 1
    for _ in range(trials):
        n = int(rng.integers(n_range[0], n_range[1] + 1))
        eps = float(eps_choices[rng.integers(0, len(eps_choices))])
        d = random_arc_density(rng, m=n - k, grid_size=grid_size,
                               modulus=modulus)
        ms = max_structure_check(d)
        if not ms.unique_max or ms.local_minima > 0:
            stats["max_structure"]["violations"] += 1
        dec = decay_bound_check(d, ms.argmax_index, eps)
        if not dec.ok:
            stats["decay"]["violations"] += 1
        stats["decay"]["worst"] = min(stats["decay"]["worst"], dec.worst_margin)

        nb = needle_ratio_and_ball(d, eps, n, k, f_upper)
        ratio_margin = nb.ratio_bound + QUADRATURE_TOL - nb.ratio
        if ratio_margin < 0:
            stats["mass_ratio"]["violations"] += 1
        stats["mass_ratio"]["worst"] = min(stats["mass_ratio"]["worst"],
                                           ratio_margin)
        ball_margin = nb.ball_mass - nb.ball_bound + QUADRATURE_TOL
        if ball_margin < 0:
            stats["ball_mass"]["violations"] += 1
        stats["ball_mass"]["worst"] = min(stats["ball_mass"]["worst"],
                                          ball_margin)
    reports = []
    for name, rec in stats.items():
        worst = rec["worst"]
        reports.append({
            "lemma": name,
            "trials": trials,
            "violations": rec["violations"],
            "worst_margin": None if worst is math.inf else worst,
            "seed": seed,
        })
    return reports
