"""Single-needle localization machinery and its property checks.

A needle is a low-dimensional convex piece of the unit sphere carrying a
probability density whose (1/m)-th power obeys a midpoint concavity
inequality corrected by the modulus of convexity ("weak m-concavity"). This
module builds such densities on arcs (k = 1), checks the decay / mass-ratio /
ball-mass chain that the waist bound rests on, and reconstructs densities
derived from shrinking lunes empirically.
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import InitVar, dataclass, field
from typing import ClassVar, Optional, Sequence

import numpy as np

from .bounds import (
    F_UPPER_PI,
    BoundInputs,
    sine_integrals,
    waist_lower_bound,
)
from .cone import rng_stream
from .norms import (
    ModulusCurve,
    NormDescriptor,
    euclidean_modulus_curve,
    euclidean_norm,
    norm_eval,
)

__all__ = [
    "ArcDensity",
    "ConvexCapSpec",
    "EmptyConvexSetError",
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
    "lune_spec",
    "derived_density_estimate",
    "needle_suite",
    "SUITE_MAX_N",
    "SUITE_MIN_EPS",
]

# Default slack for midpoint-interpolated concavity checks; sized to dominate
# the linear-interpolation error of f^(1/m) on grids of >= 1e3 points.
WEAK_CONCAVITY_TOL = 1e-6
# Slack for direct quadrature comparisons in the lemma-chain checks.
QUADRATURE_TOL = 1e-9
# How far below the maximum a grid value still counts as near-maximal, and
# how deep a dip must be to count as a local minimum.
MAX_STRUCTURE_TOL = 1e-9


# ---------------------------------------------------------------------------
# Arc densities (1-dimensional needles)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ArcDensity:
    """A density on an arc of the unit sphere.

    The arc is the section of the sphere by the 2-plane spanned by the
    orthonormal pair ``plane``, parametrized by the Euclidean angle theta;
    ``values`` is the density with respect to the normalized 1-dimensional
    cone measure of the arc, ``m`` the concavity exponent n - k >= 1 with
    k = 1.
    ``section``, if given, is the (directions, radii) pair that
    ``_section`` returns for the plane at the grid angles, so a caller that
    has it spares the norm evaluation.
    """

    k: ClassVar[int] = 1
    norm: NormDescriptor
    grid: np.ndarray
    values: np.ndarray
    m: int
    modulus: ModulusCurve
    plane: Optional[tuple] = None
    section: InitVar[Optional[tuple]] = None

    def __post_init__(self, section):
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        if grid.ndim != 1 or grid.size < 3:
            raise ValueError("grid must be 1-D with at least 3 points")
        if values.shape != grid.shape:
            raise ValueError("values must match grid shape")
        if np.any(np.diff(grid) <= 0):
            raise ValueError("grid must be strictly increasing")
        if np.any(values < 0):
            raise ValueError("density values must be nonnegative")
        if self.m < 1:
            raise ValueError("m = n - k must be >= 1")
        if grid[-1] - grid[0] >= math.pi:
            raise ValueError("arc must span less than half a section circle")
        if self.plane is None:
            object.__setattr__(self, "plane", _coordinate_plane(self.norm.dim))
        cos, sin = np.cos(grid), np.sin(grid)
        if section is None:
            section = _section(self.norm, self.plane, cos, sin)
        dirs, radii = section
        w = _cone_weight(grid, radii)
        object.__setattr__(self, "points", dirs * radii[:, None])
        object.__setattr__(self, "section2d",
                           np.column_stack([radii * cos, radii * sin]))
        object.__setattr__(self, "cone_weight", w)
        total = np.trapezoid(values * w, grid)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"density must integrate to 1, got {total:.12f}")

    @classmethod
    def from_profile(cls, norm, grid, profile, m, modulus, plane=None
                     ) -> "ArcDensity":
        """Normalize a nonnegative profile on the grid into an ArcDensity."""
        grid = np.asarray(grid, dtype=float)
        if plane is None:
            plane = _coordinate_plane(norm.dim)
        section = _section(norm, plane, np.cos(grid), np.sin(grid))
        values = _normalize(grid, np.asarray(profile, dtype=float),
                            _cone_weight(grid, section[1]))
        return cls(norm=norm, grid=grid, values=values, m=m, modulus=modulus,
                   plane=plane, section=section)

    @property
    def argmax_index(self) -> int:
        return int(np.argmax(self.values))

    def dist_to_index(self, idx: int) -> np.ndarray:
        """Norm distances from every grid point to grid point ``idx``."""
        if self.norm.is_round:
            return _section_dist(self.section2d[None, :, 0],
                                 self.section2d[None, :, 1],
                                 np.array([idx]))[0]
        return np.asarray(norm_eval(self.norm, self.points - self.points[idx]))

    def pair_dist(self, idx_i: np.ndarray, idx_j: np.ndarray) -> np.ndarray:
        if self.norm.is_round:
            d = self.section2d[idx_i] - self.section2d[idx_j]
            return np.hypot(d[:, 0], d[:, 1])
        return np.asarray(norm_eval(self.norm, self.points[idx_i] - self.points[idx_j]))

    def ball_and_outer_mass(self, eps: float) -> tuple[float, float]:
        """(mu(B(z, eps)), mu(B(z, 2 eps)^c)) in norm distance around the
        density maximum z, by trapezoid quadrature with linear
        interpolation at the balls' edges."""
        dist = self.dist_to_index(self.argmax_index)
        ball, within = _mass_below(
            self.grid[None], (self.values * self.cone_weight)[None],
            dist - np.array([eps, 2.0 * eps])[:, None, None])[:, 0]
        return float(ball), float(1.0 - within)


# The row kernels below take (B, G) arrays, one arc per row, and give each
# row the bits it has alone: elementwise ufuncs, reductions along the last
# axis and sums over each row's own compacted entries. The single-needle
# functions call them on one-row batches and ``needle_suite`` on blocks.


def _coordinate_plane(dim: int) -> tuple:
    u = np.zeros(dim)
    v = np.zeros(dim)
    u[0], v[1] = 1.0, 1.0
    return u, v


def _section(norm, plane, cos, sin):
    """The directions cos u + sin v of the plane (u, v) at angles with the
    given cosines and sines (any shape), shape cos.shape + (dim,), and the
    section radii 1 / ||direction||."""
    u, v = plane
    # Built coordinate-major, so norm_eval reads each coordinate as one
    # contiguous array.
    dirs = np.multiply.outer(u, cos) + np.multiply.outer(v, sin)
    dirs = np.moveaxis(dirs, 0, -1)
    return dirs, 1.0 / np.asarray(norm_eval(norm, dirs))


def _cone_weight(grid, radii):
    """The normalized 1-D cone measure in theta: the 2-D sector area
    element is (1/2) r(theta)^2 d theta, scaled to a probability weight."""
    w = radii**2
    return w / np.trapezoid(w, grid, axis=-1)[..., None]


def _normalize(grid, profile, w):
    """Scale each row of ``profile`` to integrate to 1 against ``w``."""
    return profile / np.trapezoid(profile * w, grid, axis=-1)[..., None]


def _section_dist(x, y, z):
    """Euclidean distances from every point of each row's planar section
    curve (x, y) to the row's point at index ``z``."""
    rows = np.arange(z.size)
    return np.hypot(x - x[rows, z][:, None], y - y[rows, z][:, None])


def _row_sums(terms, mask):
    """Each row's sum over its masked entries, for a mask of shape
    (..., G). ``terms`` holds the masked entries of all rows, row after
    row, so a row's sum runs over the same contiguous elements as
    ``np.sum(row[mask_row])`` and has its bits."""
    counts = np.count_nonzero(mask, axis=-1).ravel()
    ends = np.cumsum(counts)
    out = np.zeros(counts.size)
    one = counts == 1  # the sum of one element is that element
    out[one] = terms[ends[one] - 1]
    for r in np.flatnonzero(counts > 1).tolist():
        out[r] = np.add.reduce(terms[ends[r] - counts[r]:ends[r]])
    return out.reshape(mask.shape[:-1])


def _mass_below(grid, fw, s):
    """Row by row, the fw-mass of {theta : s(theta) <= 0}, trapezoid
    quadrature with linear interpolation at sign crossings. ``grid`` and
    ``fw`` have shape (B, G); ``s`` has shape (B, G), or (T, B, G) for T
    signed functions of the same rows, giving a (T, B) result."""
    h = np.diff(grid, axis=-1)
    f0, f1 = fw[:, :-1], fw[:, 1:]
    at_most, above = s <= 0, s > 0
    full = at_most[..., :-1] & at_most[..., 1:]
    out = _row_sums(np.broadcast_to(h * 0.5 * (f0 + f1), full.shape)[full],
                    full)
    enter = at_most[..., :-1] & above[..., 1:]
    idx, t, _, fc = _crossings(h, f0, f1, s, enter)
    out += _row_sums(h[idx] * t * 0.5 * (f0[idx] + fc), enter)
    leave = above[..., :-1] & at_most[..., 1:]
    idx, _, rest, fc = _crossings(h, f0, f1, s, leave)
    out += _row_sums(h[idx] * rest * 0.5 * (fc + f1[idx]), leave)
    return out


def _crossings(h, f0, f1, s, mask):
    """(row, interval) indices of the masked sign changes of ``s``, row
    after row, with the fractions t and 1 - t of each interval before and
    after the crossing and the interpolated fw at the crossing. 1 - t is
    s1 / (s1 - s0): where s0 dwarfs s1, t rounds to 1 and 1 - t would
    lose all of its digits."""
    row, j = np.divmod(np.flatnonzero(mask), mask.shape[-1])
    s = s.reshape(-1, s.shape[-1])
    s0, s1 = s[row, j], s[row, j + 1]
    idx = (row % h.shape[0], j)
    t = -s0 / (s1 - s0)
    return idx, t, s1 / (s1 - s0), f0[idx] + t * (f1[idx] - f0[idx])


# ---------------------------------------------------------------------------
# Weak concavity and the lemma chain
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeakConcavityReport:
    ok: bool
    checked_pairs: int
    witness: Optional[tuple] = None  # (i, j) of the first violating pair
    worst_margin: float = math.inf   # min over pairs of rhs + tol - lhs


def is_weakly_concave(d: ArcDensity) -> WeakConcavityReport:
    """Check the corrected midpoint concavity of f^(1/m) over grid pairs.

    For each pair (x, y) with radial midpoint z = (x+y)/2 / ||(x+y)/2||,
    requires (f^(1/m)(x) + f^(1/m)(y)) / 2 <= (1 - delta(||x-y||)) f^(1/m)(z)
    plus a slack of WEAK_CONCAVITY_TOL * (1 + rhs) absorbing the grid
    interpolation of z.
    """
    g = d.grid
    n = g.size
    hroot = np.power(d.values, 1.0 / d.m)
    idx_i, idx_j = np.triu_indices(n, k=1)
    dist = d.pair_dist(idx_i, idx_j)
    mid = 0.5 * (d.section2d[idx_i] + d.section2d[idx_j])
    theta_mid = np.arctan2(mid[:, 1], mid[:, 0])
    center = 0.5 * (g[0] + g[-1])
    theta_mid += 2.0 * math.pi * np.round((center - theta_mid) / (2.0 * math.pi))
    lhs = 0.5 * (hroot[idx_i] + hroot[idx_j])
    rhs = (1.0 - np.asarray(d.modulus(dist))) * np.interp(theta_mid, g, hroot)
    margin = rhs + WEAK_CONCAVITY_TOL * (1.0 + np.abs(rhs)) - lhs
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


def max_structure_check(d: ArcDensity) -> MaxStructureReport:
    """A weakly concave density has one maximum point and no local minima.

    On the grid, the near-maximum set (within MAX_STRUCTURE_TOL) must be
    one contiguous run of indices (a smooth peak straddled by two grid
    points is fine; two separated near-max plateaus are not), and no
    interior point may be a strict local minimum beyond that tolerance.
    """
    unique, minima, argmax = _max_structure(d.values[None])
    return MaxStructureReport(unique_max=bool(unique[0]),
                              local_minima=int(minima[0]),
                              argmax_index=int(argmax[0]))


def _max_structure(v):
    """Row kernel of :func:`max_structure_check`: (unique max, local minima
    count, argmax index) per row."""
    tol = MAX_STRUCTURE_TOL
    near = v >= (v.max(axis=1) - tol)[:, None]
    runs = near[:, 0] + np.count_nonzero(near[:, 1:] & ~near[:, :-1], axis=1)
    inner = v[:, 1:-1]
    minima = (inner < v[:, :-2] - tol) & (inner < v[:, 2:] - tol)
    return runs == 1, np.count_nonzero(minima, axis=1), np.argmax(v, axis=1)


@dataclass(frozen=True)
class DecayReport:
    ok: bool
    checked: int
    vacuous: bool
    worst_margin: float = math.inf


def decay_bound_check(d: ArcDensity, eps: float) -> DecayReport:
    """Decay estimate away from the density maximum z (the grid argmax):
    every grid point x with ||x - z|| >= 2 eps must satisfy

        f(x) <= (1 - 2 delta(eps))^m * min f on the [z, x] segment within
                the eps-ball around z,

    the minimum taken over grid points (including z itself), up to a slack
    of QUADRATURE_TOL. Vacuously true if nothing lies outside the 2 eps
    ball.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    z = d.argmax_index
    ok, checked, worst = _decay(
        d.values[None], d.dist_to_index(z)[None], np.array([z]),
        np.array([eps]), np.array([_shrink(d.modulus, eps, d.m)]))
    return DecayReport(ok=bool(ok[0]), checked=int(checked[0]),
                       vacuous=bool(checked[0] == 0),
                       worst_margin=float(worst[0]))


def _shrink(modulus: ModulusCurve, eps: float, m: int) -> float:
    """The decay factor (1 - 2 delta(eps))^m, clipped at 0."""
    return max(0.0, 1.0 - 2.0 * float(modulus(eps))) ** m


def _decay(v, dist, z, eps, factor):
    """Row kernel of :func:`decay_bound_check`: (ok, checked, worst margin)
    per row, for the rows' centers ``z``, radii ``eps`` and factors."""
    idx = np.arange(v.shape[1])
    rows = np.arange(z.size)
    near = dist <= eps[:, None]
    far = dist >= 2.0 * eps[:, None]
    ok = np.ones(z.size, dtype=bool)
    checked = np.zeros(z.size, dtype=int)
    worst = np.full(z.size, math.inf)
    for side in (idx >= z[:, None], idx <= z[:, None]):
        in_ball = side & near
        m_in = np.where(in_ball, v, np.inf).min(axis=1)
        m_in = np.where(in_ball.any(axis=1), m_in, v[rows, z])
        out = side & far
        margin = np.where(out, (factor * m_in + QUADRATURE_TOL)[:, None] - v,
                          np.inf)
        side_worst = margin.min(axis=1)
        checked += np.count_nonzero(out, axis=1)
        worst = np.minimum(worst, side_worst)
        ok &= side_worst >= 0
    return ok, checked, worst


@dataclass(frozen=True)
class NeedleBoundsReport:
    ratio: float
    ratio_bound: float
    ball_mass: float
    ball_bound: float
    ratio_ok: bool
    ball_ok: bool


def needle_ratio_and_ball(d, eps: float) -> NeedleBoundsReport:
    """Quadrature check of the mass-ratio and ball-mass estimates around the
    density maximum z of an ArcDensity, with n = m + k and k = 1:

        mu(B(z, 2 eps)^c) / mu(B(z, eps))
            <= (1 - 2 delta(eps))^(n-k) (k+1)^(k+1) * far_mass / near_mass

    and mu(B(z, eps)) >= the waist lower bound at eps, with the sine masses
    taken at eps up to pi, each up to a slack of QUADRATURE_TOL.
    """
    ball, outer = d.ball_and_outer_mass(eps)
    _, ratio_bound, ball_bound = _needle_bounds(d.m + d.k, d.k, eps,
                                                d.modulus, F_UPPER_PI)
    ratio = outer / ball if ball > 0 else math.inf
    return NeedleBoundsReport(
        ratio=ratio, ratio_bound=ratio_bound,
        ball_mass=ball, ball_bound=ball_bound,
        ratio_ok=bool(ratio <= ratio_bound + QUADRATURE_TOL),
        ball_ok=bool(ball >= ball_bound - QUADRATURE_TOL),
    )


def _needle_bounds(n, k, eps, modulus, f_upper) -> tuple[float, float, float]:
    """The eps terms of the needle checks: the decay factor
    (1 - 2 delta(eps))^(n-k), the mass-ratio bound and the waist bound."""
    F, G = sine_integrals(k, eps, f_upper)
    shrink = _shrink(modulus, eps, n - k)
    # G underflows to 0 at tiny eps, where the waist bound is 0 and the
    # ratio bound is vacuous
    ratio_bound = (shrink * (k + 1.0) ** (k + 1.0) * (F / G) if G > 0.0
                   else math.inf)
    ball_bound = waist_lower_bound(
        BoundInputs(n=n, k=k, eps=eps, modulus=modulus, f_upper=f_upper)
    ).value
    return shrink, ratio_bound, ball_bound


# ---------------------------------------------------------------------------
# Random needle generators
# ---------------------------------------------------------------------------

def random_arc_density(
    rng: np.random.Generator,
    m: int,
    norm: Optional[NormDescriptor] = None,
    grid_size: int = 1024,
    modulus: Optional[ModulusCurve] = None,
) -> ArcDensity:
    """Draw a weakly m-concave arc density.

    The 1-homogeneous extension is the minimum of finitely many linear
    functionals kept positive on the cone over the arc; its restriction to
    the arc, raised to the power m and normalized, is weakly m-concave by
    construction for any valid modulus curve of the norm. The arc lies in
    the first coordinate plane of a round sphere, and in a random plane of
    any other.
    """
    if norm is None:
        norm = euclidean_norm(m + 2)  # ambient n + 1 with k = 1
    if modulus is None:
        modulus = euclidean_modulus_curve()
    length, start, phases, scales = _draw_arc(rng)
    grid = start + np.linspace(0.0, length, grid_size)
    if norm.is_round:
        plane = _coordinate_plane(norm.dim)
    else:
        a = rng.standard_normal(norm.dim)
        a /= np.linalg.norm(a)
        b = rng.standard_normal(norm.dim)
        b -= (b @ a) * a
        b /= np.linalg.norm(b)
        plane = (a, b)
    values, dirs, radii, _ = _arc_rows(grid[None], [phases], [scales],
                                       np.array([m]), norm, plane)
    return ArcDensity(norm=norm, grid=grid, values=values[0], m=m,
                      modulus=modulus, plane=plane, section=(dirs[0], radii[0]))


def _arc_rows(grid, phases, scales, m, norm, plane):
    """Arc densities for a (B, G) block of grids in one plane of ``norm``:
    the row's envelope of its functionals (``_envelope``), raised to the
    row's exponent in ``m`` and normalized against the cone weight. Returns
    (values, directions, section radii, cone weight)."""
    h = _envelope(grid, phases, scales)
    dirs, radii = _section(norm, plane, np.cos(grid), np.sin(grid))
    if not norm.is_round:
        # Section radius enters through the homogeneous extension: the
        # linear functional at the unit-norm point x(theta) is
        # r(theta) * cos offset. On the round sphere r is 1.
        h = h * radii
    # One power call per exponent: with an array of exponents np.power
    # rounds differently from the scalar-exponent call of a lone row.
    profile = np.empty_like(grid)
    for mi in np.unique(m).tolist():
        rows = np.flatnonzero(m == mi)
        profile[rows] = np.power(h[rows], mi)
    w = _cone_weight(grid, radii)
    return _normalize(grid, profile, w), dirs, radii, w


def _draw_arc(rng):
    """Draw an arc and its linear functionals: length in [0.8, 2.4], start
    angle, and the phases and scales of 2 to 6 functionals. The phases keep
    every functional positive on the arc [start, start + length]."""
    length = rng.uniform(0.8, _MAX_ARC_LENGTH)
    start = rng.uniform(0.0, 2.0 * math.pi)
    lo = start + length - math.pi / 2.0 + 0.05
    hi = start + math.pi / 2.0 - 0.05
    n_funcs = int(rng.integers(2, 7))
    phases = rng.uniform(lo, hi, size=n_funcs)
    scales = np.exp(rng.uniform(math.log(0.3), math.log(3.0), size=n_funcs))
    return length, start, phases, scales


def _envelope(grid, phases, scales):
    """Row by row, min_j scales_j cos(grid - phases_j) over the row's own
    functionals: grid (B, G); phases and scales hold one 1-D array per
    row."""
    counts = np.array([p.size for p in phases])
    # Rows by decreasing count: the rows with a j-th functional are a prefix.
    order = np.argsort(-counts, kind="stable")
    g = grid[order]
    h = np.full(g.shape, np.inf)
    buf = np.empty_like(g)
    for j in range(counts.max()):
        rows = order[counts[order] > j].tolist()
        k = len(rows)
        t = np.subtract(g[:k], np.array([phases[r][j] for r in rows])[:, None],
                        out=buf[:k])
        np.cos(t, out=t)
        t *= np.array([scales[r][j] for r in rows])[:, None]
        np.minimum(h[:k], t, out=h[:k])
    out = np.empty_like(h)
    out[order] = h
    return out


# ---------------------------------------------------------------------------
# Convex sets on the round 2-sphere and empirically derived densities
# ---------------------------------------------------------------------------

class EmptyConvexSetError(ValueError):
    """Too few of the sample budget's draws land in the convex set."""


@dataclass(frozen=True)
class ConvexCapSpec:
    """A lune of the unit 2-sphere of ``norm``: the wedge of azimuth within
    ``half_angle`` of a meridian half-circle about ``axis``.

    The lune is the sphere cut by two half-spaces whose boundary planes
    contain the axis, at azimuths -alpha and alpha. Where 2 alpha <= pi
    their intersection is a convex cone, whose trace on the sphere is
    convex for every norm; beyond pi the wedge is a union of half-spaces,
    not convex. So the spec is convex exactly when 0 < alpha <= pi/2, and
    construction refuses any other half-angle, any norm whose unit sphere
    is not 2-dimensional, and any axis that is not a finite nonzero vector
    of length ``norm.dim``. The axis is kept as a tuple of floats, so specs
    compare and hash by value.
    """

    axis: tuple
    half_angle: float
    norm: NormDescriptor = field(default_factory=lambda: euclidean_norm(3))

    def __post_init__(self):
        if self.norm.sphere_dim != 2:
            raise ValueError(
                f"a lune lies on a 2-sphere, got {self.norm} (sphere "
                f"dimension {self.norm.sphere_dim})")
        axis = np.asarray(self.axis, dtype=float)
        if (axis.shape != (self.norm.dim,) or not np.all(np.isfinite(axis))
                or not np.any(axis)):
            raise ValueError(
                f"lune axis must be a finite nonzero vector of length "
                f"{self.norm.dim}, got {axis.tolist()}")
        half_angle = float(self.half_angle)
        if not 0 < half_angle <= math.pi / 2:
            raise ValueError("lune half-angle must lie in (0, pi/2]")
        object.__setattr__(self, "axis", tuple(axis.tolist()))
        object.__setattr__(self, "half_angle", half_angle)

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
    return ConvexCapSpec(axis=axis, half_angle=half_angle)


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
    small_ball: tuple           # (theta, r, mass, bound) rows
    small_ball_constant: float  # tightest observed constant mass * rho / r
    cap_bound: tuple            # (theta, r, mass, lower_bound) rows
    ok: bool


def derived_density_estimate(
    specs: Sequence[ConvexCapSpec],
    sample_budget: int,
    seed: int,
) -> tuple[ArcDensity, DerivedDensityDiagnostics]:
    """Empirical density of the measure derived from a shrinking family of
    lunes about one axis on the round 2-sphere.

    Draws the colatitude histogram about the shared axis, in 40 bins, of
    the cone measure conditioned on each lune, and checks: convergence
    along the family, the bounded-density estimate sup <= 2^(n+1) /
    mu_1(S), and at 20 random probes the small-ball bound 2^(n+2) r / rho
    and the projected cap lower bound with angle
    phi(r) = 2 asin(r / (4 sqrt(n+1))).

    ``sample_budget`` counts cone-measure draws per lune. A lune of
    half-angle alpha holds cone measure alpha / pi, so each lune's accepted
    count is Binomial(sample_budget, alpha / pi), as rejection from the
    budget would leave it. The uniform measure of S^2 is dz dphi / (4 pi)
    in the axis coordinate z and the azimuth phi (Archimedes), so on the
    lune z is U(-1, 1) whatever alpha is. The bin counts of the accepted
    colatitudes arccos z are therefore Multinomial(accepted, p), with
    p_i = (cos e_i - cos e_(i+1)) / 2 for the bin edges e, and are drawn
    from that law directly. Only round-sphere norms are accepted: this law,
    the limit sin(theta) / 2 and the constants rho = 2 and mu_1(S) = 1/2
    hold there alone.
    """
    if not specs:
        raise ValueError("need at least one spec")
    for spec in specs:
        if not spec.norm.is_round:
            raise ValueError(
                f"lune reconstruction needs a round-sphere norm, got {spec.norm}")
    norm = specs[0].norm
    n = norm.sphere_dim
    axis = np.asarray(specs[0].axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    for spec in specs[1:]:
        other = np.asarray(spec.axis, dtype=float)
        if not np.allclose(other / np.linalg.norm(other), axis,
                           rtol=0.0, atol=1e-12):
            raise ValueError(
                f"every lune of a family needs the axis {specs[0].axis}, "
                f"got {spec.axis}")

    bins = 40
    edges = np.linspace(0.0, math.pi, bins + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])

    # Stream paths under ``seed``: the probes take 5, and lune idx draws its
    # accepted count and then its bin counts from (11, idx).
    bin_mass = 0.5 * -np.diff(np.cos(edges))
    densities = []
    accepted_counts = []
    for idx, spec in enumerate(specs):
        rng = rng_stream(seed, 11, idx)
        accepted = int(rng.binomial(sample_budget, spec.half_angle / math.pi))
        if accepted < 1000:
            raise EmptyConvexSetError(
                f"insufficient acceptance: {accepted} points in budget")
        counts = rng.multinomial(accepted, bin_mass)
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

    rho = 2.0  # norm diameter of the half-circle support (antipodal chord)
    rng = rng_stream(seed, 5)
    small_rows = []
    tight = 0.0
    cap_rows = []
    ok = sup_density <= sup_bound
    width = edges[1] - edges[0]
    for _ in range(20):
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
        small_ball=tuple(small_rows),
        small_ball_constant=tight,
        cap_bound=tuple(cap_rows),
        ok=bool(ok and converged),
    )
    return estimate, diag


# ---------------------------------------------------------------------------
# Bulk property suite over random needles
# ---------------------------------------------------------------------------

# Trials per block of the needle suite, and the unit of work of its thread
# pool. At the default 1024-point grid a (block, grid) float array is
# 512 KB, and each worker's working set stays close to its core's caches.
# On a 2-vCPU Xeon host with two workers, 3000 trials at seed 2 took a
# median 0.32 s against 0.38 s in blocks of 256 (7 runs each), 10 000
# trials at seed 2024 took 1.06 s against 1.16 s (3 runs each), and the
# suite's peak memory was 14 MB against 56 MB.
_SUITE_BLOCK = 64
# Grid points per suite needle, as in random_arc_density's default.
_SUITE_GRID = 1024
# Longest arc _draw_arc draws.
_MAX_ARC_LENGTH = 2.4
# Smallest eps the suite checks: four grid spacings of its longest arc,
# about 9.4e-3. The checks read distances on the grid. At eps 1e-3, below
# one spacing, 640 trials at each of seeds 1-3 gave 24, 13 and 9 decay
# violations on correct needles; at 2e-3, 5e-3 and 9.4e-3 they gave none.
SUITE_MIN_EPS = 4.0 * _MAX_ARC_LENGTH / (_SUITE_GRID - 1)
_SUITE_LEMMAS = ("max_structure", "decay", "mass_ratio", "ball_mass")
# Largest needle dimension the suite draws. _draw_arc keeps every envelope
# in [0.3 sin 0.05, 3]: scales lie in [0.3, 3], and each functional's phase
# sits at least 0.05 inside a quarter turn of both arc ends, so its cosine
# is at least cos(pi/2 - 0.05) = sin 0.05 on the arc. Hence every h^m with
# m = n - 1 <= 168 is a normal float (0.014994^168 is about 2.6e-307, above
# the smallest normal 2.2e-308, and 3^168 is far below the largest), and
# every drawn density normalizes to 1. At m = 169 the power can be
# subnormal and lose the digits the normalization needs.
SUITE_MAX_N = 169


def needle_suite(
    trials: int,
    seed: int,
    n_range: tuple = (2, 8),
    eps_choices: Sequence[float] = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6),
    f_upper: str = F_UPPER_PI,
) -> list[dict]:
    """Run the lemma-chain checks over random weakly concave arc needles
    (k = 1) and summarize one report per check:
    {lemma, trials, violations, worst_margin, seed}.

    ``trials`` is at least 1. Each trial draws n from ``n_range``
    (2 <= lo <= hi <= SUITE_MAX_N) and eps from ``eps_choices`` (each in
    [SUITE_MIN_EPS, 2]). Needles are drawn in blocks of trials on the
    calling thread, one block after another, and each block is checked by
    the row kernels of the single-needle checks on a thread pool of one
    worker per available CPU; every trial has the draws, values and margins
    it would have alone.
    """
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    eps_choices = tuple(float(e) for e in eps_choices)
    if not eps_choices or not all(SUITE_MIN_EPS <= e <= 2.0
                                  for e in eps_choices):
        raise ValueError(
            f"every eps choice must lie in [{SUITE_MIN_EPS:.6g}, 2], got "
            f"{eps_choices}")
    if not 2 <= n_range[0] <= n_range[1] <= SUITE_MAX_N:
        raise ValueError(
            f"n_range must satisfy 2 <= lo <= hi <= {SUITE_MAX_N}, got "
            f"{tuple(n_range)}")
    rng = rng_stream(seed, 0)
    modulus = euclidean_modulus_curve()
    terms = functools.cache(lambda n, eps: _needle_bounds(
        n, ArcDensity.k, eps, modulus, f_upper))
    sizes = [min(_SUITE_BLOCK, trials - first)
             for first in range(0, trials, _SUITE_BLOCK)]
    violations = dict.fromkeys(_SUITE_LEMMAS, 0)
    worst = dict.fromkeys(_SUITE_LEMMAS, math.inf)
    workers = min(len(os.sched_getaffinity(0)), len(sizes))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        # This thread draws the blocks in stream order and fills the cache
        # of ``terms``; the workers share nothing but their arguments.
        futures = [pool.submit(_check_block, *_draw_block(
            rng, size, n_range, eps_choices, terms)) for size in sizes]
        for future in futures:
            for name, (bad, margin) in future.result().items():
                violations[name] += int(np.count_nonzero(bad))
                if margin is not None:
                    worst[name] = min(worst[name], float(
                        np.min(margin, initial=math.inf)))
    return [{
        "lemma": name,
        "trials": trials,
        "violations": violations[name],
        "worst_margin": None if worst[name] is math.inf else worst[name],
        "seed": seed,
    } for name in _SUITE_LEMMAS]


def _draw_block(rng, count, n_range, eps_choices, terms) -> tuple:
    """Draw ``count`` suite trials from ``rng`` in the order lone trials
    draw them: the arguments (n, eps, arcs, bounds) of :func:`_check_block`.
    ``terms(n, eps)`` gives the _needle_bounds terms of a trial."""
    n = np.empty(count, dtype=int)
    eps = np.empty(count)
    lengths = np.empty(count)
    starts = np.empty(count)
    phases, scales = [], []
    for i in range(count):
        n[i] = rng.integers(n_range[0], n_range[1] + 1)
        eps[i] = eps_choices[rng.integers(0, len(eps_choices))]
        lengths[i], starts[i], p, c = _draw_arc(rng)
        phases.append(p)
        scales.append(c)
    bounds = np.array([terms(*key) for key in zip(n.tolist(), eps.tolist())]).T
    return n, eps, (lengths, starts, phases, scales), bounds


def _check_block(n, eps, arcs, bounds) -> dict:
    """Check drawn trials: {lemma: (violated, margin)}, one entry per trial
    (margin None for max_structure). Pure numpy on the arguments alone, so
    blocks can be checked on any thread."""
    lengths, starts, phases, scales = arcs
    shrink, ratio_bound, ball_bound = bounds
    # C order, so reductions along a row run over contiguous memory, as on
    # a lone needle's 1-D arrays (linspace along axis 1 is Fortran-ordered)
    grid = starts[:, None] + np.ascontiguousarray(
        np.linspace(0.0, lengths, _SUITE_GRID, axis=1))
    # Each trial's arc lies in the plane of the first two coordinates of
    # R^(n+1). There its euclidean norm is the 2-D one, bit for bit: the
    # other coordinates are exact zeros, which add nothing to the sum of
    # squares. The 2-D directions are (cos, sin) exactly.
    values, dirs, radii, w = _arc_rows(grid, phases, scales, n - ArcDensity.k,
                                       euclidean_norm(2), _coordinate_plane(2))

    unique, minima, z = _max_structure(values)
    dist = _section_dist(radii * dirs[..., 0], radii * dirs[..., 1], z)
    decay_ok, _, decay_worst = _decay(values, dist, z, eps, shrink)
    ball, within = _mass_below(grid, values * w,
                               dist - np.stack([eps, 2.0 * eps])[:, :, None])
    outer = 1.0 - within
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = np.where(ball > 0, outer / ball, math.inf)
        # A vacuous bound (inf where the near sine mass underflows) holds
        # with margin inf, also where the ratio overflows to inf.
        ratio_margin = np.where(np.isinf(ratio_bound), math.inf,
                                ratio_bound + QUADRATURE_TOL - ratio)
    ball_margin = ball - ball_bound + QUADRATURE_TOL
    return {
        "max_structure": (~unique | (minima > 0), None),
        "decay": (~decay_ok, decay_worst),
        "mass_ratio": (ratio_margin < 0, ratio_margin),
        "ball_mass": (ball_margin < 0, ball_margin),
    }
