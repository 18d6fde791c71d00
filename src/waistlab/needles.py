"""Single-needle localization machinery and its property checks.

A needle is a low-dimensional convex piece of the unit sphere carrying a
probability density whose (1/m)-th power obeys a midpoint concavity
inequality corrected by the modulus of convexity ("weak m-concavity"). This
module builds such densities on arcs (k = 1), checks the decay / mass-ratio /
ball-mass chain that the waist bound rests on, and reconstructs densities
derived from shrinking lunes empirically.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import ClassVar, Optional, Sequence

import numpy as np

from .bounds import F_UPPER_PI, _sine_integral_lists, _waist_terms
from .norms import (
    ModulusCurve,
    NormDescriptor,
    euclidean_modulus_curve,
    euclidean_norm,
    norm_eval,
    rng_stream,
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
# the error of the three-point parabola that reads f^(1/m) at the midpoint,
# on grids of >= 1e3 points.
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
    """

    k: ClassVar[int] = 1
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
        dirs, radii = _section(self.norm, self.plane, cos, sin)
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
        _, radii = _section(norm, plane, np.cos(grid), np.sin(grid))
        values = _normalize(grid, np.asarray(profile, dtype=float),
                            _cone_weight(grid, radii))
        return cls(norm=norm, grid=grid, values=values, m=m, modulus=modulus,
                   plane=plane)

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
        dist = self.dist_to_index(self.argmax_index)[None]
        r = np.array([[eps], [2.0 * eps]])
        ball, within = _ball_mass(
            self.grid[None], (self.values * self.cone_weight)[None], dist, r,
            _ball_edges(dist, r))[:, 0]
        return float(ball), float(1.0 - within)


# The row kernels below take (B, G) arrays, one arc per row, and give each
# row the bits it has alone: elementwise ufuncs, reductions and cumulative
# sums along the last axis, and reductions over each row's own index runs.
# The single-needle functions call them on one-row batches and
# ``needle_suite`` on blocks.


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
    dx = x - x[rows, z][:, None]
    dy = y - y[rows, z][:, None]
    dx *= dx
    dy *= dy
    dx += dy
    return np.sqrt(dx, out=dx)


# Norm balls around a needle's maximum are index intervals. By the
# monotonicity lemma for normed planes (Martini, Swanepoel and Weiss, Expo.
# Math. 19, 2001), the norm distance from a point of a section circle grows
# along each arc of the circle shorter than pi that starts at the point, and
# every needle spans less than pi. So each side of the center is a run of
# increasing distances, and {dist <= r} is the run of indices [first, last]
# around the center.


def _ball_edges(dist, r):
    """The first and the last index of each row's ball {dist <= r}: for
    (B, G) distances and radii of shape (T, B), two (T, B) index arrays."""
    inside = dist <= r[..., None]
    first = np.argmax(inside, axis=-1)
    last = inside.shape[-1] - 1 - np.argmax(inside[..., ::-1], axis=-1)
    return first, last


def _ball_mass(grid, fw, dist, r, edges):
    """Row by row, the fw-mass of the ball {dist <= r} with the given
    ``_ball_edges``: trapezoid quadrature over the ball's intervals, plus the
    parts of the two intervals that straddle its edges, up to the point
    where linear interpolation of dist reaches r. ``grid``, ``fw`` and
    ``dist`` have shape (B, G), ``r`` and each edge array (T, B), and so
    has the result."""
    first, last = edges
    rows = np.arange(grid.shape[0])
    size = grid.shape[-1]
    h = np.diff(grid, axis=-1)
    # before[:, j] is the mass of the intervals left of grid point j + 1
    before = np.cumsum(h * 0.5 * (fw[:, :-1] + fw[:, 1:]), axis=-1)
    mass = (np.where(last > 0, before[rows, last - 1], 0.0)
            - np.where(first > 0, before[rows, first - 1], 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        # The interval after the last point inside, up to its crossing at
        # the fraction t of its length
        j = np.minimum(last, size - 2)
        s0, s1 = dist[rows, j] - r, dist[rows, j + 1] - r
        f0, f1 = fw[rows, j], fw[rows, j + 1]
        t = -s0 / (s1 - s0)
        fc = f0 + t * (f1 - f0)
        mass += np.where(last < size - 1, h[rows, j] * t * 0.5 * (f0 + fc),
                         0.0)
        # The interval before the first point inside, from its crossing on.
        # 1 - t is s1 / (s1 - s0): where s0 dwarfs s1, t rounds to 1 and
        # 1 - t would lose all of its digits.
        j = np.maximum(first - 1, 0)
        s0, s1 = dist[rows, j] - r, dist[rows, j + 1] - r
        f0, f1 = fw[rows, j], fw[rows, j + 1]
        t = -s0 / (s1 - s0)
        fc = f0 + t * (f1 - f0)
        mass += np.where(first > 0,
                         h[rows, j] * (s1 / (s1 - s0)) * 0.5 * (fc + f1), 0.0)
    return mass


def _segment_reduce(ufunc, a, starts, stops):
    """``ufunc.reduce`` over each nonempty segment [start, stop) of the
    flattened ``a``; an empty segment gives an arbitrary value."""
    flat = a.reshape(-1)
    end = flat.size - 1
    # reduceat takes no index past the last element: a segment that ends
    # the array stops one short of it and takes that element afterwards
    idx = np.minimum(np.stack([starts, stops], axis=-1).ravel(), end)
    out = ufunc.reduceat(flat, idx)[::2].reshape(starts.shape)
    return np.where(stops > end, ufunc(out, flat[end]), out)


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
    interpolation of z. f^(1/m)(z) is read off the parabola through three
    grid points around z. Off a round sphere, z lies away from the angular
    midpoint of x and y, and linear interpolation would err at second
    order: on 700-point grids of lp:4:3 arcs it fell below the slack and
    flagged correct densities.
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
    rhs = (1.0 - np.asarray(d.modulus(dist))) * _parabola(theta_mid, g, hroot)
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


def _parabola(x, g, y):
    """y on the grid g, interpolated at x by the parabola through g[k],
    g[k + 1] and g[k + 2], where g[k] starts the interval of x (the last
    three points at the grid's end)."""
    k = np.clip(np.searchsorted(g, x) - 1, 0, g.size - 3)
    x0, x1, x2 = g[k], g[k + 1], g[k + 2]
    s01 = (y[k + 1] - y[k]) / (x1 - x0)
    s12 = (y[k + 2] - y[k + 1]) / (x2 - x1)
    return y[k] + (x - x0) * (s01 + (x - x1) * (s12 - s01) / (x2 - x0))


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
    dist = d.dist_to_index(z)[None]
    r = np.array([[eps], [2.0 * eps]])
    ok, checked, worst = _decay(
        d.values[None], dist, np.array([z]), r,
        np.array([_shrink(d.modulus(eps), d.m)]), _ball_edges(dist, r))
    return DecayReport(ok=bool(ok[0]), checked=int(checked[0]),
                       vacuous=bool(checked[0] == 0),
                       worst_margin=float(worst[0]))


def _shrink(delta: float, m: int) -> float:
    """The decay factor (1 - 2 delta)^m of a modulus value delta = delta(eps),
    clipped at 0."""
    return max(0.0, 1.0 - 2.0 * delta) ** m


def _decay(v, dist, z, r, factor, edges):
    """Row kernel of :func:`decay_bound_check`: (ok, checked, worst margin)
    per row, for the rows' centers ``z``, radii r = (eps, 2 eps) of shape
    (2, B), factors, and the ``_ball_edges`` of both balls.

    Each side of the center takes the minimum of v over its part of the eps
    ball and the maximum over its points at distance >= 2 eps, a run from
    the row's end to the 2 eps ball. Its margin (factor m_in + tol) - max
    is the least of the per-point margins, bit for bit, as rounding is
    monotone."""
    first, last = edges
    size = v.shape[1]
    base = np.arange(z.size) * size
    rows = np.arange(z.size)
    # Far runs [0, lo) and [hi, G): the 2 eps ball's edge points are far
    # when they lie at 2 eps exactly.
    lo = first[1] + (dist[rows, first[1]] >= r[1])
    hi = last[1] + (dist[rows, last[1]] < r[1])
    m_in = _segment_reduce(np.minimum, v, base + np.stack([first[0], z]),
                           base + np.stack([z, last[0]]) + 1)
    far_start = np.stack([np.zeros_like(lo), hi])
    far_stop = np.stack([lo, np.full_like(hi, size)])
    v_far = _segment_reduce(np.maximum, v, base + far_start, base + far_stop)
    checked = far_stop - far_start
    v_far = np.where(checked > 0, v_far, -math.inf)
    margin = (factor * m_in + QUADRATURE_TOL) - v_far
    return ((margin >= 0).all(axis=0), checked.sum(axis=0),
            np.minimum(margin[0], margin[1]))


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
    (_, ratio_bound, ball_bound), = _needle_bounds(d.m + d.k, d.k, [eps],
                                                   d.modulus, F_UPPER_PI)
    ratio = outer / ball if ball > 0 else math.inf
    return NeedleBoundsReport(
        ratio=ratio, ratio_bound=ratio_bound,
        ball_mass=ball, ball_bound=ball_bound,
        ratio_ok=bool(ratio <= ratio_bound + QUADRATURE_TOL),
        ball_ok=bool(ball >= ball_bound - QUADRATURE_TOL),
    )


def _needle_bounds(n, k, eps, modulus, f_upper) -> list[tuple]:
    """The eps terms of the needle checks at each eps of a sequence: the
    decay factor (1 - 2 delta(eps))^(n-k), the mass-ratio bound and the
    waist bound, with the moduli, sine masses and waist bounds of the whole
    sequence each in one call."""
    eps = list(eps)
    waist = _waist_terms(n, k, eps, modulus, f_upper).w
    far, near = _sine_integral_lists(k, eps, f_upper)
    deltas = modulus(np.asarray(eps, dtype=float)).tolist()
    terms = []
    for d, F, G, ball_bound in zip(deltas, far, near, waist):
        shrink = _shrink(d, n - k)
        # G underflows to 0 at tiny eps, where the waist bound is 0 and the
        # ratio bound is vacuous
        ratio_bound = (shrink * (k + 1.0) ** (k + 1.0) * (F / G) if G > 0.0
                       else math.inf)
        terms.append((shrink, ratio_bound, ball_bound))
    return terms


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
    _, arcs = _draw_arcs(rng, 1)
    if norm.is_round:
        plane = _coordinate_plane(norm.dim)
    else:
        a = rng.standard_normal(norm.dim)
        a /= np.linalg.norm(a)
        b = rng.standard_normal(norm.dim)
        b -= (b @ a) * a
        b /= np.linalg.norm(b)
        plane = (a, b)
    grid, values, _, _, _ = _arc_rows(arcs, grid_size, np.array([m]), norm,
                                      plane)
    return ArcDensity(norm=norm, grid=grid[0], values=values[0], m=m,
                      modulus=modulus, plane=plane)


# Most linear functionals an arc envelope takes.
_MAX_FUNCTIONALS = 6


def _draw_arcs(rng, count, low=(), high=()):
    """Draw ``count`` arcs and their linear functionals in two Generator
    calls: one integer call for the columns in [low, high) and each arc's
    functional count, then one call for 2 + 2 * _MAX_FUNCTIONALS uniforms
    per arc. An arc has length in [0.8, 2.4], a start angle, and 2 to 6
    functionals, whose phases keep every functional positive on the arc
    [start, start + length]; of its _MAX_FUNCTIONALS phase and scale slots
    it uses as many as it has functionals. The arcs come in order of
    decreasing functional count, as ``_envelope`` takes them. Returns the
    integer columns and the arcs (lengths, starts, phases, scales,
    counts)."""
    ints = rng.integers((*low, 2), (*high, _MAX_FUNCTIONALS + 1),
                        size=(count, len(low) + 1))
    u = rng.random((count, 2 + 2 * _MAX_FUNCTIONALS))
    order = np.argsort(-ints[:, -1], kind="stable")
    ints, u = ints[order], u[order]
    lengths = 0.8 + (_MAX_ARC_LENGTH - 0.8) * u[:, 0]
    starts = 2.0 * math.pi * u[:, 1]
    lo = (starts + lengths - math.pi / 2.0 + 0.05)[:, None]
    hi = (starts + math.pi / 2.0 - 0.05)[:, None]
    phases = lo + (hi - lo) * u[:, 2:2 + _MAX_FUNCTIONALS]
    log_lo, log_hi = math.log(0.3), math.log(3.0)
    scales = np.exp(log_lo + (log_hi - log_lo) * u[:, 2 + _MAX_FUNCTIONALS:])
    return ints[:, :-1], (lengths, starts, phases, scales, ints[:, -1])


def _arc_rows(arcs, grid_size, m, norm, plane):
    """Arc densities for a block of drawn ``arcs`` in one plane of ``norm``:
    on each row's grid, the envelope of its functionals (``_envelope``),
    raised to the row's exponent in ``m`` and normalized against the cone
    weight. Returns (grids, values, directions, section radii, cone
    weight), each with one row per arc."""
    lengths, starts, phases, scales, counts = arcs
    # start + np.linspace(0, length, grid_size), bit for bit
    grid = np.arange(grid_size) * (lengths / (grid_size - 1))[:, None]
    grid[:, -1] = lengths
    grid += starts[:, None]
    cos, sin = np.cos(grid), np.sin(grid)
    h = _envelope(cos, sin, scales * np.cos(phases), scales * np.sin(phases),
                  counts)
    dirs, radii = _section(norm, plane, cos, sin)
    if not norm.is_round:
        # Section radius enters through the homogeneous extension: the
        # linear functional at the unit-norm point x(theta) is
        # r(theta) * cos offset. On the round sphere r is 1.
        h *= radii
    # One power call per exponent: with an array of exponents np.power
    # rounds differently from the scalar-exponent call of a lone row.
    profile = np.empty_like(grid)
    for mi in np.unique(m).tolist():
        rows = np.flatnonzero(m == mi)
        profile[rows] = np.power(h[rows], mi)
    w = _cone_weight(grid, radii)
    return grid, _normalize(grid, profile, w), dirs, radii, w


def _envelope(cos, sin, a, b, counts):
    """Row by row, the least of the row's first ``counts`` functionals
    a_j cos theta + b_j sin theta, at angles with the given (B, G) cosines
    and sines. With a_j = s_j cos phi_j and b_j = s_j sin phi_j, the j-th is
    s_j cos(theta - phi_j). The rows come in order of decreasing count, so
    the rows with a j-th functional are a prefix."""
    h = cos * a[:, :1]
    h += sin * b[:, :1]
    t, u = np.empty_like(h), np.empty_like(h)
    for j in range(1, int(counts[0])):
        k = int(np.count_nonzero(counts > j))
        np.multiply(cos[:k], a[:k, j, None], out=t[:k])
        np.multiply(sin[:k], b[:k, j, None], out=u[:k])
        t[:k] += u[:k]
        np.minimum(h[:k], t[:k], out=h[:k])
    return h


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
# On a 2-vCPU Xeon host with two workers, blocks of 32, 64 and 128 took a
# median 0.214, 0.191 and 0.191 s on 3000 trials at seed 2 (10 runs each)
# and 0.72, 0.56 and 0.60 s on 10 000 trials at seed 2024 (4 runs each),
# and the 3000-trial tracemalloc peak was 7.6, 13.3 and 24.9 MB.
_SUITE_BLOCK = 64
# Grid points per suite needle, as in random_arc_density's default.
_SUITE_GRID = 1024
# Longest arc _draw_arcs draws.
_MAX_ARC_LENGTH = 2.4
# Smallest eps the suite checks: four grid spacings of its longest arc,
# about 9.4e-3. The checks read distances on the grid. At eps 1e-3, below
# one spacing, 640 trials at each of seeds 1-3 gave 24, 13 and 9 decay
# violations on correct needles; at 2e-3, 5e-3 and 9.4e-3 they gave none.
SUITE_MIN_EPS = 4.0 * _MAX_ARC_LENGTH / (_SUITE_GRID - 1)
_SUITE_LEMMAS = ("max_structure", "decay", "mass_ratio", "ball_mass")
# Largest needle dimension the suite draws. _draw_arcs keeps every envelope
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
    calling thread, one block after another and each in two Generator
    calls, and each block is checked by the row kernels of the single-needle
    checks on a thread pool of one worker per available CPU. A trial built
    again as a lone ArcDensity from the arrays its block drew gets the same
    values and margins from the single-needle checks, bit for bit.
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
    table = _suite_table(n_range, eps_choices, f_upper)
    sizes = [min(_SUITE_BLOCK, trials - first)
             for first in range(0, trials, _SUITE_BLOCK)]
    violations = dict.fromkeys(_SUITE_LEMMAS, 0)
    worst = dict.fromkeys(_SUITE_LEMMAS, math.inf)
    # os.sched_getaffinity is missing on macOS and Windows.
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    workers = min(cpus, len(sizes))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        # This thread draws the blocks in stream order; the workers share
        # nothing but their arguments.
        futures = [pool.submit(_check_block, *_draw_block(
            rng, size, n_range, eps_choices, table)) for size in sizes]
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


def _suite_table(n_range, eps_choices, f_upper) -> np.ndarray:
    """The _needle_bounds terms (shrink, ratio bound, ball bound) of every
    suite trial the range allows, in one array of shape (n, eps, 3): row
    [n - n_range[0], c] holds dimension n at eps_choices[c]. One call per
    dimension covers every eps choice."""
    modulus = euclidean_modulus_curve()
    return np.array([
        _needle_bounds(n, ArcDensity.k, eps_choices, modulus, f_upper)
        for n in range(n_range[0], n_range[1] + 1)])


def _draw_block(rng, count, n_range, eps_choices, table) -> tuple:
    """Draw ``count`` suite trials from ``rng`` in two Generator calls (see
    ``_draw_arcs``): the arguments (n, eps, arcs, bounds) of
    :func:`_check_block`, in order of decreasing functional count. Each
    trial's bounds are its row of the ``_suite_table`` ``table``."""
    ints, arcs = _draw_arcs(rng, count, (n_range[0], 0),
                            (n_range[1] + 1, len(eps_choices)))
    n, choice = ints.T
    eps = np.asarray(eps_choices)[choice]
    return n, eps, arcs, table[n - n_range[0], choice].T


def _check_block(n, eps, arcs, bounds) -> dict:
    """Check drawn trials: {lemma: (violated, margin)}, one entry per trial
    (margin None for max_structure). Pure numpy on the arguments alone, so
    blocks can be checked on any thread."""
    shrink, ratio_bound, ball_bound = bounds
    # Each trial's arc lies in the plane of the first two coordinates of
    # R^(n+1). There its euclidean norm is the 2-D one, bit for bit: the
    # other coordinates are exact zeros, which add nothing to the sum of
    # squares. The 2-D directions are (cos, sin) exactly.
    grid, values, dirs, radii, w = _arc_rows(
        arcs, _SUITE_GRID, n - ArcDensity.k, euclidean_norm(2),
        _coordinate_plane(2))

    unique, minima, z = _max_structure(values)
    dist = _section_dist(radii * dirs[..., 0], radii * dirs[..., 1], z)
    r = np.stack([eps, 2.0 * eps])
    edges = _ball_edges(dist, r)
    decay_ok, _, decay_worst = _decay(values, dist, z, r, shrink, edges)
    ball, within = _ball_mass(grid, values * w, dist, r, edges)
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
