"""Cone-measure sampling and Monte Carlo measure estimation on unit spheres.

The cone (conical) probability measure of a sphere subset is the normalized
volume of the cone it spans inside the unit ball; on the round sphere it is
the uniform measure. Samplers:

* euclidean / l_p: exact draws via normalized generalized Gaussians
  (iid coordinates with density proportional to exp(-|t|^p)), which give
  precisely the cone measure on the l_p sphere;
* any other kind: rejection from a bounding Euclidean ball followed by
  radial projection.

The estimator ``best_fiber`` measures tubes about fibers of a linear map;
the cap neighborhoods ``verify-iso`` checks are a fixed function of the
tube about the equatorial fiber. It takes one sample batch for every norm
kind, and the distance to a fiber in closed form where one exists, else to
a fiber cloud, which can only overestimate it, so those estimates are
conservative. The closed form is built once per batch and map: the slice
frame (rank check, pseudo-inverse, row space, kernel) and a few scalars per
point that depend only on the map and the points are computed once, and
each fiber location z adds only the terms of its own point x0 = pinv z. The
estimator asks only whether a point lies within eps of the fiber. The exact
path answers that from the per-point scalars by comparing the q-th power of
the distance with eps^q (q = 2 on the round sphere, p on l_p), with no root
taken; the rows whose power lies in a narrow band about eps^q, far wider
than the rounding of either form, take the closed-form distance, its
reference, so each answer is the one that distance gives. The slice points
of a whole z grid take one norm evaluation. The cloud path decides the same
question (``within_norm_distance``): a Euclidean KD query settles most
points with no norm evaluated, and each remaining candidate is decided by
the cheap per-row bracket of ``norms.norm_bracket`` wherever it settles the
answer, so the norm itself, the mollified one on a regularized norm, is
evaluated only where the bracket leaves it in doubt. ``min_norm_distance``
is its exact reference. The rejection sampler rejects by the same bracket
the draws it puts outside the unit ball.
``fiber_points`` finds each fiber point by Illinois (modified regula falsi)
steps on a per-row bracket, to a computed norm within 2^-50 of 1.

Determinism contract: every estimator is a pure function of
(norm, seed, budgets); parallel-safe substreams are derived from the seed
with a counter-based generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .norms import (
    NormDescriptor,
    derive_seed,
    norm_bracket,
    norm_eval,
    rng_stream,
    sandwich_bounds,
)

__all__ = [
    "SampleBatch",
    "MeasureEstimate",
    "EmptyFiberError",
    "RankDeficientError",
    "sample_conical",
    "fiber_points",
    "fiber_distance_method",
    "min_norm_distance",
    "within_norm_distance",
    "best_fiber",
]


class EmptyFiberError(ValueError):
    """The affine slice does not meet the open unit ball."""


class RankDeficientError(ValueError):
    """The linear map does not have full row rank."""


@dataclass(frozen=True)
class SampleBatch:
    """Seeded points on the unit sphere under the cone measure.

    Regenerating with the same (norm, seed, count) reproduces the points
    bit for bit.
    """

    norm: NormDescriptor
    seed: int
    points: np.ndarray  # (count, dim)
    count: int

    def __post_init__(self):
        if self.points.shape != (self.count, self.norm.dim):
            raise ValueError("points shape does not match (count, dim)")


@dataclass(frozen=True)
class MeasureEstimate:
    """A Monte Carlo probability estimate with its binomial standard error."""

    mean: float
    std_error: float
    count: int
    seed: Optional[int] = None

    def __post_init__(self):
        if not (0.0 <= self.mean <= 1.0):
            raise ValueError(f"mean {self.mean} outside [0, 1]")

    @classmethod
    def from_hits(cls, hits: int, count: int, seed: Optional[int] = None
                  ) -> "MeasureEstimate":
        mean = hits / count
        return cls(mean=mean,
                   std_error=math.sqrt(mean * (1.0 - mean) / count),
                   count=count, seed=seed)

    def to_dict(self) -> dict:
        return {"mean": self.mean, "std_error": self.std_error,
                "count": self.count, "seed": self.seed}


# ---------------------------------------------------------------------------
# Samplers
# ---------------------------------------------------------------------------

def _generalized_gaussian(rng: np.random.Generator, p: float, size) -> np.ndarray:
    # |t|^p ~ Gamma(1/p) gives density proportional to exp(-|t|^p).
    u = rng.gamma(shape=1.0 / p, scale=1.0, size=size)
    signs = rng.integers(0, 2, size=size) * 2 - 1
    return signs * np.power(u, 1.0 / p)


def _direct_sphere_sample(norm: NormDescriptor, count: int,
                          rng: np.random.Generator) -> np.ndarray:
    def draw(rows: int) -> np.ndarray:
        if norm.kind == "euclidean":
            return rng.standard_normal((rows, norm.dim))
        return _generalized_gaussian(rng, norm.p, (rows, norm.dim))

    g = draw(count)
    r = np.asarray(norm_eval(norm, g))
    # A zero draw has probability zero; guard against it anyway.
    while np.any(r == 0):
        idx = np.flatnonzero(r == 0)
        g[idx] = draw(idx.size)
        r = np.asarray(norm_eval(norm, g))
    return g / r[:, None]


def _rejection_sphere_sample(norm: NormDescriptor, count: int,
                             rng: np.random.Generator) -> np.ndarray:
    """``count`` cone-measure points on the unit sphere of any norm: draws
    uniform in a Euclidean ball covering the unit ball, kept in order while
    inside the norm ball and projected radially (uniform in the ball
    projects to the cone measure).

    Only draws the bracket of ``norm_bracket`` cannot put outside the ball
    (lo <= 1) take ``norm_eval``, which then decides them and gives the kept
    ones their lengths. A draw with lo > 1 has a value above 1, so the kept
    draws, their lengths and the points are those of evaluating every draw.
    """
    c1, c2 = sandwich_bounds(norm)
    radius = 1.0 / c1
    dim = norm.dim
    out = np.empty((count, dim))
    lengths = np.empty(count)
    filled = 0
    # acceptance rate is at least vol(B2(1/c2)) / vol(B2(1/c1)) = (c1/c2)^dim
    rate = max(0.02, (c1 / c2) ** dim)
    while filled < count:
        n_draw = max(1024, int(1.5 * (count - filled) / rate))
        g = rng.standard_normal((n_draw, dim))
        g /= np.linalg.norm(g, axis=-1, keepdims=True)
        r = radius * rng.random(n_draw) ** (1.0 / dim)
        pts = g * r[:, None]
        maybe = np.flatnonzero(norm_bracket(norm, pts)[0] <= 1.0)
        start = 0
        while filled < count and start < maybe.size:
            # Draws are kept in order, so none past the last one kept needs
            # its norm: chunks of the count still missing (at least 64)
            # evaluate few draws past it.
            rows = maybe[start : start + max(64, count - filled)]
            values = np.asarray(norm_eval(norm, pts[rows]))
            kept = np.flatnonzero(values <= 1.0)[: count - filled]
            out[filled : filled + kept.size] = pts[rows[kept]]
            lengths[filled : filled + kept.size] = values[kept]
            filled += kept.size
            start += rows.size
    # The norms that accepted the draws project them too: norm_eval gives
    # each row its own bits, so this is out / norm_eval(norm, out).
    if np.any(lengths == 0):
        raise ValueError("cannot radially project the zero vector")
    return out / lengths[:, None]


def sample_conical(norm: NormDescriptor, count: int, seed: int) -> SampleBatch:
    """Draw ``count`` cone-measure points on the unit sphere of ``norm``:
    by the exact generalized-Gaussian generator where the norm has a
    ``minkowski_p`` (euclidean and l_p), else by rejection."""
    if count < 1:
        raise ValueError("count must be >= 1")
    sample = (_direct_sphere_sample if norm.minkowski_p is not None
              else _rejection_sphere_sample)
    pts = sample(norm, count, rng_stream(seed, 0))
    return SampleBatch(norm=norm, seed=seed, points=pts, count=count)


# ---------------------------------------------------------------------------
# Fibers of linear maps
# ---------------------------------------------------------------------------

def _slice_frame(norm: NormDescriptor, f
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The part of the affine slice {f x = z} that does not depend on z:
    the pseudo-inverse of f, and orthonormal bases of its row space and of
    its kernel, as the rows of a (k, dim) array and the columns of a
    (dim, dim - k) array.

    Raises RankDeficientError unless f has full row rank.
    """
    f = np.atleast_2d(np.asarray(f, dtype=float))
    k, d = f.shape
    if d != norm.dim:
        raise ValueError(f"map must have {norm.dim} columns, got {d}")
    if k >= d:
        raise ValueError(f"map must have fewer than {d} rows, got {k}")
    if np.linalg.matrix_rank(f) < k:
        raise RankDeficientError("linear map must have full row rank")
    _, _, vt = np.linalg.svd(f)
    return np.linalg.pinv(f), vt[:k], vt[k:].T


def _slice_points(norm: NormDescriptor, pinv: np.ndarray, z_grid
                  ) -> list[tuple[np.ndarray, float]]:
    """Per target z of ``z_grid``, the minimal-Euclidean-norm solution
    x0 = pinv z of f x = z and ||x0||. The norms take one ``norm_eval``
    call, which gives each row the bits it has alone."""
    k = pinv.shape[1]
    x0 = np.empty((len(z_grid), pinv.shape[0]))
    for i, z in enumerate(z_grid):
        z = np.atleast_1d(np.asarray(z, dtype=float))
        if z.shape != (k,):
            raise ValueError(f"target must have length {k}")
        x0[i] = pinv @ z
    lengths = np.asarray(norm_eval(norm, x0)).tolist()
    return list(zip(x0, lengths))


def _nonempty(x0: np.ndarray, length: float) -> np.ndarray:
    """``x0`` of a slice point with norm ``length``.

    Raises EmptyFiberError when ``length`` >= 1, so the slice misses the
    open unit ball.
    """
    if length >= 1.0:
        raise EmptyFiberError(
            "slice does not meet the open unit ball (minimal-norm point has "
            f"norm {length:.6f})"
        )
    return x0


def _slice_point(norm: NormDescriptor, pinv: np.ndarray, z
                 ) -> tuple[np.ndarray, float]:
    """x0 = pinv z and ||x0|| for one target z; raises EmptyFiberError as
    :func:`_nonempty` does."""
    x0, length = _slice_points(norm, pinv, [z])[0]
    return _nonempty(x0, length), length


# A row stops once its computed g(t) = ||x0 + t v|| - 1 is within four ulps
# of 0, or its bracket within four ulps of t, or after this many steps.
_ROOT_TOL = 2.0 ** -50
_ROOT_STEPS = 100


def fiber_points(norm: NormDescriptor, f, z, count: int, seed: int) -> np.ndarray:
    """Points y with f y = z and ||y|| = 1: the computed norm of each is
    within 2^-50 of 1, unless its bracket closed to a few ulps first.

    Takes the minimal-Euclidean-norm solution x0 of f x = z, draws random
    unit kernel directions v, and solves g(t) = ||x0 + t v|| - 1 = 0 for
    t > 0 on [0, 1/c1]; the root is unique because g is convex with
    g(0) < 0, and it lies in that bracket because x0 is orthogonal to the
    kernel, so ||x0 + t v|| >= c1 |x0 + t v|_2 >= c1 t.

    Every row takes Illinois steps (the modified regula falsi of Dowell and
    Jarratt) on its own bracket: the secant point, or the midpoint where
    that falls outside the bracket, and the g of an end kept twice in a row
    halved. A row stops once its computed |g| <= 2^-50, once its bracket is
    within four ulps of t, or after 100 steps, and takes the evaluated t of
    smallest |g|. A row's steps read only its own values, and norm_eval
    gives each row its own bits, so each point is the same in any batch.
    The verify commands reach this, so it does not import scipy's
    ``elementwise.find_root``: that import takes ``import waistlab.cli``
    from 55 to 77 MB peak RSS and ~0.13 s longer (scipy 1.17, 2-vCPU Xeon).
    """
    pinv, _, kernel = _slice_frame(norm, f)
    x0, length = _slice_point(norm, pinv, z)
    rng = rng_stream(seed, 0)
    dirs = rng.standard_normal((count, kernel.shape[1]))
    dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)
    v = dirs @ kernel.T

    def g_at(rows: np.ndarray, t: np.ndarray) -> np.ndarray:
        return np.asarray(norm_eval(norm, x0 + t[:, None] * v[rows])) - 1.0

    t_lo, g_lo = np.zeros(count), np.full(count, length - 1.0)
    t_hi = np.full(count, 1.0 / sandwich_bounds(norm)[0])
    g_hi = g_at(np.arange(count), t_hi)
    best_t, best_g = t_hi.copy(), np.abs(g_hi)
    # -1 after t_lo moved, 1 after t_hi moved, 0 before the first step
    moved = np.zeros(count)
    rows = np.flatnonzero(best_g > _ROOT_TOL)
    for _ in range(_ROOT_STEPS):
        if not rows.size:
            break
        tl, th, gl, gh = t_lo[rows], t_hi[rows], g_lo[rows], g_hi[rows]
        with np.errstate(all="ignore"):
            t = th - gh * (th - tl) / (gh - gl)
        # Values of one sign, or a bracket that has closed, take the midpoint.
        t = np.where((t > tl) & (t < th), t, 0.5 * (tl + th))
        g = g_at(rows, t)
        better = np.abs(g) < best_g[rows]
        best_t[rows] = np.where(better, t, best_t[rows])
        best_g[rows] = np.where(better, np.abs(g), best_g[rows])
        below = g < 0.0
        # Illinois: halve the value at an end that is kept twice in a row.
        g_hi[rows] = np.where(below, np.where(moved[rows] == -1, 0.5 * gh, gh), g)
        g_lo[rows] = np.where(below, g, np.where(moved[rows] == 1, 0.5 * gl, gl))
        t_lo[rows] = np.where(below, t, tl)
        t_hi[rows] = np.where(below, th, t)
        moved[rows] = np.where(below, -1.0, 1.0)
        rows = rows[(np.abs(g) > _ROOT_TOL)
                    & (t_hi[rows] - t_lo[rows] > 4.0 * np.spacing(t))]
    return x0 + best_t[:, None] * v


def _coordinate_columns(f) -> Optional[np.ndarray]:
    """The column each row of ``f`` reads when ``f`` is a coordinate map
    (every row has exactly one nonzero entry, in distinct columns), else
    None. The entries may be scaled or signed."""
    f = np.atleast_2d(np.asarray(f, dtype=float))
    if f.ndim != 2:
        return None
    nonzero = f != 0
    columns = nonzero.argmax(axis=1)
    if not np.all(nonzero.sum(axis=1) == 1) or \
            np.unique(columns).size != columns.size:
        return None
    return columns


def fiber_distance_method(norm: NormDescriptor, f) -> str:
    """How ``best_fiber`` measures distance to a fiber of the linear map
    ``f``.

    "exact": the distance has a closed form, so the estimate is unbiased.
    That holds on the round sphere (euclidean and lp:2 norms) with any
    full-rank map, where the fiber is a round subsphere, and on l_p norms
    (any norm with a ``minkowski_p``) when ``f`` is a coordinate map (each
    row one nonzero entry, possibly scaled or signed, in distinct columns),
    where the fiber is an l_p sphere in the unmapped coordinates. "cloud"
    (every other pair: l_p norms with other maps, and regularized norms):
    the distance to a finite fiber point cloud, which can only overestimate
    the true distance, so the estimate is conservative.
    """
    if norm.is_round or (norm.minkowski_p is not None and
                         _coordinate_columns(f) is not None):
        return "exact"
    return "cloud"


# Half-width of the band about eps^q in which ``_ExactTube.within_slice``
# leaves the answer to the reference formula, per unit of the rounding scale
# its docstring derives; far above that rounding.
_BAND = 2.0 ** -32


def _abs_power(x: np.ndarray, q: float) -> None:
    """x <- |x|^q in place, by squaring where q is a power of two."""
    mantissa, exponent = math.frexp(q)
    if mantissa == 0.5 and exponent >= 2:
        for _ in range(exponent - 1):
            np.multiply(x, x, out=x)
    else:
        np.abs(x, out=x)
        np.power(x, q, out=x)


class _ExactTube:
    """The closed-form distance from each of a batch of points to the fiber
    {||x|| = 1, f x = z}, and the eps-tube about it, for a pair that
    ``fiber_distance_method`` calls "exact".

    The slice frame and the per-point scalars, which depend only on the map
    and the points, are computed here, once per batch; a fiber location z
    adds only the terms of x0 = pinv z. Raises RankDeficientError here, and
    EmptyFiberError for a z, as ``fiber_points`` does.

    Round sphere: x0 lies in the row space of f, orthogonal to the kernel
    K, so the fiber is the round subsphere x0 + K u with |u| = r =
    sqrt(1 - |x0|^2), and the distance is
    sqrt(|P y - x0|^2 + (|K^T y| - r)^2), P projecting onto the row space.
    In an orthonormal basis V of the row space |P y - x0|^2 = |a - a0|^2,
    a = V y and a0 = V x0, so the scalars a_j and b = |K^T y| of each point
    carry its distance.

    l_p with a coordinate map: the fiber is {x_T = x0_T, |x_R|_p = r}, T
    the mapped columns, R the other coordinates and
    r = (1 - |x0_T|_p^p)^(1/p). The p-th powers split over the two blocks,
    and the distance from y_R to a sphere of radius r of any norm is
    ||y_R| - r| (triangle inequality), so the distance is
    (||y_R|_p - r|^p + |y_T - x0_T|_p^p)^(1/p), carried by the scalars
    a_j = y_Tj and b = |y_R|_p.

    ``distance`` is the reference formula; ``within_slice`` answers the
    tube question from the scalars, with the answers the reference gives.
    """

    def __init__(self, norm: NormDescriptor, f, points: np.ndarray):
        pinv, basis, kernel = _slice_frame(norm, f)
        self.norm, self.pinv, self.basis = norm, pinv, basis
        self.points, self.kernel = points, kernel
        dim = points.shape[1]
        if norm.is_round:
            self.q = 2.0
            ky = points @ kernel
            self.outer = np.einsum("ij,ij->i", ky, ky)
            np.sqrt(self.outer, out=self.outer)
            # a, coordinate-major: one contiguous array per basis vector
            self.inner = basis @ points.T
            # m >= max |y|_2^2, as |y|_2 <= b + sum_j |a_j|
            reach = self.outer.max() + np.sum(np.maximum(
                self.inner.max(axis=1), -self.inner.min(axis=1)))
            self.slack = (dim * dim * max(1.0, float(reach) ** 2), 1.0)
        else:
            p = self.q = norm.p
            self.columns = _coordinate_columns(f)
            rest = np.setdiff1d(np.arange(dim), self.columns)
            self.outer = (np.sum(np.abs(points[:, rest]) ** p, axis=1)
                          ** (1.0 / p))
            self.inner = points.T[self.columns]
            self.slack = (0.0, p + dim)
        # The reference's row-space parts P y, built once a row needs them.
        self.row = None
        self.work = np.empty((2, points.shape[0]))

    def _slice(self, x0: np.ndarray) -> tuple[float, np.ndarray]:
        """The radius r of the fiber about the slice point x0 = pinv z, and
        the fiber's inner coordinates (a0 = V x0, or x0_T on l_p)."""
        if self.norm.is_round:
            return math.sqrt(max(0.0, 1.0 - float(x0 @ x0))), self.basis @ x0
        p = self.q
        target = x0[self.columns]
        radius = max(0.0, 1.0 - float(np.sum(np.abs(target) ** p))) ** (1 / p)
        return radius, target

    def _reference(self, x0: np.ndarray, radius: float, rows=slice(None)
                   ) -> np.ndarray:
        """The reference formula's distances of the points ``rows``."""
        along = self.outer[rows] - radius
        if self.norm.is_round:
            if self.row is None:
                ky = self.points @ self.kernel
                self.row = self.points - ky @ self.kernel.T
            across = self.row[rows] - x0
            return np.sqrt(np.einsum("ij,ij->i", across, across)
                           + along * along)
        p = self.q
        # point-major, the layout the formula sums over
        mapped = self.inner[:, rows].T.copy()
        across = np.sum(np.abs(mapped - x0[self.columns]) ** p, axis=1)
        return (np.abs(along) ** p + across) ** (1.0 / p)

    def distance(self, z) -> np.ndarray:
        """The distance from each point to the fiber at ``z``."""
        x0, _ = _slice_point(self.norm, self.pinv, z)
        return self._reference(x0, self._slice(x0)[0])

    def within_slice(self, x0: np.ndarray, eps: float) -> np.ndarray:
        """Whether each point lies within ``eps`` of the fiber through the
        slice point ``x0`` = pinv z (of norm below 1): ``distance(z) <= eps``
        row for row, with no root taken and no (count, dim) array formed.

        It compares s = dist^q with E = eps^q, q = 2 on the round sphere and
        q = p on l_p, where s = |b - r|^q + sum_j |a_j - a0_j|^q is summed
        in place in one buffer. That s rounds differently from the
        reference's own sum S, so s decides a row only outside the band
        [E - w, E + w]; the rows in the band take the reference formula.
        With u = 2^-53:

        * The reference's test fl(S^(1/q)) <= eps follows S <= E except
          within a relative 8 q u of E: its root is within a few ulps, and
          so is E = fl(eps^q).
        * Round sphere: each term of either sum squares a difference of
          coordinates of y and x0 in an orthonormal frame, each one a dot
          product of length at most dim (two in turn for the reference's
          P y), so of absolute error about dim u m at most, m >= 1 a bound
          on |y|_2^2 over the batch (|x0| < 1). With the frame's
          orthonormality error from the SVD, both sums lie within
          16 dim^2 u m of the exact one; b and r are shared bits.
        * l_p: both sums add the same k + 1 nonnegative terms in another
          order, each the p-th power of a shared difference, taken within a
          few ulps by pow or within a relative p u by squarings, so they
          lie within a relative (p + 2 k + 16) u of each other. Terms below
          the normal range add at most (k + 1) 2^-1074, far below a band
          about a normal E.

        So w = 2^-32 (dim^2 m + E) on the round sphere and
        w = 2^-32 (p + dim) E on l_p are over 10^4 times those bounds.
        Where E is not a positive normal double (large p with small eps, or
        eps <= 0) every row takes the reference formula.
        """
        radius, shift = self._slice(x0)
        try:
            e = float(eps) ** self.q if eps > 0 else 0.0
        except OverflowError:
            e = math.inf
        if not np.finfo(float).tiny <= e < math.inf:
            return self._reference(x0, radius) <= eps
        absolute, relative = self.slack
        width = _BAND * (absolute + relative * e)
        s, term = self.work
        np.subtract(self.outer, radius, out=s)
        _abs_power(s, self.q)
        for a, t in zip(self.inner, shift):
            np.subtract(a, t, out=term)
            _abs_power(term, self.q)
            s += term
        hits = s < e - width
        band = np.flatnonzero(hits != (s <= e + width))
        if band.size:
            hits[band] = self._reference(x0, radius, band) <= eps
        return hits


def _kd_neighbors(points: np.ndarray, cloud: np.ndarray, reach: float,
                  k: int = 64, tree=None):
    """A KD tree of ``cloud`` (``tree`` if given) and, per point, its
    Euclidean distances and indices to the min(k, cloud size) nearest cloud
    points closer than ``reach`` (inf and cloud.shape[0] past them), as
    (points, k) arrays. Each point's lists depend on that point alone."""
    if tree is None:
        # Only the cloud paths reach the KD tree; importing it here keeps
        # scipy.spatial out of every run that measures distances exactly.
        from scipy.spatial import cKDTree

        tree = cKDTree(cloud)
    # The default 64 is enough neighbours that few rows reach a per-row
    # ball query; the count changes no answer.
    k = min(k, cloud.shape[0])
    d2, idx = tree.query(points, k=k, distance_upper_bound=reach)
    shape = (points.shape[0], k)
    return tree, np.reshape(d2, shape), np.reshape(idx, shape)


def min_norm_distance(norm: NormDescriptor, points: np.ndarray,
                      cloud: np.ndarray) -> np.ndarray:
    """Norm distance from each point to the nearest cloud point, for every
    norm kind: a Euclidean KD prefilter with the sandwich constant c1, and
    exact norm distances only to the candidates the sandwich bound cannot
    rule out. The estimators ask only whether it is at most eps, which
    :func:`within_norm_distance` answers with less work; this is its exact
    reference.
    """
    c1, _ = sandwich_bounds(norm)
    tree, d2, idx = _kd_neighbors(points, cloud, math.inf)
    # The nearest Euclidean candidate first. A candidate j can only win if
    # c1 * d2_j < best, as ||y|| >= c1 |y|_2; the 1e-12 covers rounding.
    # norm_eval gives each row its own bits, so skipping the others leaves
    # the minimum unchanged.
    best = np.asarray(norm_eval(norm, points - cloud[idx[:, 0]]))
    rows, cols = np.nonzero(c1 * d2[:, 1:] < best[:, None] * (1.0 + 1e-12))
    if rows.size:
        dists = np.asarray(norm_eval(
            norm, points[rows] - cloud[idx[rows, cols + 1]]))
        np.minimum.at(best, rows, dists)
    # A cloud point beyond the k-th Euclidean neighbor can only win if
    # c1 * d2_k is still below the current minimum; refine those few exactly.
    if idx.shape[1] < cloud.shape[0]:
        for i in np.flatnonzero(c1 * d2[:, -1] < best - 1e-15):
            cand = tree.query_ball_point(points[i],
                                         r=float(best[i] / c1) + 1e-12)
            if cand:
                di = norm_eval(norm, points[i][None, :] - cloud[cand])
                best[i] = min(best[i], float(np.min(di)))
    return best


def _within(norm: NormDescriptor, y: np.ndarray, eps: float) -> np.ndarray:
    """``norm_eval(norm, y) <= eps`` row for row, with the norm evaluated
    only on the rows that ``norm_bracket`` leaves in doubt: hi <= eps is
    within and lo > eps is not."""
    lo, hi = norm_bracket(norm, y)
    hit = hi <= eps
    doubt = np.flatnonzero(~hit & (lo <= eps))
    if doubt.size:
        hit[doubt] = np.asarray(norm_eval(norm, y[doubt])) <= eps
    return hit


def within_norm_distance(norm: NormDescriptor, points: np.ndarray,
                         cloud: np.ndarray, eps: float) -> np.ndarray:
    """Whether each point lies within norm distance ``eps`` of the cloud:
    ``min_norm_distance(norm, points, cloud) <= eps`` row for row, with the
    norm evaluated only where that answer depends on it.

    Only cloud points closer than eps / c1 in the Euclidean metric can be
    within eps, as ||y|| >= c1 |y|_2. A 1-NN query settles two kinds of row
    with no norm evaluated: a row whose nearest cloud point is closer than
    eps / c2 is within eps, as ||y|| <= c2 |y|_2, and a row with no cloud
    point within eps / c1 is not. The other rows take the 64 nearest cloud
    points within eps / c1, nearest first, only while c1 d2_j leaves eps in
    reach, and stop at the first within eps. A row still open after all 64
    looks at every cloud point within eps / c1 by a ball query. Each
    candidate is decided by its ``norm_bracket`` where that settles it and
    by ``norm_eval`` otherwise, so on a regularized norm few candidates take
    the mollified norm. The neighbour lists of a point depend on that point
    alone, and norm_eval gives each row its own bits, so each answer is the
    one the full minimum gives.
    """
    c1, c2 = sandwich_bounds(norm)
    # The 1e-12 covers rounding, and the KD bound is strict.
    reach = eps * (1.0 + 1e-12)
    tree, d1, _ = _kd_neighbors(points, cloud, reach / c1, k=1)
    # The 1e-9 covers the kernel's rounding.
    near = c2 * d1[:, 0] * (1.0 + 1e-9) < eps
    open_rows = np.flatnonzero(~near & (d1[:, 0] < math.inf))
    ask = points[open_rows]
    _, d2, idx = _kd_neighbors(ask, cloud, reach / c1, tree=tree)
    rows = np.arange(open_rows.size)
    for j in range(idx.shape[1]):
        rows = rows[c1 * d2[rows, j] < reach]
        if not rows.size:
            break
        hit = _within(norm, ask[rows] - cloud[idx[rows, j]], eps)
        near[open_rows[rows[hit]]] = True
        rows = rows[~hit]
    if idx.shape[1] < cloud.shape[0]:
        for i in rows:
            cand = np.setdiff1d(tree.query_ball_point(ask[i], r=reach / c1),
                                idx[i])
            if cand.size:
                near[open_rows[i]] = _within(norm, ask[i] - cloud[cand],
                                             eps).any()
    return near


def best_fiber(
    norm: NormDescriptor,
    f,
    eps: float,
    z_grid: Sequence,
    sample_budget: int,
    fiber_budget: int,
    seed: int,
) -> tuple[np.ndarray, MeasureEstimate, list[MeasureEstimate]]:
    """Grid argmax of the tube measure, the cone measure of the
    eps-neighborhood (norm distance) of the fiber {f x = z}, over fiber
    locations z.

    One shared cone-measure batch is used for every grid point (cheaper and
    lower-variance for comparisons). Distances to each fiber are measured
    as ``fiber_distance_method`` names. "exact" (the round sphere with any
    map, lp norms with a coordinate map): the estimate is unbiased and
    ``fiber_budget`` is unused. "cloud": distances to a fiber cloud of
    ``fiber_budget`` points drawn from a per-z substream, which can only
    overestimate the true distance, so each estimate is a lower bound in
    expectation (the conservative direction for checking waist bounds); a
    larger budget extends the same cloud and never lowers an estimate.
    Ties break toward the first grid entry; grid points with empty fibers
    are skipped. Returns (z_star, best_estimate, all_estimates).
    """
    z_grid = [np.atleast_1d(np.asarray(z, dtype=float)) for z in z_grid]
    if not z_grid:
        raise ValueError("z_grid must be nonempty")
    points = sample_conical(norm, sample_budget, derive_seed(seed, 2)).points
    cloud = fiber_distance_method(norm, f) == "cloud"
    if not cloud:
        tube = _ExactTube(norm, f, points)
        slices = _slice_points(norm, tube.pinv, z_grid)
    estimates: list[Optional[MeasureEstimate]] = []
    for i, z in enumerate(z_grid):
        try:
            if cloud:
                fiber = fiber_points(norm, f, z, fiber_budget,
                                     derive_seed(seed, 3 + i))
                hits = within_norm_distance(norm, points, fiber, eps)
            else:
                hits = tube.within_slice(_nonempty(*slices[i]), eps)
        except EmptyFiberError:
            estimates.append(None)
            continue
        estimates.append(
            MeasureEstimate.from_hits(int(np.count_nonzero(hits)),
                                      sample_budget, seed=seed)
        )
    if all(e is None for e in estimates):
        raise EmptyFiberError("every grid point has an empty fiber")
    best_i = max(
        (i for i, e in enumerate(estimates) if e is not None),
        key=lambda i: (estimates[i].mean, -i),
    )
    kept = [e for e in estimates if e is not None]
    return z_grid[best_i], estimates[best_i], kept

