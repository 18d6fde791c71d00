"""Cone-measure sampling and Monte Carlo measure estimation on unit spheres.

The cone (conical) probability measure of a sphere subset is the normalized
volume of the cone it spans inside the unit ball; on the round sphere it is
the uniform measure. Samplers:

* euclidean / l_p: exact draws via normalized generalized Gaussians
  (iid coordinates with density proportional to exp(-|t|^p)), which give
  precisely the cone measure on the l_p sphere;
* any other kind: rejection from a bounding Euclidean ball followed by
  radial projection.

Estimators (``best_fiber`` for tubes about fibers of a linear map,
``cap_neighborhood_measure`` for neighborhoods of a cap and its complement)
take one sample batch for every norm kind, and the distance to a fiber in
closed form where one exists, else to a fiber cloud, which can only
overestimate it, so those estimates are conservative.

Determinism contract: every estimator is a pure function of
(norm, seed, budgets); parallel-safe substreams are derived from the seed
with a counter-based generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .norms import (
    NormDescriptor,
    derive_seed,
    norm_eval,
    radial_project,
    rng_stream,
    sandwich_bounds,
)

__all__ = [
    "SampleBatch",
    "MeasureEstimate",
    "EmptyFiberError",
    "RankDeficientError",
    "EmptySetError",
    "rng_stream",
    "derive_seed",
    "sample_conical",
    "set_measure",
    "fiber_points",
    "fiber_distance_method",
    "min_norm_distance",
    "best_fiber",
    "cap_neighborhood_measure",
]


class EmptyFiberError(ValueError):
    """The affine slice does not meet the open unit ball."""


class RankDeficientError(ValueError):
    """The linear map does not have full row rank."""


class EmptySetError(ValueError):
    """No sample points landed in the target set within budget."""


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
    if norm.kind == "euclidean":
        g = rng.standard_normal((count, norm.dim))
    else:
        g = _generalized_gaussian(rng, norm.p, (count, norm.dim))
    r = np.asarray(norm_eval(norm, g))
    # A zero draw has probability zero; guard against it anyway.
    bad = r == 0
    while np.any(bad):
        idx = np.flatnonzero(bad)
        g[idx] = (rng.standard_normal((idx.size, norm.dim))
                  if norm.kind == "euclidean"
                  else _generalized_gaussian(rng, norm.p, (idx.size, norm.dim)))
        r = np.asarray(norm_eval(norm, g))
        bad = r == 0
    return g / r[:, None]


def _rejection_sphere_sample(norm: NormDescriptor, count: int,
                             rng: np.random.Generator) -> np.ndarray:
    # Uniform in a Euclidean ball covering the unit ball, keep points inside
    # the norm ball, project radially: uniform-in-ball projects to the cone
    # measure.
    c1, c2 = sandwich_bounds(norm)
    radius = 1.0 / c1
    dim = norm.dim
    out = np.empty((count, dim))
    filled = 0
    # acceptance rate is at least vol(B2(1/c2)) / vol(B2(1/c1)) = (c1/c2)^dim
    rate = max(0.02, (c1 / c2) ** dim)
    while filled < count:
        n_draw = max(1024, int(1.5 * (count - filled) / rate))
        g = rng.standard_normal((n_draw, dim))
        g /= np.linalg.norm(g, axis=-1, keepdims=True)
        r = radius * rng.random(n_draw) ** (1.0 / dim)
        pts = g * r[:, None]
        keep = pts[np.asarray(norm_eval(norm, pts)) <= 1.0]
        take = min(count - filled, keep.shape[0])
        out[filled : filled + take] = keep[:take]
        filled += take
    return radial_project(norm, out)


def sample_conical(norm: NormDescriptor, count: int, seed: int,
                   method: str = "auto") -> SampleBatch:
    """Draw ``count`` cone-measure points on the unit sphere of ``norm``.

    ``method``: "auto" picks the exact generalized-Gaussian generator for
    euclidean/lp and rejection otherwise; "direct" and "rejection" force a
    choice so the two samplers can be compared against each other; "direct"
    on a regularized norm raises ValueError.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = rng_stream(seed, 0)
    if method == "auto":
        method = "direct" if norm.minkowski_p is not None else "rejection"
    if method == "direct":
        if norm.minkowski_p is None:
            raise ValueError(
                f"method 'direct' samples euclidean and l_p norms only, got "
                f"{norm}")
        pts = _direct_sphere_sample(norm, count, rng)
    elif method == "rejection":
        pts = _rejection_sphere_sample(norm, count, rng)
    else:
        raise ValueError(f"unknown sampling method {method!r}")
    return SampleBatch(norm=norm, seed=seed, points=pts, count=count)


def set_measure(batch: SampleBatch, indicator: Callable) -> MeasureEstimate:
    """Fraction of batch points satisfying a vectorized indicator
    (points array (count, dim) -> bool array)."""
    if batch.count < 1:
        raise ValueError("empty batch")
    hits = np.asarray(indicator(batch.points), dtype=bool)
    if hits.shape != (batch.count,):
        raise ValueError("indicator must return one bool per point")
    return MeasureEstimate.from_hits(int(hits.sum()), batch.count, seed=batch.seed)


# ---------------------------------------------------------------------------
# Fibers of linear maps
# ---------------------------------------------------------------------------

def _fiber_frame(norm: NormDescriptor, f, z) -> tuple[np.ndarray, np.ndarray]:
    """The minimal-Euclidean-norm solution x0 of f x = z and an orthonormal
    basis of the kernel of f, as the columns of a (dim, dim - k) array.

    Raises RankDeficientError unless f has full row rank, and
    EmptyFiberError when ||x0|| >= 1, so the slice misses the open unit ball.
    """
    f = np.atleast_2d(np.asarray(f, dtype=float))
    z = np.atleast_1d(np.asarray(z, dtype=float))
    k, d = f.shape
    if d != norm.dim:
        raise ValueError(f"map must have {norm.dim} columns, got {d}")
    if k >= d:
        raise ValueError(f"map must have fewer than {d} rows, got {k}")
    if z.shape != (k,):
        raise ValueError(f"target must have length {k}")
    if np.linalg.matrix_rank(f) < k:
        raise RankDeficientError("linear map must have full row rank")
    x0 = np.linalg.pinv(f) @ z
    if float(norm_eval(norm, x0)) >= 1.0:
        raise EmptyFiberError(
            "slice does not meet the open unit ball (minimal-norm point has "
            f"norm {float(norm_eval(norm, x0)):.6f})"
        )
    _, _, vt = np.linalg.svd(f)
    return x0, vt[k:].T


def fiber_points(norm: NormDescriptor, f, z, count: int, seed: int) -> np.ndarray:
    """Points y with ||y|| = 1 and f y = z (exactly, up to 1e-10 on the norm).

    Takes the minimal-Euclidean-norm solution x0 of f x = z, draws random
    unit kernel directions v, and solves ||x0 + t v|| = 1 for t > 0 by
    bisection on [0, 1/c1]; the root is unique because t -> ||x0 + t v|| is
    convex with value < 1 at t = 0, and it lies in that bracket because x0
    is orthogonal to the kernel, so ||x0 + t v|| >= c1 |x0 + t v|_2 >= c1 t.
    """
    x0, kernel = _fiber_frame(norm, f, z)
    rng = rng_stream(seed, 0)
    dirs = rng.standard_normal((count, kernel.shape[1]))
    dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)
    v = dirs @ kernel.T
    lo = np.zeros(count)
    hi = np.full(count, 1.0 / sandwich_bounds(norm)[0])
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        inside = np.asarray(norm_eval(norm, x0 + mid[:, None] * v)) < 1.0
        new_lo = np.where(inside, mid, lo)
        new_hi = np.where(inside, hi, mid)
        # An unchanged bracket gives the same mid and the same test again,
        # so every later step would leave it as it is.
        if np.array_equal(new_lo, lo) and np.array_equal(new_hi, hi):
            break
        lo, hi = new_lo, new_hi
    t = 0.5 * (lo + hi)
    return x0 + t[:, None] * v


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
    """How the tube and cap estimators measure distance to a fiber of the
    linear map ``f``.

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


def _round_fiber_distance(points: np.ndarray, x0: np.ndarray,
                          kernel: np.ndarray) -> np.ndarray:
    """Euclidean distance from each point y to the round subsphere
    {|x|_2 = 1} of the affine slice x0 + span(kernel).

    x0 is orthogonal to the kernel, so the subsphere is x0 + K u with
    |u| = r = sqrt(1 - |x0|^2), and the distance is
    sqrt(|P y - x0|^2 + (|K^T y| - r)^2), P projecting onto the row space.
    """
    radius = math.sqrt(max(0.0, 1.0 - float(x0 @ x0)))
    ky = points @ kernel
    row = points - ky @ kernel.T
    along = np.sqrt(np.einsum("ij,ij->i", ky, ky)) - radius
    across = row - x0
    return np.sqrt(np.einsum("ij,ij->i", across, across) + along * along)


def _lp_fiber_distance(points: np.ndarray, p: float, columns: np.ndarray,
                       target: np.ndarray) -> np.ndarray:
    """l_p distance from each point y to the fiber {x_T = target,
    |x_R|_p = r} of a coordinate map, where T are the mapped ``columns``,
    R the other coordinates and r = (1 - |target|_p^p)^(1/p).

    The p-th powers split over the two blocks, and the distance from y_R to
    a sphere of radius r of any norm is ||y_R| - r| (triangle inequality),
    so the distance is (||y_R|_p - r|^p + |y_T - target|_p^p)^(1/p).
    """
    rest = np.setdiff1d(np.arange(points.shape[1]), columns)
    radius = max(0.0, 1.0 - float(np.sum(np.abs(target) ** p))) ** (1.0 / p)
    along = np.sum(np.abs(points[:, rest]) ** p, axis=1) ** (1.0 / p) - radius
    across = np.sum(np.abs(points[:, columns] - target) ** p, axis=1)
    return (np.abs(along) ** p + across) ** (1.0 / p)


def _fiber_distance(norm: NormDescriptor, f, z, eps: float,
                    fiber_budget: int, seed: int
                    ) -> Callable[[np.ndarray], np.ndarray]:
    """Distance function to the fiber {||x|| = 1, f x = z}, built once per z
    by the method ``fiber_distance_method`` names: a closed form, or the
    distance to a cloud of ``fiber_budget`` fiber points, which comes back
    as inf above eps. Raises as ``fiber_points`` does on a rank-deficient
    map or an empty fiber."""
    if fiber_distance_method(norm, f) == "cloud":
        cloud = fiber_points(norm, f, z, fiber_budget, seed)
        return lambda points: min_norm_distance(norm, points, cloud,
                                                upper=eps)
    x0, kernel = _fiber_frame(norm, f, z)
    if norm.is_round:
        return lambda points: _round_fiber_distance(points, x0, kernel)
    columns = _coordinate_columns(f)
    return lambda points: _lp_fiber_distance(points, norm.p, columns,
                                             x0[columns])


def min_norm_distance(norm: NormDescriptor, points: np.ndarray,
                      cloud: np.ndarray,
                      upper: Optional[float] = None) -> np.ndarray:
    """Norm distance from each point to the nearest cloud point, for every
    norm kind: a Euclidean KD prefilter with the sandwich constant c1, and
    exact norm distances only to the candidates the sandwich bound cannot
    rule out. ``upper`` prunes the search: entries whose distance exceeds it
    are reported as inf (much faster when only a threshold test is needed).
    """
    # Only the cloud paths reach the KD tree; importing it here keeps
    # scipy.spatial out of every run that measures distances exactly.
    from scipy.spatial import cKDTree

    bound = math.inf if upper is None else float(upper)
    c1, _ = sandwich_bounds(norm)
    tree = cKDTree(cloud)
    # Enough neighbours that few rows reach the per-row ball query below;
    # the count does not change any distance.
    k_batch = min(64, cloud.shape[0])
    d2, idx = tree.query(points, k=k_batch, distance_upper_bound=bound / c1)
    d2 = np.atleast_2d(np.asarray(d2))
    idx = np.atleast_2d(np.asarray(idx))
    out = np.full(points.shape[0], np.inf)
    found = np.flatnonzero(np.isfinite(d2[:, 0]))
    if found.size:
        # The nearest Euclidean candidate first. A candidate j can only win
        # if c1 * d2_j < best, as ||y|| >= c1 |y|_2; the 1e-12 covers
        # rounding. norm_eval gives each row its own bits, so skipping the
        # others leaves the minimum unchanged.
        best = np.asarray(norm_eval(norm, points[found] - cloud[idx[found, 0]]))
        rows, cols = np.nonzero(
            c1 * d2[found, 1:] < best[:, None] * (1.0 + 1e-12))
        if rows.size:
            cand = found[rows]
            dists = np.asarray(norm_eval(
                norm, points[cand] - cloud[idx[cand, cols + 1]]))
            np.minimum.at(best, rows, dists)
        out[found] = best
    # A cloud point beyond the k-th Euclidean neighbor can only win if
    # c1 * d2_k is still below the current minimum; refine those few exactly.
    d2_last = d2[:, -1]
    unresolved = np.isfinite(d2_last) & \
        (c1 * d2_last < np.minimum(out, bound) - 1e-15)
    for i in np.flatnonzero(unresolved):
        cand = tree.query_ball_point(
            points[i], r=float(min(out[i], bound) / c1) + 1e-12)
        if cand:
            di = norm_eval(norm, points[i][None, :] - cloud[cand])
            out[i] = min(out[i], float(np.min(di)))
    # A row whose nearest candidate lies beyond ``upper`` keeps that finite
    # distance above; report it as inf.
    out[out > bound] = np.inf
    return out


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
    expectation (the conservative direction for checking waist bounds).
    Ties break toward the first grid entry; grid points with empty fibers
    are skipped. Returns (z_star, best_estimate, all_estimates).
    """
    z_grid = [np.atleast_1d(np.asarray(z, dtype=float)) for z in z_grid]
    if not z_grid:
        raise ValueError("z_grid must be nonempty")
    batch = sample_conical(norm, sample_budget, derive_seed(seed, 2))
    estimates: list[Optional[MeasureEstimate]] = []
    for i, z in enumerate(z_grid):
        try:
            distance = _fiber_distance(norm, f, z, eps, fiber_budget,
                                       derive_seed(seed, 3 + i))
        except EmptyFiberError:
            estimates.append(None)
            continue
        estimates.append(
            MeasureEstimate.from_hits(int((distance(batch.points) <= eps).sum()),
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


def cap_neighborhood_measure(
    norm: NormDescriptor,
    f,
    tau: float,
    eps: float,
    sample_budget: int,
    fiber_budget: int,
    seed: int,
) -> tuple[MeasureEstimate, MeasureEstimate]:
    """Estimate the cone measures of the eps-neighborhoods of the cap
    A = {f x >= tau} of a one-row map ``f`` and of its complement.

    For y outside A, in any norm, some nearest point of A lies on the
    boundary fiber {f x = tau}. Let a in A be nearest to y; as f y <
    tau <= f a, a != y. The unit sphere meets span(y, a) (any plane through
    y if a = -y) in the unit circle of that normed plane, and a lies on a
    half circle from y to -y. On the arc of that half circle from y to a,
    the linear f goes from below tau to at least tau, so it crosses tau at
    some x. By the monotonicity lemma (Martini, Swanepoel and Weiss, Expo.
    Math. 19, 2001), ||y - x|| does not decrease as x runs along a half
    circle from y to -y, so ||y - x|| <= ||y - a|| and x is nearest too.
    The same holds for the complement with -f. So both distances are the
    distance to that fiber.

    One batch at the seed path (seed, 1) serves both sets: a point counts
    for A if it lies in A or within eps of the boundary fiber, and for the
    complement if it lies outside A or within eps of it. The distance to
    the fiber is taken as ``fiber_distance_method`` names. "exact": the
    closed form, so each estimate is unbiased with its binomial standard
    error, and ``fiber_budget`` is unused. "cloud": the distance to
    ``fiber_budget`` fiber points drawn at derive_seed(seed, 2), which can
    only overestimate it, so both estimates are conservative; a larger
    budget extends the same cloud and never lowers them.

    Raises EmptySetError when the batch has no point in the cap or none in
    its complement.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    f = np.atleast_2d(np.asarray(f, dtype=float))
    if f.shape[0] != 1:
        raise ValueError(f"a cap needs a one-row map, got {f.shape[0]} rows")
    batch = sample_conical(norm, sample_budget, derive_seed(seed, 1))
    in_a = batch.points @ f[0] >= tau
    if in_a.all() or not in_a.any():
        raise EmptySetError(
            "no sample points landed in the cap or in its complement")
    distance = _fiber_distance(norm, f, [tau], eps, fiber_budget,
                               derive_seed(seed, 2))
    near = distance(batch.points) <= eps
    return (
        MeasureEstimate.from_hits(int((in_a | near).sum()), sample_budget,
                                  seed=seed),
        MeasureEstimate.from_hits(int((~in_a | near).sum()), sample_budget,
                                  seed=seed),
    )
