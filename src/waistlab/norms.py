"""Uniformly convex norms on finite-dimensional spaces.

Provides norm descriptors (Euclidean, l_p, regularized/smoothed variants),
norm evaluation, moduli of convexity (closed forms plus a numeric estimator
over 2-D sections), radial projection, Euclidean sandwich constants, and
the seeded random streams every estimator draws from.

All objects are immutable after construction and every operation is a pure
function, so everything here is safe to call from concurrent workers.
``norm_eval`` is pure row by row as well: a row of a batch gets the bits it
gets when evaluated alone, for every norm kind, so a search may batch, split
or prune its evaluations without changing a result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = [
    "NormDescriptor",
    "ModulusCurve",
    "DimensionMismatchError",
    "UnsupportedNormError",
    "euclidean_norm",
    "lp_norm",
    "parse_norm",
    "format_norm",
    "norm_eval",
    "radial_project",
    "sandwich_bounds",
    "rng_stream",
    "derive_seed",
    "euclidean_modulus",
    "lp_modulus",
    "euclidean_modulus_curve",
    "lp_modulus_curve",
    "analytic_modulus_curve",
    "modulus_of_convexity",
    "numeric_modulus_curve",
    "smooth_norm",
]


class DimensionMismatchError(ValueError):
    """Input vector length does not match the norm's ambient dimension."""


class UnsupportedNormError(ValueError):
    """Operation not available for this norm kind."""


def _seed_sequence(seed: int, path) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=int(seed),
                                  spawn_key=tuple(int(p) for p in path))


def rng_stream(seed: int, *path: int) -> np.random.Generator:
    """Counter-based generator keyed by (seed, path), so substreams are
    reproducible independently of execution order or worker count."""
    return np.random.Generator(np.random.Philox(_seed_sequence(seed, path)))


def derive_seed(seed: int, *path: int) -> int:
    """Integer seed keyed by (seed, path), for a callee that takes a seed
    rather than a generator; the same key always gives the same seed."""
    return int(_seed_sequence(seed, path).generate_state(1)[0])


# Gauss-Legendre nodes per axis for the mollifying ball quadrature.
_MOLLIFIER_NODES = 8
_SMOOTH_MAX_DIM = 4
# Radius of the reference sphere used to re-homogenize the mollified norm.
_HOMOG_RADIUS = 10.0
# Doubles in one block of the mollified-norm kernel (256 KiB).
_BLOCK_ELEMENTS = 2**15


@dataclass(frozen=True)
class NormDescriptor:
    """A finite-dimensional norm: Euclidean, l_p (1 < p < inf), or a
    regularized variant sqrt(smoothed_base(x)^2 + delta_reg*|x|_2^2).

    ``dim`` is the ambient dimension n+1; the unit sphere has dimension n.
    """

    kind: str  # "euclidean" | "lp" | "regularized"
    dim: int
    p: Optional[float] = None
    base: Optional["NormDescriptor"] = None
    mollifier_width: float = 0.0
    delta_reg: float = 0.0

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError(f"dim must be >= 2, got {self.dim}")
        if self.kind == "euclidean":
            pass
        elif self.kind == "lp":
            if self.p is None or not (1.0 < self.p < math.inf):
                raise ValueError(
                    f"lp norm requires 1 < p < inf (uniform convexity fails at "
                    f"p=1 and p=inf), got p={self.p}"
                )
        elif self.kind == "regularized":
            if self.base is None:
                raise ValueError("regularized norm requires a base norm")
            if self.base.dim != self.dim:
                raise DimensionMismatchError("base norm dimension mismatch")
            w, d = self.mollifier_width, self.delta_reg
            if not (0.0 <= w < math.inf and 0.0 <= d < math.inf):
                raise ValueError(
                    f"regularized norm requires finite w >= 0 and d >= 0, "
                    f"got w={w}, d={d}"
                )
            if sandwich_bounds(self)[0] == 0.0:
                b1, b2 = sandwich_bounds(self.base)
                raise ValueError(
                    f"regularized norm with d=0 requires w < "
                    f"{_HOMOG_RADIUS * b1 / b2:.6g} so that c1 > 0, got w={w}"
                )
            object.__setattr__(self, "_quad", _ball_quadrature(self.dim, w))
        else:
            raise ValueError(f"unknown norm kind {self.kind!r}")

    @property
    def sphere_dim(self) -> int:
        """Dimension n of the unit sphere."""
        return self.dim - 1

    @property
    def is_round(self) -> bool:
        """Whether the unit sphere is the round one: euclidean, or l_2."""
        return self.kind == "euclidean" or (self.kind == "lp" and self.p == 2)

    @property
    def minkowski_p(self) -> Optional[float]:
        """The p of an l_p (Minkowski) norm: 2.0 for euclidean, p for lp,
        None for regularized norms, which are no l_p norm."""
        if self.kind == "euclidean":
            return 2.0
        return self.p if self.kind == "lp" else None

    @property
    def has_analytic_modulus(self) -> bool:
        """Whether the modulus of convexity has a closed form: euclidean and
        l_p norms. Regularized norms take the numeric estimate."""
        return self.kind in ("euclidean", "lp")

    def __str__(self) -> str:
        return format_norm(self)


def euclidean_norm(dim: int) -> NormDescriptor:
    return NormDescriptor(kind="euclidean", dim=dim)


def lp_norm(p: float, dim: int) -> NormDescriptor:
    return NormDescriptor(kind="lp", dim=dim, p=float(p))


def format_norm(norm: NormDescriptor) -> str:
    """Serialize a descriptor as ``euclidean:3``, ``lp:4:3`` or
    ``reg:lp:1.5:2:w=0.05:d=0.01``."""
    if norm.kind == "euclidean":
        return f"euclidean:{norm.dim}"
    if norm.kind == "lp":
        return f"lp:{_fmt_num(norm.p)}:{norm.dim}"
    base = norm.base
    if base.kind == "lp":
        head = f"reg:lp:{_fmt_num(base.p)}:{norm.dim}"
    else:
        head = f"reg:euclidean:{norm.dim}"
    return f"{head}:w={_fmt_num(norm.mollifier_width)}:d={_fmt_num(norm.delta_reg)}"


def _fmt_num(x: float) -> str:
    return repr(float(x)).rstrip("0").rstrip(".") if "." in repr(float(x)) else repr(float(x))


def parse_norm(text: str) -> NormDescriptor:
    """Parse a descriptor string produced by :func:`format_norm`.

    Any string not of that form raises ``ValueError("malformed norm
    string ...")``. A well-formed string naming an unsupported norm keeps its
    own message: p outside (1, inf), w or d not finite and >= 0, a
    regularized norm with no positive lower sandwich constant, or smoothing
    above dim 4 (:class:`UnsupportedNormError`).
    """
    parts = text.strip().split(":")
    try:
        if parts[0] == "euclidean":
            if len(parts) != 2:
                raise ValueError
            return euclidean_norm(int(parts[1]))
        if parts[0] == "lp":
            if len(parts) != 3:
                raise ValueError
            return lp_norm(float(parts[1]), int(parts[2]))
        if parts[0] == "reg":
            if parts[1] == "lp":
                p, dim, rest = float(parts[2]), int(parts[3]), parts[4:]
                base = lp_norm(p, dim)
            elif parts[1] == "euclidean":
                dim, rest = int(parts[2]), parts[3:]
                base = euclidean_norm(dim)
            else:
                raise ValueError
            opts = dict(item.split("=", 1) for item in rest)
            if sorted(opts) != ["d", "w"]:
                raise ValueError
            width, delta = float(opts["w"]), float(opts["d"])
        else:
            raise ValueError
    except UnsupportedNormError:
        raise
    except (ValueError, IndexError) as exc:
        if "1 < p < inf" in str(exc):
            raise
        raise ValueError(f"malformed norm string {text!r}") from exc
    return smooth_norm(base, width, delta)


# ---------------------------------------------------------------------------
# Norm evaluation
# ---------------------------------------------------------------------------

def norm_eval(norm: NormDescriptor, x) -> np.ndarray | float:
    """Evaluate ||x||. Accepts a single vector of shape (dim,) or a batch of
    shape (..., dim); returns a scalar or an array of matching leading shape.
    Each row's value depends on that row alone, not on the batch around it.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != norm.dim:
        raise DimensionMismatchError(
            f"expected vectors of length {norm.dim}, got {x.shape[-1]}"
        )
    scalar = x.ndim == 1
    x2 = x[None, :] if scalar else x
    if norm.kind == "regularized":
        out = _regularized_eval(norm, x2)
    else:
        out = _column_norm(norm, np.moveaxis(x2, -1, 0))
    return float(out[0]) if scalar else out


def _column_norm(norm: NormDescriptor, cols: np.ndarray,
                 out: Optional[np.ndarray] = None) -> np.ndarray:
    """Evaluate a euclidean or l_p norm on coordinate-major input: ``cols``
    has shape (dim, ...), one array per coordinate.

    Reducing with elementwise ufuncs across the coordinate arrays avoids
    numpy's per-row cost on a short last axis. :func:`_column_sum` keeps
    numpy's summation order, so the values equal the row-major
    ``np.linalg.norm`` and ``sum(axis=-1)`` formulas bit for bit.

    A caller that passes ``out`` (shape ``cols.shape[1:]``) also hands over
    ``cols``: both are overwritten, and the norms land in ``out``.
    """
    own = None if out is None else cols
    if norm.kind == "euclidean":
        sums = _column_sum(np.multiply(cols, cols, out=own), out=out)
        return np.sqrt(sums, out=sums)
    return _lp_of_abs(np.abs(cols, out=own), norm.p, out)


def _lp_of_abs(ax: np.ndarray, p: float,
               out: Optional[np.ndarray] = None) -> np.ndarray:
    """The l_p norm of coordinate-major absolute values ``ax``, shape
    (dim, ...), which the caller owns: they are overwritten.

    The max component is factored out, so huge or tiny inputs neither
    overflow nor underflow before the 1/p root. A row whose max is 0, inf
    or NaN has that max as its norm, and only the other rows are scaled.
    """
    m = np.maximum(ax[0], ax[1], out=out)
    for col in ax[2:]:
        np.maximum(m, col, out=m)
    ok, all_ok = _finite_positive(m)
    if not all_ok:
        if ok.any():
            m[ok] = _lp_of_abs(ax[:, ok], p)
        return m
    ax /= m
    # Given ``out``, ``ax`` is the caller's C-contiguous block and its first
    # coordinate takes the sums. Otherwise ``ax`` may be strided like the
    # caller's rows, and a fresh contiguous array is faster.
    sums = _column_sum(np.power(ax, p, out=ax),
                       out=None if out is None else ax[0])
    np.power(sums, 1.0 / p, out=sums)
    return np.multiply(m, sums, out=m)


def _finite_positive(v: np.ndarray) -> tuple[np.ndarray, bool]:
    """Mask of the entries of ``v`` in (0, inf), and whether it holds them
    all (NaN is in no interval)."""
    ok = v > 0
    ok &= v < math.inf
    return ok, np.count_nonzero(ok) == ok.size


def _column_sum(cols: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Sum at least two arrays stacked on the leading axis, in the order of
    numpy's pairwise summation along a contiguous row: left to right below
    8 terms, eight interleaved partial sums up to 128, halves beyond. The
    result goes to ``out`` if given, which may be ``cols[0]``."""
    n = cols.shape[0]
    if n < 8:
        out = np.add(cols[0], cols[1], out=out)
        for col in cols[2:]:
            out += col
        return out
    if n <= 128:
        full = n - n % 8
        r = cols[:8].copy()
        for lo in range(8, full, 8):
            r += cols[lo : lo + 8]
        out = np.add((r[0] + r[1]) + (r[2] + r[3]),
                     (r[4] + r[5]) + (r[6] + r[7]), out=out)
        for col in cols[full:]:
            out += col
        return out
    half = n // 2 - (n // 2) % 8
    return np.add(_column_sum(cols[:half]), _column_sum(cols[half:]), out=out)


def _ball_quadrature(dim: int, width: float):
    """Product Gauss-Legendre nodes on the cube [-w, w]^dim, masked to the
    Euclidean ball of radius w and renormalized. Returns (offsets, weights)
    with the offsets coordinate-major and contiguous, shape (dim, nodes); a
    zero width yields the single node at the origin."""
    if width <= 0:
        return np.zeros((dim, 1)), np.ones(1)
    nodes, weights = np.polynomial.legendre.leggauss(_MOLLIFIER_NODES)
    nodes = nodes * width
    weights = weights * width
    grids = np.meshgrid(*([nodes] * dim), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=-1)
    wgrids = np.meshgrid(*([weights] * dim), indexing="ij")
    w = np.prod(np.stack([g.ravel() for g in wgrids], axis=-1), axis=-1)
    mask = np.linalg.norm(pts, axis=-1) <= width
    pts, w = pts[mask], w[mask]
    return np.ascontiguousarray(pts.T), w / w.sum()


def _mollified_base(norm: NormDescriptor, x: np.ndarray) -> np.ndarray:
    """Smoothed base norm of the rows of ``x`` (shape (points, dim)):
    average the base norm over a Euclidean ball of radius
    ``mollifier_width``, evaluated on the reference sphere and extended
    positively 1-homogeneous.

    Each row's value depends on that row alone, bit for bit, whatever the
    batch around it: every step is elementwise or a reduction along one
    row's own nodes.
    """
    offsets, weights = norm._quad  # type: ignore[attr-defined]
    dim, nodes = offsets.shape
    r = np.linalg.norm(x, axis=-1)
    # A row of Euclidean length 0, inf or NaN has that length as its value.
    ok, all_ok = _finite_positive(r)
    if not all_ok:
        if ok.any():
            r[ok] = _mollified_base(norm, x[ok])
        return r
    # Coordinate-major (dim, points), so each block below broadcasts
    # contiguous rows against the contiguous (dim, nodes) offsets.
    ref = np.ascontiguousarray((_HOMOG_RADIUS * x / r[:, None]).T)
    count = ref.shape[1]
    vals = np.empty(count)
    # A block of rows spans about _BLOCK_ELEMENTS (dim, rows, nodes) doubles,
    # so the two buffers below stay in a core's cache and every step of the
    # base norm writes into them instead of allocating. No value depends on
    # its block, so any block size gives the same bits.
    step = max(1, _BLOCK_ELEMENTS // (dim * nodes))
    block = np.empty((dim, min(step, count), nodes))
    acc = np.empty(block.shape[1:])
    for lo in range(0, count, step):
        hi = min(lo + step, count)
        diffs, base_vals = block[:, : hi - lo], acc[: hi - lo]
        np.subtract(ref[:, lo:hi, None], offsets[:, None, :], out=diffs)
        _column_norm(norm.base, diffs, out=base_vals)
        base_vals *= weights
        np.sum(base_vals, axis=-1, out=vals[lo:hi])
    vals *= r
    vals /= _HOMOG_RADIUS
    return vals


def _regularized_eval(norm: NormDescriptor, x: np.ndarray) -> np.ndarray:
    smoothed = _mollified_base(norm, x.reshape(-1, norm.dim)).reshape(x.shape[:-1])
    if norm.delta_reg > 0:
        return np.sqrt(smoothed**2 + norm.delta_reg * np.einsum("...i,...i->...", x, x))
    return smoothed


# ---------------------------------------------------------------------------
# Radial projection and sandwich constants
# ---------------------------------------------------------------------------

def radial_project(norm: NormDescriptor, x) -> np.ndarray:
    """Project x (or a batch) to the unit sphere, x/||x||.

    Between points of norm >= 1 this map is 2-Lipschitz in the norm metric.
    """
    x = np.asarray(x, dtype=float)
    n = norm_eval(norm, x)
    if np.any(np.asarray(n) == 0):
        raise ValueError("cannot radially project the zero vector")
    return x / np.asarray(n)[..., None] if x.ndim > 1 else x / n


def sandwich_bounds(norm: NormDescriptor) -> tuple[float, float]:
    """Constants (c1, c2) with c1*|x|_2 <= ||x|| <= c2*|x|_2, for every norm
    kind, for envelopes and prefilters.

    Euclidean and l_p norms take the extremal closed forms: for l_p they are
    d^(1/p - 1/2) and 1 (attained on the diagonal and on basis vectors), so
    c2/c1 <= sqrt(dim). Regularized norms follow from their base's
    constants: averaging the base norm over a ball of radius w perturbs it
    by at most c2_base * w / R relative to the Euclidean length (R the
    homogenization radius), and the delta term adds in quadrature.
    """
    if norm.kind == "euclidean":
        return 1.0, 1.0
    if norm.kind == "lp":
        t = norm.dim ** (1.0 / norm.p - 0.5)
        return min(1.0, t), max(1.0, t)
    b1, b2 = sandwich_bounds(norm.base)
    slack = b2 * norm.mollifier_width / _HOMOG_RADIUS
    lo = max(0.0, b1 - slack)
    hi = b2 + slack
    return (math.sqrt(lo**2 + norm.delta_reg),
            math.sqrt(hi**2 + norm.delta_reg))


# ---------------------------------------------------------------------------
# Modulus of convexity
# ---------------------------------------------------------------------------

def euclidean_modulus(eps) -> np.ndarray | float:
    """Euclidean modulus of convexity, 1 - sqrt(1 - eps^2/4)."""
    if isinstance(eps, float):
        # Same operations as below, on a Python float.
        return 1.0 - math.sqrt(max(1.0 - eps * eps / 4.0, 0.0))
    eps = np.asarray(eps, dtype=float)
    out = 1.0 - np.sqrt(np.clip(1.0 - eps**2 / 4.0, 0.0, None))
    return float(out) if out.ndim == 0 else out


def lp_modulus(p: float, eps) -> np.ndarray | float:
    """Closed-form modulus estimate for l_p.

    p >= 2: 1 - (1 - (eps/2)^p)^(1/p), the sharp two-point value.
    1 < p < 2: the quadratic lower estimate (p-1) eps^2 / 8. Both are valid
    lower bounds for the true modulus and are cross-checked numerically in
    the test suite.
    """
    if isinstance(eps, float):
        # Same operations as below, on a Python float; np.power stays, as
        # math.pow need not round as numpy's power loop does.
        if p >= 2:
            inner = max(1.0 - float(np.power(eps / 2.0, p)), 0.0)
            return 1.0 - float(np.power(inner, 1.0 / p))
        return float((p - 1.0) * (eps * eps) / 8.0)
    eps = np.asarray(eps, dtype=float)
    if p >= 2:
        out = 1.0 - np.power(np.clip(1.0 - np.power(eps / 2.0, p), 0.0, None), 1.0 / p)
    else:
        out = (p - 1.0) * eps**2 / 8.0
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class ModulusCurve:
    """The modulus of convexity delta(eps) as an evaluable curve.

    ``source`` records provenance: "analytic" for closed forms or
    "numeric_lower_estimate" for grid estimates (kept monotone, linearly
    interpolated, delta(0) = 0 by continuity). Despite that name, a numeric
    curve is an *upper* estimate of delta: the search behind it returns the
    smallest value it found, never less than the infimum. A waist bound
    built on it therefore leans non-conservative. The source string keeps its
    historical name for the callers that match on it.
    """

    source: str  # "analytic" | "numeric_lower_estimate"
    label: str
    fn: Optional[Callable] = None
    grid: Optional[np.ndarray] = None
    values: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.source not in ("analytic", "numeric_lower_estimate"):
            raise ValueError(f"unknown modulus source {self.source!r}")
        if self.source == "analytic" and self.fn is None:
            raise ValueError("analytic curve requires fn")
        if self.source == "numeric_lower_estimate":
            if self.grid is None or self.values is None:
                raise ValueError("numeric curve requires grid and values")
            object.__setattr__(self, "grid", np.asarray(self.grid, dtype=float))
            # Search noise can produce tiny dips; the curve contract is
            # nondecreasing, so take the running maximum.
            vals = np.maximum.accumulate(np.asarray(self.values, dtype=float))
            object.__setattr__(self, "values", vals)
            # Interpolation knots with delta(0) = 0 prepended.
            object.__setattr__(self, "_knots", np.concatenate([[0.0], self.grid]))
            object.__setattr__(self, "_levels", np.concatenate([[0.0], vals]))

    def __call__(self, eps) -> np.ndarray | float:
        if isinstance(eps, (int, float)):
            # Scalar fast path: the bits of the array path below, as a
            # Python float, without building 0-d arrays.
            if self.fn is not None:
                return 0.0 if eps <= 0 else float(self.fn(float(eps)))
            return float(np.interp(eps, self._knots, self._levels))
        eps = np.asarray(eps, dtype=float)
        if self.fn is not None:
            out = np.where(eps <= 0, 0.0, self.fn(eps))
        else:
            out = np.interp(eps, self._knots, self._levels)
        out = np.asarray(out, dtype=float)
        return float(out) if out.ndim == 0 else out


def euclidean_modulus_curve() -> ModulusCurve:
    return ModulusCurve(source="analytic", label="euclidean", fn=euclidean_modulus)


def lp_modulus_curve(p: float) -> ModulusCurve:
    return ModulusCurve(
        source="analytic", label=f"lp({_fmt_num(p)})", fn=lambda e: lp_modulus(p, e)
    )


def analytic_modulus_curve(norm: NormDescriptor) -> ModulusCurve:
    """Closed-form curve for the norms ``has_analytic_modulus`` names."""
    if not norm.has_analytic_modulus:
        raise UnsupportedNormError(
            "no analytic modulus for regularized norms; use method='numeric'"
        )
    if norm.is_round:
        return euclidean_modulus_curve()
    return lp_modulus_curve(norm.p)


def modulus_of_convexity(
    norm: NormDescriptor,
    eps: float,
    method: str = "auto",
    budget: int = 100_000,
    seed: int = 0,
) -> float:
    """Modulus of convexity delta(eps) = inf 1 - ||x+y||/2 over unit x, y
    with ||x-y|| >= eps.

    ``analytic`` uses the closed forms above; ``numeric`` searches random
    2-D sections (plus all coordinate-pair sections) with a chord-matching
    bisection and golden-section refinement, returning the smallest value
    found (an upper estimate of the infimum). delta(0) = 0 by continuity.
    """
    if eps < 0 or eps > 2:
        raise ValueError(f"eps must lie in (0, 2], got {eps}")
    if eps == 0:
        return 0.0
    if method == "auto":
        method = "analytic" if norm.has_analytic_modulus else "numeric"
    if method == "analytic":
        return float(analytic_modulus_curve(norm)(eps))
    if method != "numeric":
        raise ValueError(f"unknown method {method!r}")
    return float(_numeric_modulus(norm, [eps], budget, seed)[0])


def _section_units(norm, u, v, theta):
    """Unit vectors at angles theta inside per-lane sections: ``u``, ``v``
    are row-aligned (B, dim) orthonormal pairs, theta has shape (B,)."""
    theta = np.asarray(theta, dtype=float)
    d = np.cos(theta)[:, None] * u + np.sin(theta)[:, None] * v
    return d / np.asarray(norm_eval(norm, d))[:, None]


def _section_objective(norm, u, v, theta1, eps):
    """1 - ||x + y||/2 where x = x(theta1) and y = x(theta1 + delta) with
    delta bisected in (0, pi] so the chord ||x - y|| equals eps; one lane
    per row of (u, v, theta1), and ``eps`` a scalar or one value per lane."""
    theta1 = np.asarray(theta1, dtype=float)
    x1 = _section_units(norm, u, v, theta1)
    lo = np.zeros_like(theta1)
    hi = np.full_like(theta1, math.pi)
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        chord = norm_eval(norm, _section_units(norm, u, v, theta1 + mid) - x1)
        too_small = chord < eps
        lo = np.where(too_small, mid, lo)
        hi = np.where(too_small, hi, mid)
    y = _section_units(norm, u, v, theta1 + 0.5 * (lo + hi))
    return np.asarray(norm_eval(norm, x1 + y)) * -0.5 + 1.0


def _numeric_modulus(norm, eps, budget, seed) -> np.ndarray:
    """Section-search estimates of delta at every value of ``eps`` (1-D),
    in one lane set.

    Every eps searches the same sections from the same starts (one seed),
    each lane carrying its own eps, and the golden-section refinement
    advances all lanes together. As ``norm_eval`` gives each row the bits
    it has alone, each value equals a search at that eps on its own.
    """
    eps = np.asarray(eps, dtype=float)
    rng = rng_stream(seed)
    dim = norm.dim
    n_random = int(np.clip(budget // 3000, 4, 64))
    starts = int(np.clip(budget // (n_random * 30), 16, 96))
    sections = []
    for i in range(dim):
        for j in range(i + 1, dim):
            e_i, e_j = np.zeros(dim), np.zeros(dim)
            e_i[i] = 1.0
            e_j[j] = 1.0
            sections.append((e_i, e_j))
    for _ in range(n_random):
        a = rng.standard_normal(dim)
        a /= np.linalg.norm(a)
        b = rng.standard_normal(dim)
        b -= (b @ a) * a
        b /= np.linalg.norm(b)
        sections.append((a, b))
    n_eps, n_sec = eps.size, len(sections)
    sec_u = np.stack([s[0] for s in sections])
    sec_v = np.stack([s[1] for s in sections])
    # Lanes ordered (eps, section, start).
    u = np.tile(np.repeat(sec_u, starts, axis=0), (n_eps, 1))
    v = np.tile(np.repeat(sec_v, starts, axis=0), (n_eps, 1))
    thetas = np.linspace(0.0, 2.0 * math.pi, starts, endpoint=False)
    grid = np.tile(thetas, n_eps * n_sec)
    lane_eps = np.repeat(eps, n_sec * starts)
    vals = _section_objective(norm, u, v, grid, lane_eps).reshape(
        n_eps, n_sec, starts)
    best = vals.min(axis=(1, 2))

    # Golden-section refinement of the three best starts per section, all
    # lanes advanced together so each iteration costs one batched objective.
    order = np.argsort(vals, axis=2)[:, :, :3]
    centers = thetas[order].ravel()
    sec_idx = np.tile(np.repeat(np.arange(n_sec), 3), n_eps)
    h = 2.0 * math.pi / starts
    bu = sec_u[sec_idx]
    bv = sec_v[sec_idx]
    lane_eps = np.repeat(eps, n_sec * 3)
    a = centers - h
    b = centers + h
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    # Both starting probes in one call: lanes are independent, so each
    # half has the bits of its own call.
    fc, fd = np.split(_section_objective(
        norm, np.tile(bu, (2, 1)), np.tile(bv, (2, 1)), np.concatenate([c, d]),
        np.tile(lane_eps, 2)), 2)
    for _ in range(24):
        left = fc < fd  # minimum bracketed in [a, d] vs [c, b]
        a = np.where(left, a, c)
        b = np.where(left, d, b)
        carry_pt = np.where(left, c, d)  # survives as the new d (resp. c)
        carry_f = np.where(left, fc, fd)
        probe = np.where(left, b - invphi * (b - a), a + invphi * (b - a))
        f_probe = _section_objective(norm, bu, bv, probe, lane_eps)
        c = np.where(left, probe, carry_pt)
        fc = np.where(left, f_probe, carry_f)
        d = np.where(left, carry_pt, probe)
        fd = np.where(left, carry_f, f_probe)
    refined = np.minimum(fc, fd).reshape(n_eps, -1).min(axis=1)
    return np.minimum(best, refined)


def numeric_modulus_curve(
    norm: NormDescriptor,
    eps_grid=None,
    budget: int = 100_000,
    seed: int = 0,
) -> ModulusCurve:
    """Estimate the modulus on a grid and wrap it as a monotone curve.

    Each grid value is the smallest 1 - ||x+y||/2 the section search found,
    an upper estimate of delta(eps); bounds computed from the curve can come
    out slightly too high (non-conservative). One batched search covers the
    whole grid, and each value equals a search at its eps alone.
    """
    if eps_grid is None:
        eps_grid = np.linspace(0.1, 1.9, 19)
    eps_grid = np.asarray(eps_grid, dtype=float)
    vals = _numeric_modulus(norm, eps_grid, budget, seed)
    return ModulusCurve(
        source="numeric_lower_estimate",
        label=f"numeric({format_norm(norm)})",
        grid=eps_grid,
        values=vals,
    )


# ---------------------------------------------------------------------------
# Norm smoothing
# ---------------------------------------------------------------------------

def smooth_norm(
    norm: NormDescriptor, mollifier_width: float, delta_reg: float
) -> NormDescriptor:
    """Regularize a norm: mollify over a Euclidean ball of the given width,
    re-homogenize, and add a delta_reg Euclidean square under the root.

    Desk-scale only (dim <= 4): the mollification is a product quadrature
    over a ball, so cost grows exponentially with dimension.
    """
    if norm.kind == "regularized":
        raise UnsupportedNormError("norm is already regularized")
    if norm.dim > _SMOOTH_MAX_DIM:
        raise UnsupportedNormError(
            f"smooth_norm supports dim <= {_SMOOTH_MAX_DIM}, got {norm.dim}"
        )
    return NormDescriptor(
        kind="regularized",
        dim=norm.dim,
        base=norm,
        mollifier_width=float(mollifier_width),
        delta_reg=float(delta_reg),
    )
