"""Uniformly convex norms on finite-dimensional spaces.

Provides norm descriptors (Euclidean, l_p, regularized/smoothed variants),
norm evaluation and certified per-row brackets of it, moduli of convexity
(a closed form or certified floor for every norm kind, plus a numeric
search over 2-D sections), Euclidean sandwich constants, and the seeded
random streams every estimator draws from.

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
    "norm_bracket",
    "sandwich_bounds",
    "rng_stream",
    "derive_seed",
    "euclidean_modulus",
    "lp_modulus",
    "euclidean_modulus_curve",
    "lp_modulus_curve",
    "analytic_modulus_curve",
    "numeric_modulus",
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
# Widest mollifier: the quadrature's weights are products of dim <= 4
# factors of about 0.36 w, which overflow from about w = 1e77.
_MAX_WIDTH = 1e75
# Largest d: norm_eval's rescaled rows have |x / m|_2^2 up to dim <= 4, so
# d |x / m|_2^2 stays finite.
_MAX_DELTA = 1e300
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
            if not (0.0 <= w <= _MAX_WIDTH and 0.0 <= d <= _MAX_DELTA):
                raise ValueError(
                    f"regularized norm requires finite w >= 0 and d >= 0, "
                    f"with w <= {_MAX_WIDTH:g} and d <= {_MAX_DELTA:g}, got "
                    f"w={w}, d={d}"
                )
            offsets, weights = _ball_quadrature(self.dim, w)
            object.__setattr__(self, "_quad", (offsets, weights))
            # s of sandwich_bounds, which every norm_eval call reads.
            object.__setattr__(self, "_node_mean", float(
                weights @ norm_eval(self.base, offsets.T)) / _HOMOG_RADIUS)
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
    own message: p outside (1, inf), w outside [0, 1e75], d outside
    [0, 1e300], or smoothing above dim 4 (:class:`UnsupportedNormError`).
    Every other w and d gives a norm.
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
    out = _kernel_eval(norm, x2)
    if norm.kind != "lp":
        # These kernels square before the root. A row whose Euclidean length
        # or smoothed part is below 2^-511 (subnormal squares) has a value
        # below 2^-511 c2 / b1 (1 on a euclidean norm); an overflow gives
        # inf. Such a row is m ||x / m||, m = max |x_i|, or m where that is
        # 0, inf or NaN. Every other row keeps its bits.
        floor = 2.0**-511
        if norm.kind == "regularized":
            floor *= sandwich_bounds(norm)[1] / sandwich_bounds(norm.base)[0]
        far = ~((out >= floor) & (out < math.inf))
        if far.any():
            m = np.max(np.abs(x2[far]), axis=-1)
            ok, _ = _finite_positive(m)
            m[ok] *= _kernel_eval(norm, x2[far][ok] / m[ok, None])
            out[far] = m
    return float(out[0]) if scalar else out


def _kernel_eval(norm: NormDescriptor, x: np.ndarray) -> np.ndarray:
    # A row of extreme length may overflow or divide by zero here;
    # norm_eval finds it by its value and evaluates it again, scaled.
    with np.errstate(all="ignore"):
        if norm.kind == "regularized":
            return _regularized_eval(norm, x)
        return _column_norm(norm, np.moveaxis(x, -1, 0))


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
    # A row of Euclidean length 0, inf or NaN comes out NaN or inf, which
    # norm_eval mends.
    r = np.linalg.norm(x, axis=-1)
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
# Sandwich constants
# ---------------------------------------------------------------------------

def sandwich_bounds(norm: NormDescriptor) -> tuple[float, float]:
    """Constants (c1, c2) with c1*|x|_2 <= ||x|| <= c2*|x|_2, for every norm
    kind, for envelopes and prefilters.

    Euclidean and l_p norms take the extremal closed forms: for l_p they are
    d^(1/p - 1/2) and 1 (attained on the diagonal and on basis vectors), so
    c2/c1 <= sqrt(dim).

    A regularized norm takes its base's constants (b1, b2) and the mean
    s = sum_i w_i N(y_i) / R of the base norm N over the mollifier's
    quadrature nodes y_i (weights w_i > 0 summing to 1), R the
    homogenization radius. At unit |x|_2 the mollified base is
    M(x) = sum_i w_i N(R x - y_i) / R. The nodes and weights are symmetric,
    so sum_i w_i y_i = 0 and Jensen gives M(x) >= N(x) >= b1. The triangle
    inequality, with N(R x) <= b2 R, gives s - b2 <= M(x) <= b2 + s. The d
    term adds in quadrature: c1 = sqrt(max(b1, s - b2)^2 + d) and
    c2 = sqrt((b2 + s)^2 + d), at every width.
    """
    if norm.kind == "euclidean":
        return 1.0, 1.0
    if norm.kind == "lp":
        t = norm.dim ** (1.0 / norm.p - 0.5)
        return min(1.0, t), max(1.0, t)
    b1, b2 = sandwich_bounds(norm.base)
    s = norm._node_mean  # type: ignore[attr-defined]
    return (math.sqrt(max(b1, s - b2) ** 2 + norm.delta_reg),
            math.sqrt((b2 + s) ** 2 + norm.delta_reg))


# Relative widening of both ends of a regularized norm's bracket, far above
# the rounding that ``norm_bracket``'s docstring bounds.
_BRACKET_MARGIN = 1e-9
# Rows whose Euclidean length or base norm lies outside this range get the
# bracket (0, inf).
_BRACKET_RANGE = (2.0**-511, 2.0**511)


def norm_bracket(norm: NormDescriptor, x):
    """Bounds (lo, hi) with lo <= ``norm_eval(norm, x)`` <= hi row by row,
    for the shapes ``norm_eval`` takes. Each row's bounds depend on that row
    alone.

    Euclidean and l_p norms give lo = hi = ``norm_eval(norm, x)``, the same
    bits, so a caller keeps one code path for every norm kind.

    A regularized norm N = sqrt(M^2 + d r^2), r = |x|_2, takes a bracket
    from one base-norm evaluation per row. The arguments of
    ``sandwich_bounds``, made there at r = 1, hold at every r: with b the
    base norm N_0 of x and s the node mean, b <= M(x) <= b + s r (Jensen
    below, as the nodes are symmetric, and the triangle inequality above).
    So N lies in [L, H], L = hypot(b, sqrt(d) r) and
    H = hypot(b + s r, sqrt(d) r), and the bracket is
    [L - m H, (1 + m) H] with m = 1e-9.

    The margin covers the rounding of both sides. Let u = 2^-53 and let r
    and b lie in [2^-511, 2^511], so that no square leaves the normal range
    but the terms of r^2 and d r^2, which add at most 2^-50 N relative. The
    kernel averages N_0(R x / r' - y_i) over at most 8^4 nodes, r' the
    computed r, and scales by r' / R. As (r' / R) N_0(R x / r' - y) =
    N_0(x - r' y / R), using r' for r moves M by at most |r' - r| s. N_0 is
    an absolute norm, so a relative error e in every coordinate moves it by
    a relative e at most: the rounding of R x / r' moves M by a few u b,
    and each node term is rounded by a relative (dim + 5) u. The weighted
    sum, and the weights' sum, which is 1 only up to rounding, add 8^4 u
    each. So the computed N is within 2^14 u H of N, as is the rescaled
    form ``norm_eval`` takes for a row whose value leaves the normal range.
    The computed b, r, L and H are within a relative (dim + 8) u. So
    m = 1e-9, over 500 times 2^14 u, covers both.

    A row whose r or b lies outside that range (0, subnormal or huge
    scale, inf or NaN) gets (0, inf), and ``norm_eval`` decides it.
    """
    if norm.kind != "regularized":
        value = norm_eval(norm, x)
        return value, value
    x = np.asarray(x, dtype=float)
    b = np.asarray(norm_eval(norm.base, x))
    with np.errstate(all="ignore"):
        r = np.sqrt(np.einsum("...i,...i->...", x, x))
        across = math.sqrt(norm.delta_reg) * r
        hi = np.hypot(b + norm._node_mean * r, across)  # type: ignore[attr-defined]
        lo = np.hypot(b, across) - _BRACKET_MARGIN * hi
        hi *= 1.0 + _BRACKET_MARGIN
    low, high = _BRACKET_RANGE
    tame = (r >= low) & (r <= high) & (b >= low) & (b <= high)
    lo, hi = np.where(tame, lo, 0.0), np.where(tame, hi, math.inf)
    return (float(lo), float(hi)) if x.ndim == 1 else (lo, hi)


# ---------------------------------------------------------------------------
# Modulus of convexity
# ---------------------------------------------------------------------------

def euclidean_modulus(eps) -> np.ndarray | float:
    """Euclidean modulus of convexity, 1 - sqrt(1 - eps^2/4)."""
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
    eps = np.asarray(eps, dtype=float)
    if p >= 2:
        out = 1.0 - np.power(np.clip(1.0 - np.power(eps / 2.0, p), 0.0, None), 1.0 / p)
    else:
        out = (p - 1.0) * eps**2 / 8.0
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class ModulusCurve:
    """A lower bound on the modulus of convexity delta(eps) as an evaluable
    curve: ``fn`` at eps > 0, and 0 at eps <= 0.

    Every bound reads delta through such a curve, so each curve must never
    exceed the true modulus. :func:`analytic_modulus_curve` gives one for
    every norm kind: the closed forms of euclidean and l_p norms, and on a
    regularized norm sqrt(M^2 + d |x|_2^2) the certified floor
    euclidean_modulus(eps sqrt(d) / c2) derived there.
    """

    label: str
    fn: Callable

    def __call__(self, eps) -> np.ndarray | float:
        eps = np.asarray(eps, dtype=float)
        out = np.asarray(np.where(eps <= 0, 0.0, self.fn(eps)), dtype=float)
        return float(out) if out.ndim == 0 else out


def euclidean_modulus_curve() -> ModulusCurve:
    return ModulusCurve(label="euclidean", fn=euclidean_modulus)


def lp_modulus_curve(p: float) -> ModulusCurve:
    return ModulusCurve(label=f"lp({_fmt_num(p)})",
                        fn=lambda e: lp_modulus(p, e))


def analytic_modulus_curve(norm: NormDescriptor) -> ModulusCurve:
    """A closed-form lower bound on the modulus of every norm kind.

    Euclidean and l_p norms take :func:`euclidean_modulus_curve` and
    :func:`lp_modulus_curve`.

    A regularized norm N(x)^2 = M(x)^2 + d |x|_2^2, with M the mollified
    base, takes a certified floor. It rests on the convexity of M, which N
    needs to be a norm at all and which the fiber root finder and the cap
    argument of ``cone`` rest on too (the test suite checks it on random
    sections). For unit x and y,
    M((x+y)/2)^2 <= ((M(x) + M(y))/2)^2 <= (M(x)^2 + M(y)^2)/2, and the
    parallelogram law gives
    |(x+y)/2|_2^2 = (|x|_2^2 + |y|_2^2)/2 - |x-y|_2^2/4. Summing,
    N((x+y)/2)^2 <= 1 - d |x-y|_2^2/4. As
    N(x-y) <= c2 |x-y|_2 (``sandwich_bounds``), N(x-y) >= eps forces
    |x-y|_2 >= eps/c2, so

        delta_N(eps) >= 1 - sqrt(1 - d eps^2 / (4 c2^2))
                      = euclidean_modulus(eps sqrt(d) / c2).

    At d = 0 the floor is 0, a valid but weaker input to every bound, since
    the bounds only grow with delta. The floor lies below what
    :func:`numeric_modulus` finds, which is an upper estimate.
    """
    if norm.is_round:
        return euclidean_modulus_curve()
    if norm.kind == "lp":
        return lp_modulus_curve(norm.p)
    scale = math.sqrt(norm.delta_reg) / sandwich_bounds(norm)[1]
    return ModulusCurve(label=f"certified({format_norm(norm)})",
                        fn=lambda e: euclidean_modulus(e * scale))


def _section_units(norm, u, v, theta):
    """Unit vectors at angles theta inside per-lane sections: ``u``, ``v``
    are row-aligned (B, dim) orthonormal pairs, theta has shape (B,)."""
    theta = np.asarray(theta, dtype=float)
    d = np.cos(theta)[:, None] * u + np.sin(theta)[:, None] * v
    return d / np.asarray(norm_eval(norm, d))[:, None]


def _section_pair(norm, u, v, theta1, eps):
    """Unit x = x(theta1) and y = x(theta1 + delta), with delta the root in
    [0, pi] of ||x - y|| = eps, on which the chord grows (monotonicity
    lemma), or pi where it stays below eps; one lane per row of (u, v,
    theta1), and ``eps`` a scalar or one value per lane."""
    # Only ``modulus`` reaches the section search: the import stays here.
    from scipy.optimize.elementwise import find_root

    theta1 = np.asarray(theta1, dtype=float)
    eps = np.broadcast_to(np.asarray(eps, dtype=float), theta1.shape)
    x = _section_units(norm, u, v, theta1)

    def excess(delta, lane):
        y = _section_units(norm, u[lane], v[lane], theta1[lane] + delta)
        return np.asarray(norm_eval(norm, y - x[lane])) - eps[lane]

    delta = find_root(excess, (0.0, math.pi),
                      args=(np.arange(theta1.size),)).x
    return x, _section_units(norm, u, v,
                             theta1 + np.nan_to_num(delta, nan=math.pi))


def _section_objective(norm, u, v, theta1, eps):
    """1 - ||x + y||/2 over the pairs of :func:`_section_pair`."""
    x, y = _section_pair(norm, u, v, theta1, eps)
    return np.asarray(norm_eval(norm, x + y)) * -0.5 + 1.0


def numeric_modulus(norm: NormDescriptor, eps, budget: int = 100_000,
                    seed: int = 0) -> np.ndarray | float:
    """Section-search estimate of delta(eps) = inf 1 - ||x+y||/2 over unit
    x, y with ||x-y|| >= eps, at one eps in [0, 2] or at every value of a
    1-D array of them. A diagnostic: no bound reads it.

    In all coordinate-pair sections and random 2-D sections, scipy's
    ``elementwise.find_root`` matches the chord to eps from a grid of
    starts, and ``elementwise.find_minimum`` refines the three best starts
    per section that are grid minima. The smallest value found, clipped at
    0, is an upper estimate of the infimum, up to rounding: at eps = 2,
    where delta is steepest, that can reach about 1e-8.

    Every eps searches the same sections from the same starts (one seed).
    Both solvers advance each lane on its own, and ``norm_eval`` gives each
    row the bits it has alone, so each value equals a search at that eps on
    its own.
    """
    from scipy.optimize.elementwise import find_minimum

    scalar = np.ndim(eps) == 0
    eps = np.atleast_1d(np.asarray(eps, dtype=float))
    if not np.all((eps >= 0.0) & (eps <= 2.0)):
        raise ValueError(f"eps must lie in [0, 2], got {eps}")
    rng = rng_stream(seed)
    dim = norm.dim
    n_random = int(np.clip(budget // 3000, 4, 64))
    starts = int(np.clip(budget // (n_random * 30), 16, 96))
    eye = np.eye(dim)
    sections = [(eye[i], eye[j])
                for i in range(dim) for j in range(i + 1, dim)]
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

    # Refine the three best starts per section on the bracket of their grid
    # neighbours. A start that is no grid minimum brackets nothing, and
    # find_minimum gives NaN there; its grid value is already in ``best``.
    centers = thetas[np.argsort(vals, axis=2)[:, :, :3]].ravel()
    sec_idx = np.tile(np.repeat(np.arange(n_sec), 3), n_eps)
    h = 2.0 * math.pi / starts
    lane_eps = np.repeat(eps, n_sec * 3)

    def objective(theta, lane):
        return _section_objective(norm, sec_u[sec_idx[lane]],
                                  sec_v[sec_idx[lane]], theta, lane_eps[lane])

    refined = find_minimum(objective, (centers - h, centers, centers + h),
                           args=(np.arange(centers.size),)).f_x
    out = np.fmin(best, np.fmin.reduce(refined.reshape(n_eps, -1), axis=1))
    out = np.maximum(out, 0.0)  # at eps = 0, rounding can give -1 ulp
    return float(out[0]) if scalar else out


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
