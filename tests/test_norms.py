import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waistlab import cone
from waistlab import norms as norms_module
from waistlab.norms import (
    DimensionMismatchError,
    ModulusCurve,
    UnsupportedNormError,
    euclidean_modulus,
    euclidean_modulus_curve,
    euclidean_norm,
    format_norm,
    lp_modulus,
    lp_modulus_curve,
    lp_norm,
    modulus_of_convexity,
    norm_eval,
    numeric_modulus_curve,
    parse_norm,
    radial_project,
    rng_stream,
    sandwich_bounds,
    smooth_norm,
)

RNG = np.random.Generator(np.random.Philox(20240101))


def squared_norm_hessian(norm, x, step: float = 1e-4) -> np.ndarray:
    """Central finite-difference Hessian of y -> ||y||^2 at x."""
    x = np.asarray(x, dtype=float)
    d = x.size
    sq = lambda y: float(norm_eval(norm, y)) ** 2
    hess = np.zeros((d, d))
    f0 = sq(x)
    for i in range(d):
        ei = np.zeros(d)
        ei[i] = step
        hess[i, i] = (sq(x + ei) - 2.0 * f0 + sq(x - ei)) / step**2
        for j in range(i + 1, d):
            ej = np.zeros(d)
            ej[j] = step
            hess[i, j] = hess[j, i] = (
                sq(x + ei + ej) - sq(x + ei - ej) - sq(x - ei + ej) + sq(x - ei - ej)
            ) / (4.0 * step**2)
    return hess


def radial_bilipschitz(norm_a, norm_b, pairs: int = 2000, seed: int = 0) -> float:
    """Measured biLipschitz constant of the radial projection from the unit
    sphere of ``norm_a`` onto that of ``norm_b``, each sphere metrized by its
    own norm. Tends to 1 as the two norms approach each other."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    g = rng.standard_normal((2 * pairs, norm_a.dim))
    xs = g / np.asarray(norm_eval(norm_a, g))[..., None]
    x, y = xs[:pairs], xs[pairs:]
    da = norm_eval(norm_a, x - y)
    tx = radial_project(norm_b, x)
    ty = radial_project(norm_b, y)
    db = norm_eval(norm_b, tx - ty)
    ok = da > 1e-9
    ratio = db[ok] / da[ok]
    return float(max(ratio.max(), 1.0 / ratio.min()))


def test_norm_eval_examples():
    assert norm_eval(euclidean_norm(3), [3.0, 4.0, 0.0]) == pytest.approx(5.0)
    assert norm_eval(lp_norm(4, 2), [1.0, 1.0]) == pytest.approx(2 ** 0.25)
    assert norm_eval(lp_norm(3, 3), [0.0, 0.0, 0.0]) == 0.0


def test_norm_eval_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        norm_eval(euclidean_norm(3), [1.0, 2.0])


def test_lp_requires_uniform_convexity():
    with pytest.raises(ValueError, match="1 < p"):
        lp_norm(1.0, 3)
    with pytest.raises(ValueError, match="1 < p"):
        lp_norm(math.inf, 3)


@pytest.mark.parametrize("text", ["euclidean:3", "lp:4:3", "lp:1.5:2",
                                  "reg:lp:1.5:2:w=0.05:d=0.01",
                                  "reg:euclidean:3:w=0.1:d=0.5"])
def test_norm_string_round_trip(text):
    norm = parse_norm(text)
    assert parse_norm(format_norm(norm)) == norm


def test_parse_norm_rejects_garbage():
    for bad in ("euclid:3", "lp:4", "lp:x:3", "euclidean:1", "", "reg",
                "reg:lp", "reg:lp:2", "reg:euclidean", "reg:lp:2:3:w=0.1",
                "reg:lp:2:3:w=0.1:d=0.1:x=1", "reg:lp:2:3:w:d"):
        with pytest.raises(ValueError, match="malformed norm string"):
            parse_norm(bad)


def test_parse_norm_keeps_unsupported_norm_message():
    with pytest.raises(UnsupportedNormError, match="dim <= 4"):
        parse_norm("reg:lp:2:5:w=0.05:d=0.01")
    with pytest.raises(ValueError, match="1 < p"):
        parse_norm("reg:lp:1:3:w=0.05:d=0.01")


# ---------------------------------------------------------------------------
# Coordinate-major kernel against the row-major formulas
# ---------------------------------------------------------------------------

def _row_major_lp(x, p):
    """The row-major l_p formula: per-row max and sum over the last axis."""
    ax = np.abs(x)
    m = ax.max(axis=-1)
    out = np.zeros_like(m)
    nz = m > 0
    if np.any(nz):
        scaled = ax[nz] / m[nz][..., None]
        out[nz] = m[nz] * np.power(np.power(scaled, p).sum(axis=-1), 1.0 / p)
    return out


def _row_major_base(base, x):
    if base.kind == "euclidean":
        return np.linalg.norm(x, axis=-1)
    return _row_major_lp(x, base.p)


def _row_major_regularized(norm, x):
    """The mollified norm with (points, nodes, dim) blocks and a per-row sum
    over the nodes. Blocks of 500 rows only bound memory: each row's sum
    reads that row alone."""
    offsets, weights = norm._quad
    nodes = offsets.T
    radius = norms_module._HOMOG_RADIUS
    r = np.linalg.norm(x, axis=-1)
    out = np.zeros_like(r)
    nz = r > 0
    ref = radius * x[nz] / r[nz][..., None]
    vals = np.zeros(ref.shape[0])
    for lo in range(0, ref.shape[0], 500):
        diffs = ref[lo : lo + 500][:, None, :] - nodes[None, :, :]
        vals[lo : lo + 500] = (_row_major_base(norm.base, diffs) * weights).sum(axis=-1)
    out[nz] = vals * r[nz] / radius
    if norm.delta_reg > 0:
        return np.sqrt(out**2 + norm.delta_reg * np.einsum("...i,...i->...", x, x))
    return out


def _extreme_rows(rng, shape, dim):
    """Gaussian rows at scales from 1e-300 to 1e300, with zero rows, rows
    with one nonzero coordinate and subnormal entries mixed in."""
    x = rng.standard_normal(shape + (dim,))
    x *= 10.0 ** rng.integers(-300, 300, shape + (1,)).astype(float)
    flat = x.reshape(-1, dim)
    flat[::5] = 0.0
    flat[1::7, 1:] = 0.0
    flat[2::11, 0] = 5e-324
    return x


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6, 7, 8, 9, 16, 17, 130])
def test_lp_kernel_matches_row_major_formula(dim):
    rng = np.random.Generator(np.random.Philox(dim))
    x = _extreme_rows(rng, (300,), dim)
    for p in (1.1, 1.5, 2.0, 3.0, 4.0, 7.5):
        norm = lp_norm(p, dim)
        assert np.array_equal(norm_eval(norm, x), _row_major_lp(x, p))
        batch = x.reshape(20, 15, dim)
        assert np.array_equal(norm_eval(norm, batch), _row_major_lp(batch, p))
        assert norm_eval(norm, x[3]) == _row_major_lp(x[3:4], p)[0]
    with np.errstate(over="ignore"):  # squares of the 1e300 rows overflow
        assert np.array_equal(norm_eval(euclidean_norm(dim), x),
                              np.linalg.norm(x, axis=-1))


REG_NORMS = ["reg:lp:1.5:3:w=0.05:d=0.01", "reg:euclidean:3:w=0.1:d=0.5",
             "reg:lp:4:2:w=0.2:d=0", "reg:lp:1.5:4:w=0.05:d=0.01"]


def _block_rows(norm):
    """Rows per block of the mollified kernel, and the chunk of the kernel
    it replaced (2e6 doubles); both row counts stay under test."""
    size = norm._quad[0].size  # dim * nodes
    return max(1, norms_module._BLOCK_ELEMENTS // size), 2_000_000 // size


@pytest.mark.parametrize("text", REG_NORMS)
def test_regularized_matches_row_major_formula(text):
    norm = parse_norm(text)
    block, old_step = _block_rows(norm)
    rng = np.random.Generator(np.random.Philox(17))
    for rows in (1, 21, 175, block - 1, block, block + 1, 4 * block + 3,
                 old_step, old_step + 1, 3 * old_step + 5):
        x = rng.standard_normal((rows, norm.dim))
        x[::9] = 0.0
        assert np.array_equal(norm_eval(norm, x), _row_major_regularized(norm, x))
    x = rng.standard_normal((13, 16, norm.dim))
    assert np.array_equal(norm_eval(norm, x), _row_major_regularized(norm, x))


@pytest.mark.parametrize("text", REG_NORMS)
def test_regularized_row_does_not_depend_on_its_batch(text):
    norm = parse_norm(text)
    block, old_step = _block_rows(norm)
    rng = np.random.Generator(np.random.Philox(23))
    for rows in (1, 21, 175, block - 1, block, block + 1, 4 * block + 3,
                 old_step, old_step + 1):
        x = rng.standard_normal((rows, norm.dim))
        batch = norm_eval(norm, x)
        for i in range(rows):
            assert batch[i] == norm_eval(norm, x[i]), (rows, i)


@pytest.mark.parametrize("dim", [3, 4])
def test_regularized_eval_memory_is_bounded(dim):
    # The kernel works in fixed blocks; a whole-batch (dim, rows, nodes)
    # temporary of 12 000 rows would take 45 MiB at dim 3.
    norm = parse_norm(f"reg:lp:1.5:{dim}:w=0.05:d=0.01")
    x = rng_stream(31).standard_normal((12_000, dim))
    tracemalloc.start()
    try:
        norm_eval(norm, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


@pytest.mark.parametrize("text", ["euclidean:3", "lp:1.5:3", "lp:4:9",
                                  "lp:2:2"] + REG_NORMS)
def test_non_finite_rows(text):
    # NaN anywhere gives NaN, else an inf gives inf, without a warning
    # (the suite turns RuntimeWarnings into errors); finite rows keep the
    # bits they have alone.
    norm = parse_norm(text)
    x = rng_stream(37).standard_normal((8, norm.dim))
    x[0, 0] = np.nan
    x[1, -1] = np.inf
    x[2, :2] = (-np.inf, np.nan)
    x[3] = np.nan
    x[4] = -np.inf
    x[5] = 0.0
    x[5, 1] = np.inf
    got = norm_eval(norm, x)
    assert np.isnan(got[[0, 2, 3]]).all()
    assert (got[[1, 4, 5]] == np.inf).all()
    for i in (6, 7):
        assert got[i] == norm_eval(norm, x[i])
    assert np.isnan(norm_eval(norm, x[0]))
    assert norm_eval(norm, x[1]) == np.inf


@given(p=st.sampled_from([1.5, 2.0, 3.0, 4.0]),
       scale=st.floats(min_value=-100.0, max_value=100.0),
       seed=st.integers(min_value=0, max_value=2**31))
@settings(max_examples=60, deadline=None)
def test_homogeneity_and_triangle(p, scale, seed):
    rng = np.random.Generator(np.random.Philox(seed))
    norm = lp_norm(p, 4)
    x = rng.standard_normal(4)
    y = rng.standard_normal(4)
    nx, ny, nxy = (float(norm_eval(norm, v)) for v in (x, y, x + y))
    assert nxy <= nx + ny + 1e-12 * (nx + ny)
    assert float(norm_eval(norm, scale * x)) == pytest.approx(abs(scale) * nx,
                                                              rel=1e-12, abs=1e-300)


def test_triangle_and_homogeneity_bulk():
    # 1e5 random triples/scalars per the module contract, vectorized.
    for norm in (euclidean_norm(3), lp_norm(1.5, 3), lp_norm(4, 3)):
        x = RNG.standard_normal((100_000, 3))
        y = RNG.standard_normal((100_000, 3))
        c = RNG.uniform(-5.0, 5.0, size=100_000)
        nx = np.asarray(norm_eval(norm, x))
        ny = np.asarray(norm_eval(norm, y))
        nxy = np.asarray(norm_eval(norm, x + y))
        assert np.all(nxy <= nx + ny + 1e-12 * (nx + ny))
        ncx = np.asarray(norm_eval(norm, c[:, None] * x))
        assert np.allclose(ncx, np.abs(c) * nx, rtol=1e-12, atol=0.0)


def test_triangle_for_regularized_norm():
    norm = smooth_norm(lp_norm(1.5, 2), 0.05, 0.01)
    x = RNG.standard_normal((2000, 2))
    y = RNG.standard_normal((2000, 2))
    nx = np.asarray(norm_eval(norm, x))
    ny = np.asarray(norm_eval(norm, y))
    nxy = np.asarray(norm_eval(norm, x + y))
    assert np.all(nxy <= nx + ny + 1e-9 * (nx + ny))


# ---------------------------------------------------------------------------
# Modulus of convexity
# ---------------------------------------------------------------------------

def test_euclidean_modulus_values():
    assert modulus_of_convexity(euclidean_norm(3), 1.0, method="analytic") == \
        pytest.approx(1.0 - math.sqrt(3.0) / 2.0, abs=1e-12)
    assert modulus_of_convexity(euclidean_norm(3), 2.0, method="analytic") == \
        pytest.approx(1.0, abs=1e-12)
    assert modulus_of_convexity(euclidean_norm(3), 0.0) == 0.0


def test_modulus_eps_out_of_range():
    with pytest.raises(ValueError):
        modulus_of_convexity(euclidean_norm(3), 2.5)
    with pytest.raises(ValueError):
        modulus_of_convexity(euclidean_norm(3), -0.1)


def test_numeric_modulus_matches_euclidean_analytic():
    norm = euclidean_norm(3)
    for eps in np.arange(0.1, 1.95, 0.1):
        num = modulus_of_convexity(norm, float(eps), method="numeric",
                                   budget=15_000)
        assert abs(num - euclidean_modulus(float(eps))) <= 1e-3


def test_numeric_modulus_matches_lp4_grid_oracle():
    # Dense 2-D grid search over pairs in the coordinate sections finds the
    # same infimum the descent-based estimator reports, to 1e-3.
    norm = lp_norm(4, 3)
    eps = 0.5
    num = modulus_of_convexity(norm, eps, method="numeric", budget=30_000)

    thetas = np.linspace(0.0, 2.0 * math.pi, 2000, endpoint=False)
    best = math.inf
    for (i, j) in ((0, 1), (0, 2), (1, 2)):
        dirs = np.zeros((thetas.size, 3))
        dirs[:, i] = np.cos(thetas)
        dirs[:, j] = np.sin(thetas)
        unit = dirs / np.asarray(norm_eval(norm, dirs))[:, None]
        for off in range(1, thetas.size // 2):
            other = np.roll(unit, -off, axis=0)
            chord = np.asarray(norm_eval(norm, other - unit))
            ok = chord >= eps
            if np.any(ok):
                vals = 1.0 - 0.5 * np.asarray(norm_eval(norm, (unit + other)[ok]))
                best = min(best, float(vals.min()))
    assert num == pytest.approx(best, abs=1e-3)
    # and both agree with the closed form used for p >= 2
    assert num == pytest.approx(lp_modulus(4, eps), abs=1e-3)


def test_numeric_modulus_dominates_quadratic_estimate_for_small_p():
    norm = lp_norm(1.5, 2)
    for eps in (0.3, 0.8, 1.4):
        num = modulus_of_convexity(norm, eps, method="numeric", budget=15_000)
        assert num >= lp_modulus(1.5, eps) - 1e-4


def test_batched_modulus_search_equals_one_value_searches():
    norm = parse_norm("reg:lp:1.5:3:w=0.05:d=0.01")
    both = norms_module._numeric_modulus(norm, [0.2, 0.4], 3000, 7)
    one = [norms_module._numeric_modulus(norm, [e], 3000, 7)[0]
           for e in (0.2, 0.4)]
    assert both.tolist() == one
    assert modulus_of_convexity(norm, 0.4, method="numeric", budget=3000,
                                seed=7) == one[1]
    curve = numeric_modulus_curve(norm, [0.2, 0.4], budget=3000, seed=7)
    assert curve.values.tolist() == one


def test_section_objective_lanes_are_independent():
    # _numeric_modulus evaluates its two starting golden-section probes in
    # one call over stacked lanes; each half must equal its own call
    norm = parse_norm("reg:lp:1.5:3:w=0.05:d=0.01")
    rng = rng_stream(41)
    u = rng.standard_normal((42, 3))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    v = rng.standard_normal((42, 3))
    v -= np.sum(u * v, axis=1, keepdims=True) * u
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    c, d = rng.uniform(0.0, 2.0 * math.pi, (2, 42))
    eps = rng.uniform(0.2, 1.8, 42)
    objective = norms_module._section_objective
    both = objective(norm, np.tile(u, (2, 1)), np.tile(v, (2, 1)),
                     np.concatenate([c, d]), np.tile(eps, 2))
    assert np.array_equal(both[:42], objective(norm, u, v, c, eps))
    assert np.array_equal(both[42:], objective(norm, u, v, d, eps))


def test_minkowski_p_by_kind():
    assert euclidean_norm(3).minkowski_p == 2.0
    assert lp_norm(4, 3).minkowski_p == 4.0
    assert lp_norm(2, 3).minkowski_p == 2.0
    assert parse_norm("reg:lp:1.5:3:w=0.05:d=0.01").minkowski_p is None
    assert parse_norm("reg:euclidean:3:w=0.1:d=0").minkowski_p is None


def test_numeric_curve_is_monotone():
    curve = numeric_modulus_curve(lp_norm(4, 2), np.linspace(0.2, 1.8, 9),
                                  budget=8_000)
    grid = np.linspace(0.05, 1.95, 50)
    vals = curve(grid)
    assert np.all(np.diff(vals) >= -1e-9)
    assert curve(0.0) == 0.0
    assert curve.source == "numeric_lower_estimate"


def test_scalar_modulus_calls_match_the_array_path():
    # A 0-d array takes the array path; a Python float or int takes the
    # scalar fast path, which must return the same bits as a Python float.
    numeric = ModulusCurve(source="numeric_lower_estimate", label="dip",
                           grid=np.linspace(0.2, 1.8, 9),
                           values=[0.01, 0.03, 0.02, 0.08, 0.1, 0.2, 0.25,
                                   0.3, 0.31])
    # p = 1.2 as well: at p = 1.5 the factor p - 1 is a power of two, which
    # hides a change in the rounding order
    calls = [euclidean_modulus_curve(), lp_modulus_curve(1.5),
             lp_modulus_curve(1.2), lp_modulus_curve(4.0), numeric,
             euclidean_modulus, lambda e: lp_modulus(1.5, e),
             lambda e: lp_modulus(4.0, e)]
    grid = np.concatenate([np.linspace(-0.5, 2.5, 301),
                           [-0.0, 0.0, 5e-324, 1e-300, 0.2, 1.8, 2.0, 10.0]])
    bits = lambda x: np.float64(x).view(np.uint64)
    for call in calls:
        for eps in grid:
            want = call(np.asarray(eps))
            assert type(want) is float
            for scalar in (float(eps), np.float64(eps)):
                got = call(scalar)
                assert type(got) is float
                assert bits(got) == bits(want), (call, eps)
        if isinstance(call, ModulusCurve):
            for eps in (-1, 0, 1, 2, 3):
                got = call(eps)
                assert type(got) is float
                assert bits(got) == bits(call(np.asarray(float(eps))))


def test_analytic_moduli_are_monotone_and_small_at_zero():
    for fn in (euclidean_modulus, lambda e: lp_modulus(1.5, e),
               lambda e: lp_modulus(4, e)):
        grid = np.linspace(1e-6, 2.0, 100)
        vals = np.array([fn(float(e)) for e in grid])
        assert np.all(np.diff(vals) >= -1e-12)
        assert vals[0] < 1e-6
        assert np.all(vals[:-1] < 1.0)


# ---------------------------------------------------------------------------
# Radial projection
# ---------------------------------------------------------------------------

def test_radial_project_examples():
    assert np.allclose(radial_project(euclidean_norm(3), [0.0, 0.0, 2.0]),
                       [0.0, 0.0, 1.0])
    out = radial_project(lp_norm(4, 2), [1.0, 1.0])
    assert np.allclose(out, [2 ** -0.25, 2 ** -0.25])
    with pytest.raises(ValueError):
        radial_project(euclidean_norm(3), [0.0, 0.0, 0.0])


@pytest.mark.parametrize("norm", [euclidean_norm(3), lp_norm(1.5, 3),
                                  lp_norm(4, 4)])
def test_radial_projection_two_lipschitz(norm):
    # 1e6 random pairs with norms >= 1: ||proj x - proj y|| <= 2 ||x - y||.
    n = 1_000_000
    x = RNG.standard_normal((n, norm.dim))
    y = RNG.standard_normal((n, norm.dim))
    x = x / np.asarray(norm_eval(norm, x))[:, None] * RNG.uniform(1.0, 3.0, n)[:, None]
    y = y / np.asarray(norm_eval(norm, y))[:, None] * RNG.uniform(1.0, 3.0, n)[:, None]
    lhs = np.asarray(norm_eval(norm, radial_project(norm, x) - radial_project(norm, y)))
    rhs = np.asarray(norm_eval(norm, x - y))
    assert np.all(lhs <= 2.0 * rhs + 1e-12)


# ---------------------------------------------------------------------------
# Euclidean sandwich
# ---------------------------------------------------------------------------

def test_sandwich_examples():
    assert sandwich_bounds(euclidean_norm(5)) == (1.0, 1.0)
    c1, c2 = sandwich_bounds(lp_norm(4, 2))
    assert (c1, c2) == pytest.approx((2 ** -0.25, 1.0))
    assert sandwich_bounds(lp_norm(2, 17)) == pytest.approx((1.0, 1.0))
    # regularized norms take the same function, with their base's constants
    norm = smooth_norm(lp_norm(4, 3), 0.05, 0.01)
    c1, c2 = sandwich_bounds(norm)
    x = rng_stream(5).standard_normal((2_000, norm.dim))
    e = np.linalg.norm(x, axis=-1)
    v = np.asarray(norm_eval(norm, x))
    assert np.all(v >= c1 * e - 1e-9)
    assert np.all(v <= c2 * e + 1e-9)


def test_sandwich_constants_match_circle_brute_force():
    norm = lp_norm(4, 2)
    theta = np.linspace(0.0, 2.0 * math.pi, 100_000, endpoint=False)
    pts = np.column_stack([np.cos(theta), np.sin(theta)])  # |x|_2 = 1
    vals = np.asarray(norm_eval(norm, pts))
    c1, c2 = sandwich_bounds(norm)
    assert vals.min() == pytest.approx(c1, abs=1e-8)
    assert vals.max() == pytest.approx(c2, abs=1e-8)


@pytest.mark.parametrize("norm", [lp_norm(1.5, 3), lp_norm(4, 5)])
def test_sandwich_property_random_vectors(norm):
    c1, c2 = sandwich_bounds(norm)
    assert c2 / c1 <= math.sqrt(norm.dim) + 1e-12
    x = RNG.standard_normal((1_000_000, norm.dim))
    e = np.linalg.norm(x, axis=-1)
    v = np.asarray(norm_eval(norm, x))
    assert np.all(v >= c1 * e - 1e-9)
    assert np.all(v <= c2 * e + 1e-9)


# ---------------------------------------------------------------------------
# Smoothing
# ---------------------------------------------------------------------------

def test_smooth_norm_identity_scaling():
    norm = smooth_norm(euclidean_norm(3), 0.0, 1.0)
    x = RNG.standard_normal((50, 3))
    assert np.allclose(norm_eval(norm, x),
                       math.sqrt(2.0) * np.linalg.norm(x, axis=-1))


def test_smooth_norm_bilipschitz_near_identity():
    base = lp_norm(4, 2)
    lam = radial_bilipschitz(base, smooth_norm(base, 0.01, 0.001),
                             pairs=1500, seed=3)
    assert 1.0 <= lam <= 1.01


def test_smooth_norm_hessian_positive_definite():
    norm = smooth_norm(lp_norm(1.5, 2), 0.05, 0.01)
    rng = np.random.Generator(np.random.Philox(11))
    for _ in range(10):
        u = rng.standard_normal(2)
        u /= np.linalg.norm(u)
        x = u / float(norm_eval(norm, u))
        eigs = np.linalg.eigvalsh(squared_norm_hessian(norm, x))
        assert eigs.min() >= norm.delta_reg


def test_smooth_norm_rejects_bad_inputs():
    with pytest.raises(UnsupportedNormError):
        smooth_norm(euclidean_norm(5), 0.1, 0.1)
    with pytest.raises(ValueError):
        smooth_norm(euclidean_norm(3), -0.1, 0.1)


@pytest.mark.parametrize("w, d", [("nan", "0.01"), ("inf", "0.01"),
                                  ("0.05", "nan"), ("0.05", "inf"),
                                  ("-inf", "0.01"), ("0.05", "-0.01")])
def test_regularized_norm_needs_finite_nonnegative_w_and_d(w, d):
    with pytest.raises(ValueError, match="finite w >= 0 and d >= 0"):
        parse_norm(f"reg:lp:1.5:3:w={w}:d={d}")
    with pytest.raises(ValueError, match="finite w >= 0 and d >= 0"):
        smooth_norm(lp_norm(1.5, 3), float(w), float(d))


def test_regularized_norm_needs_a_positive_lower_constant():
    # reg:lp:1.5:3 with d = 0 has c1 = max(0, 1 - 3^(1/6) w / 10): zero from
    # w = 8.3268 on, where the rejection sampler's radius 1/c1 is infinite
    limit = 10.0 / 3 ** (1 / 6)
    for w in (limit, 9.99, 10.0, 1e6):
        with pytest.raises(ValueError, match="so that c1 > 0"):
            parse_norm(f"reg:lp:1.5:3:w={w!r}:d=0")
    ok = parse_norm("reg:lp:1.5:3:w=8.3:d=0")
    assert sandwich_bounds(ok)[0] > 0
    # a positive d keeps c1 >= sqrt(d) > 0 at any finite width
    assert sandwich_bounds(parse_norm("reg:lp:1.5:3:w=10:d=0.01"))[0] == 0.1


# ---------------------------------------------------------------------------
# Seeded streams
# ---------------------------------------------------------------------------

def test_rng_stream_without_a_path_is_the_plain_seed_sequence():
    # the numeric modulus draws its sections from rng_stream(seed), the
    # stream it built from SeedSequence(seed) directly before
    for seed in (0, 7, 2**40):
        plain = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(seed)))
        assert np.array_equal(rng_stream(seed).standard_normal(16),
                              plain.standard_normal(16))
    assert cone.rng_stream is rng_stream
    assert cone.derive_seed is norms_module.derive_seed
