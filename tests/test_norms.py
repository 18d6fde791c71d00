import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waistlab import norms as norms_module
from waistlab.norms import (
    DimensionMismatchError,
    UnsupportedNormError,
    euclidean_modulus,
    euclidean_norm,
    euclidean_sandwich,
    format_norm,
    lp_modulus,
    lp_norm,
    modulus_of_convexity,
    norm_eval,
    numeric_modulus_curve,
    parse_norm,
    radial_bilipschitz,
    radial_project,
    smooth_norm,
    squared_norm_hessian,
)

RNG = np.random.Generator(np.random.Philox(20240101))


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
    """The mollified norm with (points, nodes, dim) blocks, chunked at the
    same row count as norm_eval."""
    offsets, weights = norm._quad
    radius = norms_module._HOMOG_RADIUS
    r = np.linalg.norm(x, axis=-1)
    out = np.zeros_like(r)
    nz = r > 0
    ref = radius * x[nz] / r[nz][..., None]
    vals = np.zeros(ref.shape[0])
    step = 2_000_000 // (offsets.shape[0] * norm.dim)
    for lo in range(0, ref.shape[0], step):
        diffs = ref[lo : lo + step][:, None, :] - offsets[None, :, :]
        vals[lo : lo + step] = _row_major_base(norm.base, diffs) @ weights
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


@pytest.mark.parametrize("text", ["reg:lp:1.5:3:w=0.05:d=0.01",
                                  "reg:euclidean:3:w=0.1:d=0.5",
                                  "reg:lp:4:2:w=0.2:d=0"])
def test_regularized_matches_row_major_formula(text):
    norm = parse_norm(text)
    step = 2_000_000 // (norm._quad[0].shape[0] * norm.dim)
    rng = np.random.Generator(np.random.Philox(17))
    for rows in (1, 21, 175, step, step + 1, 3 * step + 5):
        x = rng.standard_normal((rows, norm.dim))
        x[::9] = 0.0
        assert np.array_equal(norm_eval(norm, x), _row_major_regularized(norm, x))
    x = rng.standard_normal((13, 16, norm.dim))
    assert np.array_equal(norm_eval(norm, x), _row_major_regularized(norm, x))


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


def test_numeric_curve_is_monotone():
    curve = numeric_modulus_curve(lp_norm(4, 2), np.linspace(0.2, 1.8, 9),
                                  budget=8_000)
    grid = np.linspace(0.05, 1.95, 50)
    vals = curve(grid)
    assert np.all(np.diff(vals) >= -1e-9)
    assert curve(0.0) == 0.0
    assert curve.source == "numeric_lower_estimate"


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
    assert euclidean_sandwich(euclidean_norm(5)) == (1.0, 1.0)
    c1, c2 = euclidean_sandwich(lp_norm(4, 2))
    assert (c1, c2) == pytest.approx((2 ** -0.25, 1.0))
    assert euclidean_sandwich(lp_norm(2, 17)) == pytest.approx((1.0, 1.0))
    with pytest.raises(UnsupportedNormError):
        euclidean_sandwich(smooth_norm(lp_norm(4, 2), 0.05, 0.01))


def test_sandwich_constants_match_circle_brute_force():
    norm = lp_norm(4, 2)
    theta = np.linspace(0.0, 2.0 * math.pi, 100_000, endpoint=False)
    pts = np.column_stack([np.cos(theta), np.sin(theta)])  # |x|_2 = 1
    vals = np.asarray(norm_eval(norm, pts))
    c1, c2 = euclidean_sandwich(norm)
    assert vals.min() == pytest.approx(c1, abs=1e-8)
    assert vals.max() == pytest.approx(c2, abs=1e-8)


@pytest.mark.parametrize("norm", [lp_norm(1.5, 3), lp_norm(4, 5)])
def test_sandwich_property_random_vectors(norm):
    c1, c2 = euclidean_sandwich(norm)
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
