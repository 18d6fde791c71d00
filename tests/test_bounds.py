import decimal
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special

from waistlab import bounds as bounds_module
from waistlab.bounds import (
    BoundInputs,
    BoundValue,
    bound_table,
    cap_angles,
    gromov_milman_bound,
    projection_lower_bound,
    ratio_loglog_slope,
    round_sphere_reference,
    sine_integrals,
    sphere_tube_volume,
    waist_lower_bound,
)
from waistlab.cli import ExperimentConfig, emit_report, run_experiment
from waistlab.cone import sample_conical
from waistlab.norms import (
    ModulusCurve,
    analytic_modulus_curve,
    euclidean_modulus_curve,
    euclidean_norm,
    lp_modulus_curve,
    parse_norm,
)

MOD = euclidean_modulus_curve()


def _asin_oracle(x: float) -> float:
    # Independent arcsin via atan2.
    return math.atan2(x, math.sqrt(1.0 - x * x))


def test_cap_angles_values():
    near, far = cap_angles(1, 0.4)
    assert near == pytest.approx(2.0 * _asin_oracle(0.4 / (4.0 * math.sqrt(2.0))),
                                 abs=1e-14)
    assert far == pytest.approx(2.0 * _asin_oracle(0.4 / (2.0 * math.sqrt(2.0))),
                                abs=1e-14)
    # frozen from the arithmetic oracle
    assert near == pytest.approx(0.1415394733244272, abs=1e-12)
    assert far == pytest.approx(0.2837941092083278, abs=1e-12)


def test_cap_angles_small_eps_limit():
    near, far = cap_angles(1, 1e-12)
    assert near == pytest.approx(0.0, abs=1e-11)
    assert far == pytest.approx(0.0, abs=1e-11)


@given(k=st.integers(min_value=1, max_value=5),
       eps=st.floats(min_value=1e-6, max_value=1.0))
@settings(max_examples=200, deadline=None)
def test_far_angle_is_near_angle_of_doubled_radius(k, eps):
    assert cap_angles(k, eps).far == pytest.approx(cap_angles(k, 2 * eps).near,
                                                   rel=1e-12)


def test_cap_angles_domain_error():
    with pytest.raises(ValueError):
        cap_angles(1, 5.0)


def test_sine_integrals_closed_forms_k1():
    near, far = cap_angles(1, 0.4)
    F, G = sine_integrals(1, 0.4, "halfpi")
    assert G == pytest.approx(near, abs=1e-10)
    assert F == pytest.approx(math.pi / 2.0 - far, abs=1e-10)
    F_pi, _ = sine_integrals(1, 0.4, "pi")
    assert F_pi == pytest.approx(math.pi - far, abs=1e-10)
    assert F_pi == pytest.approx(2.857798544381465, abs=1e-10)


@pytest.mark.parametrize("k,eps", [(2, 0.4), (2, 1.1), (3, 0.7), (3, 1.6)])
def test_sine_integrals_closed_forms_k2_k3(k, eps):
    near, far = cap_angles(k, eps)
    F, G = sine_integrals(k, eps, "pi")
    if k == 2:
        assert G == pytest.approx(1.0 - math.cos(near), abs=1e-10)
        assert F == pytest.approx(math.cos(far) + 1.0, abs=1e-10)
    else:
        anti = lambda t: 0.5 * (t - math.sin(t) * math.cos(t))
        assert G == pytest.approx(anti(near), abs=1e-10)
        assert F == pytest.approx(anti(math.pi) - anti(far), abs=1e-10)


# Formula fidelity oracle: composite Gauss-Legendre, 64 nodes on each of 16
# equal panels, summed exactly. Independent of scipy.special.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)


def _gauss_legendre(f, a: float, b: float, panels: int = 16) -> float:
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * np.diff(edges)[:, None]
    t = half * _GL_NODES[None, :] + 0.5 * (edges[:-1] + edges[1:])[:, None]
    return math.fsum((half * _GL_WEIGHTS[None, :] * f(t)).ravel())


def _oracle_sine_integrals(k: int, eps: float, upper: float):
    near, far = cap_angles(k, eps)
    sine = lambda t: np.sin(t) ** (k - 1)
    return _gauss_legendre(sine, far, upper), _gauss_legendre(sine, 0.0, near)


_FIDELITY_EPS = [round(0.05 * i, 2) for i in range(1, 41)]


@pytest.mark.parametrize("f_upper, upper", [("pi", math.pi),
                                            ("halfpi", math.pi / 2.0)])
def test_sine_integrals_fidelity(f_upper, upper):
    for k in range(1, 9):
        for eps in _FIDELITY_EPS:
            F, G = sine_integrals(k, eps, f_upper)
            oF, oG = _oracle_sine_integrals(k, eps, upper)
            assert G == pytest.approx(oG, rel=1e-12, abs=0.0), (k, eps)
            if upper - cap_angles(k, eps).far < 1e-12:
                # k = 1, eps = 2: far sits one ulp below pi/2, so the far
                # mass is a rounding residue of the two limits
                assert abs(F - oF) <= 1e-15, (k, eps)
            else:
                assert F == pytest.approx(oF, rel=1e-12, abs=0.0), (k, eps)


def test_sine_integrals_far_angle_beyond_half_pi():
    # eps near the arcsin domain edge puts the far angle past pi/2: the
    # "pi" mass comes from the symmetric branch, the "halfpi" interval is
    # empty
    for k in range(1, 9):
        eps = 0.95 * 2.0 * math.sqrt(k + 1.0)
        far = cap_angles(k, eps).far
        assert far > math.pi / 2.0
        F, G = sine_integrals(k, eps, "pi")
        oF, oG = _oracle_sine_integrals(k, eps, math.pi)
        assert F == pytest.approx(oF, rel=1e-12, abs=0.0)
        assert G == pytest.approx(oG, rel=1e-12, abs=0.0)
        assert sine_integrals(k, eps, "halfpi").far_mass == 0.0


def test_sphere_tube_volume_fidelity():
    radii = np.linspace(math.pi / 80.0, math.pi / 2.0, 40)
    for n in (2, 3, 5, 10, 50, 100, 1000):
        for k in range(1, min(8, n) + 1):
            density = lambda t: np.cos(t) ** (n - k) * np.sin(t) ** (k - 1)
            total = _gauss_legendre(density, 0.0, math.pi / 2.0)
            for r in radii:
                oracle = _gauss_legendre(density, 0.0, float(r)) / total
                assert sphere_tube_volume(n, k, float(r)) == pytest.approx(
                    oracle, rel=1e-12, abs=0.0), (n, k, r)


def test_waist_bound_fidelity_at_codimension_eight():
    # The case an absolute-tolerance quadrature got 1% too high.
    n, k, eps = 10, 8, 0.1
    w = waist_lower_bound(BoundInputs(n=n, k=k, eps=eps, modulus=MOD)).value
    F, G = _oracle_sine_integrals(k, eps / 2.0, math.pi)
    delta = float(MOD(eps / 2.0))
    oracle = 1.0 / (1.0 + (1.0 - 2.0 * delta) ** (n - k)
                    * (k + 1.0) ** (k + 1.0) * F / G)
    assert w == pytest.approx(oracle, rel=1e-12, abs=0.0)


def test_bound_results_are_python_floats():
    F, G = sine_integrals(3, 0.4)
    assert type(F) is float and type(G) is float
    assert type(sphere_tube_volume(5, 2, 0.3)) is float
    assert type(waist_lower_bound(
        BoundInputs(n=5, k=2, eps=0.4, modulus=MOD)).value) is float
    assert type(projection_lower_bound(5, 2, 0.4).value) is float
    assert type(round_sphere_reference(5, 2, 0.4).value) is float


def test_waist_bound_reference_value():
    # n=2, k=1, eps=0.5, euclidean modulus, far integral up to pi.
    w = waist_lower_bound(BoundInputs(n=2, k=1, eps=0.5, modulus=MOD,
                                      f_upper="pi"))
    delta = 1.0 - math.sqrt(1.0 - 0.25**2 / 4.0)
    near, far = cap_angles(1, 0.25)
    expected = 1.0 / (1.0 + (1.0 - 2.0 * delta) * 4.0 * (math.pi - far) / near)
    assert w.value == pytest.approx(expected, rel=1e-12)
    assert w.value == pytest.approx(7.5e-3, abs=2e-4)
    assert w.kind == "waist"


def test_waist_bound_small_eps_limit():
    w = waist_lower_bound(BoundInputs(n=3, k=1, eps=1e-5, modulus=MOD))
    assert w.value < 1e-4


def test_waist_bound_is_zero_where_half_eps_underflows():
    # 5e-324 is the smallest positive float, so eps/2 rounds to 0
    for k in (1, 2):
        w = waist_lower_bound(BoundInputs(n=3, k=k, eps=5e-324, modulus=MOD))
        assert w.value == 0.0


@pytest.mark.parametrize("eps", [1e-160, 1e-200, 1e-300])
def test_near_mass_where_sine_squared_is_subnormal(eps):
    # k = 1: G is the near angle itself, 2 asin(eps / (4 sqrt 2))
    near = sine_integrals(1, eps).near_mass
    assert near == 2.0 * math.asin(eps / (4.0 * math.sqrt(2.0)))
    w = waist_lower_bound(BoundInputs(n=3, k=1, eps=eps, modulus=MOD))
    assert w.value > 0.0


def test_sine_mass_keeps_the_incomplete_beta_where_sine_squared_is_normal():
    def incomplete_beta_mass(m, r):
        a = 0.5 * (m + 1.0)
        half = 0.5 * special.beta(a, 0.5)
        below = half * special.betainc(a, 0.5, math.sin(r) ** 2)
        return float(below if r <= math.pi / 2.0 else 2.0 * half - below)

    smallest = math.sqrt(2.2250738585072014e-308)  # sin^2 at the normal edge
    radii = [smallest * (1.0 + 1e-15), smallest * 2.0]
    radii += list(np.geomspace(1e-150, math.pi, 300))
    for m in range(8):
        for r, mass in zip(radii, bounds_module._sine_masses(m, radii)):
            assert math.sin(r) ** 2 >= 2.2250738585072014e-308
            assert mass == incomplete_beta_mass(m, r)


@pytest.mark.parametrize("n, k", [
    (50_000, 143), (92_000, 150), (150_000, 145), (200, 150), (200_000, 143)])
def test_waist_bound_past_the_overflow_of_the_power(n, k):
    # (k+1)^(k+1) overflows a double from k = 143 on; the bound then takes
    # X from logs. Reference: the formula in 50-digit decimals.
    w = waist_lower_bound(BoundInputs(n=n, k=k, eps=0.5, modulus=MOD)).value
    assert 0.0 <= w <= 1.0
    delta = float(MOD(0.25))
    far, near = sine_integrals(k, 0.25)
    with decimal.localcontext(decimal.Context(prec=50)):
        x = (decimal.Decimal(1.0 - 2.0 * delta) ** (n - k)
             * decimal.Decimal(k + 1) ** (k + 1)
             * decimal.Decimal(far) / decimal.Decimal(near))
        expected = float(1 / (1 + x))
    assert w == pytest.approx(expected, rel=1e-12, abs=1e-300)


def test_waist_bound_with_no_shrink_past_the_overflow_is_trivial():
    # a modulus of 1/2 at eps/2 clamps 1 - 2 delta at 0, as below k = 143
    half = ModulusCurve(label="half", fn=lambda eps: 0.5)
    for k in (8, 150):
        w = waist_lower_bound(BoundInputs(n=200, k=k, eps=0.5, modulus=half))
        assert w.value == 1.0


def test_waist_bound_grows_with_n():
    w2 = waist_lower_bound(BoundInputs(n=2, k=1, eps=0.5, modulus=MOD)).value
    w100 = waist_lower_bound(BoundInputs(n=100, k=1, eps=0.5, modulus=MOD)).value
    assert w100 > w2
    w1000 = waist_lower_bound(BoundInputs(n=1000, k=1, eps=0.5, modulus=MOD)).value
    assert w1000 > 0.999


@given(eps=st.floats(min_value=0.01, max_value=2.0),
       n=st.integers(min_value=1, max_value=30))
@settings(max_examples=150, deadline=None)
def test_waist_bound_in_unit_interval(eps, n):
    k = 1
    w = waist_lower_bound(BoundInputs(n=n, k=k, eps=eps, modulus=MOD))
    assert 0.0 < w.value <= 1.0


def test_waist_bound_monotone_in_eps_and_fg_monotonicity():
    eps_grid = np.linspace(0.05, 1.95, 60)
    for k in (1, 2):
        ws, Fs, Gs = [], [], []
        for eps in eps_grid:
            ws.append(waist_lower_bound(
                BoundInputs(n=5, k=k, eps=float(eps), modulus=MOD)).value)
            F, G = sine_integrals(k, float(eps))
            Fs.append(F)
            Gs.append(G)
        assert np.all(np.diff(ws) >= -1e-12)
        assert np.all(np.diff(Fs) <= 1e-12)
        assert np.all(np.diff(Gs) >= -1e-12)


def test_bound_inputs_validation():
    with pytest.raises(ValueError):
        BoundInputs(n=2, k=3, eps=0.5, modulus=MOD)
    with pytest.raises(ValueError):
        BoundInputs(n=2, k=1, eps=0.0, modulus=MOD)
    with pytest.raises(ValueError):
        BoundInputs(n=2, k=1, eps=0.5, modulus=MOD, f_upper="tau")
    with pytest.raises(ValueError):
        BoundValue(value=1.5, kind="waist")


# ---------------------------------------------------------------------------
# The grid kernel against the per-eps evaluation
# ---------------------------------------------------------------------------

# The per-eps evaluation the grid kernel replaced, kept as its reference:
# one scalar betainc call per mass and every step on Python floats.

def _sine_mass_per_radius(m: int, r: float) -> float:
    s = math.sin(r)
    if s * s < sys.float_info.min:
        return float(s ** (m + 1) / (m + 1))
    a = 0.5 * (m + 1.0)
    half = 0.5 * special.beta(a, 0.5)
    below = half * special.betainc(a, 0.5, s ** 2)
    return float(below if r <= math.pi / 2.0 else 2.0 * half - below)


def _sine_integrals_per_radius(k: int, r: float, f_upper: str):
    upper = {"pi": math.pi, "halfpi": math.pi / 2.0}[f_upper]
    s = 2.0 * math.sqrt(k + 1.0)
    near, far = 2.0 * math.asin(r / (2.0 * s)), 2.0 * math.asin(r / s)
    F = (_sine_mass_per_radius(k - 1, upper)
         - _sine_mass_per_radius(k - 1, far) if far < upper else 0.0)
    return F, _sine_mass_per_radius(k - 1, near)


def _waist_per_eps(n, k, eps, modulus, f_upper):
    """(w, delta(eps/2)) of one eps, as waist_lower_bound computed it
    before the grid kernel."""
    delta = float(modulus(eps / 2.0))
    base = max(0.0, 1.0 - 2.0 * delta)
    value = 0.0
    if eps / 2.0 > 0.0:
        F, G = _sine_integrals_per_radius(k, eps / 2.0, f_upper)
        if G > 0.0:
            try:
                power = (k + 1.0) ** (k + 1.0)
            except OverflowError:
                value = 1.0
                if base > 0.0 and F > 0.0:
                    log_x = ((n - k) * math.log(base)
                             + (k + 1.0) * math.log(k + 1.0)
                             + math.log(F) - math.log(G))
                    value = float(special.expit(-log_x))
            else:
                value = 1.0 / (1.0 + base ** (n - k) * power * F / G)
    return value, delta


def _bits(values) -> list:
    assert all(type(v) is float for v in values)
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


_KERNEL_CURVES = [
    MOD, lp_modulus_curve(1.5), lp_modulus_curve(4.0),
    analytic_modulus_curve(parse_norm("reg:lp:1.5:3:w=0.05:d=0.01")),
    analytic_modulus_curve(parse_norm("reg:euclidean:4:w=0.2:d=3")),
    ModulusCurve(label="half", fn=lambda eps: 0.5),
    # strong enough a shrink to give w values with digits at k >= 143
    ModulusCurve(label="steep", fn=lambda eps: 0.45 * eps),
]
# Subnormal eps (5e-324 halves to 0), eps whose near mass G underflows to
# 0 at larger k, and the ends of the range.
_KERNEL_EPS = st.one_of(
    st.floats(5e-324, 2.0),
    st.sampled_from([5e-324, 1e-323, 1e-310, 2.2250738585072014e-308,
                     1e-300, 1e-160, 1e-40, 1e-6, 1e-4, 2.0]))


@st.composite
def _kernel_grids(draw):
    n = draw(st.integers(1, 2000))
    k = draw(st.one_of(st.integers(1, min(n, 8)), st.integers(1, n),
                       st.integers(min(n, 143), n)))
    return (n, k, draw(st.lists(_KERNEL_EPS, min_size=1, max_size=12)),
            draw(st.sampled_from(_KERNEL_CURVES)),
            draw(st.sampled_from(["pi", "halfpi"])))


@given(_kernel_grids())
# (k+1)^(k+1) overflows: w from the logarithm of X, with digits
@example((2000, 150, [1.0, 1.1, 1.12, 1.14, 1.2], _KERNEL_CURVES[-1], "pi"))
@settings(max_examples=300, deadline=None)
def test_waist_kernel_matches_the_per_eps_evaluation(grid):
    n, k, eps, modulus, f_upper = grid
    terms = bounds_module._waist_terms(n, k, eps, modulus, f_upper)
    want = [_waist_per_eps(n, k, e, modulus, f_upper) for e in eps]
    assert _bits(terms.w) == _bits([w for w, _ in want])
    assert _bits(terms.delta) == _bits([d for _, d in want])
    for e, F, G in zip(eps, terms.far, terms.near):
        if e / 2.0 > 0.0:
            assert _bits([F, G]) == _bits(
                list(_sine_integrals_per_radius(k, e / 2.0, f_upper)))
    if n >= 2:
        rows = bound_table(n, k, eps, modulus, f_upper)
        assert _bits([row["w"] for row in rows]) == _bits(terms.w)
        assert _bits([row["b_exponent"] for row in rows]) == _bits(
            [2.0 * d for d in terms.delta])
        assert _bits([row["gm"] for row in rows]) == _bits(
            [gromov_milman_bound(n, e, modulus).value for e in eps])
        assert _bits([row["w2"] for row in rows]) == _bits(
            [projection_lower_bound(n, k, e).value for e in eps])


@given(k=st.integers(1, 2000), f_upper=st.sampled_from(["pi", "halfpi"]),
       fractions=st.lists(st.one_of(st.floats(0.0, 1.0, exclude_min=True),
                                    st.sampled_from([1.0, 0.5 ** 0.5])),
                          min_size=1, max_size=12))
@settings(max_examples=200, deadline=None)
def test_sine_mass_kernel_matches_the_per_radius_evaluation(k, f_upper,
                                                            fractions):
    # Radii over the whole arcsin domain (0, 2 sqrt(k+1)]. At its top the
    # far angle is pi, and at fraction 1/sqrt(2) it is about pi/2, so the
    # far mass is 0 for one or both upper limits.
    top = 2.0 * math.sqrt(k + 1.0)
    radii = [f * top for f in fractions]
    far, near = bounds_module._sine_integral_lists(k, radii, f_upper)
    want = [_sine_integrals_per_radius(k, r, f_upper) for r in radii]
    assert _bits(far) == _bits([F for F, _ in want])
    assert _bits(near) == _bits([G for _, G in want])
    assert all(F == 0.0 for F, f in zip(far, fractions) if f == 1.0)


# ---------------------------------------------------------------------------
# Tube volumes on the round sphere
# ---------------------------------------------------------------------------

def test_sphere_tube_volume_edges():
    assert sphere_tube_volume(2, 1, math.pi / 2.0) == pytest.approx(1.0, abs=1e-12)
    assert sphere_tube_volume(5, 3, 0.0) == 0.0
    assert sphere_tube_volume(2, 1, 0.3) == pytest.approx(math.sin(0.3), abs=1e-12)
    # eps >= sqrt 2 clamps the radius at pi/2, whose tube is the whole sphere
    for n in (1, 169, 2000):
        assert round_sphere_reference(n, n, 2.0).value == 1.0


def test_sphere_tube_volume_monotone():
    rs = np.linspace(0.0, math.pi / 2.0, 40)
    for (n, k) in ((2, 1), (4, 2), (6, 3)):
        vals = [sphere_tube_volume(n, k, float(r)) for r in rs]
        assert np.all(np.diff(vals) >= -1e-12)
        assert vals[-1] == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("n,k,r", [(2, 1, 0.4), (3, 1, 0.6), (3, 2, 0.5)])
def test_sphere_tube_volume_monte_carlo(n, k, r):
    batch = sample_conical(euclidean_norm(n + 1), 400_000, seed=37 + n + 10 * k)
    # geodesic distance to the equatorial subsphere spanned by the first
    # n-k+1 coordinates: arccos of the projection length
    proj = np.linalg.norm(batch.points[:, : n - k + 1], axis=1)
    hits = np.arccos(np.clip(proj, -1.0, 1.0)) <= r
    mc = hits.mean()
    sigma = math.sqrt(mc * (1.0 - mc) / batch.count)
    assert sphere_tube_volume(n, k, r) == pytest.approx(mc, abs=3.5 * sigma)


# ---------------------------------------------------------------------------
# Projection and Gromov-Milman bounds
# ---------------------------------------------------------------------------

def test_projection_bound_composes_tube_volume():
    w2 = projection_lower_bound(2, 1, 0.3)
    assert w2.value == pytest.approx(3.0 ** -3 * sphere_tube_volume(2, 1, 0.1),
                                     rel=1e-12)
    assert w2.kind == "projection"


def test_projection_bound_small_eps():
    assert projection_lower_bound(4, 1, 1e-9).value < 1e-10


def test_projection_vs_waist_large_n_comparison():
    # w2 collapses super-exponentially while w climbs toward 1.
    eps, k = 0.5, 1
    w2s, ws = [], []
    for n in range(2, 11):
        w2s.append(projection_lower_bound(n, k, eps).value)
        ws.append(waist_lower_bound(BoundInputs(n=n, k=k, eps=eps,
                                                modulus=MOD)).value)
    assert np.all(np.diff(w2s) < 0)
    assert np.all(np.diff(ws) > 0)
    assert w2s[4] < 1e-6  # n = 6
    assert ws[-1] > ws[0]


def test_gromov_milman_trivial_at_n2():
    for eps in (0.2, 1.0, 2.0):
        assert gromov_milman_bound(2, eps, MOD).value == 0.0


def test_gromov_milman_reference_value():
    gm = gromov_milman_bound(100, 1.2, MOD)
    theta = 1.0 - 0.5 ** (1.0 / 99.0)
    a = float(MOD(1.2 / 8.0 - theta))
    assert gm.inputs["theta_n"] == pytest.approx(theta, rel=1e-12)
    assert gm.inputs["a"] == pytest.approx(a, rel=1e-12)
    assert a == pytest.approx(2.56e-3, abs=2e-5)
    assert gm.value == pytest.approx(1.0 - math.exp(-100.0 * a), rel=1e-12)
    assert gm.value == pytest.approx(0.226, abs=1e-3)


def test_waist_exponent_beats_gromov_milman_exponent():
    # b(eps) = 2 delta(eps/2) > a(eps) wherever a > 0.
    checked = 0
    for n in (50, 100, 200, 500):
        for eps in np.linspace(0.6, 2.0, 8):
            a = gromov_milman_bound(n, float(eps), MOD).inputs["a"]
            if a > 0:
                checked += 1
                assert 2.0 * float(MOD(eps / 2.0)) > a
    assert checked > 10


# ---------------------------------------------------------------------------
# Tables and asymptotics
# ---------------------------------------------------------------------------

def test_bound_table_single_row_and_ranges():
    rows = bound_table(4, 1, [0.5], MOD)
    assert len(rows) == 1
    row = rows[0]
    assert set(row) == {"eps", "w", "w2", "gm", "b_exponent", "n", "k", "f_upper"}
    for col in ("w", "w2", "gm"):
        assert 0.0 <= row[col] <= 1.0
    assert row["b_exponent"] >= 0.0


def test_bound_table_csv_header_contract():
    report = run_experiment(ExperimentConfig(
        command="compare", norm="euclidean:4", eps_grid="0.2:1.0:0.2"))
    lines = emit_report(report, None, "csv").strip().split("\n")
    assert lines[0] == "eps,w,w2,gm,b_exponent,n,k,f_upper"
    assert len(lines) == 6


@pytest.mark.parametrize("l,k", [(1, 2), (1, 3), (2, 3)])
def test_small_radius_loglog_slope(l, k):
    slope = ratio_loglog_slope(5, l, k, MOD)
    assert slope == pytest.approx(l - k, abs=0.1)


def test_round_sphere_reference_matches_band_oracle():
    ref = round_sphere_reference(2, 1, 0.5)
    assert ref.value == pytest.approx(0.5 * math.sqrt(1.0 - 0.25 / 4.0), rel=1e-10)
    assert ref.kind == "round_sphere_reference"
