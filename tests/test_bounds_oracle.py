"""The closed-form bounds against an independent 60-digit evaluation.

Each sine mass and tube fraction is an incomplete beta integral
(DLMF 8.17), which ``mpmath.betainc`` evaluates to 60 digits from the same
double inputs the bounds get. mpmath's quadrature is no such oracle: it is
off by up to 1.7e-3 at k >= 74.
"""

import math
import sys

import mpmath
from hypothesis import example, given, settings
from hypothesis import strategies as st

from waistlab.bounds import (
    BoundInputs,
    round_sphere_reference,
    sphere_tube_volume,
    waist_lower_bound,
)
from waistlab.norms import euclidean_modulus_curve, lp_modulus_curve

# Relative tolerance wherever the value is a normal double.
REL_TOL = 1e-12
_CURVES = [euclidean_modulus_curve(), lp_modulus_curve(1.5),
           lp_modulus_curve(4.0)]
_EPS = st.one_of(st.floats(5e-324, 2.0),
                 st.sampled_from([1e-300, 1e-160, 1e-4, 2.0]))


def _normal(x: float) -> bool:
    return x >= sys.float_info.min


def _rel_err(got: float, want) -> float:
    return float(abs(mpmath.mpf(got) - want) / want)


@st.composite
def _dims(draw):
    n = draw(st.integers(1, 2000))
    return n, draw(st.one_of(st.integers(1, min(n, 8)), st.integers(1, n)))


def _waist_oracle(n, k, eps, delta, f_upper):
    # int_0^t sin^(k-1) = B_{sin^2 t}(k/2, 1/2) / 2 for t <= pi/2. The far
    # angle stays below pi/2: eps/2 <= 1 < 2 sqrt(k+1) sin(pi/4).
    with mpmath.workdps(60):
        r = mpmath.mpf(eps) / 2
        s = 2 * mpmath.sqrt(k + 1)
        near, far = 2 * mpmath.asin(r / (2 * s)), 2 * mpmath.asin(r / s)
        a = mpmath.mpf(k) / 2
        G = mpmath.betainc(a, 0.5, 0, mpmath.sin(near) ** 2) / 2
        F = mpmath.betainc(a, 0.5, mpmath.sin(far) ** 2, 1) / 2
        if f_upper == "pi":
            F += mpmath.beta(a, 0.5) / 2
        base = max(0, 1 - 2 * mpmath.mpf(delta))
        x = base ** (n - k) * mpmath.mpf(k + 1) ** (k + 1) * F / G
        return 1 / (1 + x)


def _tube_oracle(n, k, r, r_rounding=0.0):
    """I_x(k/2, (n-k+1)/2) at x = sin^2 r, and the change in it that
    rounding makes: of the square the code reads to a double (2.5 ulp of
    sin^2 r), or where the code takes the complement (r between pi/4 and
    the clamp pi/2, for a value above 1/2) of cos^2 r = 1 - x and of r
    itself by a relative ``r_rounding``."""
    with mpmath.workdps(60):
        a, b = mpmath.mpf(k) / 2, mpmath.mpf(n - k + 1) / 2
        x = mpmath.sin(r) ** 2
        value = mpmath.betainc(a, b, 0, x, regularized=True)
        slope = x ** (a - 1) * (1 - x) ** (b - 1) / mpmath.beta(a, b)
        if math.pi / 4.0 < r < math.pi / 2.0 and value > 0.5:
            # dx/dr = sin 2r
            moved = (1 - x) * 5.6e-16 + mpmath.sin(2 * r) * r * r_rounding
        else:
            moved = x * 5.6e-16
        return value, slope * moved


def _within(got: float, want, rounding) -> bool:
    return abs(mpmath.mpf(got) - want) <= REL_TOL * want + rounding


@given(dims=_dims(), eps=_EPS, modulus=st.sampled_from(_CURVES),
       f_upper=st.sampled_from(["pi", "halfpi"]))
# the series branch of a near mass whose sine square is subnormal
@example(dims=(3, 1), eps=1e-200, modulus=_CURVES[0], f_upper="pi")
@settings(max_examples=150, deadline=None)
def test_waist_bound_matches_the_oracle(dims, eps, modulus, f_upper):
    n, k = dims
    bound = waist_lower_bound(BoundInputs(n=n, k=k, eps=eps, modulus=modulus,
                                          f_upper=f_upper))
    if _normal(bound.value):
        want = _waist_oracle(n, k, eps, bound.inputs["delta_half_eps"],
                             f_upper)
        assert _rel_err(bound.value, want) <= REL_TOL, (n, k, eps)


@given(dims=_dims(), r=st.floats(0.0, math.pi / 2.0))
# sin^2 r subnormal, and sin^2 r rounding to 0 at k = 1 and 2
@example(dims=(1999, 1), r=1e-160)
@example(dims=(1999, 1), r=1e-300)
@example(dims=(1999, 2), r=1e-155)
# 1 - sin^2 r keeps few digits, and the fraction turns fast near pi/2
@example(dims=(169, 169), r=math.pi / 2.0 - 1e-8)
@example(dims=(2000, 2000), r=math.pi / 2.0 - 1e-9)
# scipy's betaincc(1/2, 1/2, y) reads 1.0 at y = cos^2 r here, 8e-11 high
@example(dims=(1, 1), r=1.5707963266695064)
@settings(max_examples=150, deadline=None)
def test_sphere_tube_volume_matches_the_oracle(dims, r):
    n, k = dims
    value = sphere_tube_volume(n, k, r)
    if _normal(value):
        assert _within(value, *_tube_oracle(n, k, r)), (n, k, r)


@given(dims=_dims(), eps=_EPS)
@settings(max_examples=150, deadline=None)
def test_round_sphere_reference_matches_the_oracle(dims, eps):
    n, k = dims
    value = round_sphere_reference(n, k, eps).value
    if _normal(value):
        # clamped at the double nearest pi/2, as the code clamps; the
        # code's r = 2 asin(eps/2) is a double, within 2 ulp of r, which
        # the complement's narrow allowance has to take in
        with mpmath.workdps(60):
            r = min(2 * mpmath.asin(mpmath.mpf(eps) / 2),
                    mpmath.mpf(math.pi / 2.0))
            assert _within(value, *_tube_oracle(n, k, r, 4.5e-16)), \
                (n, k, eps)
