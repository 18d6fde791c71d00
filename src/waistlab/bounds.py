"""Closed-form lower bounds for fiber-neighborhood (waist) measures.

Evaluates the uniform-convexity waist bound for the unit sphere of a
uniformly convex normed space, the bound obtained by radially projecting the
round-sphere result, the Gromov-Milman isoperimetric bound, and their
comparisons and small-radius asymptotics.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy import special

from .norms import ModulusCurve

__all__ = [
    "F_UPPER_PI",
    "F_UPPER_HALF_PI",
    "BoundInputs",
    "BoundValue",
    "cap_angles",
    "sine_integrals",
    "waist_lower_bound",
    "sphere_tube_volume",
    "projection_lower_bound",
    "gromov_milman_bound",
    "round_sphere_reference",
    "bound_table",
    "ratio_loglog_slope",
]

F_UPPER_PI = "pi"
F_UPPER_HALF_PI = "halfpi"
_F_UPPER_VALUES = {F_UPPER_PI: math.pi, F_UPPER_HALF_PI: math.pi / 2.0}


# ---------------------------------------------------------------------------
# Bound ingredients
# ---------------------------------------------------------------------------

class CapAngles(NamedTuple):
    near: float  # angular radius matching the rescaled chord eps/2
    far: float   # angular radius matching the rescaled chord eps


def _check_radius(k: int, eps: float) -> None:
    if k < 1:
        raise ValueError("k must be >= 1")
    if eps <= 0:
        raise ValueError("eps must be positive")
    if eps / (2.0 * math.sqrt(k + 1.0)) > 1.0:
        raise ValueError(f"eps={eps} outside the arcsin domain for k={k}")


def _cap_angle_lists(k: int, radii: list) -> tuple[list, list]:
    # The near and far angles of cap_angles at each radius.
    s = 2.0 * math.sqrt(k + 1.0)
    return ([2.0 * math.asin(r / (2.0 * s)) for r in radii],
            [2.0 * math.asin(r / s) for r in radii])


def cap_angles(k: int, eps: float) -> CapAngles:
    """Angular radii on the round reference sphere whose chords equal the
    norm radii eps/2 and eps shrunk by the sqrt(k+1) sandwich factor:
    near = 2 asin(eps / (4 sqrt(k+1))), far = 2 asin(eps / (2 sqrt(k+1))).

    The identity far(eps) == near(2 eps) holds exactly.
    """
    _check_radius(k, eps)
    (near,), (far,) = _cap_angle_lists(k, [eps])
    return CapAngles(near=near, far=far)


class SineIntegrals(NamedTuple):
    far_mass: float   # integral of sin^(k-1) over [far, f_upper]
    near_mass: float  # integral of sin^(k-1) over [0, near]


def _sine_masses(m: int, radii: list) -> list[float]:
    """int_0^r sin^m t dt at each r of ``radii``, each 0 <= r <= pi.

    For r <= pi/2 this is B(a, 1/2) I_{sin^2 r}(a, 1/2) / 2 with
    a = (m + 1)/2, a regularized incomplete beta function (DLMF 8.17); the
    mass beyond pi/2 follows by symmetry about pi/2. Where sin^2 r is below
    the normal float range, betainc loses digits, and the leading term
    sin^(m+1) r / (m+1) of the series takes over: the next term is smaller
    by a factor of order sin^2 r. That happens only near r = 0: the float
    nearest pi has a sine of about 1.2e-16. Accurate to a few ulp relative,
    however small the mass, times the error of scipy's B(a, 1/2) (up to
    2e-12 relative at a near 1000), which cancels in a ratio of masses.

    One betainc call covers every radius. The sines, their squares and the
    series stay Python float operations, so each mass has the bits of the
    radius taken alone.
    """
    sines = [math.sin(r) for r in radii]
    a = 0.5 * (m + 1.0)
    half = 0.5 * special.beta(a, 0.5)
    normal = [s * s >= sys.float_info.min for s in sines]
    below = iter((half * special.betainc(
        a, 0.5, [s ** 2 for s, ok in zip(sines, normal) if ok])).tolist())
    masses = []
    for r, s, ok in zip(radii, sines, normal):
        if not ok:
            masses.append(float(s ** (m + 1) / (m + 1)))
        else:
            b = next(below)
            masses.append(b if r <= math.pi / 2.0 else float(2.0 * half - b))
    return masses


def _sine_integral_lists(k: int, radii: list, f_upper: str) -> tuple[list, list]:
    # The far and near masses of sine_integrals at each radius, with the
    # full mass up to f_upper and every betainc value in one call.
    near_angles, far_angles = _cap_angle_lists(k, radii)
    upper = _F_UPPER_VALUES[f_upper]
    inside = [t for t in far_angles if t < upper]
    masses = _sine_masses(k - 1, [upper, *inside, *near_angles])
    full, below = masses[0], iter(masses[1:1 + len(inside)])
    far = [full - next(below) if t < upper else 0.0 for t in far_angles]
    return far, masses[1 + len(inside):]


def sine_integrals(k: int, eps: float, f_upper: str = F_UPPER_PI) -> SineIntegrals:
    """The two sin^(k-1) masses entering the waist bound.

    ``f_upper`` selects the upper limit of the far-side integral: "pi"
    (default; matches the derivation and is the conservative choice) or
    "halfpi". The far mass is 0.0 when the far angle reaches that limit.
    Both masses are closed-form incomplete beta functions (see
    :func:`_sine_masses`): the near mass is accurate to a few ulp relative
    however small it is, the far mass to a few ulp of int_0^pi sin^(k-1),
    both up to the error of scipy's beta function at large k.
    """
    if f_upper not in _F_UPPER_VALUES:
        raise ValueError(f"f_upper must be one of {sorted(_F_UPPER_VALUES)}")
    _check_radius(k, eps)
    (far,), (near,) = _sine_integral_lists(k, [eps], f_upper)
    return SineIntegrals(far_mass=far, near_mass=near)


def _check_bound_args(n: int, k: int, eps: float, f_upper: str) -> None:
    if n < 1:
        raise ValueError("n must be >= 1")
    if not (1 <= k <= n):
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    if not (0.0 < eps <= 2.0):
        raise ValueError(f"eps must lie in (0, 2], got {eps}")
    if f_upper not in _F_UPPER_VALUES:
        raise ValueError(f"f_upper must be one of {sorted(_F_UPPER_VALUES)}")


@dataclass(frozen=True)
class BoundInputs:
    """Parameters of a waist bound evaluation.

    ``n`` is the sphere dimension (ambient dimension minus one), ``k`` the
    codimension target, ``eps`` the norm radius of the tube, ``modulus`` the
    modulus-of-convexity curve of the norm.
    """

    n: int
    k: int
    eps: float
    modulus: ModulusCurve
    f_upper: str = F_UPPER_PI

    def __post_init__(self):
        _check_bound_args(self.n, self.k, self.eps, self.f_upper)


@dataclass(frozen=True)
class BoundValue:
    """An evaluated lower bound with its inputs echoed."""

    value: float
    kind: str  # "waist" | "projection" | "gromov_milman" | "round_sphere_reference"
    inputs: dict = field(default_factory=dict)

    def __post_init__(self):
        if not (0.0 <= self.value <= 1.0 + 1e-12):
            raise ValueError(f"bound value {self.value} outside [0, 1]")

    def to_dict(self) -> dict:
        return {"value": self.value, "kind": self.kind, "inputs": dict(self.inputs)}


# ---------------------------------------------------------------------------
# The bounds
# ---------------------------------------------------------------------------

class _WaistTerms(NamedTuple):
    w: list      # the waist bound at each eps
    delta: list  # delta(eps/2)
    far: list    # F, the far sine mass at eps/2
    near: list   # G, the near sine mass at eps/2


def _waist_terms(n: int, k: int, eps: list, modulus: ModulusCurve,
                 f_upper: str) -> _WaistTerms:
    """The waist bound of :func:`waist_lower_bound` and its terms at every
    eps of a list, in one pass: the constants of (k, f_upper) once, one
    modulus call and one betainc call over the grid. Each value has the
    bits of the eps taken alone. Raises ValueError for any eps that
    BoundInputs rejects."""
    for e in eps:
        _check_bound_args(n, k, e, f_upper)
    halves = [e / 2.0 for e in eps]
    delta = modulus(np.asarray(halves, dtype=float)).tolist()
    far, near = _sine_integral_lists(k, halves, f_upper)
    try:
        power = (k + 1.0) ** (k + 1.0)
    except OverflowError:
        power = None
    w = []
    for d, F, G in zip(delta, far, near):
        base = max(0.0, 1.0 - 2.0 * d)
        # The near mass G underflows to 0 at tiny eps, and eps/2 itself
        # does at the smallest subnormal eps, where G is 0 too; the bound
        # is 0 there.
        value = 0.0
        if G > 0.0:
            if power is not None:
                value = 1.0 / (1.0 + base ** (n - k) * power * F / G)
            else:
                # X = 0 where a factor is 0
                value = 1.0
                if base > 0.0 and F > 0.0:
                    log_x = ((n - k) * math.log(base)
                             + (k + 1.0) * math.log(k + 1.0)
                             + math.log(F) - math.log(G))
                    value = float(special.expit(-log_x))
        w.append(value)
    return _WaistTerms(w=w, delta=delta, far=far, near=near)


def _waist_values(n: int, k: int, eps: list, modulus: ModulusCurve,
                  f_upper: str) -> list[BoundValue]:
    # waist_lower_bound at every eps of a list, through one _waist_terms call
    terms = _waist_terms(n, k, eps, modulus, f_upper)
    return [BoundValue(
        value=w,
        kind="waist",
        inputs={"n": n, "k": k, "eps": e, "f_upper": f_upper,
                "modulus": modulus.label, "delta_half_eps": d},
    ) for e, w, d in zip(eps, terms.w, terms.delta)]


def waist_lower_bound(inputs: BoundInputs) -> BoundValue:
    """Waist lower bound for the unit sphere of a uniformly convex space:

        w(eps) = 1 / (1 + (1 - 2 delta(eps/2))^(n-k) (k+1)^(k+1) F/G)

    with F, G the sine masses of :func:`sine_integrals` at eps/2. The factor
    (1 - 2 delta) is clamped at 0, so a modulus above 1/2 degrades to the
    trivial bound w = 1. Nondecreasing in eps for fixed (n, k). Where
    (k+1)^(k+1) overflows a double (k >= 143) the second term X is taken
    from its logarithm, and w = 1/(1 + X).

    This is the one-eps call of the grid kernel that :func:`bound_table`
    and :func:`ratio_loglog_slope` run over a whole eps grid, so a grid row
    equals this value bit for bit. The kernel makes one modulus call and one
    incomplete beta call per grid; every other step (the powers, sines,
    arcsines, logarithms and the series of a tiny mass) stays a Python
    float operation, because numpy's power does not round as Python's
    ``**`` does.
    """
    return _waist_values(inputs.n, inputs.k, [inputs.eps], inputs.modulus,
                         inputs.f_upper)[0]


def _tube_fractions(n: int, k: int, radii: list) -> list[float]:
    # sphere_tube_volume at each radius, from two betainc calls over the
    # radii. The fraction is I_x(a, b) at x = sin^2 r, or its complement
    # 1 - I_y(b, a) at y = cos^2 r where that is above 1/2 and r lies
    # between pi/4 and the clamp pi/2 (where I_1 = 1 exactly): near
    # r = pi/2 the double x keeps few digits of 1 - x, on which I
    # turns fast when k is close to n. (scipy's betaincc(b, a, y) loses
    # the digits of a small y at a = b = 1/2, n = 1.) Where sin^2 r is below
    # the normal range, betainc loses digits. There
    # I_x(a, b) = x^a / (a B(a, b)) to within a factor 1 + O(b x)
    # (DLMF 8.17.8), so the fraction is I_x0(a, b) (sin r / sqrt x0)^k at
    # x0 = 2^-1000, a normal double whose root 2^-500 scales sin r exactly.
    a, b = 0.5 * k, 0.5 * (n - k + 1)
    radii = [min(r, math.pi / 2.0) for r in radii]
    sines = [math.sin(r) for r in radii]
    direct = special.betainc(a, b, [s ** 2 for s in sines])
    complement = 1.0 - special.betainc(b, a,
                                       [math.cos(r) ** 2 for r in radii])
    at = np.asarray(radii)
    past = (at > math.pi / 4.0) & (at < math.pi / 2.0) & (complement > 0.5)
    fractions = np.where(past, complement, direct).tolist()
    for i, s in enumerate(sines):
        if s > 0.0 and s * s < sys.float_info.min:
            lead = float(special.betainc(a, b, 2.0 ** -1000))
            fractions[i] = lead * (s * 2.0 ** 500) ** k
    return fractions


def sphere_tube_volume(n: int, k: int, r: float) -> float:
    """Normalized round-sphere volume of the geodesic r-neighborhood of an
    equatorial subsphere of codimension k inside the n-sphere.

    In join coordinates the tube fraction is
    int_0^r cos^(n-k) t sin^(k-1) t dt / int_0^(pi/2) (same), which the
    substitution x = sin^2 t turns into the regularized incomplete beta
    function I_{sin^2 r}(k/2, (n-k+1)/2).
    """
    if not (1 <= k <= n):
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    if r < 0 or r > math.pi / 2.0 + 1e-12:
        raise ValueError(f"radius must lie in [0, pi/2], got {r}")
    return _tube_fractions(n, k, [r])[0]


def _projection_values(n: int, k: int, eps: list) -> list[float]:
    # projection_lower_bound at each eps
    scale = (n + 1.0) ** (-(n + 1.0))
    tubes = _tube_fractions(n, k, [min(e / (n + 1.0), math.pi / 2.0)
                                   for e in eps])
    return [scale * tube for tube in tubes]


def projection_lower_bound(n: int, k: int, eps: float) -> BoundValue:
    """Waist lower bound obtained by radially projecting the round-sphere
    tube theorem: (n+1)^(-n-1) * tube fraction at the geodesic radius
    eps/(n+1)."""
    if eps <= 0 or eps > 2:
        raise ValueError(f"eps must lie in (0, 2], got {eps}")
    if not (1 <= k <= n):
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    return BoundValue(
        value=_projection_values(n, k, [eps])[0],
        kind="projection",
        inputs={"n": n, "k": k, "eps": eps, "radius_mode": "geodesic"},
    )


def _gromov_milman_terms(n: int, eps: list,
                         modulus: ModulusCurve) -> tuple[float, list, list]:
    # theta_n, then a(eps) and the bound of gromov_milman_bound at each eps,
    # with one modulus call
    if n < 2:
        raise ValueError("n must be >= 2")
    theta = 1.0 - 0.5 ** (1.0 / (n - 1.0))
    a = modulus(np.asarray([max(0.0, e / 8.0 - theta) for e in eps],
                           dtype=float)).tolist()
    return theta, a, [1.0 - math.exp(-x * n) for x in a]


def gromov_milman_bound(n: int, eps: float, modulus: ModulusCurve) -> BoundValue:
    """Gromov-Milman isoperimetric bound 1 - exp(-a(eps) n) with
    a(eps) = delta(eps/8 - theta_n) and theta_n = 1 - (1/2)^(1/(n-1)).

    The modulus argument is clamped at 0, which yields the trivial bound 0
    whenever eps/8 <= theta_n (always the case at n = 2).
    """
    if eps <= 0 or eps > 2:
        raise ValueError(f"eps must lie in (0, 2], got {eps}")
    theta, (a,), (value,) = _gromov_milman_terms(n, [eps], modulus)
    return BoundValue(
        value=value,
        kind="gromov_milman",
        inputs={"n": n, "eps": eps, "theta_n": theta, "a": a,
                "modulus": modulus.label},
    )


def round_sphere_reference(n: int, k: int, eps: float) -> BoundValue:
    """Round-sphere waist constant: the tube fraction around an equatorial
    codimension-k subsphere at radius eps. On the round sphere the norm
    distance is chordal, so eps is the geodesic angle 2 asin(eps/2)."""
    if eps <= 0 or eps > 2:
        raise ValueError(f"eps must lie in (0, 2], got {eps}")
    r = 2.0 * math.asin(min(1.0, eps / 2.0))
    value = sphere_tube_volume(n, k, min(r, math.pi / 2.0))
    return BoundValue(
        value=value,
        kind="round_sphere_reference",
        inputs={"n": n, "k": k, "eps": eps, "radius_mode": "chordal"},
    )


# ---------------------------------------------------------------------------
# Tables and asymptotics
# ---------------------------------------------------------------------------

def bound_table(
    n: int,
    k: int,
    eps_grid,
    modulus: ModulusCurve,
    f_upper: str = F_UPPER_PI,
) -> list[dict]:
    """Rows (eps, w, w2, gm, b_exponent, n, k, f_upper) over an eps grid.

    ``b_exponent`` is the exponent 2 delta(eps/2) appearing in the
    isoperimetric consequence of the waist bound. The whole grid is
    evaluated in one pass: the waist columns by the kernel behind
    :func:`waist_lower_bound`, the projection and Gromov-Milman columns by
    one incomplete beta and one modulus call each. Powers, sines,
    logarithms and exponentials stay Python float operations, so every row
    equals the single-eps functions bit for bit.
    """
    eps = [float(e) for e in np.asarray(eps_grid, dtype=float)]
    waist = _waist_terms(n, k, eps, modulus, f_upper)
    _, _, gm = _gromov_milman_terms(n, eps, modulus)
    return [{
        "eps": e, "w": w, "w2": w2, "gm": g, "b_exponent": 2.0 * d,
        "n": n, "k": k, "f_upper": f_upper,
    } for e, w, w2, g, d in zip(eps, waist.w, _projection_values(n, k, eps),
                                gm, waist.delta)]


def ratio_loglog_slope(
    n: int,
    l: int,
    k: int,
    modulus: ModulusCurve,
    f_upper: str = F_UPPER_PI,
) -> float:
    """Least-squares slope of log(w_l(r)/w_k(r)) against log r, over 25
    geometrically spaced radii from 1e-4 to 1e-2.

    For l < k the ratio diverges as r -> 0 with slope l - k, reflecting the
    near-cap mass scaling r^m of the codimension-m bound.
    """
    rs = np.geomspace(1e-4, 1e-2, 25)
    wl = _waist_terms(n, l, rs.tolist(), modulus, f_upper).w
    wk = _waist_terms(n, k, rs.tolist(), modulus, f_upper).w
    ratios = [a / b for a, b in zip(wl, wk)]
    slope, _ = np.polyfit(np.log(rs), np.log(ratios), 1)
    return float(slope)
