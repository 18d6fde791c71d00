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


def cap_angles(k: int, eps: float) -> CapAngles:
    """Angular radii on the round reference sphere whose chords equal the
    norm radii eps/2 and eps shrunk by the sqrt(k+1) sandwich factor:
    near = 2 asin(eps / (4 sqrt(k+1))), far = 2 asin(eps / (2 sqrt(k+1))).

    The identity far(eps) == near(2 eps) holds exactly.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if eps <= 0:
        raise ValueError("eps must be positive")
    s = 2.0 * math.sqrt(k + 1.0)
    if eps / s > 1.0:
        raise ValueError(f"eps={eps} outside the arcsin domain for k={k}")
    return CapAngles(near=2.0 * math.asin(eps / (2.0 * s)),
                     far=2.0 * math.asin(eps / s))


class SineIntegrals(NamedTuple):
    far_mass: float   # integral of sin^(k-1) over [far, f_upper]
    near_mass: float  # integral of sin^(k-1) over [0, near]


def _sine_mass(m: int, r: float) -> float:
    """int_0^r sin^m t dt for 0 <= r <= pi.

    For r <= pi/2 this is B(a, 1/2) I_{sin^2 r}(a, 1/2) / 2 with
    a = (m + 1)/2, a regularized incomplete beta function (DLMF 8.17); the
    mass beyond pi/2 follows by symmetry about pi/2. Where sin^2 r is below
    the normal float range, betainc loses digits, and the leading term
    sin^(m+1) r / (m+1) of the series takes over: the next term is smaller
    by a factor of order sin^2 r. That happens only near r = 0: the float
    nearest pi has a sine of about 1.2e-16. Accurate to a few ulp relative,
    however small the mass.
    """
    s = math.sin(r)
    if s * s < sys.float_info.min:
        return float(s ** (m + 1) / (m + 1))
    a = 0.5 * (m + 1.0)
    half = 0.5 * special.beta(a, 0.5)
    below = half * special.betainc(a, 0.5, s ** 2)
    return float(below if r <= math.pi / 2.0 else 2.0 * half - below)


def sine_integrals(k: int, eps: float, f_upper: str = F_UPPER_PI) -> SineIntegrals:
    """The two sin^(k-1) masses entering the waist bound.

    ``f_upper`` selects the upper limit of the far-side integral: "pi"
    (default; matches the derivation and is the conservative choice) or
    "halfpi". The far mass is 0.0 when the far angle reaches that limit.
    Both masses are closed-form incomplete beta functions (see
    :func:`_sine_mass`): the near mass is accurate to a few ulp relative
    however small it is, the far mass to a few ulp of int_0^pi sin^(k-1).
    """
    if f_upper not in _F_UPPER_VALUES:
        raise ValueError(f"f_upper must be one of {sorted(_F_UPPER_VALUES)}")
    angles = cap_angles(k, eps)
    upper = _F_UPPER_VALUES[f_upper]
    far = (_sine_mass(k - 1, upper) - _sine_mass(k - 1, angles.far)
           if angles.far < upper else 0.0)
    near = _sine_mass(k - 1, angles.near)
    return SineIntegrals(far_mass=far, near_mass=near)


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
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if not (1 <= self.k <= self.n):
            raise ValueError(f"need 1 <= k <= n, got k={self.k}, n={self.n}")
        if not (0.0 < self.eps <= 2.0):
            raise ValueError(f"eps must lie in (0, 2], got {self.eps}")
        if self.eps / (2.0 * math.sqrt(self.k + 1.0)) > 1.0:
            raise ValueError("eps outside the arcsin domain")
        if self.f_upper not in _F_UPPER_VALUES:
            raise ValueError(f"f_upper must be one of {sorted(_F_UPPER_VALUES)}")


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

def waist_lower_bound(inputs: BoundInputs) -> BoundValue:
    """Waist lower bound for the unit sphere of a uniformly convex space:

        w(eps) = 1 / (1 + (1 - 2 delta(eps/2))^(n-k) (k+1)^(k+1) F/G)

    with F, G the sine masses of :func:`sine_integrals` at eps/2. The factor
    (1 - 2 delta) is clamped at 0, so a modulus above 1/2 degrades to the
    trivial bound w = 1. Nondecreasing in eps for fixed (n, k). Where
    (k+1)^(k+1) overflows a double (k >= 143) the second term X is taken
    from its logarithm, and w = 1/(1 + X).
    """
    n, k, eps = inputs.n, inputs.k, inputs.eps
    delta = float(inputs.modulus(eps / 2.0))
    base = max(0.0, 1.0 - 2.0 * delta)
    # The near mass G underflows to 0 at tiny eps, and eps/2 itself does at
    # the smallest subnormal eps; the bound is 0 there.
    value = 0.0
    if eps / 2.0 > 0.0:
        F, G = sine_integrals(k, eps / 2.0, inputs.f_upper)
        if G > 0.0:
            try:
                power = (k + 1.0) ** (k + 1.0)
            except OverflowError:
                # X = 0 where a factor is 0
                value = 1.0
                if base > 0.0 and F > 0.0:
                    log_x = ((n - k) * math.log(base)
                             + (k + 1.0) * math.log(k + 1.0)
                             + math.log(F) - math.log(G))
                    value = float(special.expit(-log_x))
            else:
                value = 1.0 / (1.0 + base ** (n - k) * power * F / G)
    return BoundValue(
        value=value,
        kind="waist",
        inputs={"n": n, "k": k, "eps": eps, "f_upper": inputs.f_upper,
                "modulus": inputs.modulus.label, "delta_half_eps": delta},
    )


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
    x = math.sin(min(r, math.pi / 2.0)) ** 2
    return float(special.betainc(0.5 * k, 0.5 * (n - k + 1), x))


def projection_lower_bound(n: int, k: int, eps: float) -> BoundValue:
    """Waist lower bound obtained by radially projecting the round-sphere
    tube theorem: (n+1)^(-n-1) * tube fraction at the geodesic radius
    eps/(n+1)."""
    if eps <= 0 or eps > 2:
        raise ValueError(f"eps must lie in (0, 2], got {eps}")
    tube = sphere_tube_volume(n, k, min(eps / (n + 1.0), math.pi / 2.0))
    value = (n + 1.0) ** (-(n + 1.0)) * tube
    return BoundValue(
        value=value,
        kind="projection",
        inputs={"n": n, "k": k, "eps": eps, "radius_mode": "geodesic"},
    )


def gromov_milman_bound(n: int, eps: float, modulus: ModulusCurve) -> BoundValue:
    """Gromov-Milman isoperimetric bound 1 - exp(-a(eps) n) with
    a(eps) = delta(eps/8 - theta_n) and theta_n = 1 - (1/2)^(1/(n-1)).

    The modulus argument is clamped at 0, which yields the trivial bound 0
    whenever eps/8 <= theta_n (always the case at n = 2).
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if eps <= 0 or eps > 2:
        raise ValueError(f"eps must lie in (0, 2], got {eps}")
    theta = 1.0 - 0.5 ** (1.0 / (n - 1.0))
    a = float(modulus(max(0.0, eps / 8.0 - theta)))
    value = 1.0 - math.exp(-a * n)
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
    isoperimetric consequence of the waist bound.
    """
    rows = []
    for eps in np.asarray(eps_grid, dtype=float):
        eps = float(eps)
        w = waist_lower_bound(BoundInputs(n=n, k=k, eps=eps, modulus=modulus,
                                          f_upper=f_upper)).value
        w2 = projection_lower_bound(n, k, eps).value
        gm = gromov_milman_bound(n, eps, modulus).value
        rows.append({
            "eps": eps, "w": w, "w2": w2, "gm": gm,
            "b_exponent": 2.0 * float(modulus(eps / 2.0)),
            "n": n, "k": k, "f_upper": f_upper,
        })
    return rows


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
    ratios = []
    for r in rs:
        wl = waist_lower_bound(BoundInputs(n=n, k=l, eps=float(r),
                                           modulus=modulus, f_upper=f_upper)).value
        wk = waist_lower_bound(BoundInputs(n=n, k=k, eps=float(r),
                                           modulus=modulus, f_upper=f_upper)).value
        ratios.append(wl / wk)
    slope, _ = np.polyfit(np.log(rs), np.log(ratios), 1)
    return float(slope)
