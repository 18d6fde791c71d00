"""Acceptance suite: quantitative desk-scale checks of the whole pipeline.

Each criterion prints one PASS/FAIL line (run with ``pytest -s`` to see them
live). Expected values are produced by independent oracles written in this
module: midpoint-rule quadrature, closed-form band/cap areas, and plain
arithmetic recomputation of every formula.
"""

import math
import time

import numpy as np

from waistlab.bounds import (
    BoundInputs,
    bound_table,
    cap_angles,
    gromov_milman_bound,
    ratio_loglog_slope,
    sine_integrals,
    waist_lower_bound,
)
from waistlab.cone import (
    MeasureEstimate,
    _direct_sphere_sample,
    _rejection_sphere_sample,
    best_fiber,
    rng_stream,
)
from waistlab.needles import derived_density_estimate, lune_spec, needle_suite
from waistlab.norms import (
    euclidean_modulus_curve,
    euclidean_norm,
    lp_modulus_curve,
    lp_norm,
)

MOD = euclidean_modulus_curve()


def _set_measure(points, indicator):
    """Fraction of ``points`` (count, dim) satisfying a vectorized indicator
    (points array -> bool array)."""
    hits = np.asarray(indicator(points), dtype=bool)
    assert hits.shape == (points.shape[0],)
    return MeasureEstimate.from_hits(int(hits.sum()), points.shape[0])


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------

def oracle_asin(x: float) -> float:
    return math.atan2(x, math.sqrt(1.0 - x * x))


def oracle_angles(k: int, eps: float) -> tuple:
    s = 2.0 * math.sqrt(k + 1.0)
    return 2.0 * oracle_asin(eps / (2.0 * s)), 2.0 * oracle_asin(eps / s)


def oracle_midpoint(fn, a: float, b: float, panels: int = 1_000_000) -> float:
    h = (b - a) / panels
    t = a + (np.arange(panels) + 0.5) * h
    return float(np.sum(fn(t)) * h)


def oracle_fg(k: int, eps: float) -> tuple:
    near, far = oracle_angles(k, eps)
    fn = lambda t: np.sin(t) ** (k - 1)
    return oracle_midpoint(fn, far, math.pi), oracle_midpoint(fn, 0.0, near)


def oracle_w(n: int, k: int, eps: float) -> float:
    delta = 1.0 - math.sqrt(1.0 - (eps / 2.0) ** 2 / 4.0)
    F, G = oracle_fg(k, eps / 2.0)
    return 1.0 / (1.0 + (1.0 - 2.0 * delta) ** (n - k)
                  * (k + 1.0) ** (k + 1.0) * F / G)


def equator_band_measure(eps: float) -> float:
    return eps * math.sqrt(1.0 - eps**2 / 4.0)


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------

def test_criterion_1_formula_fidelity():
    t0 = time.monotonic()
    grid = [(n, k, eps)
            for n in (2, 4, 6, 10, 50)
            for k in (1, 2)
            for eps in (0.1, 0.5, 0.9, 1.3, 1.7)]
    assert len(grid) == 50
    worst = 0.0
    for n, k, eps in grid:
        near, far = cap_angles(k, eps / 2.0)
        o_near, o_far = oracle_angles(k, eps / 2.0)
        worst = max(worst, abs(near - o_near) / o_near,
                    abs(far - o_far) / o_far)
        F, G = sine_integrals(k, eps / 2.0, "pi")
        oF, oG = oracle_fg(k, eps / 2.0)
        worst = max(worst, abs(F - oF) / oF, abs(G - oG) / oG)
        w = waist_lower_bound(BoundInputs(n=n, k=k, eps=eps, modulus=MOD,
                                          f_upper="pi")).value
        ow = oracle_w(n, k, eps)
        worst = max(worst, abs(w - ow) / ow)
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-8 and elapsed < 10.0
    _report(1, ok, f"max relative error {worst:.2e} over 50 grid points "
                   f"(angles, sine masses, waist bound), {elapsed:.1f}s")
    assert worst <= 1e-8
    assert elapsed < 10.0


def test_criterion_2_round_sphere_waist_verification():
    t0 = time.monotonic()
    n, k, eps = 2, 1, 0.5
    w = waist_lower_bound(BoundInputs(n=n, k=k, eps=eps, modulus=MOD,
                                      f_upper="pi")).value
    f = np.array([[0.0, 0.0, 1.0]])
    z_grid = [np.array([z]) for z in np.arange(-0.8, 0.801, 0.1)]
    z_star, est, _ = best_fiber(euclidean_norm(3), f, eps, z_grid,
                                1_000_000, 10_000, seed=7)
    oracle = equator_band_measure(eps)
    elapsed = time.monotonic() - t0
    margin_sigmas = (est.mean - w) / est.std_error
    ok = (abs(est.mean - oracle) <= 3.5 * est.std_error
          and margin_sigmas >= 3.0
          and abs(z_star[0]) < 1e-12
          and elapsed < 120.0)
    _report(2, ok, f"best-fiber estimate {est.mean:.4f} vs band oracle "
                   f"{oracle:.4f}, bound {w:.2e}, margin "
                   f"{margin_sigmas:.0f} sigma, z*={z_star[0]:+.1f}, "
                   f"{elapsed:.0f}s")
    assert abs(est.mean - oracle) <= 3.5 * est.std_error
    assert margin_sigmas >= 3.0
    assert elapsed < 120.0


def test_criterion_3_lp_waist_verification():
    t0 = time.monotonic()
    results = []
    ok = True
    for p in (1.5, 4.0):
        modulus = lp_modulus_curve(p)
        for n in (2, 4):
            norm = lp_norm(p, n + 1)
            f = np.zeros((1, n + 1))
            f[0, -1] = 1.0
            for eps in (0.3, 0.5):
                w = waist_lower_bound(BoundInputs(n=n, k=1, eps=eps,
                                                  modulus=modulus,
                                                  f_upper="pi")).value
                z_grid = [np.array([z]) for z in np.arange(-0.6, 0.601, 0.2)]
                _, est, _ = best_fiber(norm, f, eps, z_grid, 200_000, 5_000,
                                       seed=int(10 * p + n))
                passed = est.mean >= w - 3.0 * est.std_error
                ok = ok and passed
                results.append((p, n, eps, est.mean, w, passed))
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 600.0
    detail = "; ".join(f"p={p} n={n} eps={e}: {m:.3f}>={w:.1e}"
                       for p, n, e, m, w, _ in results)
    _report(3, ok, f"8/8 configurations ({elapsed:.0f}s): {detail}")
    for p, n, eps, mean, w, passed in results:
        assert passed, (p, n, eps, mean, w)
    assert elapsed < 600.0


def test_criterion_4_needle_lemma_chain():
    t0 = time.monotonic()
    reports = needle_suite(10_000, seed=2024, n_range=(2, 8))
    elapsed = time.monotonic() - t0
    violations = {r["lemma"]: r["violations"] for r in reports}
    ok = all(v == 0 for v in violations.values()) and elapsed < 300.0
    _report(4, ok, f"10^4 weakly concave needles, violations by check: "
                   f"{violations}, {elapsed:.0f}s")
    assert all(v == 0 for v in violations.values()), violations
    assert elapsed < 300.0


def test_criterion_5_derived_density_reconstruction():
    t0 = time.monotonic()
    specs = [lune_spec(a) for a in (0.2, 0.1, 0.05)]
    est, diag = derived_density_estimate(specs, 10_000_000, seed=31)
    elapsed = time.monotonic() - t0
    sup_ok = diag.sup_density <= diag.sup_density_bound
    small_ok = all(mass <= bound for (_, _, mass, bound) in diag.small_ball)
    cap_ok = all(mass >= lower for (_, _, mass, lower) in diag.cap_bound)
    ok = diag.l1_vs_limit <= 0.02 and sup_ok and small_ok and cap_ok
    _report(5, ok, f"lune L1 error {diag.l1_vs_limit:.4f} <= 0.02 at 1e7 "
                   f"samples; sup density {diag.sup_density:.2f} <= "
                   f"{diag.sup_density_bound:.0f}; small-ball and projected "
                   f"cap inequalities at all {len(diag.small_ball)} probes; "
                   f"{elapsed:.0f}s")
    assert diag.l1_vs_limit <= 0.02
    assert sup_ok
    assert small_ok
    assert cap_ok
    assert est.m == 1


def test_criterion_6_small_radius_asymptotics():
    worst = 0.0
    slopes = {}
    for l, k in ((1, 2), (1, 3), (2, 3)):
        slope = ratio_loglog_slope(5, l, k, MOD)
        slopes[(l, k)] = slope
        worst = max(worst, abs(slope - (l - k)))
    ok = worst <= 0.1
    _report(6, ok, f"log-log slopes {slopes} match l-k within {worst:.3f}")
    assert worst <= 0.1


def test_criterion_7_bound_comparison():
    k, eps = 1, 0.5
    rows = [bound_table(n, k, [eps], MOD)[0] for n in range(2, 11)]
    ws = [row["w"] for row in rows]
    w2s = [row["w2"] for row in rows]
    w_large = waist_lower_bound(BoundInputs(n=1000, k=k, eps=eps,
                                            modulus=MOD)).value
    grows = all(b > a for a, b in zip(ws, ws[1:]))
    shrinks = all(b < a for a, b in zip(w2s, w2s[1:]))
    w2_small = w2s[4] < 1e-6  # n = 6
    b_beats_a = True
    checked = 0
    for n in (50, 100, 200, 500, 1000):
        for e in np.linspace(0.6, 2.0, 8):
            gm = gromov_milman_bound(n, float(e), MOD)
            if gm.inputs["a"] > 0:
                checked += 1
                b_beats_a = b_beats_a and \
                    2.0 * float(MOD(e / 2.0)) > gm.inputs["a"]
    ok = grows and shrinks and w2_small and w_large > 0.999 and \
        b_beats_a and checked > 20
    _report(7, ok, f"w grows to {w_large:.5f} at n=1000 (> 0.999), w2(n=6) = "
                   f"{w2s[4]:.1e} < 1e-6, waist exponent beats the "
                   f"Gromov-Milman exponent at all {checked} grid points "
                   f"with a > 0")
    assert grows and shrinks
    assert w_large > 0.999
    assert w2_small
    assert b_beats_a and checked > 20


def test_criterion_8_sampler_validity():
    t0 = time.monotonic()
    norm = lp_norm(4, 3)
    exact = _direct_sphere_sample(norm, 1_000_000, rng_stream(100, 0))
    rej = _rejection_sphere_sample(norm, 1_000_000, rng_stream(200, 0))
    rng = np.random.Generator(np.random.Philox(9))
    tests = [
        ("orthant+++", lambda p: np.all(p > 0, axis=1)),
        ("halfspace x0", lambda p: p[:, 0] > 0),
        ("quadrant x0+x1-", lambda p: (p[:, 0] > 0) & (p[:, 1] < 0)),
        ("halfspace x2-", lambda p: p[:, 2] < 0),
    ]
    for i in range(6):
        c = rng.standard_normal(3)
        c /= np.linalg.norm(c)
        tau = rng.uniform(-0.3, 0.5)
        tests.append((f"cap{i}", (lambda c, tau: lambda p: p @ c >= tau)(c, tau)))
    assert len(tests) == 10
    worst_z = 0.0
    for _, indicator in tests:
        e1 = _set_measure(exact, indicator)
        e2 = _set_measure(rej, indicator)
        sigma = math.hypot(e1.std_error, e2.std_error)
        worst_z = max(worst_z, abs(e1.mean - e2.mean) / sigma)
    elapsed = time.monotonic() - t0
    ok = worst_z <= 3.0
    _report(8, ok, f"exact vs rejection cone sampler on 10 orthant/cap sets: "
                   f"worst discrepancy {worst_z:.2f} sigma at 1e6 samples "
                   f"each, {elapsed:.0f}s")
    assert worst_z <= 3.0
