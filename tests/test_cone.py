import math

import numpy as np
import pytest

from waistlab import cone, norms
from waistlab.cone import (
    EmptyFiberError,
    MeasureEstimate,
    RankDeficientError,
    _ExactTube,
    _rejection_sphere_sample,
    _slice_frame,
    _slice_point,
    best_fiber,
    derive_seed,
    fiber_distance_method,
    fiber_points,
    min_norm_distance,
    rng_stream,
    sample_conical,
    within_norm_distance,
)
from waistlab.norms import (
    euclidean_norm,
    lp_norm,
    norm_eval,
    parse_norm,
    sandwich_bounds,
    smooth_norm,
)

E3 = euclidean_norm(3)
E4 = euclidean_norm(4)
L43 = lp_norm(4, 3)
REG3 = smooth_norm(lp_norm(1.5, 3), 0.05, 0.01)
LAST_COORD = np.array([[0.0, 0.0, 1.0]])
LAST_TWO = np.array([[0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]])


def _set_measure(batch, indicator):
    """Fraction of batch points satisfying a vectorized indicator
    (points array (count, dim) -> bool array)."""
    hits = np.asarray(indicator(batch.points), dtype=bool)
    assert hits.shape == (batch.count,)
    return MeasureEstimate.from_hits(int(hits.sum()), batch.count,
                                     seed=batch.seed)


def _band_measure(eps: float) -> float:
    # chordal eps-neighborhood of the equator on the round 2-sphere
    return eps * math.sqrt(1.0 - eps**2 / 4.0)


def test_derive_seed_matches_seed_sequence():
    for seed, path in ((0, (1,)), (7, (2,)), (7, (19,)), (12345, (0, 3)),
                       (2**40, (99, 0))):
        ss = np.random.SeedSequence(entropy=seed, spawn_key=path)
        assert derive_seed(seed, *path) == int(ss.generate_state(1)[0])


def test_sample_batch_determinism_bit_for_bit():
    a = sample_conical(E3, 50_000, seed=5)
    b = sample_conical(E3, 50_000, seed=5)
    assert np.array_equal(a.points, b.points)
    c = sample_conical(lp_norm(1.5, 3), 20_000, seed=5)
    d = sample_conical(lp_norm(1.5, 3), 20_000, seed=5)
    assert np.array_equal(c.points, d.points)


def test_samples_lie_on_the_sphere():
    for norm in (E3, lp_norm(4, 3), lp_norm(1.5, 4)):
        batch = sample_conical(norm, 10_000, seed=2)
        assert np.abs(np.asarray(norm_eval(norm, batch.points)) - 1.0).max() <= 1e-10


def test_regularized_norm_falls_back_to_rejection():
    norm = smooth_norm(lp_norm(4, 2), 0.05, 0.01)
    batch = sample_conical(norm, 4_000, seed=6)
    assert np.abs(np.asarray(norm_eval(norm, batch.points)) - 1.0).max() <= 1e-10
    # sign symmetry of the norm carries over to the cone measure
    est = _set_measure(batch, lambda pts: pts[:, 0] > 0)
    assert abs(est.mean - 0.5) <= 3.5 * est.std_error


def _rejection_reference(norm, count, rng):
    """The rejection sampler with every draw's norm evaluated: the kept
    draws are the first ones of each batch inside the unit ball."""
    c1, c2 = sandwich_bounds(norm)
    dim = norm.dim
    rate = max(0.02, (c1 / c2) ** dim)
    kept, lengths, filled = [], [], 0
    while filled < count:
        n_draw = max(1024, int(1.5 * (count - filled) / rate))
        g = rng.standard_normal((n_draw, dim))
        g /= np.linalg.norm(g, axis=-1, keepdims=True)
        pts = g * ((1.0 / c1) * rng.random(n_draw) ** (1.0 / dim))[:, None]
        values = np.asarray(norm_eval(norm, pts))
        inside = np.flatnonzero(values <= 1.0)[: count - filled]
        kept.append(pts[inside])
        lengths.append(values[inside])
        filled += inside.size
    return np.vstack(kept) / np.concatenate(lengths)[:, None]


@pytest.mark.parametrize("name", ["reg:lp:1.5:3:w=0.05:d=0.01",
                                  "reg:euclidean:3:w=0.05:d=0.01",
                                  "reg:lp:4:2:w=0.3:d=0"])
def test_rejection_sampler_equals_evaluating_every_draw(name):
    # Draws the bracket puts outside the unit ball are rejected unevaluated;
    # the points are those of evaluating every draw, bit for bit.
    norm = parse_norm(name)
    for count in (1, 63, 64, 2_000):
        for seed in (0, 1, 17):
            got = _rejection_sphere_sample(norm, count, rng_stream(seed, 0))
            assert np.array_equal(
                got, _rejection_reference(norm, count, rng_stream(seed, 0))), \
                (count, seed)


def test_hemisphere_symmetry():
    batch = sample_conical(E3, 400_000, seed=11)
    est = _set_measure(batch, lambda pts: pts[:, 2] > 0)
    assert abs(est.mean - 0.5) <= 3.0 * est.std_error


def test_lp_positive_orthant():
    batch = sample_conical(lp_norm(4, 3), 400_000, seed=12)
    est = _set_measure(batch, lambda pts: np.all(pts > 0, axis=1))
    assert abs(est.mean - 0.125) <= 3.0 * est.std_error


def test_euclidean_cap_matches_riemannian_area():
    batch = sample_conical(E3, 400_000, seed=13)
    est = _set_measure(batch, lambda pts: pts[:, 2] >= math.cos(math.pi / 3.0))
    cap = (1.0 - math.cos(math.pi / 3.0)) / 2.0
    assert cap == pytest.approx(0.25, abs=1e-12)
    assert abs(est.mean - cap) <= 3.0 * est.std_error


def test_lp_sampler_matches_sector_area_definition():
    # Cone measure of an angular arc on the l_p circle equals the normalized
    # sector area integral (1/2) r(theta)^2 dtheta; checks the sampler
    # against the defining formula, not just symmetry.
    p = 1.5
    norm = lp_norm(p, 2)
    theta = np.linspace(0.0, 2.0 * math.pi, 200_001)
    r = 1.0 / np.asarray(norm_eval(norm, np.column_stack([np.cos(theta),
                                                          np.sin(theta)])))
    sector = 0.5 * r**2
    total = np.trapezoid(sector, theta)
    batch = sample_conical(norm, 400_000, seed=17)
    angles = np.mod(np.arctan2(batch.points[:, 1], batch.points[:, 0]),
                    2.0 * math.pi)
    for lo, hi in ((0.2, 1.0), (2.5, 4.0), (5.0, 6.0)):
        mask = (theta >= lo) & (theta <= hi)
        expected = np.trapezoid(sector[mask], theta[mask]) / total
        est = MeasureEstimate.from_hits(int(((angles >= lo) & (angles <= hi)).sum()),
                                        batch.count)
        assert abs(est.mean - expected) <= 3.5 * max(est.std_error, 1e-4)


def test_tube_measure_codimension_two_oracle():
    # fiber of the last-two-coordinate projection at z = 0 on the round
    # 3-sphere is an equatorial circle; chordal distance to it is
    # sqrt(2 - 2|a|) with a the first two coordinates, and |a|^2 is uniform
    # on [0, 1], so the eps-tube has measure 1 - (1 - eps^2/2)^2.
    f = np.array([[0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
    eps = 0.5
    est = best_fiber(euclidean_norm(4), f, eps, [[0.0, 0.0]],
                     200_000, 20_000, seed=23)[1]
    expected = 1.0 - (1.0 - eps**2 / 2.0) ** 2
    assert abs(est.mean - expected) <= 3.0 * est.std_error + 1e-3


def test_random_caps_match_analytic_areas():
    batch = sample_conical(E3, 300_000, seed=14)
    rng = np.random.Generator(np.random.Philox(3))
    for _ in range(10):
        c = rng.standard_normal(3)
        c /= np.linalg.norm(c)
        angle = rng.uniform(0.3, 2.5)
        est = _set_measure(batch, lambda pts: pts @ c >= math.cos(angle))
        assert abs(est.mean - (1.0 - math.cos(angle)) / 2.0) <= \
            3.5 * max(est.std_error, 1e-4)


def test_set_measure_trivial_indicators():
    batch = sample_conical(E3, 1000, seed=1)
    ones = _set_measure(batch, lambda pts: np.ones(len(pts), dtype=bool))
    assert ones.mean == 1.0 and ones.std_error == 0.0
    zeros = _set_measure(batch, lambda pts: np.zeros(len(pts), dtype=bool))
    assert zeros.mean == 0.0


def test_measure_estimate_contract():
    est = MeasureEstimate.from_hits(250, 1000, seed=9)
    assert est.mean == 0.25
    assert est.std_error == pytest.approx(math.sqrt(0.25 * 0.75 / 1000))
    assert est.to_dict() == {"mean": 0.25, "std_error": est.std_error,
                             "count": 1000, "seed": 9}
    with pytest.raises(ValueError):
        MeasureEstimate(mean=1.2, std_error=0.0, count=10)


# ---------------------------------------------------------------------------
# Fibers
# ---------------------------------------------------------------------------

def test_fiber_points_equator():
    pts = fiber_points(E3, LAST_COORD, [0.0], 500, seed=3)
    assert np.abs(pts[:, 2]).max() == 0.0
    assert np.abs(np.linalg.norm(pts, axis=1) - 1.0).max() <= 1e-10


def test_fiber_points_lp_exactness():
    norm = lp_norm(4, 3)
    pts = fiber_points(norm, LAST_COORD, [0.0], 500, seed=4)
    assert np.abs(pts[:, 2]).max() == 0.0
    assert np.abs(np.asarray(norm_eval(norm, pts)) - 1.0).max() <= 1e-10


def test_fiber_points_offset_slice_geometry():
    pts = fiber_points(E3, LAST_COORD, [0.5], 500, seed=5)
    assert np.abs(pts[:, 2] - 0.5).max() <= 1e-12
    assert np.abs(np.hypot(pts[:, 0], pts[:, 1]) - math.sqrt(0.75)).max() <= 1e-10


def _fiber_points_full_bisection(norm, f, z, count, seed):
    """The reference fiber points: 80 bisection steps on [0, 1/c1] for the
    root of g(t) = ||x0 + t v|| - 1 along the directions fiber_points
    draws."""
    pinv, _, kernel = _slice_frame(norm, f)
    x0, _ = _slice_point(norm, pinv, z)
    rng = rng_stream(seed, 0)
    dirs = rng.standard_normal((count, kernel.shape[1]))
    dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)
    v = dirs @ kernel.T
    lo = np.zeros(count)
    hi = np.full(count, 1.0 / sandwich_bounds(norm)[0])
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        inside = np.asarray(norm_eval(norm, x0 + mid[:, None] * v)) < 1.0
        lo = np.where(inside, mid, lo)
        hi = np.where(inside, hi, mid)
    t = 0.5 * (lo + hi)
    return x0 + t[:, None] * v


@pytest.mark.parametrize("norm, f, z", [
    (E3, LAST_COORD, [0.3]),
    (L43, LAST_COORD, [-0.6]),
    (lp_norm(1.5, 4), LAST_TWO, [0.2, -0.1]),
    (smooth_norm(lp_norm(1.5, 3), 0.05, 0.01), LAST_COORD, [0.5]),
    (parse_norm("reg:lp:1.5:3:w=1e26:d=0"), LAST_COORD, [0.0]),
    (parse_norm("reg:lp:1.5:3:w=1e30:d=0"), LAST_COORD, [0.0]),
    (parse_norm("reg:lp:1.5:3:w=0.05:d=1e44"), LAST_COORD, [0.0]),
    (parse_norm("reg:euclidean:3:w=1e30:d=0.01"), LAST_COORD, [0.0]),
    # near the pole g(0) = ||x0|| - 1 is close to 0
    (smooth_norm(lp_norm(1.5, 3), 0.05, 0.01), LAST_COORD, [0.9]),
    (parse_norm("reg:lp:4:3:w=0.2:d=0"), LAST_COORD, [0.9]),
])
def test_fiber_points_are_roots_to_a_few_ulps(norm, f, z):
    got = fiber_points(norm, f, z, 300, seed=9)
    # on the sphere to 8 ulps of 1, twice the root finder's stopping |g|
    assert np.abs(np.asarray(norm_eval(norm, got)) - 1.0).max() <= 2.0 ** -49
    assert np.abs(got @ f.T - z).max() <= 1e-12
    # within 2^-47 (about 7e-15) of the bisection's points, relative to
    # their length: both roots lie within a few ulps of g = 0
    ref = _fiber_points_full_bisection(norm, f, z, 300, 9)
    assert (np.linalg.norm(got - ref, axis=1)
            <= 2.0 ** -47 * np.linalg.norm(ref, axis=1)).all()
    # each row's steps read only its own values
    assert np.array_equal(fiber_points(norm, f, z, 200, seed=9), got[:200])


@pytest.mark.parametrize("norm", [
    "reg:lp:1.5:3:w=1e26:d=0", "reg:lp:1.5:3:w=1e30:d=0",
    "reg:lp:1.5:3:w=0.05:d=1e44", "reg:euclidean:3:w=1e30:d=0.01"])
def test_fiber_points_lie_on_spheres_of_tiny_radius(norm):
    # the unit sphere has Euclidean radius about 1/w or 1/sqrt(d); the root
    # lies in [0, 1/c1], so the root finder needs no bracket search
    norm = parse_norm(norm)
    pts = fiber_points(norm, LAST_COORD, [0.0], 50, seed=2)
    assert np.abs(np.asarray(norm_eval(norm, pts)) - 1.0).max() <= 1e-12


def test_fiber_errors():
    with pytest.raises(EmptyFiberError):
        fiber_points(E3, LAST_COORD, [1.2], 10, seed=1)
    rank_one = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 2.0]])
    with pytest.raises(RankDeficientError):
        fiber_points(E3, rank_one, [0.0, 0.0], 10, seed=1)
    # the exact euclidean path checks the rank too, and so does the l_p
    # path, where a repeated column makes the map no coordinate map
    for norm in (E3, L43):
        with pytest.raises(RankDeficientError):
            best_fiber(norm, rank_one, 0.5, [[0.0, 0.0], [0.1, 0.2]], 100, 10,
                       seed=1)



def test_square_map_has_no_fiber_to_sample():
    # k = dim leaves the single point x0 = f^-1 z, which lies on the sphere
    # only by accident; the fiber machinery needs k < dim
    with pytest.raises(ValueError, match="fewer than 3 rows"):
        fiber_points(E3, np.eye(3), [0.0, 0.0, 0.5], 3, seed=1)
    for norm in (E3, L43):
        with pytest.raises(ValueError, match="fewer than 3 rows"):
            best_fiber(norm, np.eye(3), 0.3, [[0.0, 0.0, 0.5]], 100, 10,
                       seed=1)


def _exact_distance(norm, f, points):
    assert fiber_distance_method(norm, f) == "exact"
    return _ExactTube(norm, f, points).distance


def _last_coords(dim, k=1):
    return np.eye(dim)[dim - k:]


def _rotated_row(dim, seed):
    # one unit row with every entry nonzero, so it is no coordinate map
    row = np.random.Generator(np.random.Philox(seed)).standard_normal(dim)
    return (row / np.linalg.norm(row))[None, :]


def test_fiber_distance_method_by_kind():
    rotated = _rotated_row(3, 67)
    assert fiber_distance_method(E3, LAST_COORD) == "exact"
    assert fiber_distance_method(E3, rotated) == "exact"
    assert fiber_distance_method(E4, LAST_TWO) == "exact"
    assert fiber_distance_method(L43, LAST_COORD) == "exact"
    assert fiber_distance_method(L43, [[0.0, -2.0, 0.0]]) == "exact"
    assert fiber_distance_method(lp_norm(4, 5), _last_coords(5, 2)) == "exact"
    assert fiber_distance_method(lp_norm(2, 3), LAST_COORD) == "exact"
    assert fiber_distance_method(lp_norm(2, 3), rotated) == "exact"
    # not coordinate maps: a rotated row, two entries in a row, a repeated
    # column
    assert fiber_distance_method(L43, rotated) == "cloud"
    assert fiber_distance_method(L43, [[0.0, 1.0, 1.0]]) == "cloud"
    assert fiber_distance_method(
        lp_norm(4, 5), [[0, 0, 0, 1.0, 0], [0, 0, 0, 2.0, 0]]) == "cloud"
    assert fiber_distance_method(smooth_norm(lp_norm(4, 2), 0.05, 0.01),
                                 [[0.0, 1.0]]) == "cloud"


def test_exact_fiber_distance_is_the_cloud_limit():
    # A cloud point is on the fiber, so the cloud distance is never below
    # the exact one, and 2 000 fiber points leave a gap under 0.01.
    pts = sample_conical(E3, 2_000, seed=61).points
    for z in (0.0, 0.5, 0.9):
        exact = _exact_distance(E3, LAST_COORD, pts)([z])
        cloud = min_norm_distance(E3, pts,
                                  fiber_points(E3, LAST_COORD, [z], 2_000, seed=62))
        assert np.all(cloud >= exact - 1e-12)
        assert np.all(cloud <= exact + 0.01)


def test_exact_fiber_distance_codimension_two_oracle():
    # The fiber of the last-two-coordinate projection at z = 0 is the circle
    # |a| = 1 in the first two coordinates a; the chordal distance to it is
    # sqrt(2 - 2|a|), and |a|^2 is uniform on [0, 1], so the eps-tube has
    # measure 1 - (1 - eps^2/2)^2.
    pts = sample_conical(E4, 200_000, seed=63).points
    dist = _exact_distance(E4, LAST_TWO, pts)([0.0, 0.0])
    oracle = np.sqrt(2.0 - 2.0 * np.hypot(pts[:, 0], pts[:, 1]))
    assert np.allclose(dist, oracle, rtol=0.0, atol=1e-7)
    eps = 0.5
    est = MeasureEstimate.from_hits(int((dist <= eps).sum()), len(pts))
    expected = 1.0 - (1.0 - eps**2 / 2.0) ** 2
    assert abs(est.mean - expected) <= 3.0 * est.std_error


def test_exact_fiber_distance_depends_on_the_fiber_only():
    rng = np.random.Generator(np.random.Philox(64))
    pts = sample_conical(E4, 5_000, seed=65).points
    z = np.array([0.3, -0.2])
    coord = _exact_distance(E4, LAST_TWO, pts)(z)
    # a non-orthonormal map with the same fibers
    a = np.array([[2.0, 1.0], [0.5, 3.0]])
    mixed = _exact_distance(E4, a @ LAST_TWO, pts)(a @ z)
    assert np.allclose(mixed, coord, rtol=0.0, atol=1e-12)
    # an orthonormal map rotated by Q has the fibers rotated by Q^T
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    rotated = _exact_distance(E4, LAST_TWO @ q, pts @ q)(z)
    assert np.allclose(rotated, coord, rtol=0.0, atol=1e-12)


def test_exact_path_skips_the_cloud_paths_empty_fibers():
    root = math.sqrt(0.5)
    cases = [(E3, LAST_COORD, [z]) for z in
             (-1.5, -1.0, -math.nextafter(1.0, 0.0), 0.0, 0.9999999999, 1.0,
              math.nextafter(1.0, 2.0))]
    cases += [(E3, 2.0 * LAST_COORD, [z]) for z in (1.9999999999, 2.0)]
    cases += [(E4, LAST_TWO, z) for z in
              ([0.8, 0.6], [0.6, 0.8], [root, root],
               [math.nextafter(root, 0.0)] * 2, [0.0, 1.0], [0.5, 0.5])]
    # l_p coordinate maps, where the fiber is empty once |z'|_p >= 1
    cases += [(norm, _last_coords(norm.dim), [z])
              for norm in (L43, lp_norm(1.5, 5)) for z in
              (-1.0, -math.nextafter(1.0, 0.0), 0.0, 0.9999999999, 1.0,
               math.nextafter(1.0, 2.0))]
    cases += [(L43, -2.0 * LAST_COORD, [z]) for z in (-1.9999999999, -2.0)]
    quarter = 0.5 ** 0.25
    cases += [(lp_norm(4, 5), _last_coords(5, 2), z) for z in
              ([quarter, quarter], [math.nextafter(quarter, 0.0)] * 2,
               [math.nextafter(quarter, 1.0)] * 2, [0.0, 1.0], [0.5, 0.5])]
    empty = []
    for norm, f, z in cases:
        try:
            fiber_points(norm, f, z, 10, seed=1)
            cloud_empty = False
        except EmptyFiberError:
            cloud_empty = True
        try:
            _exact_distance(norm, f, np.zeros((1, norm.dim)))(z)
            exact_empty = False
        except EmptyFiberError:
            exact_empty = True
        assert exact_empty == cloud_empty, z
        empty.append(exact_empty)
    assert any(empty) and not all(empty)
    z_grid = [z for norm, f, z in cases if norm is E3 and f is LAST_COORD]
    _, _, ests = best_fiber(E3, LAST_COORD, 0.5, z_grid, 1_000, 10, seed=66)
    assert len(ests) == len(z_grid) - sum(empty[:len(z_grid)])


def _record_reference(monkeypatch) -> list:
    """Patch the exact path's reference formula to record, per call, the
    rows it evaluates."""
    calls = []
    real = _ExactTube._reference

    def recording(self, x0, radius, rows=slice(None)):
        calls.append(np.arange(self.outer.size)[rows])
        return real(self, x0, radius, rows)

    monkeypatch.setattr(_ExactTube, "_reference", recording)
    return calls


_EDGE = (-1.0, -math.nextafter(1.0, 0.0), -0.3, 0.0, 0.5, 0.9999999999, 1.0,
         math.nextafter(1.0, 2.0))


def _along_row_space(f, seed):
    """z = f x for x = t v, v a unit vector of the row space of f, so the
    slice point has |x0| = t: inside, at and past the empty-fiber edge."""
    v = f.T @ np.random.Generator(np.random.Philox(seed)).standard_normal(
        f.shape[0])
    v /= np.linalg.norm(v)
    return [f @ (t * v) for t in
            (0.0, 0.5, 0.999999, 0.9999999999, 1.0, 1.0 + 1e-9)]


_ROOT = math.sqrt(0.5)
# seeded random full-rank maps
_RANDOM_1x3 = np.random.Generator(np.random.Philox(76)).standard_normal((1, 3))
_RANDOM_2x4 = np.random.Generator(np.random.Philox(78)).standard_normal((2, 4))
_TUBE_CASES = {
    "euclidean:3": (E3, LAST_COORD, [[z] for z in _EDGE]),
    "euclidean:3 random map": (E3, _RANDOM_1x3,
                               _along_row_space(_RANDOM_1x3, 77)),
    "lp:2:4": (lp_norm(2, 4), _last_coords(4), [[z] for z in _EDGE]),
    "lp:2:4 random map": (lp_norm(2, 4), _RANDOM_2x4,
                          _along_row_space(_RANDOM_2x4, 79)),
    "euclidean:4 k=2": (E4, LAST_TWO, [
        [0.8, 0.6], [0.6, 0.8], [_ROOT, _ROOT],
        [math.nextafter(_ROOT, 0.0)] * 2, [0.0, 1.0], [0.5, 0.5],
        [0.0, 0.0], [-0.3, 0.7]]),
    "euclidean:3 scaled": (E3, 2.0 * LAST_COORD,
                           [[2.0 * z] for z in _EDGE] + [[1.9999999999]]),
    "lp:1.5:5 scaled": (lp_norm(1.5, 5), -2.0 * _last_coords(5),
                        [[-2.0 * z] for z in _EDGE]),
    "lp:1.5:5 signed k=2": (lp_norm(1.5, 5),
                            np.array([[0, 0, 0, 0, -1.0], [0, 0, 0, 3.0, 0]]),
                            [[0.5, 0.9], [-0.2, 2.4], [0.0, 0.0], [0.9, 0.3],
                             [0.9, 3.0]]),
    "lp:4:3 scaled": (L43, np.array([[0.0, 3.0, 0.0]]),
                      [[3.0 * z] for z in _EDGE]),
    "lp:4:3 signed": (L43, -1.0 * LAST_COORD, [[z] for z in _EDGE]),
}


def _tube_within(tube, z, eps):
    """Whether each of the tube's points lies within eps of the fiber at z:
    ``within_slice`` at the slice point of z."""
    return tube.within_slice(_slice_point(tube.norm, tube.pinv, z)[0], eps)


@pytest.mark.parametrize("case", sorted(_TUBE_CASES))
def test_exact_tube_within_is_the_reference(monkeypatch, case):
    # within_slice decides from the per-point scalars and leaves the rows
    # near eps to the reference formula, so every answer is distance <= eps.
    norm, f, z_grid = _TUBE_CASES[case]
    assert fiber_distance_method(norm, f) == "exact"
    pts = sample_conical(norm, 3_000, seed=80).points
    tube = _ExactTube(norm, f, pts)
    calls = _record_reference(monkeypatch)
    empty = 0
    for z in z_grid:
        try:
            dist = tube.distance(z)
        except EmptyFiberError:
            with pytest.raises(EmptyFiberError):
                _tube_within(tube, z, 0.5)
            empty += 1
            continue
        for eps in (-0.5, 0.0, 1e-3, 0.01, 0.1, 0.3, 0.5, 1.0, 2.0):
            assert np.array_equal(_tube_within(tube, z, eps), dist <= eps), (z, eps)
        # rows at distance eps to within two ulps fall in the band, where
        # the reference formula decides them
        for i in (0, int(np.argsort(dist)[dist.size // 2])):
            eps = float(dist[i])
            for _ in range(2):
                eps = math.nextafter(eps, 0.0)
            for _ in range(5):
                calls.clear()
                assert np.array_equal(_tube_within(tube, z, eps), dist <= eps), \
                    (z, eps)
                assert len(calls) == 1 and i in calls[0]
                assert calls[0].size < dist.size
                eps = math.nextafter(eps, 3.0)
    assert 0 < empty < len(z_grid)


def test_exact_tube_takes_the_reference_where_eps_power_underflows(
        monkeypatch):
    # eps^p = 1e-360 is no positive normal double, so no band about it
    # holds and every row takes the reference formula; rows on the fiber
    # are within eps.
    norm = lp_norm(60, 3)
    calls = _record_reference(monkeypatch)
    for z in ([0.0], [0.5]):
        pts = np.vstack([sample_conical(norm, 2_000, seed=81).points,
                         fiber_points(norm, LAST_COORD, z, 5, seed=82)])
        tube = _ExactTube(norm, LAST_COORD, pts)
        calls.clear()
        hits = _tube_within(tube, z, 1e-6)
        assert np.array_equal(hits, tube.distance(z) <= 1e-6)
        assert hits[-5:].all()
        assert calls[0].size == pts.shape[0]


@pytest.mark.parametrize("norm, eps, z_grid", [
    (E3, 0.5, np.linspace(-0.8, 0.8, 17)),
    (L43, 0.3, np.linspace(-0.6, 0.6, 7))])
def test_best_fiber_exact_path_evaluates_no_reference_rows(
        monkeypatch, norm, eps, z_grid):
    # The band about eps^q is narrow enough that a 1e5-point batch has no
    # row in it at any grid point: the per-point scalars decide every row.
    calls = _record_reference(monkeypatch)
    best_fiber(norm, LAST_COORD, eps, [[z] for z in z_grid], 100_000, 10,
               seed=83)
    assert sum(rows.size for rows in calls) == 0


def test_lp_exact_fiber_distance_is_the_cloud_limit():
    # A cloud point is on the fiber, so the cloud distance is never below
    # the exact one. On lp:4:3 the fiber is a curve and 2 000 points leave
    # a pointwise gap under 0.02; in dim 5 the fiber is 3-dimensional, where
    # 2 000 points leave pointwise gaps up to about 0.25, so there the mean
    # gap is bounded instead.
    for norm in (lp_norm(1.5, 5), L43, lp_norm(4, 5)):
        f = _last_coords(norm.dim)
        pts = sample_conical(norm, 2_000, seed=68).points
        for z in (0.0, 0.5, 0.9):
            exact = _exact_distance(norm, f, pts)([z])
            cloud = min_norm_distance(norm, pts,
                                      fiber_points(norm, f, [z], 2_000, seed=69))
            assert np.all(cloud >= exact - 1e-12), (norm, z)
            if norm.dim == 3:
                assert np.all(cloud <= exact + 0.02), (norm, z)
            else:
                assert np.mean(cloud - exact) <= 0.06, (norm, z)


def test_lp_exact_fiber_distance_codimension_two():
    # Last two coordinates on lp:4:5: the fiber is a 2-dimensional l_4
    # sphere in the first three coordinates. Its own points are at distance
    # 0, and a cloud of them never comes closer than the exact distance.
    norm = lp_norm(4, 5)
    f = _last_coords(5, 2)
    pts = sample_conical(norm, 2_000, seed=70).points
    for z in ([0.0, 0.0], [0.5, -0.3], [-0.2, 0.8]):
        cloud = fiber_points(norm, f, z, 2_000, seed=71)
        assert np.abs(_exact_distance(norm, f, cloud)(z)).max() <= 1e-9
        gap = (min_norm_distance(norm, pts, cloud)
               - _exact_distance(norm, f, pts)(z))
        assert np.all(gap >= -1e-12)
        assert np.mean(gap) <= 0.06


def test_lp_exact_fiber_distance_brute_force_curve():
    # In dim 3 the fiber of the last coordinate is the closed curve
    # {(r c(t), r s(t), z)} with (c, s) = (cos t, sin t) / |(cos t, sin t)|_p;
    # the minimum over 2e5 points of it agrees with the closed form.
    t = np.linspace(0.0, 2.0 * math.pi, 200_000, endpoint=False)
    circle = np.column_stack([np.cos(t), np.sin(t)])
    for p in (1.5, 4.0):
        norm = lp_norm(p, 3)
        circle_p = circle / np.asarray(norm_eval(lp_norm(p, 2), circle))[:, None]
        pts = sample_conical(norm, 40, seed=72).points
        for z in (0.0, 0.5, -0.9):
            radius = (1.0 - abs(z) ** p) ** (1.0 / p)
            curve = np.column_stack([radius * circle_p,
                                     np.full(t.size, z)])
            brute = np.array([np.asarray(norm_eval(norm, y - curve)).min()
                              for y in pts])
            exact = _exact_distance(norm, LAST_COORD, pts)([z])
            assert np.allclose(exact, brute, rtol=0.0, atol=1e-4), (p, z)


def test_lp_exact_fiber_distance_scaled_and_signed_rows():
    # Scaled, signed or reordered rows, with z scaled to match, describe the
    # same fibers as the plain coordinate map.
    norm = lp_norm(4, 5)
    pts = sample_conical(norm, 5_000, seed=73).points
    plain = _exact_distance(norm, _last_coords(5), pts)([0.4])
    scaled = _exact_distance(norm, -2.0 * _last_coords(5), pts)([-0.8])
    assert np.allclose(scaled, plain, rtol=0.0, atol=1e-12)
    plain = _exact_distance(norm, _last_coords(5, 2), pts)([0.3, -0.5])
    mixed = np.array([[0, 0, 0, 0, -1.0], [0, 0, 0, 3.0, 0]])
    mixed = _exact_distance(norm, mixed, pts)([0.5, 0.9])
    assert np.allclose(mixed, plain, rtol=0.0, atol=1e-12)


def test_lp2_exact_distance_is_the_round_one():
    # lp:2 has the round sphere, so it takes the euclidean closed form for
    # any map, coordinate or not.
    pts = sample_conical(E3, 5_000, seed=74).points
    for f in (LAST_COORD, _rotated_row(3, 75)):
        for z in (0.0, 0.6):
            round_d = _exact_distance(E3, f, pts)([z])
            lp2_d = _exact_distance(lp_norm(2, 3), f, pts)([z])
            assert np.allclose(lp2_d, round_d, rtol=0.0, atol=1e-12)


def _brute_min_distance(norm, pts, cloud):
    return np.array([
        float(np.min(np.asarray(norm_eval(norm, p[None, :] - cloud))))
        for p in pts
    ])


def test_min_norm_distance_generic_path_matches_brute_force():
    rng = np.random.Generator(np.random.Philox(8))
    for norm in (smooth_norm(lp_norm(1.5, 2), 0.05, 0.01), lp_norm(4, 2),
                 lp_norm(1.5, 2), euclidean_norm(2)):
        cloud = rng.standard_normal((200, 2))
        pts = rng.standard_normal((100, 2))
        fast = min_norm_distance(norm, pts, cloud)
        assert np.array_equal(fast, _brute_min_distance(norm, pts, cloud))


def test_within_norm_distance_matches_brute_force():
    # dim 3 on the unit sphere: the rows within eps are the brute-force ones
    norm = smooth_norm(lp_norm(1.5, 3), 0.05, 0.01)
    eps = 0.2
    cloud = sample_conical(norm, 40, seed=5).points
    pts = sample_conical(norm, 200, seed=6).points
    near = _brute_min_distance(norm, pts, cloud) <= eps
    assert 0 < near.sum() < pts.shape[0]
    assert np.array_equal(within_norm_distance(norm, pts, cloud, eps), near)


_MASK_NORMS = ["reg:lp:1.5:3:w=0.05:d=0.01", "reg:euclidean:3:w=0.05:d=0.01",
               "lp:4:3", "lp:1.5:3"]


@pytest.mark.parametrize("size", [1, 2, 64, 65])
@pytest.mark.parametrize("name", _MASK_NORMS)
def test_within_norm_distance_is_the_thresholded_minimum(name, size):
    norm = parse_norm(name)
    c1, c2 = sandwich_bounds(norm)
    cloud = sample_conical(norm, size, seed=81).points
    # sphere points, and points within 0.05 / c2 of a cloud point, which are
    # within every eps >= 0.05 with no norm evaluated
    rng = np.random.Generator(np.random.Philox(82))
    offsets = rng.standard_normal((50, 3))
    offsets *= 0.05 / c2 * rng.random((50, 1)) / \
        np.linalg.norm(offsets, axis=1, keepdims=True)
    # points at norm distance 0.05 (1 +- 0.4%) from a cloud point, a band
    # the bracket of a regularized norm leaves in doubt, kept where that
    # point is the only one within reach at eps = 0.05, and points with no
    # cloud point within reach at any eps here
    shell = rng.standard_normal((60, 3))
    shell /= np.linalg.norm(shell, axis=1, keepdims=True)
    shell *= 0.05 * (1.0 + rng.uniform(-0.004, 0.004, (60, 1))) / \
        np.asarray(norm_eval(norm, shell))[:, None]
    alone = cloud[rng.integers(0, size, 60)] + shell
    euclid = np.linalg.norm(alone[:, None, :] - cloud[None, :, :], axis=-1)
    alone = alone[(c1 * euclid < 0.05 * (1.0 + 1e-12)).sum(axis=1) == 1]
    assert alone.shape[0] >= 20
    pts = np.vstack([sample_conical(norm, 300, seed=83).points,
                     cloud[rng.integers(0, size, 50)] + offsets, alone,
                     10.0 * sample_conical(norm, 20, seed=84).points])
    far = slice(350 + alone.shape[0], None)
    exact = min_norm_distance(norm, pts, cloud)
    assert np.array_equal(exact, _brute_min_distance(norm, pts, cloud))
    assert np.all(c1 * np.linalg.norm(pts[far, None, :] - cloud[None, :, :],
                                      axis=-1) > 2.0 * exact[:350].max())
    # eps equal to some row's distance puts that row at exactly eps
    ties = np.sort(exact[:350])[[0, 120, 250, 349]]
    for eps in (0.05, 0.3, 0.8, *ties):
        got = within_norm_distance(norm, pts, cloud, eps)
        assert np.array_equal(got, exact <= eps), eps
    assert got[exact == ties[-1]].all()
    assert not got[far].any()
    got = within_norm_distance(norm, pts, cloud, 0.05)
    assert got[300:350].all()
    assert got[350:far.start].any()
    # The mollified euclidean norm is round to about 1e-12, so there a row
    # within reach, 0.05 / c1, is within eps too.
    if not name.startswith("reg:euclidean"):
        assert not got[350:far.start].all()


def test_within_norm_distance_evaluates_few_mollified_rows(monkeypatch):
    # A fiber cloud and a sample batch at the benchmark's scale: the
    # base-norm bracket decides almost every candidate, so at most 1% of
    # them take the mollified kernel.
    norm = REG3
    pts = sample_conical(norm, 2_000, seed=86).points
    cloud = fiber_points(norm, LAST_COORD, [0.0], 500, seed=87)
    candidates, mollified = [], []
    real_bracket, real_kernel = cone.norm_bracket, norms._mollified_base

    def bracket(norm, x):
        candidates.append(np.asarray(x).shape[0])
        return real_bracket(norm, x)

    def kernel(norm, x):
        mollified.append(x.shape[0])
        return real_kernel(norm, x)

    monkeypatch.setattr(cone, "norm_bracket", bracket)
    monkeypatch.setattr(norms, "_mollified_base", kernel)
    got = within_norm_distance(norm, pts, cloud, 0.5)
    monkeypatch.undo()
    assert np.array_equal(got, min_norm_distance(norm, pts, cloud) <= 0.5)
    assert 0 < got.sum() < pts.shape[0]
    assert sum(candidates) > pts.shape[0]
    assert sum(mollified) <= 0.01 * sum(candidates)


@pytest.mark.parametrize("name", _MASK_NORMS)
def test_within_norm_distance_looks_past_the_64_nearest(name):
    # A row y with 100 cloud points in the directions u of largest
    # q(u) = ||u|| / |u|_2, at a Euclidean radius rho that puts them all
    # beyond eps in the norm but inside eps / c1, and one point farther out
    # in the direction of least q, within eps in the norm. Only the ball
    # query past the 64 nearest finds that one.
    norm = parse_norm(name)
    c1 = sandwich_bounds(norm)[0]
    eps = 0.3
    dirs = np.random.Generator(np.random.Philox(84)).standard_normal((5000, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    q = np.asarray(norm_eval(norm, dirs))
    order = np.argsort(q)
    q_min, q_100 = q[order[0]], q[order[-100]]
    rho = eps * (1.0 / q_100 + 1.0 / q_min) / 2.0
    rho_far = eps / q_min * (1.0 - 1e-9)
    y = np.zeros(3)
    shell = y + rho * dirs[order[-100:]]
    far = y + rho_far * dirs[order[0]]
    assert rho * c1 < eps
    # with rows that no cloud point is within reach of, which the staged
    # query settles before the 64-nearest query
    rows = np.vstack([y, y + 3.0, y - 3.0])
    for cloud, within in ((np.vstack([shell, far]), True), (shell, False)):
        exact = min_norm_distance(norm, rows, cloud)
        assert np.array_equal(within_norm_distance(norm, rows, cloud, eps),
                              exact <= eps)
        assert exact[1:].min() > 2.0 * eps
        # The mollified euclidean norm is round to about 1e-12, so there the
        # far point is no farther out than the shell, and only agreement is
        # checked.
        if q_100 - q_min > 1e-6:
            assert bool(exact[0] <= eps) is within
            assert np.asarray(norm_eval(norm, shell - y)).min() > eps


# ---------------------------------------------------------------------------
# Tube and neighborhood measures
# ---------------------------------------------------------------------------

def test_tube_measure_equator_band_oracle():
    est = best_fiber(E3, LAST_COORD, 0.5, [[0.0]], 200_000, 10_000,
                     seed=31)[1]
    # The distance to the round fiber is exact, so the estimate is unbiased;
    # the 5e-4 is slack on top of 3 sigma, not a bias allowance.
    assert abs(est.mean - _band_measure(0.5)) <= 3.0 * est.std_error + 5e-4


def test_tube_measure_whole_sphere_at_diameter():
    est = best_fiber(E3, LAST_COORD, 2.0, [[0.0]], 20_000, 2_000, seed=32)[1]
    assert est.mean == 1.0


def test_tube_measure_boundary_slice_is_positive():
    est = best_fiber(E3, LAST_COORD, 0.3, [[0.999]], 50_000, 2_000,
                     seed=33)[1]
    assert est.mean > 0.0


def test_tube_measure_monotone_in_eps():
    vals = [best_fiber(E3, LAST_COORD, eps, [[0.0]], 50_000, 3_000,
                       seed=34)[1].mean
            for eps in (0.2, 0.4, 0.6, 0.8)]
    assert np.all(np.diff(vals) >= 0.0)


def test_best_fiber_prefers_equator():
    z_grid = [np.array([z]) for z in np.arange(-0.6, 0.61, 0.3)]
    z_star, est, all_est = best_fiber(E3, LAST_COORD, 0.5, z_grid,
                                      100_000, 5_000, seed=35)
    assert z_star[0] == pytest.approx(0.0)
    assert len(all_est) == len(z_grid)
    assert est.mean == max(e.mean for e in all_est)


def test_best_fiber_single_point_grid():
    z_star, est, _ = best_fiber(E3, LAST_COORD, 0.4, [np.array([0.3])],
                                20_000, 2_000, seed=36)
    assert z_star[0] == 0.3
    assert 0.0 < est.mean < 1.0


def test_best_fiber_symmetric_grid_symmetric_estimates():
    z_grid = [np.array([z]) for z in (-0.4, 0.4)]
    _, _, ests = best_fiber(E3, LAST_COORD, 0.5, z_grid, 200_000, 8_000, seed=37)
    sigma = math.sqrt(ests[0].std_error**2 + ests[1].std_error**2)
    assert abs(ests[0].mean - ests[1].mean) <= 3.0 * sigma


def test_best_fiber_skips_empty_fibers():
    z_grid = [np.array([1.5]), np.array([0.0])]
    z_star, _, ests = best_fiber(E3, LAST_COORD, 0.5, z_grid, 20_000, 2_000,
                                 seed=38)
    assert z_star[0] == 0.0
    assert len(ests) == 1
    for norm in (E3, L43):
        with pytest.raises(EmptyFiberError):
            best_fiber(norm, LAST_COORD, 0.5, [[1.5], [-1.0], [2.0]], 1_000,
                       100, seed=39)


# The exact-path configurations of verify-waist, each grid with a few empty
# fibers mixed in.
_EXACT_GRIDS = [
    (E3, LAST_COORD, [[1.2]] + [[z] for z in np.linspace(-0.8, 0.8, 17)]
     + [[-1.0]]),
    (E4, LAST_TWO, [[a, b] for a in np.linspace(-0.4, 0.4, 5)
                    for b in np.linspace(-0.4, 0.4, 5)] + [[0.8, 0.8]]),
    (lp_norm(1.5, 5), _last_coords(5),
     [[z] for z in np.linspace(-0.6, 0.6, 7)] + [[1.0]]),
    (L43, LAST_COORD, [[-1.5]] + [[z] for z in np.linspace(-0.6, 0.6, 7)]),
]


@pytest.mark.parametrize("norm, f, z_grid", _EXACT_GRIDS,
                         ids=[str(g[0]) for g in _EXACT_GRIDS])
def test_best_fiber_grid_estimates_are_the_one_point_estimates(norm, f,
                                                               z_grid):
    # The map-only terms are computed once per batch; each grid estimate is
    # still the estimate of its own one-point grid, bit for bit, and the
    # grid skips exactly the points whose one-point grid has no fiber.
    assert fiber_distance_method(norm, f) == "exact"
    _, _, ests = best_fiber(norm, f, 0.4, z_grid, 4_000, 10, seed=76)
    alone = []
    for z in z_grid:
        try:
            alone.append(best_fiber(norm, f, 0.4, [z], 4_000, 10, seed=76)[1])
        except EmptyFiberError:
            pass
    assert 0 < len(alone) < len(z_grid)
    assert [(e.mean, e.std_error) for e in ests] == \
        [(e.mean, e.std_error) for e in alone]


def _cap_distance(norm, tau, points):
    return _exact_distance(norm, LAST_COORD, points)([tau])


@pytest.mark.parametrize("norm", [lp_norm(1.5, 3), L43, E3], ids=str)
@pytest.mark.parametrize("tau", [-0.5, 0.0, 0.3, 0.7])
def test_cap_distance_is_the_brute_force_minimum_over_the_cap(norm, tau):
    # the distance from y to {x_last >= tau} is the minimum over t of
    # (|a - r(t)|^p + |t - b|^p)^(1/p), a = |y_R|_p, b = y_last and
    # r(t) = (1 - |t|^p)^(1/p); its complement takes t on the other side
    p = norm.minkowski_p
    pts = sample_conical(norm, 4_000, seed=71).points
    a = np.sum(np.abs(pts[:, :-1]) ** p, axis=1) ** (1.0 / p)
    b = pts[:, -1]
    exact = _cap_distance(norm, tau, pts)
    for outside, ts in ((b < tau, np.linspace(tau, 1.0, 4001)),
                        (b >= tau, np.linspace(-1.0, tau, 4001))):
        r = (1.0 - np.abs(ts) ** p) ** (1.0 / p)
        g = (np.abs(a[outside, None] - r) ** p +
             np.abs(ts - b[outside, None]) ** p) ** (1.0 / p)
        brute = g.min(axis=1)
        # t = tau is a grid point, so the grid minimum cannot exceed it
        assert outside.sum() > 100
        assert np.allclose(exact[outside], brute, rtol=1e-12, atol=1e-15)


def test_round_cap_distance_is_the_chord_to_the_boundary_circle():
    tau = 0.3
    pts = sample_conical(E3, 2_000, seed=72).points
    gap = np.abs(np.arccos(pts[:, -1]) - math.acos(tau))
    assert np.allclose(_cap_distance(E3, tau, pts), 2.0 * np.sin(gap / 2.0),
                       atol=1e-12)


@pytest.mark.parametrize(
    "norm", ["lp:1.2:2", "lp:4:2", "reg:lp:1.5:2:w=0.05:d=0.01"])
def test_norm_distance_grows_along_half_circles(norm):
    # The monotonicity lemma that verify-iso's boundary argument rests on:
    # on the unit circle of a normed plane, ||y - x|| does not decrease as
    # x runs along either half circle from y to -y.
    norm = parse_norm(norm)

    def circle(theta):
        u = np.column_stack([np.cos(theta), np.sin(theta)])
        return u / np.asarray(norm_eval(norm, u))[:, None]

    half = np.linspace(0.0, math.pi, 2000)
    for anchor in (0.0, 0.3, 1.1, 2.5, 4.0):
        y = circle(np.array([anchor]))
        for way in (1.0, -1.0):
            dist = np.asarray(norm_eval(norm, circle(anchor + way * half) - y))
            assert np.all(np.diff(dist) >= -1e-12), (anchor, way)


@pytest.mark.parametrize("norm", [E3, L43], ids=str)
def test_exact_cap_distance_never_exceeds_the_cloud_distance(norm):
    # a cloud inside the cap can only overestimate the distance to it, so
    # the exact estimate sits at or above the cloud one
    tau = 0.2
    pts = sample_conical(norm, 20_000, seed=74).points
    cloud = pts[pts[:, -1] >= tau][:3_000]
    probe = sample_conical(norm, 5_000, seed=75).points
    probe = probe[probe[:, -1] < tau]
    cloud_d = min_norm_distance(norm, probe, cloud)
    assert np.all(_cap_distance(norm, tau, probe) <= cloud_d + 1e-12)
