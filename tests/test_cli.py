import argparse
import ast
import contextlib
import dataclasses
import hashlib
import importlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import waistlab
from waistlab import cli, cone, norms
from waistlab.cli import (
    _READS,
    ConfigError,
    ExperimentConfig,
    _build_parser,
    _parse_grid,
    _z_product_grid,
    emit_report,
    main,
    run_experiment,
)
from waistlab.needles import SUITE_MAX_N, SUITE_MIN_EPS


def test_malformed_norm_exits_2(capsys):
    rc = main(["verify-waist", "--norm", "lp:1:3", "--k", "1", "--eps", "0.5"])
    assert rc == 2
    assert "1 < p" in capsys.readouterr().err


@pytest.mark.parametrize("norm, message", [
    ("reg:lp", "malformed norm string"),
    ("reg:lp:2:3:w=0.1", "malformed norm string"),
    ("reg:lp:2:5:w=0.05:d=0.01", "dim <= 4"),
])
def test_bad_norm_string_exits_2_with_one_line(norm, message, capsys):
    rc = main(["bound", "--norm", norm, "--k", "1", "--eps", "0.5"])
    err = capsys.readouterr().err
    assert rc == 2
    assert message in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["bound", "verify-waist", "verify-iso"])
@pytest.mark.parametrize("norm, message", [
    ("reg:lp:1.5:3:w=nan:d=0.01", "finite w >= 0 and d >= 0"),
    ("reg:lp:1.5:3:w=inf:d=0.01", "finite w >= 0 and d >= 0"),
    ("reg:lp:1.5:4:w=1e80:d=0", "with w <= 1e+75"),
    ("reg:lp:1.5:3:w=0.05:d=nan", "finite w >= 0 and d >= 0"),
    ("reg:lp:1.5:3:w=0.05:d=1e308", "and d <= 1e+300"),
])
def test_regularized_norm_outside_its_domain_exits_2(command, norm, message,
                                                      capsys):
    rc = main([command, "--norm", norm, "--eps", "0.5"])
    err = capsys.readouterr().err
    assert rc == 2
    assert message in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["verify-waist", "verify-iso"])
def test_verify_without_eps_exits_2(command, capsys):
    rc = main([command, "--norm", "euclidean:3", "--seed", "1"])
    err = capsys.readouterr().err
    assert rc == 2
    assert f"{command} requires --eps" in err
    assert err.count("\n") == 1


def test_missing_eps_exits_2():
    assert main(["bound", "--norm", "euclidean:3", "--k", "1"]) == 2


def test_bad_grid_exits_2():
    assert main(["verify-waist", "--norm", "euclidean:3", "--k", "1",
                 "--eps", "0.5", "--z-grid", "nope"]) == 2


def test_negative_seed_exits_2(tmp_path, capsys):
    rc = main(["verify-waist", "--norm", "euclidean:3", "--k", "1",
               "--eps", "0.5", "--seed", "-1"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "seed must be non-negative" in err
    assert err.count("\n") == 1
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"norm": "euclidean:3", "k": 1,
                                    "eps": 0.5, "seed": -3}))
    assert main(["verify-waist", "--config", str(cfg_file)]) == 2
    assert "seed must be non-negative" in capsys.readouterr().err


def test_grid_point_limit():
    assert len(_parse_grid("0.0002:2:0.0002")) == 10_000
    with pytest.raises(ConfigError, match="more than 10000 points"):
        _parse_grid("0.0001:2:0.0001")
    with pytest.raises(ConfigError, match="more than 10000 points"):
        _parse_grid("1e-300:2:1e-300")


@pytest.mark.parametrize("spec, points", [
    ("0.1:2:0.5", [0.1, 0.6, 1.1, 1.6]),
    ("-0.6:0.6:0.25", [-0.6, -0.35, -0.1, 0.15, 0.4]),
    ("0.1:1.9:0.6", [0.1, 0.7, 1.3, 1.9]),
    ("0.3:0.3:5", [0.3]),
])
def test_grid_stops_at_hi(spec, points):
    # A step that does not divide hi - lo ends the grid at its last point
    # below hi; rounding that puts an exact end just past hi keeps it.
    assert _parse_grid(spec).tolist() == pytest.approx(points, abs=1e-15)


def test_grid_that_a_step_does_not_divide_runs(capsys):
    assert main(["compare", "--norm", "euclidean:3", "--eps-grid",
                 "0.1:2:0.5"]) == 0
    table = json.loads(capsys.readouterr().out)["results"]["table"]
    assert [row["eps"] for row in table] == _parse_grid("0.1:2:0.5").tolist()


def test_huge_grid_exits_2_without_allocating(capsys):
    # 2e12 points (14.6 TiB) if the grid were built
    tracemalloc.start()
    try:
        rc = main(["bound", "--norm", "lp:4:3", "--k", "1",
                   "--eps-grid", "1e-12:2:1e-12"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert rc == 2
    assert "more than 10000 points" in err
    assert err.count("\n") == 1
    assert peak < 16 * 2**20


def test_z_product_grid_limit(capsys):
    # 10 000 points per axis pass the axis check, but k = 2 squares them.
    # Check validate first, so a regression fails here instead of running
    # 1e8 fibers below.
    with pytest.raises(ConfigError, match="more than 10000"):
        ExperimentConfig(command="verify-waist", norm="euclidean:4", k=2,
                         eps=0.5, z_grid="-0.9998:1:0.0002").validate()
    tracemalloc.start()
    try:
        rc = main(["verify-waist", "--norm", "euclidean:4", "--k", "2",
                   "--eps", "0.5", "--z-grid", "-0.9998:1:0.0002"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert rc == 2
    assert "more than 10000" in err
    assert err.count("\n") == 1
    assert peak < 16 * 2**20
    cfg = ExperimentConfig(command="verify-waist", norm="euclidean:4", k=2,
                           eps=0.5, z_grid="-0.99:0.99:0.02").validate()
    assert len(_z_product_grid(cfg.z_grid, cfg.k)) == 10_000
    # the product limit is for verify-waist only: bound reads no z grid
    ExperimentConfig(command="bound", norm="euclidean:4", k=2, eps=0.5,
                     z_grid="-0.9998:1:0.0002").validate()


def test_z_product_grid_is_the_meshgrid_product():
    for spec in ("-0.4:0.4:0.4", "0:0.3:0.1"):
        axis = cli._parse_grid(spec)
        for k in (1, 2, 3):
            grids = np.meshgrid(*([axis] * k), indexing="ij")
            expected = [np.array(t) for t in zip(*(g.ravel() for g in grids))]
            got = _z_product_grid(spec, k)
            assert len(got) == len(expected)
            assert all(a.dtype == b.dtype and np.array_equal(a, b)
                       for a, b in zip(got, expected))


@pytest.mark.parametrize("k", [33, 65])
def test_verify_waist_takes_more_axes_than_an_ndarray(k, capsys):
    # numpy's meshgrid stops at 32 axes and its arrays at 64
    rc = main(["verify-waist", "--norm", "euclidean:80", "--k", str(k),
               "--eps", "0.5", "--z-grid", "0:0:1", "--samples", "200"])
    report = json.loads(capsys.readouterr().out)
    assert rc in (0, 1)
    assert report["results"]["z_star"] == [0.0] * k


@pytest.mark.parametrize("command", ["bound", "compare"])
def test_bound_and_compare_past_the_overflow_of_the_power(command, capsys):
    # (k+1)^(k+1) overflows a double from k = 143 on
    rc = main([command, "--norm", "euclidean:200", "--k", "150",
               "--eps", "0.5"])
    out = capsys.readouterr().out
    assert rc == 0
    results = json.loads(out)["results"]
    waists = ([row["waist"]["value"] for row in results["bounds"]]
              if command == "bound" else
              [row[w] for row in results["table"] for w in ("w", "w2")])
    assert waists and all(0.0 <= w <= 1.0 for w in waists)


def test_an_internal_error_exits_3_on_one_line(monkeypatch, capsys):
    def broken(cfg):
        raise ZeroDivisionError("a\nb")

    monkeypatch.setitem(cli._RUNNERS, "bound", broken)
    assert main(["bound", "--norm", "lp:4:3", "--eps", "0.5"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: internal: ZeroDivisionError: a b\n"


def test_unknown_command_exits_2():
    assert main(["frobulate"]) == 2


# The last rows pass a flag the command does not take, as it does not
# read that field.
@pytest.mark.parametrize("argv", [
    ["bound", "--eps", "0.5", "--k", "2.5"],
    ["bound", "--eps", "0.5", "--no-such-flag", "1"],
    ["bound", "--eps"],
    ["bound", "--eps", "0.5", "--budget", "7"],
    ["bound", "--eps", "0.5", "--z-grid", "bad"],
    ["bound", "--eps", "0.5", "--n", "5"],
    ["bound", "--eps", "0.5", "--format", "csv"],
    ["verify-iso", "--eps", "0.5", "--k", "2"],
    ["verify-waist", "--eps", "0.5", "--eps-grid", "0.2:0.6:0.2"],
    ["needle-suite", "--norm", "lp:4:3"],
    ["needle-suite", "--k", "2"],
    ["needle-suite", "--format", "csv"],
])
def test_argparse_usage_errors_print_one_line(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert captured.out == ""


def test_config_round_trip():
    cfg = ExperimentConfig(command="bound", norm="lp:4:3", eps=0.5, seed=3)
    again = ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
    assert again == cfg
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"command": "bound", "nope": 1})


def test_bound_command_json(tmp_path, capsys):
    out = tmp_path / "bound.json"
    rc = main(["bound", "--norm", "euclidean:3", "--k", "1", "--eps", "0.5",
               "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["status"] == "report"
    entry = data["results"]["bounds"][0]
    assert set(entry) == {"waist", "projection", "gromov_milman",
                          "round_sphere_reference"}
    assert entry["waist"]["value"] == pytest.approx(7.5e-3, abs=2e-4)
    assert "wall_time" not in data
    # an --out the report cannot be written to is a usage error
    rc = main(["bound", "--norm", "euclidean:3", "--eps", "0.5",
               "--out", str(tmp_path / "missing" / "bound.json")])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error: ") and "No such file" in captured.err
    assert captured.err.count("\n") == 1 and captured.out == ""


def test_emitted_files_are_byte_identical(tmp_path):
    args = ["verify-waist", "--norm", "euclidean:3", "--k", "1", "--eps",
            "0.5", "--samples", "2e4", "--fiber-points", "2e3",
            "--z-grid", "-0.4:0.4:0.4", "--seed", "7"]
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_verify_waist_report_fields(tmp_path):
    out = tmp_path / "vw.json"
    rc = main(["verify-waist", "--norm", "lp:4:3", "--k", "1", "--eps", "0.5",
               "--samples", "3e4", "--fiber-points", "2e3",
               "--z-grid", "-0.4:0.4:0.2", "--seed", "5", "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["status"] == "pass"
    res = data["results"]
    assert res["estimate"]["mean"] >= res["bound"]["value"]
    assert res["margin_sigmas"] > 3.0
    assert len(res["grid_estimates"]) == 5
    assert {"mean", "std_error", "count", "seed"} <= set(res["estimate"])
    assert res["fiber_distance"] == "exact"


def test_verify_waist_lp2_takes_the_round_closed_form(tmp_path):
    out = tmp_path / "lp2.json"
    rc = main(["verify-waist", "--norm", "lp:2:3", "--k", "1", "--eps", "0.5",
               "--samples", "2e4", "--z-grid", "-0.2:0.2:0.2", "--seed", "7",
               "--out", str(out)])
    assert rc == 0
    assert json.loads(out.read_text())["results"]["fiber_distance"] == "exact"


@pytest.mark.parametrize("norm", ["euclidean:3", "lp:4:3"])
def test_verify_waist_all_fibers_empty_exits_2(norm, capsys):
    rc = main(["verify-waist", "--norm", norm, "--k", "1", "--eps", "0.5",
               "--z-grid", "1:1.5:0.1", "--samples", "1000"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "empty fiber" in err and "--z-grid 1:1.5:0.1" in err
    assert err.count("\n") == 1


def test_verify_waist_codimension_two(tmp_path):
    out = tmp_path / "k2.json"
    rc = main(["verify-waist", "--norm", "euclidean:4", "--k", "2",
               "--eps", "0.5", "--samples", "5e4", "--fiber-points", "5e3",
               "--z-grid", "-0.3:0.3:0.3", "--seed", "5", "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["status"] == "pass"
    assert data["results"]["z_star"] == [0.0, 0.0]
    assert data["results"]["fiber_distance"] == "exact"
    # closed-form tube measure around the equatorial circle of the 3-sphere
    expected = 1.0 - (1.0 - 0.5**2 / 2.0) ** 2
    assert abs(data["results"]["estimate"]["mean"] - expected) <= 0.01


def test_verify_iso_pass(tmp_path):
    out = tmp_path / "vi.json"
    rc = main(["verify-iso", "--norm", "lp:4:3", "--eps", "0.3",
               "--samples", "3e4", "--fiber-points", "2e3", "--seed", "3",
               "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["status"] == "pass"
    assert data["results"]["max_neighborhood"] >= 0.5 - 0.02


@pytest.mark.parametrize("command", ["verify-waist", "verify-iso"])
@pytest.mark.parametrize("width", ["8.3", "1000"])
def test_regularized_norm_at_wide_widths_passes(command, width, capsys):
    # The rejection sampler draws in the Euclidean ball of radius 1/c1; a
    # c1 far below the norm left it keeping almost no draw.
    z_grid = ["--z-grid", "-0.4:0.4:0.4"] if command == "verify-waist" else []
    rc = main([command, "--norm", f"reg:lp:1.5:3:w={width}:d=0.01",
               "--eps", "0.5", *z_grid, "--samples", "500", "--fiber-points",
               "100"])
    assert rc == 0
    assert capsys.readouterr().err.startswith("PASS")


def test_verify_iso_runs_at_nearby_seeds_share_no_batch(monkeypatch):
    def batch_seeds(seed):
        seeds = []

        def recording(norm, count, batch_seed):
            seeds.append(batch_seed)
            return real(norm, count, batch_seed)

        monkeypatch.setattr(cone, "sample_conical", recording)
        run_experiment(ExperimentConfig(command="verify-iso", norm="lp:4:3",
                                        eps=0.3, samples=2000,
                                        fiber_points=200, seed=seed))
        return seeds

    real = cone.sample_conical
    # one batch, which both neighborhood estimates share
    at_0, at_7 = batch_seeds(0), batch_seeds(7)
    assert len(at_0) == len(at_7) == 1
    assert not set(at_0) & set(at_7)


@pytest.mark.parametrize("norm, method", [
    ("euclidean:3", "exact"), ("lp:2:3", "exact"), ("lp:4:3", "exact"),
    ("reg:lp:1.5:3:w=0.05:d=0.01", "cloud")])
def test_verify_iso_reports_its_distance_method(norm, method):
    report = run_experiment(ExperimentConfig(
        command="verify-iso", norm=norm, eps=0.5, samples=500,
        fiber_points=100, seed=2))
    assert report.results["fiber_distance"] == method


def _iso(norm: str, eps: float, samples: int, fiber_points: int, seed: int):
    report = run_experiment(ExperimentConfig(
        command="verify-iso", norm=norm, eps=eps, samples=samples,
        fiber_points=fiber_points, seed=seed))
    return report.results


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_verify_iso_round_sphere_oracle(seed):
    # On S^2 the chordal eps-neighborhood of a hemisphere adds the band of
    # measure eps sqrt(1 - eps^2/4) / 2 below the equator (Archimedes).
    eps = 0.5
    expected = 0.5 + eps * math.sqrt(1.0 - eps * eps / 4.0) / 2.0
    assert expected == pytest.approx(0.742061, abs=5e-7)
    res = _iso("euclidean:3", eps, 200_000, 1, seed)
    est = res["neighborhood_A"]
    assert res["neighborhood_Ac"] == est
    assert res["max_neighborhood"] == est["mean"]
    assert abs(est["mean"] - expected) <= 3.0 * est["std_error"]


@pytest.mark.parametrize("norm, eps, samples, fiber_points, method", [
    ("lp:4:3", 0.3, 200_000, 1, "exact"),
    ("reg:lp:1.5:3:w=0.05:d=0.01", 0.5, 20_000, 500, "cloud")])
def test_verify_iso_matches_the_two_sided_cap_count(norm, eps, samples,
                                                    fiber_points, method):
    # The reference law: on an independent batch, a point lies in A_eps if
    # it lies in A = {x_last >= 0} or within eps of the boundary fiber
    # {x_last = 0}, and in A^c_eps if it lies outside A or within eps of it.
    res = _iso(norm, eps, samples, fiber_points, seed=5)
    assert res["fiber_distance"] == method
    parsed = norms.parse_norm(norm)
    f = cli._coordinate_projection(parsed.dim, 1)
    points = cone.sample_conical(parsed, samples, seed=901).points
    if method == "exact":
        near = cone._ExactTube(parsed, f, points).distance([0.0]) <= eps
    else:
        fiber = cone.fiber_points(parsed, f, [0.0], fiber_points, seed=902)
        near = cone.within_norm_distance(parsed, points, fiber, eps)
    in_a = points[:, -1] >= 0.0
    est = res["neighborhood_A"]
    for hits in (in_a | near, ~in_a | near):
        ref = cone.MeasureEstimate.from_hits(int(hits.sum()), samples)
        sigma = math.hypot(ref.std_error, est["std_error"])
        assert abs(ref.mean - est["mean"]) <= 3.0 * sigma


_ISO_CLOUD = "reg:lp:1.5:3:w=0.05:d=0.01"


def test_verify_iso_cloud_estimate_is_deterministic():
    assert _iso(_ISO_CLOUD, 0.4, 3_000, 300, seed=46) == \
        _iso(_ISO_CLOUD, 0.4, 3_000, 300, seed=46)


def test_larger_fiber_budget_never_lowers_the_iso_estimate():
    # the cloud of a larger budget extends the smaller one, so no distance
    # grows and no estimate falls: the cloud estimate is conservative
    norm = norms.parse_norm(_ISO_CLOUD)
    f = cli._coordinate_projection(norm.dim, 1)
    small = cone.fiber_points(norm, f, [0.0], 300, seed=47)
    large = cone.fiber_points(norm, f, [0.0], 3_000, seed=47)
    assert np.array_equal(small, large[:300])
    for seed in (1, 2, 3):
        lo = _iso(_ISO_CLOUD, 0.3, 2_000, 300, seed)["max_neighborhood"]
        hi = _iso(_ISO_CLOUD, 0.3, 2_000, 3_000, seed)["max_neighborhood"]
        assert hi >= lo


def _env_with_src() -> dict:
    """The environment with this checkout's src/ first on PYTHONPATH, for
    subprocesses."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def test_exact_runs_leave_scipy_spatial_unimported():
    # only the cloud distance builds a KD tree, so only it imports
    # scipy.spatial
    code = """
import sys
import numpy as np
from waistlab import cli, cone, norms
for command in ("verify-iso", "verify-waist"):
    report = cli.run_experiment(cli.ExperimentConfig(
        command=command, norm="lp:4:3", eps=0.3, samples=2000,
        fiber_points=200, z_grid="-0.4:0.4:0.4", seed=1))
    assert report.results["fiber_distance"] == "exact"
assert "scipy.spatial" not in sys.modules
norm = norms.lp_norm(4, 3)
cloud = cone.sample_conical(norm, 50, seed=1).points
points = cone.sample_conical(norm, 20, seed=2).points
dist = cone.min_norm_distance(norm, points, cloud)
brute = norms.norm_eval(norm, points[:, None, :] - cloud[None]).min(axis=1)
assert np.allclose(dist, brute)
assert "scipy.spatial" in sys.modules
"""
    env = _env_with_src()
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_only_modulus_imports_scipy_optimize():
    # The section search of numeric_modulus imports scipy's elementwise
    # solvers when it runs; the commands the benchmark runs never load
    # scipy.optimize, nor its import time and memory.
    code = """
import contextlib, io, sys
from waistlab import cli
runs = [["bound", "--norm", "lp:4:3", "--eps-grid", "0.2:1.0:0.4"],
        ["compare", "--norm", "lp:1.5:5", "--eps", "0.5"],
        ["needle-suite", "--trials", "100", "--seed", "3"]]
for norm in ("lp:4:3", "reg:lp:1.5:3:w=0.05:d=0.01"):
    budgets = ["--norm", norm, "--eps", "0.5", "--samples", "500",
               "--fiber-points", "100"]
    runs += [["verify-waist", "--z-grid", "-0.4:0.4:0.4", *budgets],
             ["verify-iso", *budgets]]
with contextlib.redirect_stdout(io.StringIO()):
    for argv in runs:
        assert cli.main(argv) == 0, argv
    assert "scipy.optimize" not in sys.modules
    assert cli.main(["modulus", "--norm", "lp:4:3", "--eps", "0.5",
                     "--budget", "3000"]) == 0
assert "scipy.optimize" in sys.modules
"""
    done = subprocess.run([sys.executable, "-c", code], env=_env_with_src(),
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_compare_csv_one_row_per_eps(tmp_path):
    out = tmp_path / "cmp.csv"
    rc = main(["compare", "--norm", "euclidean:6", "--k", "1",
               "--eps-grid", "0.2:1.0:0.2", "--format", "csv",
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "eps,w,w2,gm,b_exponent,n,k,f_upper"
    assert len(lines) == 1 + 5


def test_needle_suite_json_array(tmp_path):
    out = tmp_path / "suite.json"
    rc = main(["needle-suite", "--trials", "100", "--seed", "11",
               "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert isinstance(data, list)
    assert {r["lemma"] for r in data} == {"max_structure", "decay",
                                          "mass_ratio", "ball_mass"}
    for r in data:
        assert set(r) == {"lemma", "trials", "violations", "worst_margin",
                          "seed"}
        assert r["violations"] == 0


@pytest.mark.parametrize("n", ["1", "170", "1000"])
def test_needle_suite_n_outside_its_domain_exits_2(n, capsys):
    rc = main(["needle-suite", "--n", n, "--trials", "1000", "--seed", "1"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == f"error: needle-suite requires 2 <= n <= 169, got n={n}\n"


def test_needle_suite_largest_n_passes(capsys):
    assert main(["needle-suite", "--n", "169", "--trials", "200",
                 "--seed", "1"]) == 0
    assert capsys.readouterr().err.startswith("PASS")


@pytest.mark.parametrize("flag, value", [("--eps", "0.001"),
                                         ("--eps-grid", "0.005:0.1:0.005")])
def test_needle_suite_eps_below_its_grid_exits_2(flag, value, capsys):
    # below a few grid spacings the grid checks fail on correct needles
    rc = main(["needle-suite", flag, value, "--trials", "64", "--seed", "1"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "needle-suite requires eps >= 0.00938416" in err
    assert err.count("\n") == 1


def test_config_file_with_flag_override(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({
        "norm": "euclidean:3", "k": 1, "eps": 0.4, "seed": 2,
        "samples": 10_000, "fiber_points": 1_000, "z_grid": "-0.2:0.2:0.2",
    }))
    out = tmp_path / "r.json"
    rc = main(["verify-waist", "--config", str(cfg_file), "--eps", "0.6",
               "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["config"]["eps"] == 0.6       # flag wins
    assert data["config"]["samples"] == 10_000  # file value kept


def test_f_upper_flag_changes_bound(tmp_path):
    values = {}
    for flag in ("pi", "halfpi"):
        out = tmp_path / f"{flag}.json"
        assert main(["bound", "--norm", "euclidean:3", "--k", "1",
                     "--eps", "0.5", "--f-upper", flag, "--out", str(out)]) == 0
        values[flag] = json.loads(out.read_text())["results"]["bounds"][0]["waist"]["value"]
    # a smaller far-side integral gives the stronger (larger) bound
    assert values["halfpi"] > values["pi"]


def test_run_experiment_pure_function_of_config():
    cfg = ExperimentConfig(command="verify-waist", norm="euclidean:3", k=1,
                           eps=0.5, samples=20_000, fiber_points=2_000,
                           z_grid="-0.4:0.4:0.4", seed=9)
    r1 = run_experiment(cfg)
    r2 = run_experiment(cfg)
    assert r1.results == r2.results
    assert emit_report(r1, None, "json") == emit_report(r2, None, "json")


def test_modulus_command(tmp_path):
    out = tmp_path / "mod.json"
    rc = main(["modulus", "--norm", "lp:4:2", "--eps", "0.5",
               "--budget", "1e4", "--out", str(out)])
    assert rc == 0
    row = json.loads(out.read_text())["results"]["modulus"][0]
    assert row["numeric"] == pytest.approx(row["analytic"], abs=1e-3)


@pytest.mark.parametrize("command", ["bound", "compare"])
@pytest.mark.parametrize("grid, message", [
    ("0.5:3.0:0.5", "(0, 2]"),
    ("0:1:0.5", "(0, 2]"),
    ("nan:1:0.1", "malformed grid"),
])
def test_eps_grid_out_of_range_exits_2(command, grid, message, capsys):
    rc = main([command, "--norm", "lp:4:3", "--k", "1", "--eps-grid", grid])
    err = capsys.readouterr().err
    assert rc == 2
    assert message in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["bound", "compare"])
def test_dim_two_bound_exits_2(command, capsys):
    rc = main([command, "--norm", "lp:4:2", "--k", "1", "--eps", "0.5"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "sphere dimension >= 2" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("command, override, key", [
    ("bound", {"norm": 3}, "norm"),
    ("bound", {"eps": "0.5"}, "eps"),
    ("bound", {"k": True}, "k"),
    ("verify-waist", {"samples": 1e6}, "samples"),
    ("bound", {"eps_grid": [0.1, 0.5, 0.1], "eps": None}, "eps_grid"),
])
def test_config_file_wrong_type_exits_2(command, override, key, tmp_path,
                                        capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(
        {"norm": "lp:4:3", "k": 1, "eps": 0.5, **override}))
    rc = main([command, "--config", str(cfg_file)])
    err = capsys.readouterr().err
    assert rc == 2
    assert f"config key {key!r}" in err
    assert err.count("\n") == 1


def test_config_file_unknown_method_exits_2(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"norm": "lp:4:3", "eps": 0.5,
                                    "method": "exact"}))
    assert main(["modulus", "--config", str(cfg_file)]) == 2
    assert "method must be" in capsys.readouterr().err


def test_config_accepts_int_for_float_field():
    cfg = ExperimentConfig.from_dict({"command": "bound", "norm": "lp:4:3",
                                      "eps": 1})
    assert cfg.validate().eps == 1


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=4)

# Values near the valid range, so that validation also runs its later checks.
_PLAUSIBLE = {
    "command": st.sampled_from(tuple(_READS)),
    "norm": st.sampled_from(["euclidean:3", "lp:4:2", "lp:1.5:5", "lp:1:3",
                             "reg:lp:1.5:3:w=0.05:d=0.01", "reg:lp"]),
    "n": st.none() | st.integers(-1, 6),
    "k": st.integers(-1, 6),
    "eps": st.none() | st.floats(-1.0, 3.0),
    "eps_grid": st.sampled_from([None, "0.1:0.5:0.1", "0:1:0.5", "0.5:3:0.5",
                                 "nan:1:0.1", "1:0:0.1", "a:b:c"]),
    "samples": st.integers(-1, 10**6),
    "fiber_points": st.integers(-1, 10**4),
    "z_grid": st.sampled_from(["-0.8:0.8:0.1", "0:0:1", "1:0:1", "inf:1:1"]),
    "seed": st.integers(-2, 2**32),
    "f_upper": st.sampled_from(["pi", "halfpi", "tau"]),
    "trials": st.integers(-1, 10**4),
    "budget": st.integers(-1, 10**5),
    "method": st.sampled_from(["auto", "analytic", "numeric", "exact"]),
    "out": st.none() | st.text(),
    "format": st.sampled_from(["json", "csv", "xml"]),
}


@settings(max_examples=200, deadline=None)
@given(st.fixed_dictionaries(
    {"command": _PLAUSIBLE["command"] | _JSON_VALUES},
    optional={key: strategy | _JSON_VALUES
              for key, strategy in _PLAUSIBLE.items() if key != "command"}))
def test_from_dict_validate_raises_only_config_error(data):
    try:
        ExperimentConfig.from_dict(data).validate()
    except ConfigError as exc:
        assert "\n" not in str(exc)


# ---------------------------------------------------------------------------
# Input rules and exit codes
# ---------------------------------------------------------------------------

REG_NORM = "reg:lp:1.5:3:w=0.05:d=0.01"


def test_modulus_numeric_column_is_one_batched_search(monkeypatch):
    calls = []
    search = cli.numeric_modulus

    def counted(*args):
        calls.append(args)
        return search(*args)

    monkeypatch.setattr(cli, "numeric_modulus", counted)
    cfg = ExperimentConfig(command="modulus", norm=REG_NORM,
                           eps_grid="0.5:1:0.5", budget=3000, seed=0)
    rows = run_experiment(cfg).results["modulus"]
    assert len(calls) == 1
    norm = norms.parse_norm(REG_NORM)
    assert [r["numeric"] for r in rows] == [
        norms.numeric_modulus(norm, r["eps"], 3000, 0) for r in rows]
    assert [sorted(r) for r in rows] == [["analytic", "eps", "numeric"]] * 2


def _needle_stdout(capsys, *flags):
    assert main(["needle-suite", "--trials", "30", "--seed", "4", *flags]) == 0
    return capsys.readouterr().out


def test_needle_suite_eps_is_a_one_value_grid(capsys):
    one = _needle_stdout(capsys, "--eps", "0.3")
    assert one == _needle_stdout(capsys, "--eps-grid", "0.3:0.3:0.1")
    assert one != _needle_stdout(capsys)
    # --eps wins over --eps-grid, as in bound and modulus
    assert one == _needle_stdout(capsys, "--eps", "0.3",
                                 "--eps-grid", "0.1:0.6:0.1")


@pytest.mark.parametrize("command", ["bound", "modulus", "compare"])
def test_eps_wins_over_eps_grid(command):
    results = [run_experiment(ExperimentConfig(
        command=command, norm="lp:4:3", budget=3000, **grid)).results
        for grid in ({"eps": 0.5}, {"eps": 0.5, "eps_grid": "0.2:1.0:0.4"})]
    assert results[0] == results[1]


@pytest.mark.parametrize("content", ["[1]", '"x"', "null", "3"])
def test_config_file_not_an_object_exits_2(content, tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(content)
    rc = main(["bound", "--config", str(cfg_file)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "must hold a JSON object" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("budget", ["-5", "0"])
def test_nonpositive_budget_exits_2(budget, capsys):
    rc = main(["modulus", "--norm", "lp:4:3", "--eps", "0.5",
               "--budget", budget])
    err = capsys.readouterr().err
    assert rc == 2
    assert "budgets must be positive" in err
    assert err.count("\n") == 1


def _no_search(*args, **kwargs):
    raise AssertionError("the section search ran")


def test_analytic_modulus_of_regularized_norm_is_its_certified_floor(
        monkeypatch, tmp_path):
    monkeypatch.setattr(cli, "numeric_modulus", _no_search)
    out = tmp_path / "mod.json"
    rc = main(["modulus", "--norm", REG_NORM, "--eps", "0.5",
               "--method", "analytic", "--out", str(out)])
    assert rc == 0
    row = json.loads(out.read_text())["results"]["modulus"][0]
    curve = norms.analytic_modulus_curve(norms.parse_norm(REG_NORM))
    assert row == {"eps": 0.5, "analytic": curve(0.5)}
    assert curve.label == f"certified({REG_NORM})"


@pytest.mark.parametrize("command", ["bound", "compare", "verify-waist",
                                     "verify-iso"])
def test_bounds_of_regularized_norms_run_no_section_search(command,
                                                           monkeypatch):
    monkeypatch.setattr(norms, "numeric_modulus", _no_search)
    monkeypatch.setattr(cli, "numeric_modulus", _no_search)
    report = run_experiment(ExperimentConfig(
        command=command, norm=REG_NORM, eps=0.5, z_grid="-0.4:0.4:0.4",
        samples=500, fiber_points=100, seed=1))
    assert report.status in ("pass", "report")


def test_emit_report_refuses_csv_without_csv_form():
    report = run_experiment(ExperimentConfig(command="bound", eps=0.5))
    with pytest.raises(ConfigError, match="'bound' has no CSV form"):
        emit_report(report, None, "csv")


@pytest.mark.parametrize("command, key", [
    ("bound", "budget"), ("bound", "z_grid"), ("verify-iso", "k"),
    ("verify-iso", "cap_mass"), ("needle-suite", "norm"), ("modulus", "nope")])
def test_config_key_the_command_does_not_take_exits_2(command, key, tmp_path,
                                                      capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"eps": 0.5, key: 1}))
    assert main([command, "--config", str(cfg_file)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {command} takes no config keys [{key!r}]\n"
    assert captured.out == ""


@pytest.mark.parametrize("command, stored, rc", [
    ("compare", "bound", 2), ("bound", "verify-iso", 2), ("bound", 3, 2),
    ("bound", "bound", 0), ("compare", "compare", 0)])
def test_config_command_must_be_the_subcommand(command, stored, rc, tmp_path,
                                               capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"command": stored, "eps": 0.5}))
    assert main([command, "--config", str(cfg_file)]) == rc
    captured = capsys.readouterr()
    if rc:
        assert captured.err == (f"error: --config file {cfg_file} is a "
                                f"{stored!r} config, not {command!r}\n")
        assert captured.out == ""
    else:
        assert captured.err == ""
        assert json.loads(captured.out)["config"]["command"] == command


def test_python_api_ignores_fields_the_command_does_not_read():
    # A config built in Python may carry fields its command does not read:
    # they are neither validated nor echoed, and change no result.
    cfg = ExperimentConfig(command="verify-iso", norm="lp:4:3", k=1, eps=0.3,
                           samples=2000, fiber_points=200, budget=3000,
                           z_grid="bad", seed=1)
    assert ExperimentConfig.from_dict(cfg.to_dict()).validate() == cfg
    report = run_experiment(cfg)
    assert set(report.config) == {"command", *_READS["verify-iso"]} - {"out"}
    other = dataclasses.replace(cfg, k=2, budget=-7, n=1, method="exact")
    assert run_experiment(other).results == report.results


def test_integer_flags_take_integral_floats_only(capsys):
    rc = main(["verify-waist", "--norm", "euclidean:3", "--eps", "0.5",
               "--samples", "2e3", "--fiber-points", "1e2", "--z-grid",
               "0:0:1", "--seed", "12345678901234567890"])
    report = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert report["config"]["samples"] == 2000
    assert report["config"]["fiber_points"] == 100
    assert report["config"]["seed"] == 12345678901234567890
    for command, flag in (("verify-waist", "--samples"), ("bound", "--k"),
                          ("modulus", "--seed"), ("needle-suite", "--n")):
        assert main([command, "--eps", "0.5", flag, "2.5"]) == 2
        assert "invalid integer '2.5'" in capsys.readouterr().err


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def test_subcommand_flags_are_its_read_set():
    parser = _build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    assert tuple(sub.choices) == tuple(_READS)
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    for name, subparser in sub.choices.items():
        reads = set(_READS[name])
        assert reads <= fields - {"command"}, name
        actions = [a for a in subparser._actions if a.dest != "help"]
        assert {s for a in actions for s in a.option_strings} == \
            {_flag(f) for f in reads} | {"--config"}, name
        assert {a.dest for a in actions} == reads | {"config"}, name
    assert sum(len(reads) for reads in _READS.values()) == 44


def test_every_config_field_is_read_by_some_command():
    # A field no command reads has no flag and changes no result.
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    read = {name for reads in _READS.values() for name in reads}
    assert fields - {"command"} == read


_R3 = "reg:lp:1.5:3:w=0.05:d=0.01"
_BOUND_VALUES = (dict(norm="lp:4:3", eps_grid="0.2:1.0:0.4"),
                 dict(norm="lp:3:3", k=2, eps=0.5, eps_grid="0.3:1.1:0.4",
                      f_upper="halfpi"))
# Per command, a base config and another value of every field it reads but
# out and format. The exact distance paths leave --fiber-points unread, so
# the verify commands start from a reg:* norm. The modulus search converges
# in each section, so --seed and --budget show only through the random
# sections, where one beats every coordinate section: at eps 0.4 on
# reg:lp:1.5:3:w=2:d=0, seed 1 finds 0.010409 against 0.010470 at seed 0,
# and budget 21000 (7 random sections, not 4) finds 0.010457.
_READ_VALUES = {
    "bound": _BOUND_VALUES,
    "compare": _BOUND_VALUES,
    "modulus": (dict(norm="reg:lp:1.5:3:w=2:d=0", eps_grid="0.4:1.2:0.8",
                     budget=3000),
                dict(norm="lp:4:2", eps=0.5, eps_grid="0.5:1.3:0.8",
                     budget=21000, method="analytic", seed=1)),
    "verify-waist": (dict(norm=_R3, eps=0.5, z_grid="-0.4:0.4:0.4",
                          samples=500, fiber_points=100, seed=4),
                     dict(norm="lp:4:3", k=2, eps=0.4, z_grid="-0.2:0.2:0.2",
                          samples=600, fiber_points=50, seed=5,
                          f_upper="halfpi")),
    "verify-iso": (dict(norm=_R3, eps=0.5, samples=500, fiber_points=100,
                        seed=7),
                   dict(norm="lp:4:3", eps=0.4, samples=600, fiber_points=20,
                        seed=5, f_upper="halfpi")),
    "needle-suite": (dict(trials=20, seed=4),
                     dict(n=4, eps=0.3, eps_grid="0.2:0.6:0.2", trials=21,
                          seed=5, f_upper="halfpi")),
}


@pytest.mark.parametrize("command, name", [
    (command, name) for command, reads in _READS.items() for name in reads
    if name not in ("out", "format")])
def test_every_field_a_command_reads_moves_its_results(command, name):
    base, other = _READ_VALUES[command]

    def results(values):
        report = run_experiment(ExperimentConfig(command=command, **values))
        return json.dumps(report.results, sort_keys=True)

    assert results(base) != results({**base, name: other[name]})


# Flag sets at tiny budgets: every command, euclidean and l_p norms of
# dimension 3-5, k <= 2, coarse z grids. A few values lie outside the valid
# ranges, so that every exit code shows up. Each command draws its budgets
# and --eps always and its other flags at will, and about one argv in ten
# adds a flag the command does not take.
_FUZZ_BUDGETS = {
    "--samples": st.integers(0, 2000),
    "--fiber-points": st.integers(1, 200),
    "--trials": st.integers(1, 5),
    "--budget": st.integers(-1, 1000),
    "--z-grid": st.sampled_from(["-0.8:0.8:0.4", "0:0:1", "-0.4:0.4:0.4",
                                 "-0.99:0.99:0.66", "0.9:0.99:0.09"]),
}
_FUZZ_FLAGS = {
    "--norm": st.sampled_from([f"{kind}:{dim}" for dim in (3, 4, 5)
                               for kind in ("euclidean", "lp:1.5", "lp:2",
                                            "lp:4")]),
    "--n": st.integers(2, 4),
    "--k": st.sampled_from([1, 1, 2, 0]),
    "--eps-grid": st.sampled_from(["0.2:0.6:0.2", "0.1:2:0.6", "0.5:0.5:1",
                                   "0.3:2.4:0.7"]),
    "--seed": st.integers(0, 2**64),
    "--f-upper": st.sampled_from(["pi", "halfpi", "tau"]),
    "--method": st.sampled_from(["auto", "analytic", "numeric"]),
    "--format": st.sampled_from(["json", "json", "csv"]),
}


_FUZZ_ALWAYS = {**_FUZZ_BUDGETS, "--eps": st.floats(0.0, 2.1)}


@st.composite
def _fuzz_argv(draw):
    command = draw(st.sampled_from(tuple(_READS)))
    own = {_flag(name) for name in _READS[command]}
    flags = draw(st.fixed_dictionaries(
        {f: s for f, s in _FUZZ_ALWAYS.items() if f in own},
        optional={f: s for f, s in _FUZZ_FLAGS.items() if f in own}))
    if draw(st.integers(0, 9)) == 5:
        foreign = sorted({**_FUZZ_ALWAYS, **_FUZZ_FLAGS}.keys() - own)
        flag = draw(st.sampled_from(foreign))
        flags[flag] = draw({**_FUZZ_ALWAYS, **_FUZZ_FLAGS}[flag])
    argv = [command]
    for flag, value in flags.items():
        argv += [flag, str(value)]
    return argv


@settings(max_examples=150, deadline=None)
@given(_fuzz_argv())
def test_main_fuzz_exit_codes(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    lines = err.getvalue().splitlines()
    if set(argv[1::2]) - {_flag(name) for name in _READS[argv[0]]}:
        assert rc == 2 and lines[0].startswith("error: unrecognized"), lines
    if rc == 2:
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
    elif rc == 1:
        assert len(lines) == 1 and lines[0].startswith("FAIL ("), lines
    else:
        assert rc == 0, (rc, lines)
        assert out.getvalue()
        assert all(line.startswith("PASS (") for line in lines), lines


_SUITE_EPS = st.floats(SUITE_MIN_EPS, 2.0)


@st.composite
def _needle_suite_argv(draw):
    """needle-suite over its whole accepted domain: every n, trial counts on
    both sides of the block edges at 64 and 128, and eps values and grids
    from SUITE_MIN_EPS to 2, at any seed."""
    trials = draw(st.one_of(st.integers(1, 200),
                            st.sampled_from([63, 64, 65, 127, 128, 129])))
    flags = draw(st.fixed_dictionaries(
        {"--trials": st.just(trials), "--seed": st.integers(0, 2**64)},
        optional={
            "--n": st.integers(2, SUITE_MAX_N),
            "--eps": _SUITE_EPS,
            "--eps-grid": st.tuples(_SUITE_EPS, _SUITE_EPS,
                                    st.floats(1e-6, 2.0)).map(
                lambda t: f"{min(t[:2])!r}:{max(t[:2])!r}:{t[2]!r}"),
            "--f-upper": st.sampled_from(["pi", "halfpi"]),
        }))
    argv = ["needle-suite"]
    for flag, value in flags.items():
        argv += [flag, str(value)]
    return argv


@settings(max_examples=60, deadline=None)
@given(_needle_suite_argv())
def test_needle_suite_fuzz_exit_codes(argv):
    # Correct needles pass every check, so exit 1 would be a false alarm;
    # an input the suite refuses exits 2 on one line.
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    lines = err.getvalue().splitlines()
    if rc == 2:
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
    else:
        assert rc == 0, (rc, lines)
        assert lines and all(line.startswith("PASS (") for line in lines), \
            lines


# eps from the smallest subnormal up to 2, with both ends drawn often
_BOUND_EPS = st.one_of(st.floats(5e-324, 2.0),
                       st.sampled_from([5e-324, 1e-310, 1e-160, 2.0]))


@st.composite
def _bound_flags(draw):
    """Flags of bound and compare over their whole accepted domain: sphere
    dimensions up to 2000 (``reg:*`` smooths up to dim 4), k up to n, and
    eps or eps grids down to subnormal values."""
    kind = draw(st.sampled_from(["euclidean", "lp:1.5", "lp:4", "reg"]))
    if kind == "reg":
        dim = draw(st.integers(3, 4))
        norm = draw(st.sampled_from([f"reg:lp:1.5:{dim}:w=0.05:d=0.01",
                                     f"reg:euclidean:{dim}:w=0.2:d=3"]))
    else:
        dim = draw(st.integers(3, 2001))
        norm = f"{kind}:{dim}"
    k = draw(st.one_of(st.integers(1, min(dim - 1, 3)),
                       st.integers(1, dim - 1)))
    flags = ["--norm", norm, "--k", str(k), "--f-upper",
             draw(st.sampled_from(["pi", "halfpi"]))]
    if draw(st.booleans()):
        return flags + ["--eps", repr(draw(_BOUND_EPS))]
    lo, hi = sorted((draw(_BOUND_EPS), draw(_BOUND_EPS)))
    step = draw(st.floats(max((hi - lo) / 40.0, 1e-300), 2.0))
    return flags + ["--eps-grid", f"{lo!r}:{hi!r}:{step!r}"]


@settings(max_examples=100, deadline=None)
@given(_bound_flags())
def test_bound_and_compare_fuzz_over_the_whole_domain(flags):
    # Every accepted input answers (exit 0); nothing exits 1 or 3. Both
    # commands read the same flags, and compare's w column is bound's
    # waist value at every eps.
    results = {}
    for command in ("bound", "compare"):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main([command, *flags])
        lines = err.getvalue().splitlines()
        assert rc in (0, 2), (command, rc, lines)
        if rc == 2:
            assert len(lines) == 1 and lines[0].startswith("error: "), lines
        else:
            assert not lines, lines
            results[command] = json.loads(out.getvalue())["results"]
    assert len(results) in (0, 2)
    if results:
        bound, table = results["bound"]["bounds"], results["compare"]["table"]
        assert [b["waist"]["inputs"]["eps"] for b in bound] == \
            [row["eps"] for row in table]
        assert [b["waist"]["value"] for b in bound] == \
            [row["w"] for row in table]


@st.composite
def _verify_argv(draw):
    """verify-waist and verify-iso over their accepted domain at a small
    budget: euclidean and l_p norms up to dim 80, k up to dim - 1, a
    one-point z axis anywhere in [-1.2, 1.2] and at most 200 samples and
    200 fiber points."""
    kind = draw(st.sampled_from(["euclidean", "lp:1.5", "lp:4"]))
    dim = draw(st.integers(3, 80))
    argv = [draw(st.sampled_from(["verify-waist", "verify-iso"])),
            "--norm", f"{kind}:{dim}", "--eps", repr(draw(_BOUND_EPS)),
            "--samples", str(draw(st.integers(1, 200))),
            "--fiber-points", str(draw(st.integers(1, 200))),
            "--seed", str(draw(st.integers(0, 2**32))),
            "--f-upper", draw(st.sampled_from(["pi", "halfpi"]))]
    if argv[0] == "verify-waist":
        k = draw(st.one_of(st.integers(1, min(dim - 1, 3)),
                           st.integers(1, dim - 1)))
        z = draw(st.floats(-1.2, 1.2))
        argv += ["--k", str(k), "--z-grid", f"{z!r}:{z!r}:1"]
    return argv


@settings(max_examples=100, deadline=None)
@given(_verify_argv())
def test_verify_fuzz_over_the_whole_domain(argv):
    # Every run answers on stdout and exits 0 or 1, or refuses its input
    # (an empty fiber) with exit 2; nothing exits 3. Exit 1 is a failed
    # assertion and says FAIL: a sample too small to hit the tube fails a
    # correct program (euclidean:80, k = 65), so a pass is not asserted.
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    lines = err.getvalue().splitlines()
    assert rc in (0, 1, 2), (rc, lines)
    if rc == 2:
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
    else:
        assert json.loads(out.getvalue())["status"] == ("pass", "fail")[rc]
        assert len(lines) == 1 and lines[0].startswith(
            ("PASS (", "FAIL (")[rc]), lines


_REG ="reg:lp:1.5:3:w=0.05:d=0.01"
_REG_BUDGETS = dict(samples=500, fiber_points=100)
_WAIST_REG = dict(command="verify-waist", norm=_REG, eps=0.5,
                  z_grid="-0.4:0.4:0.4", seed=4, **_REG_BUDGETS)
_ISO_REG = dict(command="verify-iso", norm=_REG, eps=0.5, seed=7,
                **_REG_BUDGETS)


# One small report per command and distance path, pinned by the sha256 of
# its emitted bytes: a refactor that keeps reports byte-identical keeps
# every digest.
_GOLDENS = [
    pytest.param(
        dict(command="bound", norm="lp:4:3", eps_grid="0.2:1.0:0.4"),
        "7c2140007d2f7e6889db64724a676e85d11386cb3672c466350311ee1103f7ca",
        id="bound"),
    pytest.param(
        dict(command="compare", norm="lp:1.5:5", eps_grid="0.1:1.9:0.6"),
        "9f21e9de3dba59ac6f6722931fb1f29d3343565ea48c4b833ccc04bc9882b3ea",
        id="compare-lp"),
    pytest.param(
        dict(command="compare", norm="lp:1.5:5", eps_grid="0.1:1.9:0.6",
             format="csv"),
        "419afa5ecb5214bf23c7e40efb3c3178fa82dcf56f870ef55bd24faa5d997d6e",
        id="compare-csv"),
    pytest.param(
        dict(command="compare", norm=_REG, eps=0.5),
        "3e976572222a3da77a35c460099622d4046471507b427348153ec7a79fdd80e5",
        id="compare-reg"),
    pytest.param(
        dict(command="modulus", norm="lp:4:3", eps_grid="0.2:1.0:0.4",
             budget=3000),
        "e32b041dd179923b9cc029018713334e46a7ee00b565a9c64144c68ffb59ec53",
        id="modulus-json"),
    pytest.param(
        dict(command="modulus", norm=_REG, eps_grid="0.4:1.2:0.8",
             budget=3000, format="csv"),
        "12c2b50f8e50aa60acd00cb83fbc471fe9dabc2101b87b81856542ed8117daa2",
        id="modulus-csv"),
    pytest.param(
        dict(command="verify-waist", norm="euclidean:3", eps=0.5,
             samples=2000, z_grid="-0.4:0.4:0.2", seed=1),
        "81f8b5f21e562c739dcfbe5aa442f5a13b762b547ba90b20c74825fa812ad429",
        id="waist-euclidean"),
    pytest.param(
        dict(command="verify-waist", norm="lp:4:3", eps=0.3, samples=2000,
             z_grid="-0.4:0.4:0.2", seed=2),
        "742c10eda5cbe025f8293bf63fd150b612f4e81df94569cce93c35632bae8328",
        id="waist-lp"),
    pytest.param(
        dict(command="verify-waist", norm="euclidean:4", k=2, eps=0.5,
             samples=2000, z_grid="-0.3:0.3:0.3", seed=3),
        "402d4000f3791abf4c1924ce5f0a2d7f2646dee4103717708da854577d4d66c1",
        id="waist-k2"),
    pytest.param(
        _WAIST_REG,
        "f894ceb4c1283f4bb31f4c9443175c150a57b367a0be217f8457e6c6ef788ba0",
        id="waist-reg"),
    pytest.param(
        dict(command="verify-iso", norm="euclidean:3", eps=0.5, samples=2000,
             seed=5),
        "51572de99ac4e4dea41fa0177937fd62f49a78857bc4e1d09a4e4bc6c0cf007f",
        id="iso-euclidean"),
    pytest.param(
        dict(command="verify-iso", norm="lp:4:3", eps=0.3, samples=2000,
             seed=6),
        "6b5d14b119abdd3806ee32ea52676231c7dd5e3d005e33116e9a56d897448867",
        id="iso-lp"),
    pytest.param(
        _ISO_REG,
        "a4a521ae56996cf4d2342c6c8c62cd8b78718f8ceb4d980f3a21610c85d50214",
        id="iso-reg"),
    pytest.param(
        dict(command="needle-suite", trials=100, seed=8),
        "6f02377301c3407af68047b247dd2f792025d9c261e2424751c556d25ba9257f",
        id="needle-suite"),
]


def _golden_payload(config: dict) -> str:
    return emit_report(run_experiment(ExperimentConfig(**config)), None,
                       config.get("format", "json"))


@pytest.mark.parametrize("config, digest", _GOLDENS)
def test_golden_report_digests(config, digest):
    payload = _golden_payload(config)
    assert hashlib.sha256(payload.encode()).hexdigest() == digest


@pytest.mark.parametrize("config, digest", _GOLDENS)
def test_golden_config_echo_reruns_from_a_config_file(config, digest,
                                                      tmp_path, capsys):
    # The echoed config is a --config file that gives the same bytes again.
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(
        run_experiment(ExperimentConfig(**config)).config))
    assert main([config["command"], "--config", str(cfg_file)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("config, before, mollified", [
    (_WAIST_REG, 21_864, 2_305), (_ISO_REG, 10_342, 702)],
    ids=["waist-reg", "iso-reg"])
def test_regularized_reports_evaluate_few_norm_rows(config, before, mollified,
                                                    monkeypatch):
    # Rows norm_eval receives for two golden reports, of every norm kind.
    # When the cloud path took exact distances, the fiber bisection
    # evaluated every midpoint and the rejection sampler every draw, they
    # were 21 864 (waist-reg) and 10 342 (iso-reg). Rows of the regularized
    # norm itself were 8 602 and 3 084 before its yes/no tests took the
    # base-norm bracket, whose rows count among the base norm's, and 7 970
    # and 2 699 before fiber_points took Illinois steps to full precision
    # in place of a certified bisection.
    real = norms.norm_eval
    rows = {"lp": 0, "regularized": 0}

    def counting(norm, x):
        x = np.asarray(x, dtype=float)
        rows[norm.kind] += x.size // x.shape[-1]
        return real(norm, x)

    monkeypatch.setattr(cone, "norm_eval", counting)
    monkeypatch.setattr(norms, "norm_eval", counting)
    run_experiment(ExperimentConfig(**config))
    assert 0 < sum(rows.values()) <= before // 2
    assert 0 < rows["regularized"] <= mollified


def test_python_dash_m_runs_the_command_line():
    env = _env_with_src()

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "waistlab", *argv],
                              env=env, capture_output=True, text=True)

    done = run("bound", "--norm", "lp:4:3", "--eps", "0.5")
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["config"]["command"] == "bound"
    done = run("bound", "--norm", "lp:0.5:3", "--eps", "0.5")
    assert done.returncode == 2
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1


# ---------------------------------------------------------------------------
# Public names
# ---------------------------------------------------------------------------

LAYERS = ("norms", "cone", "bounds", "needles", "cli")


@pytest.mark.parametrize("layer", LAYERS)
def test_every_public_name_resolves(layer):
    # the benchmark tracer wraps every __all__ name by getattr
    mod = importlib.import_module(f"waistlab.{layer}")
    assert len(set(mod.__all__)) == len(mod.__all__)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_package_imports_resolve_to_public_names():
    tree = ast.parse(Path(waistlab.__file__).read_text())
    imported = [(node.module, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert imported
    for module, name in imported:
        assert hasattr(waistlab, name), name
        assert name in importlib.import_module(f"waistlab.{module}").__all__


def test_benchmark_entry_points_exist():
    # every layer.name the benchmark's operations read
    workloads = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    refs = {(node.value.id, node.attr)
            for node in ast.walk(ast.parse(workloads.read_text()))
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id in LAYERS}
    assert ("needles", "lune_spec") in refs
    missing = [f"{layer}.{name}" for layer, name in sorted(refs)
               if not hasattr(importlib.import_module(f"waistlab.{layer}"),
                              name)]
    assert missing == []
