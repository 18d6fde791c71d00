import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waistlab import cli, cone, norms
from waistlab.cli import (
    _COMMANDS,
    ConfigError,
    ExperimentConfig,
    _build_parser,
    _modulus_for,
    _parse_grid,
    _z_product_grid,
    emit_report,
    main,
    run_experiment,
)


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
    ("reg:lp:1.5:3:w=10:d=0", "so that c1 > 0"),
    ("reg:lp:1.5:3:w=9.99:d=0", "so that c1 > 0"),
    ("reg:lp:1.5:3:w=nan:d=0.01", "finite w >= 0 and d >= 0"),
    ("reg:lp:1.5:3:w=inf:d=0.01", "finite w >= 0 and d >= 0"),
    ("reg:lp:1.5:3:w=0.05:d=nan", "finite w >= 0 and d >= 0"),
])
def test_regularized_norm_outside_its_domain_exits_2(command, norm, message,
                                                      capsys):
    rc = main([command, "--norm", norm, "--k", "1", "--eps", "0.5"])
    err = capsys.readouterr().err
    assert rc == 2
    assert message in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["verify-waist", "verify-iso"])
def test_verify_without_eps_exits_2(command, capsys):
    rc = main([command, "--norm", "euclidean:3", "--k", "1",
               "--eps-grid", "0.2:0.6:0.2"])
    err = capsys.readouterr().err
    assert rc == 2
    assert f"{command} requires --eps" in err
    assert err.count("\n") == 1


def test_inconsistent_n_exits_2(capsys):
    rc = main(["bound", "--norm", "euclidean:3", "--n", "5", "--k", "1",
               "--eps", "0.5"])
    assert rc == 2


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


def test_unknown_command_exits_2():
    assert main(["frobulate"]) == 2


@pytest.mark.parametrize("argv", [
    ["bound", "--eps", "0.5", "--k", "2.5"],
    ["bound", "--eps", "0.5", "--no-such-flag", "1"],
    ["bound", "--eps"],
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
    rc = main(["verify-iso", "--norm", "lp:4:3", "--k", "1", "--eps", "0.3",
               "--cap-mass", "0.5", "--samples", "3e4", "--fiber-points",
               "2e3", "--seed", "3", "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["status"] == "pass"
    assert data["results"]["max_neighborhood"] >= 0.5 - 0.02


def test_verify_iso_empty_cloud_exits_2(capsys):
    rc = main(["verify-iso", "--norm", "euclidean:3", "--k", "1", "--eps",
               "0.5", "--samples", "1", "--fiber-points", "1"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "--samples" in err
    assert err.count("\n") == 1


def test_verify_iso_runs_at_nearby_seeds_share_no_batch(monkeypatch):
    def batch_seeds(seed):
        seeds = []

        def recording(norm, count, batch_seed):
            seeds.append(batch_seed)
            return real(norm, count, batch_seed)

        monkeypatch.setattr(cone, "sample_conical", recording)
        monkeypatch.setattr(cli, "sample_conical", recording)
        run_experiment(ExperimentConfig(command="verify-iso", norm="lp:4:3",
                                        eps=0.3, samples=2000,
                                        fiber_points=200, seed=seed))
        return seeds

    real = cone.sample_conical
    # the calibration batch and the one batch both exact neighborhood
    # estimates share
    at_0, at_7 = batch_seeds(0), batch_seeds(7)
    assert len(set(at_0)) == len(set(at_7)) == 2
    assert not set(at_0) & set(at_7)


@pytest.mark.parametrize("norm, method", [
    ("euclidean:3", "exact"), ("lp:2:3", "exact"), ("lp:4:3", "exact"),
    ("reg:lp:1.5:3:w=0.05:d=0.01", "cloud")])
def test_verify_iso_reports_its_distance_method(norm, method):
    report = run_experiment(ExperimentConfig(
        command="verify-iso", norm=norm, eps=0.5, samples=500,
        fiber_points=100, budget=3000, seed=2))
    assert report.results["fiber_distance"] == method


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
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, "-c", code], env=env,
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


@pytest.mark.parametrize("flag, value", [("--norm", "lp:4:3"), ("--k", "2")])
def test_needle_suite_rejects_unsupported_flags(flag, value, capsys):
    rc = main(["needle-suite", flag, value, "--trials", "5"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "euclidean k = 1 needles only" in err and f"{flag} {value}" in err
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


@pytest.mark.parametrize("override, key", [
    ({"norm": 3}, "norm"),
    ({"eps": "0.5"}, "eps"),
    ({"k": True}, "k"),
    ({"samples": 1e6}, "samples"),
    ({"eps_grid": [0.1, 0.5, 0.1], "eps": None}, "eps_grid"),
])
def test_config_file_wrong_type_exits_2(override, key, tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(
        {"norm": "lp:4:3", "k": 1, "eps": 0.5, **override}))
    rc = main(["bound", "--config", str(cfg_file)])
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
                                      "eps": 1, "cap_mass": 0.5})
    assert cfg.validate().eps == 1


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=4)

# Values near the valid range, so that validation also runs its later checks.
_PLAUSIBLE = {
    "command": st.sampled_from(_COMMANDS),
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
    "cap_mass": st.floats(-0.5, 1.5),
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


# Readings of the modulus curve that the bounds take: the waist bound at
# eps/2 and the Gromov-Milman bound at eps/8 - theta_n.
_FULL_GRID = np.linspace(0.2, 1.8, 9)
_PREFIX_EPS = sorted({*_parse_grid("0.05:2.0:0.05"), 0.4, 0.8, 1.2, 1.6, 2.0,
                      *(2.0 * _FULL_GRID[:5])})


def _readings(curve, eps):
    xs = [eps / 2.0]
    for n in (2, 3, 10, 1000):
        theta = 1.0 - 0.5 ** (1.0 / (n - 1.0))
        xs.append(max(0.0, eps / 8.0 - theta))
    return [curve(x) for x in xs]


def test_modulus_prefix_matches_full_grid(monkeypatch):
    calls = []

    def fake_modulus(norm, eps, budget, seed):
        eps = np.asarray(eps, dtype=float)
        calls.extend(eps.tolist())
        # rises with dips, so the running maximum changes values
        return 0.1 * eps * eps + 0.03 * np.sin(7.0 * eps) + 1e-3 * seed

    monkeypatch.setattr(norms, "_numeric_modulus", fake_modulus)
    norm = norms.parse_norm("reg:lp:4:3:w=0.2:d=0")
    full = norms.numeric_modulus_curve(norm, eps_grid=_FULL_GRID,
                                       budget=3000, seed=1)
    assert np.any(np.diff(fake_modulus(norm, _FULL_GRID, 0, 1)) < 0)
    for eps in _PREFIX_EPS:
        prefix = _modulus_for(norm, 3000, 1, eps)
        assert _readings(prefix, eps) == _readings(full, eps), eps
    for eps, points in ((0.5, 2), (2.0, 5)):
        calls.clear()
        _modulus_for(norm, 3000, 1, eps)
        assert len(calls) == points


def test_modulus_prefix_matches_full_grid_on_real_search():
    norm = norms.parse_norm("reg:lp:4:2:w=0.2:d=0")
    full = norms.numeric_modulus_curve(norm, eps_grid=_FULL_GRID,
                                       budget=3000, seed=0)
    prefix = _modulus_for(norm, 3000, 0, 2.0)
    assert len(prefix.grid) == 5
    for eps in _PREFIX_EPS:
        assert _readings(prefix, eps) == _readings(full, eps), eps


# ---------------------------------------------------------------------------
# Input rules and exit codes
# ---------------------------------------------------------------------------

REG_NORM = "reg:lp:1.5:3:w=0.05:d=0.01"


def test_modulus_numeric_column_is_one_batched_search(monkeypatch):
    calls = []
    search = cli._numeric_modulus

    def counted(*args):
        calls.append(args)
        return search(*args)

    monkeypatch.setattr(cli, "_numeric_modulus", counted)
    cfg = ExperimentConfig(command="modulus", norm=REG_NORM,
                           eps_grid="0.5:1:0.5", budget=3000, seed=0)
    rows = run_experiment(cfg).results["modulus"]
    assert len(calls) == 1
    norm = norms.parse_norm(REG_NORM)
    assert [r["numeric"] for r in rows] == [
        norms.modulus_of_convexity(norm, r["eps"], method="numeric",
                                   budget=3000, seed=0)
        for r in rows]
    assert [sorted(r) for r in rows] == [["eps", "numeric"]] * 2


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


def test_analytic_modulus_of_regularized_norm_exits_2(monkeypatch, capsys):
    def no_curve(*args, **kwargs):
        raise AssertionError("validate built a modulus curve")

    monkeypatch.setattr(norms, "_numeric_modulus", no_curve)
    rc = main(["modulus", "--norm", REG_NORM, "--eps", "0.5",
               "--method", "analytic"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "no closed-form modulus" in err
    assert err.count("\n") == 1
    # auto and numeric pass validation without computing anything
    for method in ("auto", "numeric"):
        ExperimentConfig(command="modulus", norm=REG_NORM, eps=0.5,
                         method=method).validate()


def test_modulus_capability_comes_from_norms():
    for text, closed in (("euclidean:3", True), ("lp:4:3", True),
                         ("lp:2:3", True), (REG_NORM, False)):
        assert norms.parse_norm(text).has_analytic_modulus is closed


@pytest.mark.parametrize("command", ["bound", "verify-waist", "verify-iso",
                                     "needle-suite"])
def test_csv_without_csv_form_exits_2(command, capsys):
    rc = main([command, "--norm", "euclidean:3", "--eps", "0.5",
               "--samples", "100", "--trials", "2", "--format", "csv"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "has no CSV form" in err
    assert err.count("\n") == 1


def test_integer_flags_take_integral_floats_only(capsys):
    rc = main(["verify-waist", "--norm", "euclidean:3", "--eps", "0.5",
               "--samples", "2e3", "--fiber-points", "1e2", "--z-grid",
               "0:0:1", "--seed", "12345678901234567890"])
    report = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert report["config"]["samples"] == 2000
    assert report["config"]["fiber_points"] == 100
    assert report["config"]["seed"] == 12345678901234567890
    for flag in ("--samples", "--k", "--seed", "--n"):
        assert main(["bound", "--norm", "euclidean:3", "--eps", "0.5",
                     flag, "2.5"]) == 2
        assert "invalid integer '2.5'" in capsys.readouterr().err


def test_subcommand_flags_are_the_config_fields():
    parser = _build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    assert tuple(sub.choices) == _COMMANDS
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    fields.discard("command")
    expected = {"--" + name.replace("_", "-") for name in fields}
    for name, subparser in sub.choices.items():
        actions = [a for a in subparser._actions if a.dest != "help"]
        assert {s for a in actions for s in a.option_strings} == \
            expected | {"--config"}, name
        assert {a.dest for a in actions} == fields | {"config"}, name


# Flag sets at tiny budgets: every command, euclidean and l_p norms of
# dimension 3-5, k <= 2, coarse z grids. A few values lie outside the valid
# ranges, so that every exit code shows up.
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
    "--cap-mass": st.floats(0.05, 0.95),
    "--method": st.sampled_from(["auto", "analytic", "numeric"]),
    "--format": st.sampled_from(["json", "json", "csv"]),
}


@st.composite
def _fuzz_argv(draw):
    argv = [draw(st.sampled_from(_COMMANDS))]
    flags = draw(st.fixed_dictionaries(
        {**_FUZZ_BUDGETS, "--eps": st.floats(0.0, 2.1)},
        optional=_FUZZ_FLAGS))
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
    if rc == 2:
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
    elif rc == 1:
        assert len(lines) == 1 and lines[0].startswith("FAIL ("), lines
    else:
        assert rc == 0, (rc, lines)
        assert out.getvalue()
        assert all(line.startswith("PASS (") for line in lines), lines


_REG = "reg:lp:1.5:3:w=0.05:d=0.01"
_REG_BUDGETS = dict(samples=500, fiber_points=100, budget=3000)


# One small report per command and distance path, pinned by the sha256 of
# its emitted bytes: a refactor that keeps reports byte-identical keeps
# every digest.
@pytest.mark.parametrize("config, fmt, digest", [
    (dict(command="bound", norm="lp:4:3", eps_grid="0.2:1.0:0.4"), "json",
     "24d39e682564ff5650d3b2de578fd99523435f6e6dd43204d6b264dbec87ad33"),
    (dict(command="compare", norm="lp:1.5:5", eps_grid="0.1:1.9:0.6"), "json",
     "1658eddf2d08fe635c4ba792fdd6c9c9a141af6ea8d84d9c934a62230f9a2426"),
    (dict(command="compare", norm="lp:1.5:5", eps_grid="0.1:1.9:0.6"), "csv",
     "419afa5ecb5214bf23c7e40efb3c3178fa82dcf56f870ef55bd24faa5d997d6e"),
    (dict(command="compare", norm=_REG, eps=0.5, budget=3000), "json",
     "0fd481c23ca8bb6f86890c7ea323ad29f37b5197db00402fba2a6019287a18d6"),
    (dict(command="modulus", norm="lp:4:3", eps_grid="0.2:1.0:0.4",
          budget=3000), "json",
     "b6ffd30955a320ec8c3ad105ea655a5c5db7dbc72ba80a5a68142a6549a4d10f"),
    (dict(command="modulus", norm=_REG, eps_grid="0.4:1.2:0.8",
          budget=3000), "csv",
     "e185a26593bd61ae9c6f60a4c3d60d9856a46252269cb929d40a97cbc318d68f"),
    (dict(command="verify-waist", norm="euclidean:3", eps=0.5, samples=2000,
          z_grid="-0.4:0.4:0.2", seed=1), "json",
     "6370270e4081be01cc8d7c3fb3939c317cc6e746deec6516ec3d68697bd34598"),
    (dict(command="verify-waist", norm="lp:4:3", eps=0.3, samples=2000,
          z_grid="-0.4:0.4:0.2", seed=2), "json",
     "4fd7c7bac4d2bd063340ccf1850c850623c6ff25cc506b1c448daa3c07251711"),
    (dict(command="verify-waist", norm="euclidean:4", k=2, eps=0.5,
          samples=2000, z_grid="-0.3:0.3:0.3", seed=3), "json",
     "dc747d8cb5b4c1ad18b5999f30dd5a65f6a53117b7caf1165378a8ac1ccf7079"),
    (dict(command="verify-waist", norm=_REG, eps=0.5, z_grid="-0.4:0.4:0.4",
          seed=4, **_REG_BUDGETS), "json",
     "8b493ccd70f5b2648524959d808c70512c2eac36b36e3e799aa17d92393b08fc"),
    (dict(command="verify-iso", norm="euclidean:3", eps=0.5, samples=2000,
          seed=5), "json",
     "3360885f8e4efcc73fc4b19c85609b40e4bcfe18890274ca760e23b5680bee4b"),
    (dict(command="verify-iso", norm="lp:4:3", eps=0.3, samples=2000,
          seed=6), "json",
     "710cba6f2f4c01878c89eba2754e74cd1e7f24757356d9db63f94a9be97292ff"),
    (dict(command="verify-iso", norm=_REG, eps=0.5, seed=7, **_REG_BUDGETS),
     "json",
     "2867f18423154a0ef91b85059ef19c003544631dd9ba5cddbbea1298ece8d63e"),
    (dict(command="needle-suite", trials=100, seed=8), "json",
     "8717898580f55a629e9b1c9fd43bfc3b82783f2f84c4b3a63886ff627c23e66d"),
], ids=["bound", "compare-lp", "compare-csv", "compare-reg", "modulus-json", "modulus-csv",
        "waist-euclidean", "waist-lp", "waist-k2", "waist-reg",
        "iso-euclidean", "iso-lp", "iso-reg", "needle-suite"])
def test_golden_report_digests(config, fmt, digest):
    payload = emit_report(run_experiment(ExperimentConfig(**config)), None,
                          fmt)
    assert hashlib.sha256(payload.encode()).hexdigest() == digest
