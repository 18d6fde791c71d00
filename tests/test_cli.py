import json

import pytest

from waistlab.cli import (
    ConfigError,
    ExperimentConfig,
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


def test_unknown_command_exits_2():
    assert main(["frobulate"]) == 2


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


def test_verify_waist_codimension_two(tmp_path):
    out = tmp_path / "k2.json"
    rc = main(["verify-waist", "--norm", "euclidean:4", "--k", "2",
               "--eps", "0.5", "--samples", "5e4", "--fiber-points", "5e3",
               "--z-grid", "-0.3:0.3:0.3", "--seed", "5", "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["status"] == "pass"
    assert data["results"]["z_star"] == [0.0, 0.0]
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
