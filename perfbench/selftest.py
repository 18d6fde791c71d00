"""Tests of the benchmark itself (not part of the tier-1 suite, because the
smoke runs start subprocesses and take about a minute):

    python3 -m pytest perfbench/selftest.py

The smoke runs use ``--seconds 0`` (exactly one pass) and ``--scale 0.05``
(tiny Monte Carlo budgets). The regularized workload cannot get cheaper than
its modulus-curve search, so its smoke run takes about half a minute.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SMOKE_SEED = 424242


def bench(*args, cwd=ROOT, script=HERE / "run.py"):
    done = subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    return done.returncode, done.stdout, done.stderr


def smoke(workload: str, trace: int, seed: int = SMOKE_SEED):
    code, out, err = bench("--workload", workload, "--seed", str(seed),
                           "--seconds", "0", "--trace", str(trace),
                           "--scale", "0.05")
    assert code == 0, err
    result = json.loads(out.strip().splitlines()[-1])
    record = json.loads(
        (run.OUT / f"run-{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, record


def test_spec_matches_the_benchmark():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert SPEC["command"][:2] == ["python3", "perfbench/run.py"]
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_prints_every_end_to_end_metric(workload):
    result, record = smoke(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == len(workloads.build(workload))
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for metric in SPEC["end_to_end"]:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert got["value"] > 0
    env = record["env"]
    assert env["seed"] == SMOKE_SEED and env["nproc"] >= 1
    assert len(env["budgets"]) == len(workloads.build(workload))


def test_traced_run_reports_every_layer_and_keeps_reports_identical():
    result, record = smoke("waist", trace=1)
    assert result["correct"] is True
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    for metric in SPEC["per_layer"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert record["digest_mismatches"] == []
    plain = [op["digest"] for p in record["passes"] for op in p["ops"]]
    traced = [op["digest"] for p in record["traced_passes"] for op in p["ops"]]
    assert plain == traced and all(plain)
    assert result["metrics"]["trace_coverage"]["value"] >= 0.9


def test_same_seed_same_reports():
    _, first = smoke("waist", trace=0, seed=7)
    _, second = smoke("waist", trace=0, seed=7)
    digests = [[op["digest"] for op in p["ops"]] for p in first["passes"]]
    assert digests == [[op["digest"] for op in p["ops"]]
                       for p in second["passes"]]


def test_tracer_restores_the_program():
    from waistlab import cone, norms
    original = norms.norm_eval
    op = workloads.build("waist", scale=0.01)[2]
    plain = op.check(op.call(5)).digest
    t = tracer.Tracer()
    with t.installed():
        assert cone.norm_eval is not original
        traced = op.check(op.call(5)).digest
    assert norms.norm_eval is original and cone.norm_eval is original
    assert plain == traced
    names = {s[tracer.NAME] for s in t.spans}
    assert {"cli.run_experiment", "cone.best_fiber",
            "cone.min_norm_distance", "norms.norm_eval"} <= names


def _midpoint(fn, a, b, panels=2_000_000):
    h = (b - a) / panels
    return float(np.sum(fn(a + (np.arange(panels) + 0.5) * h)) * h)


@pytest.mark.parametrize("n,k,eps", [(2, 1, 0.5), (5, 2, 1.1), (4, 3, 0.3),
                                     (10, 8, 0.1), (1000, 8, 1.7)])
def test_bound_oracle_matches_direct_quadrature(n, k, eps):
    # The oracle's incomplete-beta form against the defining integrals,
    # evaluated by a midpoint rule fine enough for 1e-9 relative accuracy.
    s = 2.0 * math.sqrt(k + 1.0)
    near = 2.0 * math.asin(eps / 2.0 / (2.0 * s))
    far = 2.0 * math.asin(eps / 2.0 / s)
    sin_pow = lambda t: np.sin(t) ** (k - 1)
    F = _midpoint(sin_pow, far, math.pi)
    G = _midpoint(sin_pow, 0.0, near)
    delta = 1.0 - math.sqrt(1.0 - (eps / 2.0) ** 2 / 4.0)
    expected = 1.0 / (1.0 + (1.0 - 2.0 * delta) ** (n - k)
                      * (k + 1.0) ** (k + 1.0) * F / G)
    assert workloads.oracle_waist(n, k, eps) == pytest.approx(expected,
                                                              rel=1e-9)


def test_op_seeds_are_deterministic_and_distinct():
    seeds = {workloads.op_seed(3, p, i) for p in range(4) for i in range(80)}
    assert len(seeds) == 320
    assert workloads.op_seed(3, 1, 2) == workloads.op_seed(3, 1, 2)


def test_exits_nonzero_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    code, out, _ = bench("--workload", "waist", "--seed", "1",
                         "--seconds", "1", "--trace", "0", cwd=tmp_path,
                         script=tmp_path / "perfbench" / "run.py")
    assert code != 0
    assert '"correct"' not in out
