"""The benchmark's workloads: the operations one pass issues, the check each
result must pass, and the statistics the end-to-end metrics are built from.

An operation is one call to a public entry point of waistlab:
``cli.run_experiment`` followed by ``cli.emit_report``, or
``bounds.bound_table``, ``bounds.ratio_loglog_slope``,
``needles.needle_suite`` or ``needles.derived_density_estimate``.
Every call goes through the module attribute (``cli.run_experiment``, not a
name imported here), so the tracer's wrappers see it.

Configurations are fixed per workload, so every pass does the same amount
of work; the workload seed only chooses the random streams. See README.md
for why each workload exists.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np
from scipy import special

from waistlab import bounds, cli, needles, norms

# Thresholds of the per-operation correctness checks.
ROUND_ORACLE_SIGMA_MAX = 3.5
LUNE_L1_MAX = 0.02
SLOPE_TOL = 0.1

# Bound sweep of the lemma-chain workload.
SWEEP_N = (2, 3, 4, 5, 6, 7, 8, 9, 10, 50, 100, 1000)
SWEEP_K_MAX = 8
SWEEP_EPS = tuple(round(0.1 * i, 1) for i in range(1, 21))
SLOPE_PAIRS = ((1, 2), (1, 3), (2, 3))
SLOPE_N = 5
SLOPE_POINTS = 25  # ratio_loglog_slope's default grid size

LUNE_HALF_ANGLES = (0.2, 0.1, 0.05)
# Smallest budget at which lune_l1 sits clearly below LUNE_L1_MAX: the
# binned noise floor is about 0.8 sqrt(bins / accepted) = 0.013 here.
LUNE_DRAWS = 10_000_000

REG_NORM = "reg:lp:1.5:3:w=0.05:d=0.01"


@dataclass
class Outcome:
    """What the benchmark keeps of one operation's result."""

    digest: str
    failures: list[str] = field(default_factory=list)
    stats: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Op:
    """One operation: ``call(seed)`` is timed, ``check(result)`` is not."""

    label: str
    budget: dict
    call: Callable[[int], Any]
    check: Callable[[Any], Outcome]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, default=_jsonable)


def op_seed(seed: int, pass_index: int, op_index: int) -> int:
    """Seed of one operation, derived from the workload seed alone."""
    ss = np.random.SeedSequence(entropy=int(seed),
                                spawn_key=(int(pass_index), int(op_index)))
    return int(ss.generate_state(1)[0])


# ---------------------------------------------------------------------------
# Experiments through the CLI entry points
# ---------------------------------------------------------------------------

def _norm_kind(norm: str) -> str:
    head = norm.split(":", 1)[0]
    return "regularized" if head == "reg" else head


def experiment(command: str, **config) -> Op:
    def call(seed: int):
        report = cli.run_experiment(
            cli.ExperimentConfig(command=command, seed=seed, **config))
        return report, cli.emit_report(report, None, "json")

    def check(result) -> Outcome:
        report, payload = result
        res = report.results
        cfg = report.config
        out = Outcome(digest=sha256(payload))
        if report.status != "pass":
            out.failures.append(f"status {report.status}")
        bound = res["bound"]["value"]
        if command == "verify-waist":
            est = res["estimate"]
            out.stats["margin_sigma"] = res["margin_sigmas"]
            out.stats["mc_points"] = cfg["samples"] * len(res["grid_estimates"])
            if cfg["norm"] == "euclidean:3" and cfg["k"] == 1:
                # The tube around the equator is a band of measure
                # eps sqrt(1 - eps^2/4) (Archimedes).
                eps = cfg["eps"]
                band = eps * math.sqrt(1.0 - eps * eps / 4.0)
                sigma = abs(est["mean"] - band) / est["std_error"]
                out.stats["round_oracle_sigma"] = sigma
                if sigma > ROUND_ORACLE_SIGMA_MAX:
                    out.failures.append(
                        f"round_oracle_sigma {sigma:.2f} > "
                        f"{ROUND_ORACLE_SIGMA_MAX}")
        else:
            se = max(res["neighborhood_A"]["std_error"],
                     res["neighborhood_Ac"]["std_error"], 1e-300)
            out.stats["margin_sigma"] = (res["max_neighborhood"] - bound) / se
            out.stats["mc_points"] = 2 * cfg["samples"]
        out.stats["norm_kind"] = _norm_kind(cfg["norm"])
        out.stats["report_bytes"] = len(payload)
        return out

    label = f"{command} {config['norm']}"
    if config.get("k", 1) != 1:
        label += f" k={config['k']}"
    return Op(label=label, budget=dict(command=command, **config),
              call=call, check=check)


# ---------------------------------------------------------------------------
# Lemma chain: bounds, needles, lune reconstruction
# ---------------------------------------------------------------------------

def oracle_waist(n: int, k: int, eps: float) -> float:
    """w(eps) for the round sphere, with the sine masses taken from the
    regularized incomplete beta function (DLMF 8.17) instead of quadrature:
    for r <= pi/2, int_0^r sin^a = B((a+1)/2, 1/2) I_{sin^2 r}((a+1)/2, 1/2) / 2
    and int_0^pi sin^a = B((a+1)/2, 1/2)."""
    half = eps / 2.0
    delta = 1.0 - math.sqrt(1.0 - half * half / 4.0)
    s = 2.0 * math.sqrt(k + 1.0)
    near = 2.0 * math.asin(half / (2.0 * s))
    far = 2.0 * math.asin(half / s)
    a = k / 2.0  # (m + 1) / 2 with m = k - 1
    full = special.beta(a, 0.5)
    G = 0.5 * full * special.betainc(a, 0.5, math.sin(near) ** 2)
    F = full - 0.5 * full * special.betainc(a, 0.5, math.sin(far) ** 2)
    shrink = max(0.0, 1.0 - 2.0 * delta) ** (n - k)
    return 1.0 / (1.0 + shrink * (k + 1.0) ** (k + 1.0) * F / G)


def bound_table_op(n: int, k: int) -> Op:
    def call(seed: int):
        return bounds.bound_table(n, k, SWEEP_EPS,
                                  norms.euclidean_modulus_curve())

    def check(rows) -> Outcome:
        out = Outcome(digest=sha256(canonical_json(rows)))
        worst = 0.0
        for row in rows:
            if not 0.0 <= row["w"] <= 1.0:
                out.failures.append(f"w={row['w']} outside [0, 1] at "
                                    f"n={n} k={k} eps={row['eps']}")
            exact = oracle_waist(n, k, row["eps"])
            worst = max(worst, abs(row["w"] - exact) / exact)
        out.stats["bound_evals"] = len(rows)
        out.stats["bound_rel_err"] = worst
        return out

    return Op(label=f"bound_table n={n} k={k}",
              budget={"n": n, "k": k, "eps": list(SWEEP_EPS)},
              call=call, check=check)


def slope_op(l: int, k: int) -> Op:
    def call(seed: int):
        return bounds.ratio_loglog_slope(SLOPE_N, l, k,
                                         norms.euclidean_modulus_curve())

    def check(slope) -> Outcome:
        out = Outcome(digest=sha256(repr(slope)))
        if abs(slope - (l - k)) > SLOPE_TOL:
            out.failures.append(f"slope {slope:.4f} vs {l - k}")
        out.stats["bound_evals"] = 2 * SLOPE_POINTS
        return out

    return Op(label=f"ratio_loglog_slope {l}/{k}",
              budget={"n": SLOPE_N, "l": l, "k": k, "points": SLOPE_POINTS},
              call=call, check=check)


def needle_op(trials: int) -> Op:
    def call(seed: int):
        return needles.needle_suite(trials, seed, n_range=(2, 8))

    def check(reports) -> Outcome:
        out = Outcome(digest=sha256(canonical_json(reports)))
        for rep in reports:
            if rep["violations"]:
                out.failures.append(
                    f"{rep['lemma']}: {rep['violations']} violations")
        out.stats["needle_trials"] = trials
        return out

    return Op(label="needle_suite", budget={"trials": trials, "n": [2, 8]},
              call=call, check=check)


def lune_op() -> Op:
    def call(seed: int):
        specs = [needles.lune_spec(a) for a in LUNE_HALF_ANGLES]
        return needles.derived_density_estimate(specs, LUNE_DRAWS, seed)

    def check(result) -> Outcome:
        _, diag = result
        out = Outcome(digest=sha256(canonical_json(dataclasses.asdict(diag))))
        out.stats["lune_l1"] = diag.l1_vs_limit
        if diag.l1_vs_limit > LUNE_L1_MAX:
            out.failures.append(
                f"lune_l1 {diag.l1_vs_limit:.4f} > {LUNE_L1_MAX}")
        return out

    return Op(label="derived_density_estimate",
              budget={"half_angles": list(LUNE_HALF_ANGLES),
                      "draws_per_lune": LUNE_DRAWS},
              call=call, check=check)


# ---------------------------------------------------------------------------
# The workloads
# ---------------------------------------------------------------------------

def _scaled(value: int, scale: float, floor: int) -> int:
    return max(floor, int(round(value * scale)))


def build(workload: str, scale: float = 1.0) -> list[Op]:
    """Operations of one pass. ``scale`` shrinks the Monte Carlo budgets
    for smoke tests; the lune budget and the bound sweep stay fixed because
    their checks need them."""
    def mc(samples: int, fibers: int) -> dict:
        return {"samples": _scaled(samples, scale, 500),
                "fiber_points": _scaled(fibers, scale, 100)}

    if workload == "waist":
        return [
            experiment("verify-waist", norm="euclidean:3", k=1, eps=0.5,
                       z_grid="-0.8:0.8:0.1", **mc(100_000, 2_000)),
            experiment("verify-waist", norm="lp:1.5:5", k=1, eps=0.5,
                       z_grid="-0.6:0.6:0.2", **mc(20_000, 2_000)),
            experiment("verify-waist", norm="lp:4:3", k=1, eps=0.3,
                       z_grid="-0.6:0.6:0.2", **mc(100_000, 2_000)),
            experiment("verify-waist", norm="euclidean:4", k=2, eps=0.5,
                       z_grid="-0.4:0.4:0.2", **mc(50_000, 2_000)),
            experiment("verify-iso", norm="lp:4:3", k=1, eps=0.3,
                       **mc(200_000, 5_000)),
        ]
    if workload == "regularized":
        # budget is the modulus-curve search budget; 3000 is its floor.
        return [
            experiment("verify-iso", norm=REG_NORM, k=1, eps=0.5,
                       budget=3_000, **mc(2_000, 500)),
            experiment("verify-waist", norm=REG_NORM, k=1, eps=0.5,
                       z_grid="-0.4:0.4:0.4", budget=3_000, **mc(2_000, 300)),
        ]
    if workload == "lemma-chain":
        ops = [needle_op(_scaled(3_000, scale, 50))]
        ops += [bound_table_op(n, k) for n in SWEEP_N
                for k in range(1, min(SWEEP_K_MAX, n) + 1)]
        ops += [slope_op(l, k) for l, k in SLOPE_PAIRS]
        ops.append(lune_op())
        return ops
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("waist", "regularized", "lemma-chain")
