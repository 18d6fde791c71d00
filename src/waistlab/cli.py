"""Experiment runner: bound tables, waist/isoperimetry verification, and the
needle property suite, with reproducible seeded configs and JSON/CSV reports.

Exit codes: 0 all assertions passed, 1 a mathematical assertion failed,
2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import __version__
from .bounds import (
    F_UPPER_HALF_PI,
    F_UPPER_PI,
    BoundInputs,
    bound_table,
    gromov_milman_bound,
    projection_lower_bound,
    ratio_loglog_slope,
    round_sphere_reference,
    table_to_csv,
    waist_lower_bound,
)
from .cone import (
    best_fiber,
    neighborhood_measure,
    sample_conical,
)
from .needles import needle_suite
from .norms import (
    NormDescriptor,
    analytic_modulus_curve,
    modulus_of_convexity,
    numeric_modulus_curve,
    parse_norm,
)

__all__ = ["ExperimentConfig", "Report", "ConfigError", "run_experiment",
           "emit_report", "main", "console_entry"]

_COMMANDS = ("bound", "modulus", "verify-waist", "verify-iso", "needle-suite",
             "compare")


class ConfigError(ValueError):
    """Invalid configuration; maps to exit code 2."""


@dataclass
class ExperimentConfig:
    """A fully reproducible experiment description.

    Round-trips through JSON; every numeric range is validated before the
    experiment dispatches.
    """

    command: str
    norm: str = "euclidean:3"
    n: Optional[int] = None
    k: int = 1
    eps: Optional[float] = None
    eps_grid: Optional[str] = None  # "lo:hi:step"
    samples: int = 1_000_000
    fiber_points: int = 10_000
    z_grid: str = "-0.8:0.8:0.1"    # per coordinate
    seed: int = 0
    f_upper: str = F_UPPER_PI
    cap_mass: float = 0.5
    trials: int = 1000
    budget: int = 100_000
    method: str = "auto"
    out: Optional[str] = None
    format: str = "json"

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        fields = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - fields
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)

    def validate(self) -> "ExperimentConfig":
        if self.command not in _COMMANDS:
            raise ConfigError(f"unknown command {self.command!r}")
        try:
            descriptor = parse_norm(self.norm)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.command == "needle-suite":
            # here n is the top of the needle dimension range, not tied to
            # a particular norm
            if self.n is not None and self.n < 2:
                raise ConfigError("needle-suite requires n >= 2")
        else:
            n = self.n if self.n is not None else descriptor.sphere_dim
            if n != descriptor.sphere_dim:
                raise ConfigError(
                    f"n={n} inconsistent with norm dimension {descriptor.dim} "
                    f"(sphere dimension {descriptor.sphere_dim})")
            if not (1 <= self.k <= n):
                raise ConfigError(f"need 1 <= k <= n, got k={self.k}, n={n}")
        if self.eps is not None and not (0.0 < self.eps <= 2.0):
            raise ConfigError(f"eps must lie in (0, 2], got {self.eps}")
        if self.eps is None and self.command in ("verify-waist", "verify-iso"):
            raise ConfigError(f"{self.command} requires --eps")
        if self.eps is None and self.eps_grid is None and self.command != "needle-suite":
            raise ConfigError("provide --eps or --eps-grid")
        if self.samples < 1 or self.fiber_points < 1 or self.trials < 1:
            raise ConfigError("budgets must be positive")
        if self.f_upper not in (F_UPPER_PI, F_UPPER_HALF_PI):
            raise ConfigError(f"--f-upper must be pi or halfpi, got {self.f_upper}")
        if not (0.0 < self.cap_mass < 1.0):
            raise ConfigError("cap-mass must lie in (0, 1)")
        if self.format not in ("json", "csv"):
            raise ConfigError(f"format must be json or csv, got {self.format}")
        if self.eps_grid is not None:
            _parse_grid(self.eps_grid)
        _parse_grid(self.z_grid)
        return self


@dataclass
class Report:
    """Everything needed to reproduce and audit one experiment run."""

    config: dict
    results: dict
    status: str  # "pass" | "fail" | "report"
    version: str = __version__
    wall_time: float = 0.0

    def to_dict(self, include_volatile: bool = False) -> dict:
        out = {"config": self.config, "results": self.results,
               "status": self.status, "version": self.version}
        if include_volatile:
            out["wall_time"] = self.wall_time
        return out


def _parse_grid(spec: str) -> np.ndarray:
    try:
        lo, hi, step = (float(tok) for tok in spec.split(":"))
    except ValueError as exc:
        raise ConfigError(f"malformed grid {spec!r}; expected lo:hi:step") from exc
    if step <= 0 or hi < lo:
        raise ConfigError(f"malformed grid {spec!r}")
    return np.arange(lo, hi + step / 2.0, step)


def _modulus_for(norm: NormDescriptor, budget: int, seed: int):
    if norm.kind in ("euclidean", "lp"):
        return analytic_modulus_curve(norm)
    # Regularized norms pay a quadrature per evaluation; a coarse monotone
    # grid keeps the curve affordable inside full verification pipelines.
    return numeric_modulus_curve(norm, eps_grid=np.linspace(0.2, 1.8, 9),
                                 budget=budget, seed=seed)


def _coordinate_projection(dim: int, k: int) -> np.ndarray:
    # Last k coordinates.
    f = np.zeros((k, dim))
    for i in range(k):
        f[i, dim - k + i] = 1.0
    return f


def _z_product_grid(spec: str, k: int) -> list[np.ndarray]:
    axis = _parse_grid(spec)
    grids = np.meshgrid(*([axis] * k), indexing="ij")
    return [np.array(t) for t in zip(*(g.ravel() for g in grids))]


# ---------------------------------------------------------------------------
# Command implementations
# ---------------------------------------------------------------------------

def _run_bound(cfg: ExperimentConfig) -> Report:
    norm = parse_norm(cfg.norm)
    n = norm.sphere_dim
    modulus = _modulus_for(norm, cfg.budget, cfg.seed)
    eps_values = ([cfg.eps] if cfg.eps is not None
                  else [float(e) for e in _parse_grid(cfg.eps_grid)])
    entries = []
    for eps in eps_values:
        w = waist_lower_bound(BoundInputs(n=n, k=cfg.k, eps=eps,
                                          modulus=modulus, f_upper=cfg.f_upper))
        entries.append({
            "waist": w.to_dict(),
            "projection": projection_lower_bound(n, cfg.k, eps).to_dict(),
            "gromov_milman": gromov_milman_bound(n, eps, modulus).to_dict(),
            "round_sphere_reference": round_sphere_reference(n, cfg.k, eps).to_dict(),
        })
    return Report(config=cfg.to_dict(), results={"bounds": entries},
                  status="report")


def _run_modulus(cfg: ExperimentConfig) -> Report:
    norm = parse_norm(cfg.norm)
    eps_values = ([cfg.eps] if cfg.eps is not None
                  else [float(e) for e in _parse_grid(cfg.eps_grid)])
    rows = []
    for eps in eps_values:
        row = {"eps": eps}
        if cfg.method in ("auto", "analytic") and norm.kind != "regularized":
            row["analytic"] = modulus_of_convexity(norm, eps, method="analytic")
        if cfg.method in ("auto", "numeric"):
            row["numeric"] = modulus_of_convexity(
                norm, eps, method="numeric", budget=cfg.budget, seed=cfg.seed)
        rows.append(row)
    return Report(config=cfg.to_dict(), results={"modulus": rows},
                  status="report")


def _run_verify_waist(cfg: ExperimentConfig) -> Report:
    norm = parse_norm(cfg.norm)
    n = norm.sphere_dim
    modulus = _modulus_for(norm, cfg.budget, cfg.seed)
    bound = waist_lower_bound(BoundInputs(n=n, k=cfg.k, eps=cfg.eps,
                                          modulus=modulus, f_upper=cfg.f_upper))
    f = _coordinate_projection(norm.dim, cfg.k)
    z_grid = _z_product_grid(cfg.z_grid, cfg.k)
    z_star, estimate, all_estimates = best_fiber(
        norm, f, cfg.eps, z_grid, cfg.samples, cfg.fiber_points, cfg.seed)
    margin = estimate.mean - bound.value
    sigma = estimate.std_error if estimate.std_error > 0 else 1e-300
    passed = estimate.mean >= bound.value - 3.0 * estimate.std_error
    results = {
        "bound": bound.to_dict(),
        "z_star": [float(v) for v in np.atleast_1d(z_star)],
        "estimate": estimate.to_dict(),
        "margin": margin,
        "margin_sigmas": margin / sigma,
        "grid_estimates": [e.to_dict() for e in all_estimates],
        "assertion": "tube_measure >= waist_bound - 3*std_error",
    }
    return Report(config=cfg.to_dict(), results=results,
                  status="pass" if passed else "fail")


def _run_verify_iso(cfg: ExperimentConfig) -> Report:
    norm = parse_norm(cfg.norm)
    n = norm.sphere_dim
    modulus = _modulus_for(norm, cfg.budget, cfg.seed)
    bound = waist_lower_bound(BoundInputs(n=n, k=1, eps=cfg.eps,
                                          modulus=modulus, f_upper=cfg.f_upper))
    # Cap through a threshold on the last coordinate, calibrated so the cap
    # carries the requested cone mass.
    calib = sample_conical(norm, min(cfg.samples, 200_000), cfg.seed + 1)
    tau = float(np.quantile(calib.points[:, -1], 1.0 - cfg.cap_mass))
    cap = lambda pts: pts[:, -1] >= tau
    cap_c = lambda pts: pts[:, -1] < tau
    est_a = neighborhood_measure(norm, cap, cfg.eps, cfg.samples,
                                 cfg.fiber_points, cfg.seed)
    est_ac = neighborhood_measure(norm, cap_c, cfg.eps, cfg.samples,
                                  cfg.fiber_points, cfg.seed + 7)
    best = max(est_a.mean, est_ac.mean)
    sigma = max(est_a.std_error, est_ac.std_error, 1e-300)
    passed = best >= bound.value - 3.0 * sigma
    results = {
        "bound": bound.to_dict(),
        "cap_threshold": tau,
        "cap_mass_target": cfg.cap_mass,
        "neighborhood_A": est_a.to_dict(),
        "neighborhood_Ac": est_ac.to_dict(),
        "max_neighborhood": best,
        "assertion": "max(mu(A+eps), mu(A^c+eps)) >= waist_bound - 3*std_error",
    }
    return Report(config=cfg.to_dict(), results=results,
                  status="pass" if passed else "fail")


def _run_needle_suite(cfg: ExperimentConfig) -> Report:
    eps_choices = ((0.1, 0.2, 0.3, 0.4, 0.5, 0.6) if cfg.eps_grid is None
                   else tuple(float(e) for e in _parse_grid(cfg.eps_grid)))
    n_hi = cfg.n if cfg.n is not None else 8
    reports = needle_suite(cfg.trials, cfg.seed, n_range=(2, max(2, n_hi)),
                           eps_choices=eps_choices, f_upper=cfg.f_upper)
    ok = all(r["violations"] == 0 for r in reports)
    return Report(config=cfg.to_dict(), results={"lemma_reports": reports},
                  status="pass" if ok else "fail")


def _run_compare(cfg: ExperimentConfig) -> Report:
    norm = parse_norm(cfg.norm)
    n = norm.sphere_dim
    modulus = _modulus_for(norm, cfg.budget, cfg.seed)
    eps_values = (_parse_grid(cfg.eps_grid) if cfg.eps_grid is not None
                  else np.array([cfg.eps]))
    rows = bound_table(n, cfg.k, eps_values, modulus, f_upper=cfg.f_upper)
    slopes = {}
    for l, k in ((1, 2), (1, 3), (2, 3)):
        if k <= n:
            slopes[f"{l}/{k}"] = ratio_loglog_slope(n, l, k, modulus,
                                                    f_upper=cfg.f_upper)
    return Report(config=cfg.to_dict(),
                  results={"table": rows, "loglog_slopes": slopes},
                  status="report")


_RUNNERS = {
    "bound": _run_bound,
    "modulus": _run_modulus,
    "verify-waist": _run_verify_waist,
    "verify-iso": _run_verify_iso,
    "needle-suite": _run_needle_suite,
    "compare": _run_compare,
}


def run_experiment(config: ExperimentConfig) -> Report:
    """Validate and dispatch a config; the report is a pure function of the
    experiment parameters. Volatile or destination-only fields (wall time,
    output path) never enter the serialized payload, so identical runs emit
    byte-identical files."""
    config = config.validate()
    t0 = time.monotonic()
    report = _RUNNERS[config.command](config)
    report.wall_time = time.monotonic() - t0
    report.config = {key: val for key, val in report.config.items()
                     if key != "out"}
    return report


def emit_report(report: Report, path: Optional[str], fmt: str) -> str:
    """Serialize a report. Output is byte-stable for identical (config, seed):
    volatile fields such as wall time are excluded from the payload."""
    if fmt == "csv":
        if "table" in report.results:
            payload = table_to_csv(report.results["table"])
        elif "modulus" in report.results:
            rows = report.results["modulus"]
            cols = sorted({c for row in rows for c in row})
            lines = [",".join(cols)]
            for row in rows:
                lines.append(",".join(
                    format(row[c], ".17g") if c in row else "" for c in cols))
            payload = "\n".join(lines) + "\n"
        else:
            raise ConfigError(f"command {report.config.get('command')!r} has "
                              "no CSV form; use --format json")
    else:
        body = report.to_dict()
        if report.config.get("command") == "needle-suite":
            body = report.results["lemma_reports"]
        payload = json.dumps(body, indent=2, sort_keys=True) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(payload)
    return payload


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="waistlab",
        description="Waist and isoperimetric lower bounds for unit spheres "
                    "of uniformly convex normed spaces, with Monte Carlo "
                    "verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None,
                       help="JSON config file; explicit flags override it")
        p.add_argument("--norm", default=None,
                       help="norm string, e.g. euclidean:3, lp:4:3, "
                            "reg:lp:1.5:2:w=0.05:d=0.01")
        p.add_argument("--n", type=int, default=None)
        p.add_argument("--k", type=int, default=None)
        p.add_argument("--eps", type=float, default=None)
        p.add_argument("--eps-grid", dest="eps_grid", default=None,
                       metavar="LO:HI:STEP")
        p.add_argument("--samples", type=_int_like, default=None)
        p.add_argument("--fiber-points", dest="fiber_points", type=_int_like,
                       default=None)
        p.add_argument("--z-grid", dest="z_grid", default=None,
                       metavar="LO:HI:STEP")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--f-upper", dest="f_upper",
                       choices=[F_UPPER_PI, F_UPPER_HALF_PI], default=None)
        p.add_argument("--cap-mass", dest="cap_mass", type=float, default=None)
        p.add_argument("--trials", type=_int_like, default=None)
        p.add_argument("--budget", type=_int_like, default=None)
        p.add_argument("--method", choices=["auto", "analytic", "numeric"],
                       default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--format", choices=["json", "csv"], default=None)
    return parser


def _int_like(text: str) -> int:
    # Accept scientific notation such as 1e6 for budgets.
    return int(float(text))


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    data = {"command": args.command}
    if args.config:
        with open(args.config) as fh:
            file_data = json.load(fh)
        file_data.pop("command", None)
        data.update(file_data)
    for key in ("norm", "n", "k", "eps", "eps_grid", "samples", "fiber_points",
                "z_grid", "seed", "f_upper", "cap_mass", "trials", "budget",
                "method", "out", "format"):
        value = getattr(args, key)
        if value is not None:
            data[key] = value
    return ExperimentConfig.from_dict(data)


def _merge_grid_flags(argv: list[str]) -> list[str]:
    # Grid specs may start with a minus sign (e.g. -0.8:0.8:0.1), which
    # argparse would read as an option; fold them into --flag=value form.
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in ("--z-grid", "--eps-grid") and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    argv = _merge_grid_flags(list(argv))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        config = _config_from_args(args).validate()
    except (ConfigError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        report = run_experiment(config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    payload = emit_report(report, config.out, config.format)
    if not config.out:
        sys.stdout.write(payload)
    if report.status in ("pass", "fail"):
        print(f"{report.status.upper()} ({report.wall_time:.2f}s)",
              file=sys.stderr)
    return 0 if report.status in ("pass", "report") else 1


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
