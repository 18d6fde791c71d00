"""Experiment runner: bound tables, waist/isoperimetry verification, and the
needle property suite, with reproducible seeded configs and JSON/CSV reports.

Exit codes: 0 all assertions passed, 1 a mathematical assertion failed,
2 usage or configuration error, 3 an internal error (any other exception,
reported on one ``error: internal: <type>: <message>`` line).
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import math
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Optional, get_args, get_type_hints

import numpy as np

from . import __version__
from .bounds import (
    F_UPPER_HALF_PI,
    F_UPPER_PI,
    BoundInputs,
    _waist_values,
    bound_table,
    gromov_milman_bound,
    projection_lower_bound,
    ratio_loglog_slope,
    round_sphere_reference,
    waist_lower_bound,
)
from .cone import (
    EmptyFiberError,
    MeasureEstimate,
    best_fiber,
    fiber_distance_method,
)
from .needles import SUITE_MAX_N, SUITE_MIN_EPS, needle_suite
from .norms import analytic_modulus_curve, numeric_modulus, parse_norm

__all__ = ["ExperimentConfig", "Report", "ConfigError", "run_experiment",
           "emit_report", "main", "console_entry"]

# The config fields each command reads. This table alone decides a
# command's flags, the keys its --config file may hold and the fields its
# report echoes (``command`` and all of these but ``out``).
_READS = {
    "bound": ("norm", "k", "eps", "eps_grid", "f_upper", "out"),
    "modulus": ("norm", "eps", "eps_grid", "budget", "method", "seed", "out",
                "format"),
    "verify-waist": ("norm", "k", "eps", "z_grid", "samples", "fiber_points",
                     "seed", "f_upper", "out"),
    "verify-iso": ("norm", "eps", "samples", "fiber_points", "seed",
                   "f_upper", "out"),
    "needle-suite": ("n", "eps", "eps_grid", "trials", "seed", "f_upper",
                     "out"),
    "compare": ("norm", "k", "eps", "eps_grid", "f_upper", "out", "format"),
}
# Upper limit on the points of an --eps-grid or --z-grid axis, and of the
# verify-waist z grid (the k-fold product of its axis).
_MAX_GRID_POINTS = 10_000


class ConfigError(ValueError):
    """Invalid configuration; maps to exit code 2."""


@dataclass
class ExperimentConfig:
    """A fully reproducible experiment description.

    Round-trips through JSON. The fields are those of every command;
    ``_READS`` names the ones each command reads, which are its flags
    (``eps_grid`` is ``--eps-grid``) and the only ones validated before it
    dispatches. The others are ignored. A field's metadata holds extra
    argparse keywords for its flag.
    """

    command: str
    norm: str = field(default="euclidean:3", metadata={
        "help": "norm string, e.g. euclidean:3, lp:4:3, "
                "reg:lp:1.5:2:w=0.05:d=0.01"})
    n: Optional[int] = None
    k: int = 1
    eps: Optional[float] = None
    eps_grid: Optional[str] = field(default=None,
                                    metadata={"metavar": "LO:HI:STEP"})
    samples: int = 1_000_000
    fiber_points: int = 10_000
    z_grid: str = field(default="-0.8:0.8:0.1", metadata={
        "metavar": "LO:HI:STEP", "help": "grid of each coordinate of z"})
    seed: int = 0
    f_upper: str = F_UPPER_PI
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
        hints = get_type_hints(cls)
        for key, value in data.items():
            types = get_args(hints[key]) or (hints[key],)
            accepted = types + (int,) if float in types else types
            # bool is an int subclass, but no field takes true/false
            if isinstance(value, bool) or not isinstance(value, accepted):
                names = " or ".join("null" if t is type(None) else t.__name__
                                    for t in types)
                raise ConfigError(
                    f"config key {key!r} must be {names}, got {value!r}")
        return cls(**data)

    def validate(self) -> "ExperimentConfig":
        if self.command not in _READS:
            raise ConfigError(f"unknown command {self.command!r}")
        reads = _READS[self.command]
        if "norm" in reads:
            try:
                n = parse_norm(self.norm).sphere_dim
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc
            if "k" in reads and not 1 <= self.k <= n:
                raise ConfigError(f"need 1 <= k <= n, got k={self.k}, n={n}")
            if n < 2 and self.command in ("bound", "compare"):
                # the Gromov-Milman bound both commands report needs n >= 2
                raise ConfigError(
                    f"{self.command} requires sphere dimension >= 2, got "
                    f"{self.norm} (sphere dimension {n})")
        if "n" in reads and self.n is not None and \
                not 2 <= self.n <= SUITE_MAX_N:
            # the top of the needle dimension range
            raise ConfigError(
                f"needle-suite requires 2 <= n <= {SUITE_MAX_N}, got "
                f"n={self.n}")
        if self.eps is not None and not (0.0 < self.eps <= 2.0):
            raise ConfigError(f"eps must lie in (0, 2], got {self.eps}")
        if self.eps is None and "eps_grid" not in reads:
            raise ConfigError(f"{self.command} requires --eps")
        if self.eps is None and self.eps_grid is None and self.command != "needle-suite":
            raise ConfigError("provide --eps or --eps-grid")
        budgets = [getattr(self, name) for name in
                   ("samples", "fiber_points", "trials", "budget")
                   if name in reads]
        if min(budgets, default=1) < 1:
            raise ConfigError("budgets must be positive")
        if "seed" in reads and self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if "f_upper" in reads and self.f_upper not in (F_UPPER_PI,
                                                       F_UPPER_HALF_PI):
            raise ConfigError(f"--f-upper must be pi or halfpi, got {self.f_upper}")
        if "method" in reads and self.method not in ("auto", "analytic",
                                                     "numeric"):
            raise ConfigError(
                f"method must be auto, analytic or numeric, got {self.method}")
        if "format" in reads and self.format not in ("json", "csv"):
            raise ConfigError(f"format must be json or csv, got {self.format}")
        if "eps_grid" in reads and self.eps_grid is not None:
            grid = _parse_grid(self.eps_grid)
            if not np.all((grid > 0.0) & (grid <= 2.0)):
                raise ConfigError(
                    f"every --eps-grid value must lie in (0, 2], got "
                    f"{self.eps_grid!r}")
        if self.command == "needle-suite" and (self.eps, self.eps_grid) != \
                (None, None) and min(_eps_values(self)) < SUITE_MIN_EPS:
            raise ConfigError(
                f"needle-suite requires eps >= {SUITE_MIN_EPS:.6g}, got "
                f"{min(_eps_values(self)):g}")
        if "z_grid" in reads:
            # The z grid is the k-fold product of the axis. Once the axis
            # has two points, an exponent past the limit's bit length
            # exceeds the limit, so the power stays small.
            axis = _parse_grid(self.z_grid)
            fibers = axis.size ** min(self.k, _MAX_GRID_POINTS.bit_length())
            if fibers > _MAX_GRID_POINTS:
                raise ConfigError(
                    f"z grid {self.z_grid!r} with k={self.k} has "
                    f"{axis.size}^{self.k} points, more than "
                    f"{_MAX_GRID_POINTS}")
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
    """The points lo + i step <= hi of a ``lo:hi:step`` spec, spaced as
    np.arange spaces them. The step count has a relative slack of 1e-9, so
    a last point that rounding puts just past hi stays (0.1:1.9:0.6 ends
    at 1.9)."""
    try:
        lo, hi, step = (float(tok) for tok in spec.split(":"))
    except ValueError as exc:
        raise ConfigError(f"malformed grid {spec!r}; expected lo:hi:step") from exc
    if not np.isfinite([lo, hi, step]).all() or step <= 0 or hi < lo:
        raise ConfigError(f"malformed grid {spec!r}")
    # floor(steps) + 1 points; count them before allocating
    steps = (hi - lo) / step * (1.0 + 1e-9)
    if not steps < _MAX_GRID_POINTS:
        raise ConfigError(
            f"grid {spec!r} has more than {_MAX_GRID_POINTS} points")
    return np.arange(lo, hi + step / 2.0, step)[:math.floor(steps) + 1]


def _eps_values(cfg: ExperimentConfig) -> list[float]:
    """The eps values of a run: --eps, else the points of --eps-grid."""
    if cfg.eps is not None:
        return [cfg.eps]
    return [float(e) for e in _parse_grid(cfg.eps_grid)]


def _coordinate_projection(dim: int, k: int) -> np.ndarray:
    # Last k coordinates.
    f = np.zeros((k, dim))
    for i in range(k):
        f[i, dim - k + i] = 1.0
    return f


def _z_product_grid(spec: str, k: int) -> list[np.ndarray]:
    # The k-fold product of the axis, last coordinate fastest; an ndarray
    # of k axes would limit k to numpy's 64 dimensions.
    return [np.array(t)
            for t in itertools.product(_parse_grid(spec), repeat=k)]


# ---------------------------------------------------------------------------
# Command implementations
# ---------------------------------------------------------------------------

def _run_bound(cfg: ExperimentConfig) -> tuple[dict, str]:
    norm = parse_norm(cfg.norm)
    n = norm.sphere_dim
    eps_values = _eps_values(cfg)
    modulus = analytic_modulus_curve(norm)
    waists = _waist_values(n, cfg.k, eps_values, modulus, cfg.f_upper)
    entries = []
    for eps, w in zip(eps_values, waists):
        entries.append({
            "waist": w.to_dict(),
            "projection": projection_lower_bound(n, cfg.k, eps).to_dict(),
            "gromov_milman": gromov_milman_bound(n, eps, modulus).to_dict(),
            "round_sphere_reference": round_sphere_reference(n, cfg.k, eps).to_dict(),
        })
    return {"bounds": entries}, "report"


def _run_modulus(cfg: ExperimentConfig) -> tuple[dict, str]:
    norm = parse_norm(cfg.norm)
    eps_values = _eps_values(cfg)
    # One section search covers the whole grid; each value equals the
    # search at its eps alone.
    numeric = (numeric_modulus(norm, eps_values, cfg.budget, cfg.seed)
               if cfg.method in ("auto", "numeric") else None)
    analytic = analytic_modulus_curve(norm)
    rows = []
    for i, eps in enumerate(eps_values):
        row = {"eps": eps}
        if cfg.method in ("auto", "analytic"):
            row["analytic"] = analytic(eps)
        if numeric is not None:
            row["numeric"] = float(numeric[i])
        rows.append(row)
    return {"modulus": rows}, "report"


def _tube_check(cfg: ExperimentConfig, k: int, z_grid, measure) -> tuple:
    """The steps both verify commands share. ``best_fiber`` estimates the
    eps-tube about the fibers of the last-k coordinate map over ``z_grid``,
    ``measure`` turns the best tube estimate into the estimate the command
    asserts on, and the pass rule holds that estimate to the waist bound w
    at (n, k, eps): estimate >= w - 3 std_error.

    Returns (results, status, estimate, best): the ``bound`` and
    ``fiber_distance`` entries of the report, "pass" or "fail", the
    asserted estimate and ``best_fiber``'s (z*, tube, grid estimates)."""
    norm = parse_norm(cfg.norm)
    bound = waist_lower_bound(BoundInputs(
        n=norm.sphere_dim, k=k, eps=cfg.eps,
        modulus=analytic_modulus_curve(norm), f_upper=cfg.f_upper))
    f = _coordinate_projection(norm.dim, k)
    best = best_fiber(norm, f, cfg.eps, z_grid, cfg.samples,
                      cfg.fiber_points, cfg.seed)
    estimate = measure(best[1])
    passed = estimate.mean >= bound.value - 3.0 * estimate.std_error
    results = {"bound": bound.to_dict(),
               "fiber_distance": fiber_distance_method(norm, f)}
    return results, "pass" if passed else "fail", estimate, best


def _run_verify_waist(cfg: ExperimentConfig) -> tuple[dict, str]:
    try:
        results, status, estimate, (z_star, _, all_estimates) = _tube_check(
            cfg, cfg.k, _z_product_grid(cfg.z_grid, cfg.k), lambda tube: tube)
    except EmptyFiberError as exc:
        raise ConfigError(
            f"every point of --z-grid {cfg.z_grid} has an empty fiber on "
            f"{cfg.norm}: the slice misses the open unit ball") from exc
    margin = estimate.mean - results["bound"]["value"]
    sigma = estimate.std_error if estimate.std_error > 0 else 1e-300
    results.update({
        "z_star": [float(v) for v in np.atleast_1d(z_star)],
        "estimate": estimate.to_dict(),
        "margin": margin,
        "margin_sigmas": margin / sigma,
        "grid_estimates": [e.to_dict() for e in all_estimates],
        "assertion": "tube_measure >= waist_bound - 3*std_error",
    })
    return results, status


def _run_verify_iso(cfg: ExperimentConfig) -> tuple[dict, str]:
    """Check max(mu(A_eps), mu(A^c_eps)) >= w for the half-mass cap
    A = {x_last >= 0}, with both neighborhoods read off one tube estimate.

    For y outside A, in any norm, some nearest point of A lies on the
    boundary fiber F = {x_last = 0}. Let a in A be nearest to y; as
    y_last < 0 <= a_last, a != y. The unit sphere meets span(y, a) (any
    plane through y if a = -y) in the unit circle of that normed plane, and
    a lies on a half circle from y to -y. On the arc of that half circle
    from y to a, the last coordinate goes from below 0 to at least 0, so it
    crosses 0 at some x. By the monotonicity lemma (Martini, Swanepoel and
    Weiss, Expo. Math. 19, 2001), ||y - x|| does not decrease as x runs
    along a half circle from y to -y, so ||y - x|| <= ||y - a|| and x is
    nearest too. The same holds for the complement. So
    A_eps = A u (T_eps n A^c), T_eps the eps-tube about F.

    Every norm kind is invariant under S: x_last -> -x_last (for ``reg:*``
    the base norm is, and so are the mollifier's product Gauss-Legendre
    nodes and weights), so the cone measure is too and mu(A) = 1/2 exactly.
    S maps T_eps onto itself and swaps the two open halves, so
    mu(A_eps) = mu(A^c_eps) = (1 + mu(T_eps)) / 2. ``best_fiber`` measures
    the tube at z = 0, unbiased where its distance is exact and
    conservative on a fiber cloud; the halved estimate has a quarter of
    the tube estimate's variance.
    A cap of any other mass c gives no stronger check, as
    max(mu(A_eps), mu(A^c_eps)) >= max(c, 1 - c) >= 1/2.
    """
    results, status, est, _ = _tube_check(
        cfg, 1, [[0.0]], lambda tube: MeasureEstimate(
            mean=(1.0 + tube.mean) / 2.0, std_error=tube.std_error / 2.0,
            count=tube.count, seed=tube.seed))
    results.update({
        "neighborhood_A": est.to_dict(),
        "neighborhood_Ac": est.to_dict(),
        "max_neighborhood": est.mean,
        "assertion": "max(mu(A+eps), mu(A^c+eps)) >= waist_bound - "
                     "3*std_error, A = {x_last >= 0}",
    })
    return results, status


def _run_needle_suite(cfg: ExperimentConfig) -> tuple[dict, str]:
    # Without --eps or --eps-grid the suite draws from its own default eps.
    given = ({} if cfg.eps is None and cfg.eps_grid is None
             else {"eps_choices": _eps_values(cfg)})
    n_hi = cfg.n if cfg.n is not None else 8
    reports = needle_suite(cfg.trials, cfg.seed, n_range=(2, n_hi),
                           f_upper=cfg.f_upper, **given)
    ok = all(r["violations"] == 0 for r in reports)
    return {"lemma_reports": reports}, "pass" if ok else "fail"


def _run_compare(cfg: ExperimentConfig) -> tuple[dict, str]:
    norm = parse_norm(cfg.norm)
    n = norm.sphere_dim
    eps_values = _eps_values(cfg)
    modulus = analytic_modulus_curve(norm)
    rows = bound_table(n, cfg.k, eps_values, modulus, f_upper=cfg.f_upper)
    slopes = {}
    for l, k in ((1, 2), (1, 3), (2, 3)):
        if k <= n:
            slopes[f"{l}/{k}"] = ratio_loglog_slope(n, l, k, modulus,
                                                    f_upper=cfg.f_upper)
    return {"table": rows, "loglog_slopes": slopes}, "report"


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
    experiment parameters. It echoes the command and the fields the command
    reads, but neither volatile nor destination-only fields (wall time,
    output path), so identical runs emit byte-identical files."""
    config = config.validate()
    t0 = time.monotonic()
    results, status = _RUNNERS[config.command](config)
    echo = {"command": config.command}
    echo.update((key, getattr(config, key))
                for key in _READS[config.command] if key != "out")
    return Report(config=echo, results=results, status=status,
                  wall_time=time.monotonic() - t0)


def _csv(rows: list[dict], columns: list[str]) -> str:
    """A header line of ``columns``, then one line per row: "" for a
    missing cell, a float to 17 significant digits, anything else as
    str."""
    def cell(row, col):
        if col not in row:
            return ""
        v = row[col]
        return format(v, ".17g") if isinstance(v, float) else str(v)
    lines = [",".join(columns)]
    lines += [",".join(cell(row, c) for c in columns) for row in rows]
    return "\n".join(lines) + "\n"


def emit_report(report: Report, path: Optional[str], fmt: str) -> str:
    """Serialize a report. Output is byte-stable for identical (config, seed):
    volatile fields such as wall time are excluded from the payload."""
    if fmt == "csv":
        if "table" in report.results:
            # bound_table's columns, in its row order
            rows = report.results["table"]
            payload = _csv(rows, list(rows[0]))
        elif "modulus" in report.results:
            rows = report.results["modulus"]
            payload = _csv(rows, sorted({c for row in rows for c in row}))
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

def _parse_int(text: str) -> int:
    """An integer flag value: digits, or a float literal of an integer such
    as 1e6. A fractional value such as 2.5 is an error."""
    try:
        return int(text)
    except ValueError:
        value = float(text)
    if not value.is_integer():
        raise argparse.ArgumentTypeError(f"invalid integer {text!r}")
    return int(value)


_VALUE_PARSERS = {int: _parse_int, float: float, str: str}


def _flag_fields() -> list[tuple[str, dataclasses.Field, Callable]]:
    """(flag, field, value parser) for every config field but ``command``,
    in declaration order."""
    hints = get_type_hints(ExperimentConfig)
    out = []
    for f in dataclasses.fields(ExperimentConfig):
        if f.name == "command":
            continue
        base = next(t for t in get_args(hints[f.name]) or (hints[f.name],)
                    if t is not type(None))
        out.append(("--" + f.name.replace("_", "-"), f, _VALUE_PARSERS[base]))
    return out


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors print one ``error:`` line, as
    every other input error does, instead of the usage block."""

    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        sys.exit(2)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="waistlab",
        description="Waist and isoperimetric lower bounds for unit spheres "
                    "of uniformly convex normed spaces, with Monte Carlo "
                    "verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, reads in _READS.items():
        # no abbreviations: --n on bound is a flag bound lacks, not --norm
        p = sub.add_parser(name, allow_abbrev=False)
        p.add_argument("--config", default=None,
                       help="JSON config file; explicit flags override it")
        for flag, f, parse in _flag_fields():
            if f.name in reads:
                p.add_argument(flag, dest=f.name, type=parse, default=None,
                               **f.metadata)
    return parser


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    reads = _READS[args.command]
    data = {"command": args.command}
    if args.config:
        with open(args.config) as fh:
            file_data = json.load(fh)
        if not isinstance(file_data, dict):
            raise ConfigError(
                f"--config file {args.config} must hold a JSON object")
        command = file_data.pop("command", args.command)
        if command != args.command:
            raise ConfigError(
                f"--config file {args.config} is a {command!r} config, not "
                f"{args.command!r}")
        foreign = sorted(set(file_data) - set(reads))
        if foreign:
            raise ConfigError(
                f"{args.command} takes no config keys {foreign}")
        data.update(file_data)
    for name in reads:
        value = getattr(args, name)
        if value is not None:
            data[name] = value
    return ExperimentConfig.from_dict(data)


def _merge_value_flags(argv: list[str]) -> list[str]:
    # A value may start with a minus sign (e.g. --z-grid -0.8:0.8:0.1),
    # which argparse would read as an option; fold every flag that takes a
    # value into --flag=value form.
    flags = {"--config"} | {flag for flag, _, _ in _flag_fields()}
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in flags and i + 1 < len(argv):
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
    argv = _merge_value_flags(list(argv))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        config = _config_from_args(args)
        report = run_experiment(config)
        payload = emit_report(report, config.out, config.format)
    except (ConfigError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # A crash must not read as a failed assertion (exit 1).
        message = " ".join(str(exc).split())
        print(f"error: internal: {type(exc).__name__}: {message}",
              file=sys.stderr)
        return 3
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
