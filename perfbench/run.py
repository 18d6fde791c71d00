"""waistlab benchmark: one closed-loop client issuing the operations of a
workload, pass after pass, until the time budget is spent.

    python3 perfbench/run.py --workload waist --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all

With ``--trace 0`` the passes run the unmodified program and the end-to-end
metrics are reported. With ``--trace 1`` each pass runs twice on the same
inputs, once plain and once with every public function of the layers
wrapped (see tracer.py); the two runs' report digests must match, and the
per-layer metrics come from the traced half.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
only if every operation passed its check. Run records and traces are
written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 5

# Reported in the final JSON line; BENCHMARK.json lists the same names.
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
# Every end-to-end metric the human-readable report prints, where it applies.
REPORT_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s",
                "op_tail_s": "s", "peak_rss_mb": "MB", "fail_ratio": "ratio",
                "mc_points_per_s": "1/s", "needles_per_s": "1/s",
                "bounds_per_s": "1/s", "round_oracle_sigma": "sigma",
                "min_margin_sigma": "sigma", "lune_l1": "L1",
                "bound_rel_err": "ratio"}
PER_LAYER_UNITS = {"calls": "count", "points": "count", "queries": "count",
                   "empty_fibers": "count", "report_bytes": "bytes",
                   "s": "s", "self_s": "s", "per_s": "1/s"}

# The setup a user pays before the first operation: start the interpreter,
# import the CLI module and validate the workload's configs.
SETUP_CODE = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
import waistlab.cli as cli
for c in json.loads(sys.argv[2]):
    cli.ExperimentConfig.from_dict(c).validate()
print(time.monotonic())
"""


def per_layer_unit(name: str) -> str:
    suffix = name.rsplit(".", 1)[-1]
    if suffix.endswith("per_s"):
        suffix = "per_s"
    return PER_LAYER_UNITS.get(suffix, "ratio")


def cap_threads() -> int:
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count() or 1
    for var in THREAD_VARS:
        os.environ[var] = str(nproc)
    return nproc


def measure_setup(configs: list[dict]) -> list[float]:
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.monotonic()
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), json.dumps(configs)],
            capture_output=True, text=True, check=True, timeout=120)
        times.append(float(done.stdout.split()[-1]) - t0)
    return times


def environment(args, nproc: int, ops) -> dict:
    import numpy
    import scipy
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = None
    if (ROOT / ".git").exists():  # an exported checkout has no history
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    src_digest = hashlib.sha256()
    for path in sorted((SRC / "waistlab").glob("*.py")):
        src_digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": nproc, "cpu_count": os.cpu_count(), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_caps": {v: os.environ[v] for v in THREAD_VARS},
        "git_commit": commit, "source_sha256": src_digest.hexdigest(),
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "scale": args.scale, "trace": args.trace,
        "budgets": [{"op": op.label, **op.budget} for op in ops],
    }


def run_pass(ops, seed: int, pass_index: int, tracer=None) -> dict:
    """Issue every operation of one pass, each after the previous returned."""
    from workloads import op_seed
    records = []
    t_pass = time.perf_counter()
    for i, op in enumerate(ops):
        rec = {"op": op.label, "seed": op_seed(seed, pass_index, i)}
        if tracer is not None:
            tracer.op_id = f"{pass_index}:{i}"
        t0 = time.perf_counter()
        try:
            result = op.call(rec["seed"])
            rec["latency_s"] = time.perf_counter() - t0
            outcome = op.check(result)
            rec.update(digest=outcome.digest, failures=outcome.failures,
                       stats=outcome.stats)
        except Exception:  # an exception is a failed operation; keep going
            rec.setdefault("latency_s", time.perf_counter() - t0)
            rec.update(digest=None, failures=[traceback.format_exc()],
                       stats={})
        for failure in rec["failures"]:
            print(f"FAIL pass {pass_index} {op.label}: {failure}",
                  file=sys.stderr)
        records.append(rec)
    return {"index": pass_index, "elapsed_s": time.perf_counter() - t_pass,
            "op_time_s": sum(r["latency_s"] for r in records), "ops": records}


def closed_loop(ops, seed: int, seconds: float, trace: bool):
    """Passes until the budget is spent; a pass (or a plain/traced pair) is
    started only if it is expected to end within the budget, and at least
    one always runs."""
    from tracer import Tracer
    tracer = Tracer() if trace else None
    plain, traced = [], []
    t_start = time.perf_counter()
    index = 0
    while True:
        t0 = time.perf_counter()
        if trace:
            # Alternate which half runs first, so warm caches favour neither.
            for half in ((False, True) if index % 2 == 0 else (True, False)):
                if half:
                    with tracer.installed():
                        traced.append(run_pass(ops, seed, index, tracer))
                else:
                    plain.append(run_pass(ops, seed, index))
        else:
            plain.append(run_pass(ops, seed, index))
        index += 1
        now = time.perf_counter()
        if now - t_start + (now - t0) > seconds:
            return plain, traced, tracer


def tail(values: list[float]) -> tuple[str, float]:
    """Highest percentile with at least ten samples above it (the maximum
    when there are fewer than eleven samples)."""
    ordered = sorted(values)
    if len(ordered) < 11:
        return "max", ordered[-1]
    idx = len(ordered) - 11
    return f"p{100.0 * (idx + 1) / len(ordered):.0f}", ordered[idx]


def summarize(passes: list[dict]) -> dict:
    """End-to-end numbers of a list of passes (plain passes only)."""
    records = [r for p in passes for r in p["ops"]]

    def rate(key):
        # Work per second of the operations that did that work.
        work = [(r["stats"][key], r["latency_s"]) for r in records
                if key in r["stats"]]
        return sum(w for w, _ in work) / sum(t for _, t in work) if work else 0.0

    latencies = [r["latency_s"] for r in records]
    tail_name, tail_value = tail(latencies)
    by_kind = {}
    for r in records:
        kind = r["stats"].get("norm_kind")
        if kind:
            by_kind[kind] = by_kind.get(kind, 0.0) + r["latency_s"]
    kind_total = sum(by_kind.values())
    failed = sum(1 for r in records if r["failures"])
    out = {
        "wall_s": statistics.median(p["op_time_s"] for p in passes),
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": tail_value, "op_tail_percentile": tail_name,
        "op_samples": len(latencies), "passes": len(passes),
        "attempted": len(records), "failed": failed,
        "fail_ratio": failed / len(records),
        "mc_points_per_s": rate("mc_points"),
        "needles_per_s": rate("needle_trials"),
        "bounds_per_s": rate("bound_evals"),
        "norm_share": {k: v / kind_total for k, v in sorted(by_kind.items())},
    }
    # Quality of the outputs: the worst value over the operations that
    # report it.
    for stat, name, worst in (
            ("round_oracle_sigma", "round_oracle_sigma", max),
            ("margin_sigma", "min_margin_sigma", min),
            ("lune_l1", "lune_l1", max),
            ("bound_rel_err", "bound_rel_err", max)):
        values = [r["stats"][stat] for r in records if stat in r["stats"]]
        if values:
            out[name] = worst(values)
    return out


def print_report(workload: str, summary: dict, setup: list[float]) -> None:
    print(f"== {workload}: {summary['passes']} passes, "
          f"{summary['attempted']} operations, {summary['failed']} failed")
    notes = {
        "setup_s": f"median of {len(setup)}: "
                   + ", ".join(f"{t:.3f}" for t in setup),
        "wall_s": f"median of {summary['passes']} passes",
        "op_p50_s": f"{summary['op_samples']} operations",
        "op_tail_s": f"{summary['op_tail_percentile']} of "
                     f"{summary['op_samples']} operations",
    }
    for key, unit in REPORT_UNITS.items():
        value = summary.get(key)
        if value is None or (key.endswith("_per_s") and value == 0.0):
            continue  # the workload does no such work
        note = f" ({notes[key]})" if key in notes else ""
        print(f"{key} {value:.6g} {unit}{note}")
    for kind, share in summary["norm_share"].items():
        print(f"norm_share.{kind} {share:.4f} ratio")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="Monte Carlo budget factor (smoke tests)")
    args = parser.parse_args(argv)
    if not (SRC / "waistlab" / "__init__.py").is_file():
        print(f"error: no waistlab sources at {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds < 0 or args.scale <= 0:
        print("error: --seed and --seconds must be >= 0, --scale > 0",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    nproc = cap_threads()
    sys.path.insert(0, str(SRC))
    import waistlab
    if Path(waistlab.__file__).resolve().parent != SRC / "waistlab":
        print(f"error: imported waistlab from {waistlab.__file__}",
              file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2
    ops = workloads.build(args.workload, args.scale)
    env = environment(args, nproc, ops)
    print("env " + json.dumps({k: v for k, v in env.items() if k != "budgets"},
                              sort_keys=True))

    configs = [op.budget for op in ops if "command" in op.budget]
    setup = measure_setup(configs)
    plain, traced, tracer = closed_loop(ops, args.seed, args.seconds,
                                        bool(args.trace))
    summary = summarize(plain)
    summary["setup_s"] = statistics.median(setup)
    summary["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print_report(args.workload, summary, setup)

    attempted, failed = summary["attempted"], summary["failed"]
    record = {"env": env, "setup_s": setup, "summary": summary,
              "passes": plain}
    if args.trace:
        t_summary = summarize(traced)
        attempted += t_summary["attempted"]
        failed += t_summary["failed"]
        mismatched = digest_mismatches(plain, traced)
        layers = layer_report(plain, traced, tracer, summary)
        record.update(traced_passes=traced, layers=layers,
                      digest_mismatches=mismatched)
        correct = failed == 0 and not mismatched
        metrics = {name: {"value": value, "unit": per_layer_unit(name)}
                   for name, value in layers.items()}
    else:
        correct = failed == 0
        metrics = {name: {"value": summary[name], "unit": unit}
                   for name, unit in END_TO_END.items()}

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"run-{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    if args.trace:
        tracer.dump(OUT / f"trace-{stem}.json")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def digest_mismatches(plain, traced) -> list[str]:
    """Operations whose traced report differs from the plain one; tracing
    must change no output."""
    mismatched = [f"pass {p['index']} {a['op']}"
                  for p, q in zip(plain, traced)
                  for a, b in zip(p["ops"], q["ops"])
                  if a["digest"] is None or a["digest"] != b["digest"]]
    for item in mismatched:
        print(f"FAIL digest differs between plain and traced run: {item}",
              file=sys.stderr)
    print(f"digests: {len(traced)} plain/traced pass pairs, "
          f"{len(mismatched)} mismatches")
    return mismatched


def layer_report(plain, traced, tracer, summary) -> dict:
    """Per-layer metrics of the traced passes, plus the tracing overhead
    against the plain passes on the same inputs and the throughputs of the
    plain passes."""
    from tracer import layer_metrics
    layers = layer_metrics(tracer.spans, len(traced))
    traced_elapsed = sum(p["elapsed_s"] for p in traced)
    self_total = layers.pop("self_s_total") * len(traced)
    layers["trace_overhead"] = (sum(p["op_time_s"] for p in traced)
                                / sum(p["op_time_s"] for p in plain) - 1.0)
    # Share of the traced wall time that some layer's self time accounts for.
    layers["trace_coverage"] = self_total / traced_elapsed
    for name, value in layers.items():
        print(f"{name} {value:.6g} {per_layer_unit(name)}")
    for kind in ("euclidean", "lp", "regularized"):
        layers[f"norm_share.{kind}"] = summary["norm_share"].get(kind, 0.0)
    for key in ("mc_points_per_s", "needles_per_s", "bounds_per_s"):
        layers[key] = summary[key]
    return layers


def run_all(args) -> int:
    """Every workload in turn, each in its own process; non-zero exit if any
    of them failed."""
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scale", str(args.scale)]
        status = max(status, subprocess.run(cmd).returncode)
    return status


if __name__ == "__main__":
    sys.exit(main())
