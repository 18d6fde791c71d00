"""Smoke test of the benchmark's operations: one pass of every workload at
small Monte Carlo budgets, through each operation's own call and check."""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    # Loaded from its file without writing a bytecode cache beside it.
    spec = importlib.util.spec_from_file_location("_bench_workloads",
                                                  WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
        del sys.modules[spec.name]
    return module


@pytest.mark.parametrize("name", ["waist", "regularized", "lemma-chain"])
def test_every_benchmark_operation_runs_and_passes_its_check(workloads, name):
    assert name in workloads.WORKLOADS
    ops = workloads.build(name, scale=0.02)
    assert ops
    for i, op in enumerate(ops):
        outcome = op.check(op.call(workloads.op_seed(1, 0, i)))
        assert outcome.failures == [], op.label
