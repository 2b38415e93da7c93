"""Benchmark ops replayed against their recorded outputs.

Every op of ``perfbench/workloads.py``'s ``figures`` workload, the
``crossing``, ``summary`` and ``ladder`` ops of every machine in the ``scan``
pool, and the ``verify`` op of the first ``verify`` pool seed run through
``qfridge.cli.main`` and are checked against ``perfbench/reference`` with the
benchmark's own ``check_op`` (1e-8 relative per number).
"""

import contextlib
import importlib.util
import io
from pathlib import Path

import pytest

from qfridge import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _bench():
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BENCH = _bench()
FIGURES = BENCH.load_reference("figures")["outputs"]
SCAN = BENCH.load_reference("scan")
SCAN_OPS = [BENCH.workloads.machine_ops(*m) for m in SCAN["pool"]]
VERIFY = BENCH.load_reference("verify")


def _check(argv, reference):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    op = {"error": None, "code": code, "out": out.getvalue()}
    return BENCH.check_op(argv, op, reference.get(BENCH.workloads.key(argv)))


@pytest.mark.parametrize("argv", BENCH.workloads.FIGURES, ids=BENCH.workloads.key)
def test_figures_op_matches_reference(argv):
    assert _check(argv, FIGURES) is None


@pytest.mark.parametrize("argv", [ops[0] for ops in SCAN_OPS], ids=BENCH.workloads.key)
def test_scan_crossing_matches_reference(argv):
    assert _check(argv, SCAN["outputs"]) is None


@pytest.mark.parametrize("argv", [ops[1] for ops in SCAN_OPS], ids=BENCH.workloads.key)
def test_scan_summary_matches_reference(argv):
    assert _check(argv, SCAN["outputs"]) is None


@pytest.mark.parametrize("argv", [ops[2] for ops in SCAN_OPS], ids=BENCH.workloads.key)
def test_scan_ladder_matches_reference(argv):
    assert _check(argv, SCAN["outputs"]) is None


def test_verify_pool_seed_matches_reference():
    argv = BENCH.workloads.verify_op(VERIFY["pool"][0])
    assert _check(argv, VERIFY["outputs"]) is None
