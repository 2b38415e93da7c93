"""Benchmark ops replayed against their recorded outputs.

Every op of ``perfbench/workloads.py``'s ``figures`` workload, and the
``crossing`` op of every machine in the ``scan`` pool, runs through
``qfridge.cli.main`` and is checked against ``perfbench/reference`` with the
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
SCAN_CROSSINGS = [BENCH.workloads.machine_ops(*m)[0] for m in SCAN["pool"]]


def _check(argv, reference):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    op = {"error": None, "code": code, "out": out.getvalue()}
    return BENCH.check_op(argv, op, reference.get(BENCH.workloads.key(argv)))


@pytest.mark.parametrize("argv", BENCH.workloads.FIGURES, ids=BENCH.workloads.key)
def test_figures_op_matches_reference(argv):
    assert _check(argv, FIGURES) is None


@pytest.mark.parametrize("argv", SCAN_CROSSINGS, ids=BENCH.workloads.key)
def test_scan_crossing_matches_reference(argv):
    assert _check(argv, SCAN["outputs"]) is None
