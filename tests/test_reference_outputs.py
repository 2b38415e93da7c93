"""The figure set of the benchmark, replayed against its recorded outputs.

Every op of ``perfbench/workloads.py``'s ``figures`` workload runs through
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
REFERENCE = BENCH.load_reference("figures")["outputs"]


@pytest.mark.parametrize("argv", BENCH.workloads.FIGURES, ids=BENCH.workloads.key)
def test_figures_op_matches_reference(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    op = {"error": None, "code": code, "out": out.getvalue()}
    assert BENCH.check_op(argv, op, REFERENCE.get(BENCH.workloads.key(argv))) is None
