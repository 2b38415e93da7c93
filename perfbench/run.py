"""qfridge benchmark: times the `qfridge` CLI on seeded workloads and checks
every output against a reference recorded at the seed commit.

    python3 perfbench/run.py --workload figures|scan|verify --seed N \\
        --seconds S --trace 0|1

Each pass runs every op of the workload in-process through
``qfridge.cli.main(argv)``, one op after another, in a fresh interpreter
(``child.py``) with stdout captured in memory.  Passes repeat until
``--seconds`` have elapsed (at least one).  With ``--trace 0`` the run first
starts the interpreter and imports ``qfridge.cli`` ``SETUP_PROBES`` times, and
reports the end-to-end metrics; with ``--trace 1`` it alternates untraced and
traced passes and reports the per-layer metrics.  The last line of stdout is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it are the machine record and readable detail.

An op fails on a nonzero exit, an exception, or an output that does not
match the reference: a different CSV header or row count, a number that
differs by more than ``RTOL`` relative (``ATOL`` absolute near zero), a
changed string, or a ``verify`` report whose ``passed`` is not true.
"""

from __future__ import annotations

import argparse
import json
import lzma
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

RTOL = 1e-8
ATOL = 1e-12
SETUP_PROBES = 9
CHILD_TIMEOUT_S = 150
BLAS_THREADS = 1
LAYERS = ("thermal", "virtual", "majorization", "protocols", "ladder", "oracle", "verify", "cli")

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}

# Per-function statistics reported by name: (metric, function, field).
_FUNCTION_METRICS = [
    ("virtual.n_swap_population.calls", "virtual.n_swap_population", "calls"),
    ("protocols.two_qubit_incoherent_single.calls", "protocols.two_qubit_incoherent_single", "calls"),
    ("thermal.boltzmann_population.calls", "thermal.boltzmann_population", "calls"),
    ("cli.crossing_report.total_s", "cli.crossing_report", "total"),
    ("majorization.vertex_oracle_min.calls", "majorization.vertex_oracle_min", "calls"),
    ("majorization.vertex_oracle_min.self_s", "majorization.vertex_oracle_min", "self"),
    ("oracle.apply_and_measure.calls", "oracle.apply_and_measure", "calls"),
    ("oracle.haar_unitaries.self_s", "oracle.haar_unitaries", "self"),
    ("majorization.solve_two_qubit.calls", "majorization.solve_two_qubit", "calls"),
    ("cli.curve_points.total_s", "cli.curve_points", "total"),
] + [
    (f"verify.{check}.total_s", f"verify.{check}", "total")
    for check in (
        "check_formula_dense_equivalence",
        "check_pareto_sweep",
        "check_vertex_oracle",
        "check_thermalization_gradients",
        "check_ladder_gap_rate",
    )
]
_FIELDS = {"calls": 0, "total": 1, "self": 2, "raised": 3}
_COUNTS = ("protocols.trajectory_points", "ladder.stages", "oracle.haar_unitaries.samples")


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "points/row" if name == "protocols.points_per_row" else "count"


PER_LAYER = {
    name: _unit(name)
    for name in (
        [f"{layer}.{field}" for layer in LAYERS for field in ("calls", "self_s", "raised")]
        + list(_COUNTS)
        + ["protocols.points_per_row", "protocols.evals_per_crossing"]
        + [metric for metric, _, _ in _FUNCTION_METRICS]
        + ["tracing_overhead_s"]
    )
}


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to an op that failed)."""


# ---------------------------------------------------------------------------
# Output checks.
# ---------------------------------------------------------------------------


def _close(got: float, want: float) -> bool:
    if got == want or (math.isnan(got) and math.isnan(want)):
        return True
    return abs(got - want) <= max(RTOL * max(abs(got), abs(want)), ATOL)


def _compare_json(got, want, path: str) -> str | None:
    if isinstance(want, dict):
        if not isinstance(got, dict):
            return f"{path}: expected an object"
        for k, v in want.items():
            if k not in got:
                return f"{path}.{k}: missing"
            problem = _compare_json(got[k], v, f"{path}.{k}")
            if problem:
                return problem
        return None
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return f"{path}: expected a list of {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            problem = _compare_json(g, w, f"{path}[{i}]")
            if problem:
                return problem
        return None
    if isinstance(want, bool) or want is None or isinstance(want, str):
        return None if got == want and type(got) is type(want) else f"{path}: {got!r} != {want!r}"
    if isinstance(got, bool) or not isinstance(got, (int, float)):
        return f"{path}: {got!r} is not a number"
    return None if _close(float(got), float(want)) else f"{path}: {got!r} != {want!r}"


def _compare_csv(got: str, want: str) -> str | None:
    got_rows, want_rows = got.splitlines(), want.splitlines()
    if not got_rows or got_rows[0] != want_rows[0]:
        return f"header {got_rows[:1]} != {want_rows[:1]}"
    if len(got_rows) != len(want_rows):
        return f"{len(got_rows) - 1} rows != {len(want_rows) - 1}"
    for line, (g, w) in enumerate(zip(got_rows[1:], want_rows[1:]), start=2):
        g_fields, w_fields = g.split(","), w.split(",")
        if len(g_fields) != len(w_fields):
            return f"line {line}: {g!r} != {w!r}"
        try:
            if not all(_close(float(a), float(b)) for a, b in zip(g_fields, w_fields)):
                return f"line {line}: {g!r} != {w!r}"
        except ValueError:
            return f"line {line}: {g!r} is not numeric"
    return None


def check_op(argv: list[str], op: dict, reference: str | None) -> str | None:
    """Why one op failed, or None when it matches its reference."""
    if op["error"]:
        return op["error"]
    if op["code"] != 0:
        return f"exit code {op['code']}"
    if reference is None:
        return "no reference output for this op"
    if argv[0] == "curve":
        return _compare_csv(op["out"], reference)
    try:
        # Python's json accepts the Infinity that `summary` echoes for t_hot.
        got = json.loads(op["out"])
    except ValueError as exc:
        return f"output is not JSON: {exc}"
    if argv[0] == "verify" and got.get("passed") is not True:
        return "verify reports passed != true"
    return _compare_json(got, json.loads(reference), "$")


# ---------------------------------------------------------------------------
# Child interpreters.
# ---------------------------------------------------------------------------


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def spawn(mode: str, request: dict | None = None) -> dict:
    """Run child.py once; ``setup_s`` is spawn-to-imported wall time."""
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), mode],
            input=json.dumps(request) if request is not None else "",
            capture_output=True,
            text=True,
            env=_child_env(),
            cwd=ROOT,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child {mode} ran past {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"child {mode} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout)
    src = os.path.realpath(os.path.join(ROOT, "src")) + os.sep
    if not os.path.realpath(result["qfridge"]).startswith(src):
        raise BenchError(f"imported qfridge from {result['qfridge']}, not from {src}")
    result["setup_s"] = result["ready"] - started
    return result


def load_reference(workload: str) -> dict:
    path = os.path.join(HERE, "reference", f"{workload}.json.xz")
    with lzma.open(path, "rt", encoding="utf-8") as handle:
        return json.load(handle)


def pools() -> dict:
    return {"scan": load_reference("scan")["pool"], "verify": load_reference("verify")["pool"]}


# ---------------------------------------------------------------------------
# Metrics.
# ---------------------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _kind_ops(ops: list[list[str]], passes: list[dict], kind: str):
    for p in passes:
        for argv, op in zip(ops, p["ops"]):
            if argv[0] == kind:
                yield argv, op


def end_to_end(passes: list[dict], setups: list[float], failed: int, attempted: int) -> dict:
    # Each op's median over the passes, summed: a burst of load on the shared
    # machine during one op of one pass does not move the figure.
    per_op = zip(*(p["ops"] for p in passes))
    return {
        "wall_s": sum(statistics.median(op["s"] for op in runs) for runs in per_op),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(p["maxrss_kb"] for p in passes) / 1024.0,
        "ok_ratio": (attempted - failed) / attempted,
    }


def issue_detail(ops: list[list[str]], passes: list[dict], failed: int, attempted: int) -> list[str]:
    """Readable per-kind figures, printed where the workload has the op kind."""
    lines = [f"fail_ratio = {failed / attempted!r} ({failed} of {attempted} ops)"]
    curves = list(_kind_ops(ops, passes, "curve"))
    if curves:
        rows = sum(op["out"].count("\n") - 1 for _, op in curves)
        lines.append(f"curve_rows_per_s = {rows / sum(op['s'] for _, op in curves)!r} rows/s")
    crossings = [op["s"] for _, op in _kind_ops(ops, passes, "crossing")]
    if crossings:
        lines.append(
            f"crossing_p50_ms = {1e3 * percentile(crossings, 0.5)!r} ms, "
            f"crossing_p75_ms = {1e3 * percentile(crossings, 0.75)!r} ms over {len(crossings)} crossings"
        )
    return lines


def _function_field(trace: dict, name: str, field: str):
    row = trace["functions"].get(name)
    return row[_FIELDS[field]] if row else 0


def per_layer(ops: list[list[str]], untraced: list[dict], traced: list[dict]) -> dict:
    first = traced[0]["trace"]
    metrics = {}
    for layer in LAYERS:
        rows = [(name, row) for name, row in first["functions"].items() if name.split(".")[0] == layer]
        metrics[f"{layer}.calls"] = sum(row[0] for _, row in rows)
        metrics[f"{layer}.self_s"] = statistics.median(
            sum(row[2] for name, row in p["trace"]["functions"].items() if name.split(".")[0] == layer)
            for p in traced
        )
        metrics[f"{layer}.raised"] = sum(row[3] for _, row in rows)
    for name in _COUNTS:
        metrics[name] = first["counts"][name]
    rows = sum(op["out"].count("\n") - 1 for _, op in _kind_ops(ops, traced[:1], "curve"))
    points = sum(op["counters"][1] for _, op in _kind_ops(ops, traced[:1], "curve"))
    metrics["protocols.points_per_row"] = points / rows if rows else 0.0
    crossings = list(_kind_ops(ops, traced[:1], "crossing"))
    evals = sum(op["counters"][0] for _, op in crossings)
    metrics["protocols.evals_per_crossing"] = evals / len(crossings) if crossings else 0.0
    for metric, name, field in _FUNCTION_METRICS:
        if field == "calls":
            metrics[metric] = _function_field(first, name, field)
        else:
            metrics[metric] = statistics.median(_function_field(p["trace"], name, field) for p in traced)
    metrics["tracing_overhead_s"] = statistics.median(p["wall_s"] for p in traced) - statistics.median(
        p["wall_s"] for p in untraced
    )
    return metrics


def _trace_counts(p: dict) -> tuple:
    trace = p["trace"]
    calls = {name: (row[0], row[3]) for name, row in trace["functions"].items()}
    return calls, trace["counts"], [op["counters"] for op in p["ops"]]


def machine_record(sample: dict) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((ln.split(":", 1)[1].strip() for ln in handle if ln.startswith("model name")), cpu)
    except OSError:
        pass
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "nproc": nproc,
        "cpu": cpu,
        "python": sample["python"],
        "numpy": sample["numpy"],
        "blas": sample["blas"],
        "blas_threads": BLAS_THREADS,
    }


# ---------------------------------------------------------------------------
# Driver.
# ---------------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if not os.path.isfile(os.path.join(ROOT, "src", "qfridge", "cli.py")):
        raise BenchError(f"no qfridge source under {ROOT}/src")
    reference = load_reference(workload)["outputs"]
    ops = workloads.ops_for(workload, seed, pools())
    request = {"ops": ops, "trace": False}

    setups = [] if trace else [spawn("setup")["setup_s"] for _ in range(SETUP_PROBES)]
    untraced: list[dict] = []
    traced: list[dict] = []
    deadline = time.monotonic() + seconds
    while not untraced or time.monotonic() < deadline:
        untraced.append(spawn("pass", request))
        if trace:
            traced.append(spawn("pass", {"ops": ops, "trace": True}))

    failures: list[str] = []
    attempted = 0
    for p in untraced + traced:
        for argv, op, first in zip(ops, p["ops"], untraced[0]["ops"]):
            attempted += 1
            problem = check_op(argv, op, reference.get(workloads.key(argv)))
            if problem is None and op["out"] != first["out"]:
                problem = "output differs from the first pass"
            if problem:
                failures.append(f"{workloads.key(argv)}: {problem}")
    problems = []
    if traced and any(_trace_counts(p) != _trace_counts(traced[0]) for p in traced[1:]):
        problems.append("traced counts differ between passes")

    print("machine: " + json.dumps(machine_record(untraced[0])))
    print(
        f"workload {workload} seed {seed}: {len(ops)} ops per pass, "
        f"{len(untraced)} untraced and {len(traced)} traced passes, {len(setups)} setup probes"
    )
    print("pass wall_s: " + " ".join(f"{p['wall_s']:.3f}" for p in untraced + traced))
    for line in failures[:10] + problems:
        print(f"FAILED {line}")
    for line in issue_detail(ops, untraced, len(failures), attempted):
        print(line)
    if trace:
        values, units = per_layer(ops, untraced, traced), PER_LAYER
    else:
        values, units = end_to_end(untraced, setups, len(failures), attempted), END_TO_END
    for name, value in values.items():
        print(f"{name} = {value!r} {units[name]}")
    return {
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("figures", "scan", "verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, ValueError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
