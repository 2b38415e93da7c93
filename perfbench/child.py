"""One pass of the benchmark, in a fresh interpreter started by run.py.

Usage: ``python3 child.py setup`` imports ``qfridge.cli`` and prints the
monotonic time at which the import finished.  ``python3 child.py pass``
does the same, then reads ``{"ops": [argv, ...], "trace": bool}`` as JSON
from stdin, runs every op through ``qfridge.cli.main(argv)`` with stdout
captured in memory, and prints one JSON object with each op's exit code,
output and time, the pass wall time, the peak RSS and, when traced, the
per-function statistics.
"""

import sys
import time

import qfridge.cli

READY = time.monotonic()

import contextlib  # noqa: E402
import functools  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import types  # noqa: E402

import numpy  # noqa: E402


class Stat:
    __slots__ = ("calls", "total", "self", "raised")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self = 0.0
        self.raised = 0


class Tracer:
    """Counts, total and self time of every public qfridge function.

    Each public function is replaced by one wrapper wherever a qfridge module
    binds it: its own module (so ``module.f`` attribute calls and calls inside
    the module are seen) and every ``from .x import f`` binding elsewhere.
    Statistics are aggregated per function in memory; no span is kept per
    call.  Self time is total time minus the time of traced calls nested in
    it, so numpy time is charged to the function that called numpy.
    """

    def __init__(self) -> None:
        self.stats: dict[str, Stat] = {}
        self.counts = {"protocols.trajectory_points": 0, "ladder.stages": 0, "oracle.haar_unitaries.samples": 0}
        self._stack = [0.0]  # child time of each active traced call
        self._protocols_depth = 0

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items()) if name == "qfridge" or name.startswith("qfridge.")]
        wrappers: dict = {}
        for module in modules:
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or not isinstance(obj, types.FunctionType):
                    continue
                if not obj.__module__.startswith("qfridge."):
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(obj)
                setattr(module, name, wrappers[obj])

    def _wrap(self, fn):
        layer = fn.__module__.rsplit(".", 1)[1]
        name = f"{layer}.{fn.__name__}"
        stat = self.stats.setdefault(name, Stat())
        stack = self._stack
        clock = time.perf_counter
        after = self._after_hook(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stat.raised += 1
                raise
            finally:
                elapsed = clock() - start
                child = stack.pop()
                stack[-1] += elapsed
                stat.calls += 1
                stat.total += elapsed
                stat.self += elapsed - child
            if after is not None:
                after(result)
            return result

        if layer != "protocols":
            return traced

        # Trajectory points are counted where an outcome leaves the layer, so
        # an outcome passed between protocols functions counts once.
        @functools.wraps(fn)
        def boundary(*args, **kwargs):
            self._protocols_depth += 1
            try:
                result = traced(*args, **kwargs)
            finally:
                self._protocols_depth -= 1
            if self._protocols_depth == 0:
                self.counts["protocols.trajectory_points"] += len(getattr(result, "trajectory", ()))
            return result

        return boundary

    def _after_hook(self, name: str):
        counts = self.counts
        if name == "ladder.coherent_ladder":  # the incoherent twin reuses its stages

            def stages(result) -> None:
                counts["ladder.stages"] += len(result.per_step)

            return stages
        if name == "oracle.haar_unitaries":

            def samples(result) -> None:
                counts["oracle.haar_unitaries.samples"] += len(result)

            return samples
        return None

    def op_counters(self) -> list[int]:
        """Counters read before and after each op, to charge them to op kinds."""
        evals = self.stats.get("protocols.two_qubit_incoherent_single")
        return [evals.calls if evals else 0, self.counts["protocols.trajectory_points"]]

    def report(self) -> dict:
        return {
            "functions": {
                name: [s.calls, s.total, s.self, s.raised] for name, s in sorted(self.stats.items()) if s.calls or s.raised
            },
            "counts": dict(self.counts),
        }


def _blas() -> str:
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError) as exc:  # numpy older than 1.26
        return f"unknown ({type(exc).__name__})"
    return f"{deps.get('name')} {deps.get('version')}"


def run_pass(request: dict) -> dict:
    tracer = Tracer() if request["trace"] else None
    if tracer is not None:
        tracer.install()
    ops = []
    started = time.perf_counter()
    for argv in request["ops"]:
        before = tracer.op_counters() if tracer else None
        out = io.StringIO()
        error = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                code = qfridge.cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code, error = exc.code, f"SystemExit({exc.code!r})"
        except Exception as exc:
            code, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        entry = {"code": code, "s": elapsed, "out": out.getvalue(), "error": error}
        if tracer is not None:
            entry["counters"] = [a - b for a, b in zip(tracer.op_counters(), before)]
        ops.append(entry)
    wall = time.perf_counter() - started
    result = {
        "qfridge": qfridge.cli.__file__,
        "ready": READY,
        "wall_s": wall,
        "ops": ops,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": _blas(),
    }
    if tracer is not None:
        result["trace"] = tracer.report()
    return result


def main() -> int:
    mode = sys.argv[1] if len(sys.argv) > 1 else ""
    if mode == "setup":
        print(json.dumps({"ready": READY, "qfridge": qfridge.cli.__file__}))
        return 0
    if mode == "pass":
        request = json.loads(sys.stdin.read())
        json.dump(run_pass(request), sys.stdout)
        return 0
    print(f"usage: {sys.argv[0]} setup|pass", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
