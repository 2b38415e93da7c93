"""Record the reference outputs the benchmark checks every op against.

Run from the repository root, at the commit whose outputs are the reference:

    python3 perfbench/record.py

It draws the `scan` machine pool the way ``qfridge.verify._draw_machine``
draws machines (plus ``T_C = U(0.2, 1) * T_R`` for the ladder), draws the
`verify` seed pool, runs every op any seed can select once, and writes
``perfbench/reference/<workload>.json.xz``.  It refuses to write a reference
in which an op fails.
"""

from __future__ import annotations

import json
import lzma
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # the thread count run.py gives its passes

import numpy as np  # noqa: E402

import child  # noqa: E402
import workloads  # noqa: E402


def draw_pools() -> dict:
    rng = np.random.default_rng(workloads.POOL_SEED)
    scan = []
    for _ in range(workloads.SCAN_POOL_SIZE):
        e_c = float(rng.uniform(0.05, 5.0))
        t_r = float(rng.uniform(0.2, 5.0))
        t_h = math.inf if rng.random() < 0.15 else float(rng.uniform(t_r, 20.0))
        t_c = float(rng.uniform(0.2, 1.0)) * t_r
        scan.append([e_c, t_r, t_h, t_c])
    verify = [int(s) for s in rng.integers(0, 2**31, workloads.VERIFY_POOL_SIZE)]
    return {"scan": scan, "verify": verify}


def every_op(workload: str, pools: dict) -> list[list[str]]:
    if workload == "figures":
        return [list(op) for op in workloads.FIGURES]
    if workload == "scan":
        return [op for machine in pools["scan"] for op in workloads.machine_ops(*machine)]
    return [workloads.verify_op(seed) for seed in pools["verify"]]


def main() -> int:
    pools = draw_pools()
    os.makedirs(os.path.join(HERE, "reference"), exist_ok=True)
    for workload in ("figures", "scan", "verify"):
        ops = every_op(workload, pools)
        result = child.run_pass({"ops": ops, "trace": False})
        outputs = {}
        for argv, op in zip(ops, result["ops"]):
            if op["code"] != 0:
                print(f"refusing to record: {workloads.key(argv)} -> {op['code']} {op['error']}", file=sys.stderr)
                return 1
            outputs[workloads.key(argv)] = op["out"]
        payload = {"pool": pools.get(workload), "outputs": outputs}
        path = os.path.join(HERE, "reference", f"{workload}.json.xz")
        with lzma.open(path, "wt", encoding="utf-8", preset=9) as handle:
            json.dump(payload, handle, sort_keys=True)
        print(f"{workload}: {len(ops)} ops, {result['wall_s']:.1f} s -> {os.path.getsize(path)} bytes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
