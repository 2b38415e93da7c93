"""The benchmark's workloads: lists of `qfridge` CLI argv, one list per pass.

`figures` is fixed: the README "Reproducing the standard figures" set with
every curve at grid 1000 and full precision.  `scan` and `verify` are drawn
from the run seed, out of pools that `record.py` drew once and recorded,
outputs included, in `reference/`: every input a run can see has a reference
output to check against.
"""

from __future__ import annotations

import random

GRID = ["--grid", "1000", "--full-precision"]

# (E_C, T_R) of the three figure machines; E = 1 throughout.
_FRONTIER = ["--e-c", "0.4", "--t-r", "1"]
_REPEAT = ["--e-c", "1", "--t-r", "1"]
_INTERNAL = ["--e-c", repr(1.0 / 3.0), "--t-r", "1"]
_LADDER = ["--t-c", "0.5", "--t-h", "10", "--e-c", "0.4"]

FIGURES = [
    ["curve", "inc-single", *_FRONTIER, *GRID],
    ["curve", "coh-single", *_FRONTIER, *GRID],
    ["crossing", *_FRONTIER],
    ["summary", *_FRONTIER],
    ["curve", "inc-repeat", *_REPEAT, "--t-h", "2", *GRID],
    ["curve", "inc-repeat", *_REPEAT, "--t-h", "10", *GRID],
    ["curve", "inc-repeat", *_REPEAT, "--t-h", "inf", *GRID],
    ["curve", "coh-repeat", *_REPEAT, *GRID],
    ["curve", "algo", *_REPEAT, *GRID],
    ["summary", *_REPEAT],
    ["curve", "internal-inc", *_INTERNAL, *GRID],
    ["curve", "internal-coh", *_INTERNAL, *GRID],
    ["curve", "ladder-coh", *_LADDER, *GRID],
    ["curve", "ladder-inc", *_LADDER, *GRID],
    ["ladder", *_LADDER, "--n", "32"],
]

SCAN_MACHINES = 40
SCAN_LADDER_N = "256"
VERIFY_ARGS = ["--samples", "100000", "--machines", "200", "--instances", "200"]

# Seeds of the pools in reference/; changing them means recording again.
POOL_SEED = 20171030
SCAN_POOL_SIZE = 256
VERIFY_POOL_SIZE = 24


def _num(x: float) -> str:
    return "inf" if x == float("inf") else repr(float(x))


def machine_ops(e_c: float, t_r: float, t_h: float, t_c: float) -> list[list[str]]:
    """crossing, summary and ladder for one scan machine."""
    spec = ["--e-c", _num(e_c), "--t-r", _num(t_r), "--t-h", _num(t_h)]
    return [
        ["crossing", *spec],
        ["summary", *spec],
        ["ladder", *spec, "--t-c", _num(t_c), "--n", SCAN_LADDER_N],
    ]


def verify_op(seed: int) -> list[str]:
    return ["verify", "--seed", str(seed), *VERIFY_ARGS]


def ops_for(workload: str, seed: int, pools: dict) -> list[list[str]]:
    """The argv list of one pass; the same seed gives the same list."""
    rng = random.Random(seed)
    if workload == "figures":
        return [list(op) for op in FIGURES]
    if workload == "scan":
        picks = rng.sample(range(len(pools["scan"])), SCAN_MACHINES)
        return [op for i in picks for op in machine_ops(*pools["scan"][i])]
    if workload == "verify":
        return [verify_op(rng.choice(pools["verify"]))]
    raise ValueError(f"unknown workload {workload!r}")


def key(argv: list[str]) -> str:
    return " ".join(argv)
