"""Self-test of the benchmark's output checks and metric table.

    python3 perfbench/selftest.py

Shows that a broken op is counted as failed: ``verify --mutate vertex``, and
ops checked against a deliberately corrupted reference (a number off by
1e-6 relative, a dropped CSV row, a changed header, a changed JSON value).
Also checks that run.py reports exactly the metrics BENCHMARK.json names.
Exits 1 if any expectation fails.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402


def _perturb_first_number(text: str) -> str:
    """Scale the first number after the CSV header (or in the JSON) by 1 + 1e-6."""
    start = text.index("\n") + 1 if text.startswith("control,") else 0
    i = next(j for j in range(start, len(text)) if text[j].isdigit() and text[j - 1] in ",: \n")
    k = i
    while k < len(text) and (text[k].isdigit() or text[k] in ".e-+"):
        k += 1
    return text[:i] + repr(float(text[i:k]) * (1 + 1e-6)) + text[k:]


def main() -> int:
    verify_seed = run.pools()["verify"][0]
    plain = workloads.verify_op(verify_seed)
    curve, summary = workloads.FIGURES[0], workloads.FIGURES[3]
    ops = [curve, summary, plain + ["--mutate", "vertex"]]
    result = run.spawn("pass", {"ops": ops, "trace": False})
    got = dict(zip((workloads.key(op) for op in ops), result["ops"]))
    figures = run.load_reference("figures")["outputs"]
    verify = run.load_reference("verify")["outputs"]

    curve_out, curve_ref = got[workloads.key(curve)], figures[workloads.key(curve)]
    summary_out, summary_ref = got[workloads.key(summary)], figures[workloads.key(summary)]
    header, _, body = curve_ref.partition("\n")
    verify_ref = verify[workloads.key(plain)]
    not_passed = {"code": 0, "error": None, "out": verify_ref.replace('"passed": true', '"passed": false', 1)}
    cases = [
        ("curve matches its reference", curve, curve_out, curve_ref, False),
        ("summary matches its reference", summary, summary_out, summary_ref, False),
        ("verify --mutate vertex", plain, got[workloads.key(ops[2])], verify_ref, True),
        ("verify exits 0 but reports passed false", plain, not_passed, verify_ref, True),
        ("curve number off by 1e-6", curve, curve_out, _perturb_first_number(curve_ref), True),
        ("curve row dropped", curve, curve_out, curve_ref[: curve_ref.rstrip("\n").rindex("\n") + 1], True),
        ("curve header changed", curve, curve_out, header.replace("r", "R") + "\n" + body, True),
        ("summary number off by 1e-6", summary, summary_out, _perturb_first_number(summary_ref), True),
        ("op without reference", summary, summary_out, None, True),
    ]
    ok = True
    for label, argv, op, reference, should_fail in cases:
        problem = run.check_op(argv, op, reference)
        passed = (problem is not None) == should_fail
        ok &= passed
        print(f"{'PASS' if passed else 'FAIL'} {label}: {problem or 'matches'}")

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    for section, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        names = {m["name"]: m["unit"] for m in declared[section]}
        passed = names == table
        ok &= passed
        print(f"{'PASS' if passed else 'FAIL'} BENCHMARK.json {section} names and units match run.py")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
