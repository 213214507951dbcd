"""Self-test of the benchmark's output checks.

    python3 bench/selftest.py

Runs the program in-process on small inputs of every operation kind the
workloads use, requires each check to pass the real output, and then
requires it to reject the output with any one of its rationals altered
(numerator plus one), one rational at a time.  The S_2 fault codebook
raises today, so its check is fed the value 3/5 the program should return.
Exits 1 if a check passes an altered output or fails a real one.
"""

from __future__ import annotations

import json
import os
import re
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import workloads  # noqa: E402

RATIONAL = re.compile(r"(?<![\d.])(-?\d+)/(\d+)")


def _cases():
    cli_argvs = [
        ["verify", "--max-n", "3", "--level", "6", "--format", "json"],
        ["verify", "--max-n", "3", "--level", "6", "--format", "csv"],
        ["error-table", "--max-n", "17", "--format", "json"],
        ["error-table", "--max-n", "17", "--format", "csv"],
        ["optimal-set", "--n", "6", "--format", "json"],
        ["optimal-set", "--n", "11", "--format", "csv"],
        ["optimal-set", "--n", "5", "--split-set", "all", "--format", "json"],
        ["optimal-set", "--n", "6", "--split-set", "all", "--format", "csv"],
        ["asymptotics", "--kind", "dimension", "--max-level", "9", "--format", "json"],
        ["asymptotics", "--kind", "coefficient", "--max-level", "9", "--format", "csv"],
    ]
    ops = [{"id": " ".join(a), "kind": "cli", "argv": a, "fault": None}
           for a in cli_argvs]
    descents = {op["cell"]: op for op in workloads.build_ops("descent", 1, {})
                if op.get("cell")}
    ops += [descents["6/5"], descents["8/7"]]
    cases = list(zip(ops, workloads.run_round(ops)))
    s2 = {"id": "fault-s2", "kind": "s2", "n": 2, "feet": workloads.FAULT_S2_FEET,
          "fault": workloads.DEPTH_CAP}
    cases.append((s2, {"ok": True, "error": None, "value": "3/5"}))
    return cases


def main() -> int:
    bad, mutations = [], 0
    for op, result in _cases():
        if not result["ok"]:
            bad.append(f"{op['id']}: the program failed: {result['error']}")
            continue
        try:
            workloads.check_result(op, result, checks.References())
        except checks.CheckError as exc:
            bad.append(f"{op['id']}: real output rejected: {exc}")
            continue
        text = json.dumps(result)
        spots = list(RATIONAL.finditer(text))
        if not spots:
            bad.append(f"{op['id']}: output has no rational to alter")
        for m in spots:
            altered = (text[:m.start()] + f"{int(m.group(1)) + 1}/{m.group(2)}"
                       + text[m.end():])
            mutations += 1
            try:
                workloads.check_result(op, json.loads(altered), checks.References())
            except checks.CheckError:
                continue
            bad.append(f"{op['id']}: altered {m.group(0)} at offset {m.start()} passed")
    for line in bad:
        print(f"FAIL {line}")
    print(f"{mutations} altered outputs, {len(bad)} failures")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
