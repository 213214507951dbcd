"""Inputs, operations and output checks of the three workloads.

Inputs are built from the seed by this module's own code, so building them
warms no cache in cantorq.  `run_round` is what a forked round child runs;
it reaches every cantorq function through its module attribute, so a
tracer that rebinds those attributes sees every call.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import random
from fractions import Fraction

import checks

WORKLOADS = ("verify", "descent", "tables")

# descent: two seeded starts per n, at two levels that cycle through 5..8,
# so every round does the same mix of sizes whatever the seed
DESCENT_SIZES = range(2, 25)
DESCENT_STARTS = 2
DESCENT_STEPS = 3

# A start whose first Lloyd iterate has the cut 570247/590490: its ternary
# expansion is periodic without a 1, so refinement never separates it.
FAULT_N16_FEET = tuple(Fraction(a, 2 * 3 ** 8) for a in (
    125, 149, 1097, 1129, 1333, 3029, 3041, 3253, 4001, 8801, 9181, 9233,
    9881, 10157, 13001, 13013))
# feet {0, 1/2} on S_2: the cut 1/4 lies in the Cantor set
FAULT_S2_FEET = (Fraction(0), Fraction(1, 2))

DEPTH_CAP = "depth cap in oracle refinement"
OVERFLOW = "float overflow in asymptotics past level 1024"


def centroid_numerators(k: int) -> list[int]:
    """Numerators over 2*3**k of the level-k centroids: 1 + 4 * (a number
    whose k ternary digits are all 0 or 1)."""
    return sorted(1 + 4 * sum(d * 3 ** i for i, d in enumerate(digits))
                  for digits in itertools.product((0, 1), repeat=k))


def descent_feet(seed: int, k: int, n: int, draw: int) -> tuple[Fraction, ...]:
    rng = random.Random(f"descent:{seed}:{k}:{n}:{draw}")
    den = 2 * 3 ** k
    return tuple(Fraction(a, den)
                 for a in sorted(rng.sample(centroid_numerators(k), n)))


def _cli(op_id, argv, fault=None):
    return {"id": op_id, "kind": "cli", "argv": argv, "fault": fault}


def build_ops(workload: str, seed: int, redraws: dict[str, int]) -> list[dict]:
    """The operations of one round.  `redraws` maps a descent cell "k/n" to
    how many of its seeded starts were set aside (see README)."""
    rng = random.Random(f"{workload}:{seed}")
    # Sizes keep a round near half a second, so that a run holds dozens of
    # rounds (README).  Formats are fixed where the format changes the cost
    # of a command, so that the seed does not change how much work a round
    # does.
    if workload == "verify":
        return [_cli("verify-l10", ["verify", "--max-n", "4", "--level", "10",
                                    "--format", "json"]),
                _cli("verify-l12", ["verify", "--max-n", "2", "--level", "12",
                                    "--format", "csv"])]
    if workload == "tables":
        return [
            _cli("error-table", ["error-table", "--max-n",
                                 str(rng.randint(2000, 2008)), "--format", "csv"]),
            _cli("optimal-set", ["optimal-set", "--n",
                                 str(rng.randint(2100, 2108)), "--format", "json"]),
            # C(16, 2) = 120 split sets
            _cli("optimal-set-all", ["optimal-set", "--n", "18",
                                     "--split-set", "all", "--format", "csv"]),
            _cli("asymptotics", ["asymptotics", "--kind",
                                 rng.choice(("dimension", "coefficient")),
                                 "--max-level", str(rng.randint(1025, 1040)),
                                 "--format", rng.choice(("json", "csv"))],
                 fault=OVERFLOW),
        ]
    if workload == "descent":
        ops = []
        for n in DESCENT_SIZES:
            for j in range(DESCENT_STARTS):
                k = 5 + (n + 2 * j) % 4
                cell = f"{k}/{n}"
                ops.append({"id": f"descent-{cell}", "kind": "descent", "n": n,
                            "cell": cell, "fault": None,
                            "feet": descent_feet(seed, k, n, redraws.get(cell, 0))})
        ops.append({"id": "fault-s2", "kind": "s2", "n": 2, "feet": FAULT_S2_FEET,
                    "fault": DEPTH_CAP})
        ops.append({"id": "fault-n16", "kind": "descent", "n": 16, "cell": None,
                    "feet": FAULT_N16_FEET, "fault": DEPTH_CAP})
        return ops
    raise ValueError(f"unknown workload {workload!r}")


# --- round child ---------------------------------------------------------------

def _fraction_text(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def _run_cli(op):
    from cantorq import cli
    out, err = io.StringIO(), io.StringIO()
    error = None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(op["argv"])
        if rc != 0:
            error = f"exit {rc}: {err.getvalue().strip()[-300:]}"
    except (Exception, SystemExit) as exc:
        error = f"{type(exc).__name__}: {exc}"
    return {"stdout": out.getvalue()}, error


def _run_descent(op):
    from cantorq import constraint, oracle
    n, steps = op["n"], []
    ps = constraint.PointSet(n, tuple(constraint.u_inverse(n, f) for f in op["feet"]))
    for t in range(DESCENT_STEPS + 1):
        step = {"points": [[_fraction_text(p.x), _fraction_text(p.y)]
                           for p in ps.points]}
        steps.append(step)
        step["distortion"] = _fraction_text(oracle.exact_distortion(n, ps))
        step["masses"] = [_fraction_text(m) for m in oracle.cell_measures(n, ps)]
        if t < DESCENT_STEPS:
            ps = oracle.lloyd_step(n, ps)
    return {"steps": steps}


def _run_s2(op):
    from cantorq import constraint, oracle
    pts = [constraint.u_inverse(2, f) for f in op["feet"]]
    return {"value": _fraction_text(oracle.exact_distortion(2, pts))}


def run_round(ops: list[dict], between=None) -> list[dict]:
    """Run the operations in order; call `between()` before each one."""
    from cantorq.oracle import OracleError
    results = []
    for op in ops:
        if between is not None:
            between()
        if op["kind"] == "cli":
            out, error = _run_cli(op)
            results.append({"ok": error is None, "error": error, **out})
            continue
        try:
            out, error = (_run_descent if op["kind"] == "descent" else _run_s2)(op), None
        except Exception as exc:
            out = {"oracle_error": isinstance(exc, OracleError)}
            error = f"{type(exc).__name__}: {exc}"
        results.append({"ok": error is None, "error": error, **out})
    return results


# --- checks ------------------------------------------------------------------------

def check_result(op: dict, result: dict, refs: checks.References) -> None:
    """Raise CheckError unless a successful operation's output is right."""
    if op["kind"] == "cli":
        checks.CLI_CHECKS[op["argv"][0]](op["argv"], result["stdout"], refs)
    elif op["kind"] == "descent":
        checks.check_descent(op["n"], op["feet"], result["steps"], refs)
    else:
        checks.check_s2_fault(op["feet"], result["value"])
