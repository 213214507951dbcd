"""Command-line interface.

Every command writes one machine-readable record to stdout, as JSON
(default) or CSV.  Rationals are always serialized as canonical "p/q";
floats are rendered at 12 significant digits.  No record holds more
than MAX_RECORD_ROWS rows.  Exit codes: 0 success, 1 verification
failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from fractions import Fraction

from . import asymptotics, closedform, oracle
from .closedform import (
    admissible_split_sets,
    build_alpha,
    canonical_split_set,
    count_optimal_sets,
    quantization_error,
    unconstrained_error,
)
from .measure import Word

#: Rows of the largest record: point rows of `optimal-set` (n times the
#: number of split sets), or rows of `error-table`, `verify` and `asymptotics`.
MAX_RECORD_ROWS = 2 ** 16

#: Highest `verify --level`: the DP enumerates all 2**level centroids.
MAX_ENUM_LEVEL = 20

#: The inclusive upper bound of each integer flag; the lower bound is 1.
FLAG_BOUNDS = {"n": MAX_RECORD_ROWS, "max_n": MAX_RECORD_ROWS,
               "level": MAX_ENUM_LEVEL, "max_level": MAX_RECORD_ROWS}


def fmt_rational(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def fmt_float(x: float) -> str:
    return format(x, ".12g")


def word_str(w: Word) -> str:
    return "".join(str(c) for c in w)


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _parse_split_selector(selector: str, n: int):
    """Returns the split sets to use for n."""
    if selector == "canonical":
        return [canonical_split_set(n)]
    if selector == "all":
        return admissible_split_sets(n)
    ws = []
    for token in selector.split(","):
        token = token.strip()
        if token and any(c not in "12" for c in token):
            raise ValueError(f"invalid word {token!r}")
        if token:
            ws.append(tuple(int(c) for c in token))
    if len(set(ws)) != len(ws):
        raise ValueError(f"repeated word in {selector!r}")
    return [frozenset(ws)]


def _emit(args, header: list[str], rows, key: str = "rows", **results) -> None:
    """Writes the record of one command, whose parameters are its flags.

    CSV is a comment line with the parameters, the header and the rows;
    JSON puts each row, keyed by the header, in the list results[key].
    """
    params = {k: v for k, v in vars(args).items()
              if k not in ("command", "func")}
    if args.format == "json":
        results[key] = [dict(zip(header, row)) for row in rows]
        record = {"command": args.command, "parameters": params,
                  "results": results}
        print(json.dumps(record, sort_keys=True, indent=2))
        return
    text = " ".join(f"{k}={v}" for k, v in sorted(params.items()))
    sys.stdout.write(f"# command={args.command} {text}\r\n")
    writer = csv.writer(sys.stdout)
    writer.writerow(header)
    writer.writerows(rows)


def cmd_optimal_set(args) -> int:
    n = args.n  # at most MAX_RECORD_ROWS, so the binomial stays small
    if args.split_set == "all" and count_optimal_sets(n) * n > MAX_RECORD_ROWS:
        return _usage_error(f"--split-set all at n={n} gives more than "
                            f"{MAX_RECORD_ROWS} point rows")
    sets = []  # (split words, [(x, y)]) of each codebook
    try:
        for ss in _parse_split_selector(args.split_set, n):
            alpha = build_alpha(n, ss)  # checks the split set
            sets.append((sorted(word_str(w) for w in ss),
                         [(fmt_rational(p.x), fmt_rational(p.y))
                          for p in alpha.points]))
    except ValueError as exc:
        return _usage_error(str(exc))
    # V_n, U_n and a_term = V_n - U_n are the same for every split set
    v, u = quantization_error(n), unconstrained_error(n)
    errors = [fmt_rational(e) for e in (v, u, v - u)]
    if args.format == "json":  # one entry per set, its points nested
        header = ["split_set", "points", "total", "variance_term", "a_term"]
        rows = ([ws, [{"x": x, "y": y} for x, y in xys], *errors]
                for ws, xys in sets)
    else:  # one row per point
        header = ["set_index", "split_set", "point_index", "x", "y",
                  "total", "variance_term", "a_term"]
        rows = ([idx, "+".join(ws), pidx, x, y, *errors]
                for idx, (ws, xys) in enumerate(sets)
                for pidx, (x, y) in enumerate(xys))
    _emit(args, header, rows, "sets")
    return 0


def cmd_error_table(args) -> int:
    rows = []
    for n in range(1, args.max_n + 1):
        v = quantization_error(n)
        rows.append([n, fmt_rational(v), fmt_float(float(v)),
                     fmt_rational(closedform.excess(n))])
    _emit(args, ["n", "v_exact", "v_float", "excess"], rows)
    return 0


def cmd_verify(args) -> int:
    if args.max_n > 2 ** args.level:
        return _usage_error(f"max-n {args.max_n} exceeds 2**level = "
                            f"{2 ** args.level}")
    rows = []
    for n, (dp_set, dp_value) in enumerate(
            oracle.dp_optimal_upto(args.max_n, args.level), start=1):
        try:
            alpha = build_alpha(n)
            closed = quantization_error(n)
            rows.append([n, fmt_rational(dp_value), fmt_rational(closed),
                         dp_value == closed,
                         set(dp_set.abscissas()) == set(alpha.abscissas()),
                         (oracle.lloyd_step(n, alpha).abscissas()
                          == alpha.abscissas())])
        except oracle.OracleError as exc:
            print(f"error: oracle failure at n={n}: {exc}", file=sys.stderr)
            return 1
    all_pass = all(all(row[3:]) for row in rows)  # the three checks
    _emit(args, ["n", "dp_value", "closed_value", "value_match",
                 "points_match", "lloyd_fixed"], rows, "checks",
          all_pass=all_pass)
    return 0 if all_pass else 1


def cmd_asymptotics(args) -> int:
    samples = enumerate(asymptotics.dimension_sequence(args.max_level), start=1)
    if args.plot_data:
        header = ["x", "y"]
        rows = [[level, fmt_float(s.dim_estimate if args.kind == "dimension"
                                  else s.coeff_estimate)]
                for level, s in samples]
    else:
        header = ["level", "n", "v_exact", "excess", "dim_estimate",
                  "coeff_estimate"]
        rows = [[level, s.n, fmt_rational(s.v_n), fmt_rational(s.excess),
                 fmt_float(s.dim_estimate), fmt_float(s.coeff_estimate)]
                for level, s in samples]
    _emit(args, header, rows)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cantorq",
        description="Constrained quantization of the Cantor distribution, "
                    "in exact arithmetic.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("optimal-set", help="optimal codebook and its error")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--split-set", default="canonical",
                   help="canonical | all | comma-separated words over {1,2}")
    add_format(p)
    p.set_defaults(func=cmd_optimal_set)

    p = sub.add_parser("error-table", help="table of V_n for n = 1..max-n")
    p.add_argument("--max-n", type=int, required=True)
    add_format(p)
    p.set_defaults(func=cmd_error_table)

    p = sub.add_parser("verify", help="DP and Lloyd checks against closed forms")
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--level", type=int, required=True)
    add_format(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("asymptotics", help="dimension / coefficient sequences")
    p.add_argument("--kind", choices=("dimension", "coefficient"),
                   required=True)
    p.add_argument("--max-level", type=int, required=True)
    p.add_argument("--plot-data", action="store_true")
    add_format(p)
    p.set_defaults(func=cmd_asymptotics)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # checked before any work, so that a huge value builds nothing
    for name, bound in FLAG_BOUNDS.items():
        value, flag = getattr(args, name, 1), name.replace("_", "-")
        if value < 1:
            return _usage_error(f"--{flag} must be >= 1")
        if value > bound:
            return _usage_error(f"--{flag} {value} exceeds the cap {bound}")
    return args.func(args)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
