"""Command-line interface.

Every command writes one machine-readable record to stdout, as JSON
(default) or CSV.  Rationals are always serialized as canonical "p/q";
floats are rendered at 12 significant digits.  Exit codes: 0 success,
1 verification failure, 2 usage error.
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
    distortion_closed_form,
    quantization_error,
)
from .measure import Word

#: Highest `verify --level`: the DP enumerates all 2**level centroids.
MAX_ENUM_LEVEL = 20

#: `optimal-set --split-set all` refuses a record of more point rows.
MAX_SPLIT_SET_ROWS = 2 ** 16


def fmt_rational(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def fmt_float(x: float) -> str:
    return format(x, ".12g")


def word_str(w: Word) -> str:
    return "".join(str(c) for c in w)


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
    return [frozenset(ws)]


def _emit(record: dict, fmt: str, header: list[str], rows: list[list[str]]) -> None:
    if fmt == "json":
        print(json.dumps(record, sort_keys=True, indent=2))
        return
    params = " ".join(f"{k}={v}" for k, v in sorted(record["parameters"].items()))
    sys.stdout.write(f"# command={record['command']} {params}\r\n")
    writer = csv.writer(sys.stdout)
    writer.writerow(header)
    writer.writerows(rows)


def cmd_optimal_set(args) -> int:
    n = args.n
    # n first, so that a huge n never reaches the binomial coefficient
    if args.split_set == "all" and (
            n > MAX_SPLIT_SET_ROWS
            or count_optimal_sets(n) * n > MAX_SPLIT_SET_ROWS):
        print(f"error: --split-set all at n={n} gives more than "
              f"{MAX_SPLIT_SET_ROWS} point rows", file=sys.stderr)
        return 2
    # the report is the same for every split set
    report = distortion_closed_form(n)
    total, variance, a = (fmt_rational(report.total),
                          fmt_rational(report.variance_term),
                          fmt_rational(report.a_term))
    results = {"sets": []}
    rows = []
    try:
        for idx, ss in enumerate(_parse_split_selector(args.split_set, n)):
            alpha = build_alpha(n, ss)
            ss_str = sorted(word_str(w) for w in alpha.split_set)
            joined = "+".join(ss_str)
            xys = [(fmt_rational(p.x), fmt_rational(p.y)) for p in alpha.points]
            results["sets"].append({
                "split_set": ss_str,
                "points": [{"x": x, "y": y} for x, y in xys],
                "total": total, "variance_term": variance, "a_term": a,
            })
            rows.extend([idx, joined, pidx, x, y, total, variance, a]
                        for pidx, (x, y) in enumerate(xys))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    record = {"command": "optimal-set",
              "parameters": {"n": n, "split_set": args.split_set,
                             "format": args.format},
              "results": results}
    _emit(record, args.format,
          ["set_index", "split_set", "point_index", "x", "y",
           "total", "variance_term", "a_term"], rows)
    return 0


def cmd_error_table(args) -> int:
    rows, out = [], []
    for n in range(1, args.max_n + 1):
        v = quantization_error(n)
        excess = v - closedform.V_INFINITY
        out.append({"n": n, "v_exact": fmt_rational(v),
                    "v_float": fmt_float(float(v)),
                    "excess": fmt_rational(excess)})
        rows.append([n, fmt_rational(v), fmt_float(float(v)),
                     fmt_rational(excess)])
    record = {"command": "error-table",
              "parameters": {"max_n": args.max_n, "format": args.format},
              "results": {"rows": out}}
    _emit(record, args.format, ["n", "v_exact", "v_float", "excess"], rows)
    return 0


def cmd_verify(args) -> int:
    # checked first, so that a huge --level never builds 2**level
    if args.level > MAX_ENUM_LEVEL:
        print(f"error: --level {args.level} exceeds the enumeration cap "
              f"{MAX_ENUM_LEVEL}", file=sys.stderr)
        return 2
    if args.max_n > 2 ** args.level:
        print(f"error: max-n {args.max_n} exceeds 2**level = {2 ** args.level}",
              file=sys.stderr)
        return 2
    try:
        optima = oracle.dp_optimal_upto(args.max_n, args.level)
    except oracle.OracleError as exc:
        print(f"error: oracle failure in the DP: {exc}", file=sys.stderr)
        return 1
    checks, rows, all_pass = [], [], True
    for n, (dp_set, dp_value) in enumerate(optima, start=1):
        try:
            alpha = build_alpha(n)
            closed = distortion_closed_form(n).total
            value_match = dp_value == closed
            points_match = set(dp_set.abscissas()) == set(alpha.abscissas())
            lloyd_fixed = (oracle.lloyd_step(n, alpha).abscissas()
                           == alpha.abscissas())
        except oracle.OracleError as exc:
            print(f"error: oracle failure at n={n}: {exc}", file=sys.stderr)
            return 1
        ok = value_match and points_match and lloyd_fixed
        all_pass &= ok
        checks.append({"n": n, "dp_value": fmt_rational(dp_value),
                       "closed_value": fmt_rational(closed),
                       "value_match": value_match,
                       "points_match": points_match,
                       "lloyd_fixed": lloyd_fixed})
        rows.append([n, fmt_rational(dp_value), fmt_rational(closed),
                     value_match, points_match, lloyd_fixed])
    record = {"command": "verify",
              "parameters": {"max_n": args.max_n, "level": args.level,
                             "format": args.format},
              "results": {"checks": checks, "all_pass": all_pass}}
    _emit(record, args.format,
          ["n", "dp_value", "closed_value", "value_match", "points_match",
           "lloyd_fixed"], rows)
    return 0 if all_pass else 1


def cmd_asymptotics(args) -> int:
    out, rows = [], []
    for level, s in enumerate(asymptotics.dimension_sequence(args.max_level),
                              start=1):
        if args.plot_data:
            y = s.dim_estimate if args.kind == "dimension" else s.coeff_estimate
            out.append({"x": level, "y": fmt_float(y)})
            rows.append([level, fmt_float(y)])
        else:
            out.append({"level": level, "n": s.n,
                        "v_exact": fmt_rational(s.v_n),
                        "excess": fmt_rational(s.excess),
                        "dim_estimate": fmt_float(s.dim_estimate),
                        "coeff_estimate": fmt_float(s.coeff_estimate)})
            rows.append([level, s.n, fmt_rational(s.v_n),
                         fmt_rational(s.excess), fmt_float(s.dim_estimate),
                         fmt_float(s.coeff_estimate)])
    record = {"command": "asymptotics",
              "parameters": {"kind": args.kind, "max_level": args.max_level,
                             "plot_data": args.plot_data,
                             "format": args.format},
              "results": {"rows": out}}
    header = (["x", "y"] if args.plot_data else
              ["level", "n", "v_exact", "excess", "dim_estimate",
               "coeff_estimate"])
    _emit(record, args.format, header, rows)
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
    for name in ("n", "max_n", "level", "max_level"):
        if getattr(args, name, 1) < 1:
            print(f"error: --{name.replace('_', '-')} must be >= 1",
                  file=sys.stderr)
            return 2
    return args.func(args)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
