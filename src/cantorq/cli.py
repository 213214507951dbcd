"""Command-line interface.

Every command writes one machine-readable record to stdout, as JSON (default)
or CSV; main builds one parser per process.  Rationals are canonical "p/q",
floats have 12 significant digits.  Every flag is checked against its cap
before any work, so no record holds more than MAX_RECORD_ROWS rows, no streamed
row can fail, and both formats are written row by row, each made as written
but verify's, whose all_pass needs them all;
a JSON record has the bytes of json.dumps(record, sort_keys=True, indent=2), a
_Raw field (a set's points) gets its own write, and a CSV row is one `%` over
one row template per CSV record.  Exit codes: 0 success, 1 verification
failure, 2 usage error (one stderr line; repr if unprintable).
"""

from __future__ import annotations

import argparse
import sys
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from math import gcd

from . import asymptotics, closedform, constraint, oracle

#: Rows of the largest record: point rows of `optimal-set` (n times the
#: number of split sets), or rows of `error-table` and `verify`.
MAX_RECORD_ROWS = 2 ** 16

#: Highest `verify --level`: the DP enumerates all 2**level centroids.
MAX_ENUM_LEVEL = 20

#: Largest (max-n - 1) * 2**level of `verify`: its DP fills at most max-n - 1
#: layers of up to 2**level rows.  The largest argvs allowed took 7.5-16.5 s on
#: one core (README), and the argmax pointers take 4 bytes per row.
VERIFY_BUDGET = 2 ** 21

#: The inclusive upper bound of each integer flag; constraint.check_n's is 1.
FLAG_BOUNDS = {"n": MAX_RECORD_ROWS, "max_n": MAX_RECORD_ROWS,
               "level": MAX_ENUM_LEVEL, "max_level": asymptotics.MAX_LEVEL}


def _point_texts(n: int, den: int, feet, form: str) -> dict[int, str]:
    """form % (x numerator, denominator, y numerator, denominator) in lowest
    terms of the point of S_n at each distinct foot t/den, keyed by t."""
    e, xs, ys = constraint.point_numerators(n, den, feet)
    return {t: form % (a // g, e // g, c // h, e // h)
            for t, a, c in zip(feet, xs, ys) for g, h in [(gcd(a, e), gcd(c, e))]}


def fmt_float(x: float) -> str:
    return format(x, ".12g")


def _usage_error(message: str) -> int:
    print("error:", message if message.isprintable() else repr(message),
          file=sys.stderr)
    return 2


def _parse_split_selector(selector: str, n: int):
    """The split sets to use for n, as sorted word indices."""
    if selector == "canonical":
        return [next(closedform.admissible_split_sets(n))]
    if selector == "all":
        return closedform.admissible_split_sets(n)
    return [closedform.parse_split_set(  # typed words, the only ones checked
        n, [w for token in selector.split(",") if (w := token.strip())])]


class _Raw(str):
    """JSON text, already indented for its place in a record."""


def _json(value, indent: str = "\n") -> str:
    """json.dumps(value, sort_keys=True, indent=2) for the str, int, bool,
    list and dict values of a record, where `indent` is the newline and the
    indentation of the value's first line; a _Raw is written as it is.  Any
    other type raises TypeError, lest its bytes differ from json.dumps's."""
    if isinstance(value, str):
        return value if type(value) is _Raw else encode_basestring_ascii(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, list):
        parts, ends = [_json(v, inner) for v in value], "[]"
    elif isinstance(value, dict):
        parts, ends = [encode_basestring_ascii(k) + ": " + _json(value[k], inner)
                       for k in sorted(value)], "{}"
    else:
        raise TypeError(
            f"Object of type {type(value).__name__} is not JSON serializable")
    if not parts:
        return ends
    return ends[0] + inner + ("," + inner).join(parts) + indent + ends[1]


def _emit(args, header: list[str], rows, key: str = "rows", **results) -> None:
    """Writes the record of one command, whose parameters are its flags.

    CSV is a comment line with the parameters, the header and the rows;
    JSON puts each row, keyed by the header, in the list results[key].
    Either is written to stdout one row at a time.
    """
    params = {k: v for k, v in vars(args).items()
              if k not in ("command", "func")}
    write = sys.stdout.write
    if args.format == "json":
        # rows are dicts at depth 3 of the record, their fields at depth 4
        field = "\n" + 8 * " "
        prefixes = [(i, "," * (k > 0) + field + encode_basestring_ascii(header[i]) + ": ")
                    for k, i in enumerate(sorted(range(len(header)), key=header.__getitem__))]
        # _json escapes every NUL it writes, so the one left marks results[key]
        head, tail = _json({"command": args.command, "parameters": params,
                            "results": {**results, key: _Raw("\0")}}).split("\0")
        write(head)
        lead = "["
        for row in rows:
            text = lead + "\n      {"
            for i, p in prefixes:
                if type(value := row[i]) is _Raw:  # its own write, never copied
                    write(text + p)
                    write(value)
                    text = ""
                else:
                    text += p + _json(value, field)
            write(text + "\n      }")
            lead = ","
        write(("[]" if lead == "[" else "\n    ]") + tail + "\n")
        return
    text = " ".join(f"{k}={v}" for k, v in sorted(params.items()))
    write(f"# command={args.command} {text}\r\n")
    # no field needs quoting: each is an int, a bool, a "p/q", a float, a
    # header name or split words over {1, 2}, printed from indices, joined by
    # "+", and "%s" gives its str().  The template is the first row's, as a
    # row may be shorter than the header: a point's x,y is one optimal-set field
    write(",".join(header) + "\r\n")
    for first in (rows := iter(rows)):  # once: the inner loop takes the rest
        line = ",".join(["%s"] * len(first)) + "\r\n"
        write(line % tuple(first))
        for row in rows:
            write(line % tuple(row))


def cmd_optimal_set(args) -> int:
    n = args.n  # at most MAX_RECORD_ROWS, so the binomial stays small
    if (args.split_set == "all"
            and closedform.count_optimal_sets(n) * n > MAX_RECORD_ROWS):
        return _usage_error(f"--split-set all at n={n} gives more than "
                            f"{MAX_RECORD_ROWS} point rows")
    l = closedform.level_of(n)
    den, table = closedform.feet_table(n)
    try:  # (split set, feet over den) of each codebook, from one table
        sets = [(ss, table(ss)) for ss in _parse_split_selector(args.split_set, n)]
    except ValueError as exc:
        return _usage_error(str(exc))
    del table  # gone before the record is written
    # V_n, U_n and a_term = V_n - U_n are the same for every split set
    v, u = closedform.quantization_error(n), closedform.unconstrained_error(n)
    errors = ["%d/%d" % e.as_integer_ratio() for e in (v, u, v - u)]
    # each point once: an item of "points" at its depth in _emit's JSON, or x,y
    text = _point_texts(n, den, dict.fromkeys(t for _, fs in sets for t in fs), (
        '\n          {\n            "x": "%d/%d",\n            "y": "%d/%d"\n          }'
        if args.format == "json" else "%d/%d,%d/%d"))
    if args.format == "json":  # one entry per set, its points nested
        header = ["split_set", "points", "total", "variance_term", "a_term"]
        rows = ([[closedform.split_word(l, i) for i in ss],
                 _Raw("[%s\n        ]" % ",".join(map(text.get, feet))), *errors]
                for ss, feet in sets)
    else:  # one row per point
        header = ["set_index", "split_set", "point_index", "x", "y",
                  "total", "variance_term", "a_term"]
        rows = ([idx, joined, pidx, text[t], *errors]
                for idx, (ss, feet) in enumerate(sets)
                for joined in ["+".join([closedform.split_word(l, i) for i in ss])]
                for pidx, t in enumerate(feet))
    _emit(args, header, rows, "sets")
    return 0


def cmd_error_table(args) -> int:
    def row(n, pairs):  # pairs in lowest terms: no gcd
        v, e = pairs
        return [n, "%d/%d" % v, fmt_float(v[0] / v[1]), "%d/%d" % e]
    ns = range(1, args.max_n + 1)  # no row can fail (README)
    _emit(args, ["n", "v_exact", "v_float", "excess"],
          map(row, ns, closedform.error_pairs_sweep(ns)))
    return 0


def cmd_verify(args) -> int:
    if args.max_n > 2 ** args.level:
        return _usage_error(f"max-n {args.max_n} exceeds 2**level = "
                            f"{2 ** args.level}")
    if (args.max_n - 1) * 2 ** args.level > VERIFY_BUDGET:
        return _usage_error(f"(max-n - 1) * 2**level exceeds the work budget "
                            f"{VERIFY_BUDGET}")
    rows, ns = [], range(1, args.max_n + 1)
    for n, (dp_set, dp_value), (closed, _) in zip(ns, oracle.dp_optimal_upto(
            args.max_n, args.level), closedform.error_pairs_sweep(ns)):
        try:
            alpha = closedform.build_alpha(n)
            dp_pair = dp_value.numerator, dp_value.denominator  # reduced, as closed
            rows.append([n, "%d/%d" % dp_pair, "%d/%d" % closed,
                         dp_pair == closed, dp_set == alpha,
                         oracle.lloyd_step(n, alpha) == alpha])
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
        rows = ([level, fmt_float(s.dim_estimate if args.kind == "dimension"
                                  else s.coeff_estimate)]
                for level, s in samples)
    else:
        header = ["level", "n", "v_exact", "excess", "dim_estimate",
                  "coeff_estimate"]
        rows = ([level, s.n, "%d/%d" % s.v_n, "%d/%d" % s.excess,
                 fmt_float(s.dim_estimate), fmt_float(s.coeff_estimate)]
                for level, s in samples)
    _emit(args, header, rows)
    return 0


@lru_cache(maxsize=1)  # built at the first main, not at import; reused
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
    p.add_argument("--max-n", type=int, required=True,
                   help="checks n = 1..max-n; the work budget is "
                        f"(max-n - 1) * 2**level <= {VERIFY_BUDGET}")
    p.add_argument("--level", type=int, required=True)
    add_format(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("asymptotics", help="dimension / coefficient sequences")
    p.add_argument("--kind", choices=("dimension", "coefficient"), required=True,
                   help="selects the column only together with --plot-data")
    p.add_argument("--max-level", type=int, required=True)
    p.add_argument("--plot-data", action="store_true")
    add_format(p)
    p.set_defaults(func=cmd_asymptotics)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # checked before any work, so that a huge value builds nothing
    for name, bound in FLAG_BOUNDS.items():
        value, flag = getattr(args, name, 1), "--" + name.replace("_", "-")
        try:  # argparse gave an int: only the lower bound can fail
            constraint.check_n(value, flag)
        except ValueError as exc:
            return _usage_error(str(exc))
        if value > bound:
            return _usage_error(f"{flag} {value} exceeds the cap {bound}")
    return args.func(args)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
