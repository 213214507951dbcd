"""Checks of the program's outputs against computations it does not make.

Nothing here imports cantorq.  The reference error V_n comes from the
paper's theorem, the descent outputs are re-derived with an exact Cantor
integrator of this module's own, and every check raises CheckError on the
first value that disagrees.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
from fractions import Fraction

V_INF = Fraction(3, 16)
S2_FAULT_VALUE = Fraction(3, 5)
MAX_ORBIT = 10 ** 6


class CheckError(Exception):
    pass


def require(cond, msg):
    if not cond:
        raise CheckError(msg)


def rat(s: str) -> Fraction:
    return Fraction(s)


# --- reference values --------------------------------------------------------

def level(n: int) -> int:
    return n.bit_length() - 1


def unconstrained_error(n: int) -> Fraction:
    """Optimal unconstrained n-means error (Graf & Luschgy 1997).

    For 2**l <= n < 2**(l+1), 2**(l+1) - n level-l cells are kept whole and
    n - 2**l are split in two; a level-l cell carries mass 2**-l and variance
    9**-l / 8, and its two children together carry a ninth of that.
    """
    l = level(n)
    cell = Fraction(1, 8 * 18 ** l)
    return cell * (2 ** (l + 1) - n) + cell / 9 * (n - 2 ** l)


def reference_error(n: int) -> Fraction:
    """V_n from the main theorem: the optimal points on S_n are the pullbacks
    of the unconstrained optimal means.

    A point of S_n whose perpendicular foot is the mean a of a cell of mass m
    adds m (a + 1/n)**2 / 2 to that cell's distortion.  With sum m a = 1/2,
    sum m = 1 and sum m a**2 = E[X**2] - U_n = 3/8 - U_n this sums to
    V_n = 3/16 + (1/n + 1/n**2) / 2 + U_n / 2.
    """
    s = Fraction(1, n)
    return V_INF + (s + s * s) / 2 + unconstrained_error(n) / 2


def power_of_two_error(l: int) -> Fraction:
    """The paper's V_n at n = 2**l: (1/16)(2**(3-2l) + 2**(3-l) + 9**-l + 3)."""
    two = Fraction(2)
    return (two ** (3 - 2 * l) + two ** (3 - l) + Fraction(1, 9 ** l) + 3) / 16


class References:
    """V_n and U_n, computed once per n."""

    def __init__(self):
        self._v, self._u = {}, {}

    def v(self, n: int) -> Fraction:
        if n not in self._v:
            self._v[n] = reference_error(n)
        return self._v[n]

    def u(self, n: int) -> Fraction:
        if n not in self._u:
            self._u[n] = unconstrained_error(n)
        return self._u[n]


def word_centroid(word: str) -> Fraction:
    """Mean of the Cantor measure on the basic interval of a word over
    {1, 2}; the first letter picks the outermost third."""
    k = len(word)
    num = 1 + sum(4 * (int(c) - 1) * 3 ** (k - 1 - i) for i, c in enumerate(word))
    return Fraction(num, 2 * 3 ** k)


def optimal_feet(n: int, split_words) -> list[Fraction]:
    """Feet of the codebook that keeps every level-l word whole except the
    split ones, which give way to their two children."""
    l = level(n)
    split = set(split_words)
    feet = []
    for letters in itertools.product("12", repeat=l):
        w = "".join(letters)
        feet.extend([word_centroid(w + "1"), word_centroid(w + "2")]
                    if w in split else [word_centroid(w)])
    return sorted(feet)


# --- exact Cantor integrator ---------------------------------------------------
#
# v(x) = (mu[0, x], int_0^x t dmu, int_0^x t^2 dmu).  Self-similarity gives
# v(x) = L v(3x) on [0, 1/3], v(x) = R v(3x - 2) on [2/3, 1] and a constant on
# the middle third.  A rational x has an eventually periodic orbit, so v(x)
# is either unwound from the middle-third constant or solved from the
# lower-triangular fixed point of the cycle.

_ONE_THIRD, _TWO_THIRDS = Fraction(1, 3), Fraction(2, 3)
_MIDDLE = (Fraction(1, 2), Fraction(1, 12), Fraction(1, 48))
_TOTAL = (Fraction(1), Fraction(1, 2), Fraction(3, 8))
# affine maps as rows over (F, M1, M2, 1)
_LEFT = ((Fraction(1, 2), 0, 0, 0),
         (0, Fraction(1, 6), 0, 0),
         (0, 0, Fraction(1, 18), 0))
_RIGHT = ((Fraction(1, 2), 0, 0, Fraction(1, 2)),
          (Fraction(1, 3), Fraction(1, 6), 0, Fraction(1, 12)),
          (Fraction(2, 9), Fraction(2, 9), Fraction(1, 18), Fraction(1, 48)))


def _apply(m, v):
    return tuple(r[0] * v[0] + r[1] * v[1] + r[2] * v[2] + r[3] for r in m)


def _compose(outer, inner):
    cols = [tuple(row[c] for row in inner) for c in range(4)]
    out = []
    for r in outer:
        row = [r[0] * cols[c][0] + r[1] * cols[c][1] + r[2] * cols[c][2]
               for c in range(4)]
        row[3] += r[3]
        out.append(tuple(row))
    return tuple(out)


def partial_moments(x: Fraction) -> tuple[Fraction, Fraction, Fraction]:
    """Exact (mass, first, second moment) of the Cantor measure on [0, x]."""
    if x <= 0:
        return (Fraction(0),) * 3
    if x >= 1:
        return _TOTAL
    maps, seen = [], {}
    while not (_ONE_THIRD <= x <= _TWO_THIRDS) and x not in seen:
        require(len(maps) < MAX_ORBIT, f"orbit of {x} longer than {MAX_ORBIT}")
        seen[x] = len(maps)
        if x < _ONE_THIRD:
            maps.append(_LEFT)
            x = 3 * x
        else:
            maps.append(_RIGHT)
            x = 3 * x - 2
    if x in seen:
        start = seen[x]
        c = maps[start]
        for m in maps[start + 1:]:
            c = _compose(c, m)
        f = c[0][3] / (1 - c[0][0])
        m1 = (c[1][0] * f + c[1][3]) / (1 - c[1][1])
        m2 = (c[2][0] * f + c[2][1] * m1 + c[2][3]) / (1 - c[2][2])
        v, maps = (f, m1, m2), maps[:start]
    else:
        v = _MIDDLE
    for m in reversed(maps):
        v = _apply(m, v)
    return v


def cell_moments(n: int, points) -> list[tuple[Fraction, Fraction, Fraction]]:
    """Moments of each Voronoi cell of points on S_n, cut at the midpoints of
    consecutive perpendicular feet."""
    feet = [2 * x + Fraction(1, n) for x, _ in points]
    ends = [Fraction(0)] + [(a + b) / 2 for a, b in zip(feet, feet[1:])] + [Fraction(1)]
    vs = [partial_moments(e) for e in ends]
    return [tuple(b[i] - a[i] for i in range(3)) for a, b in zip(vs, vs[1:])]


def distortion(n: int, points) -> Fraction:
    total = Fraction(0)
    for (x, y), (f, m1, m2) in zip(points, cell_moments(n, points)):
        total += m2 - 2 * x * m1 + (x * x + y * y) * f
    return total


# --- output parsing --------------------------------------------------------------

def parse_cli(stdout: str, fmt_name: str) -> tuple[dict, list[dict]]:
    """(record, rows) of CLI output: a JSON record comes back whole with no
    rows, a CSV record as its rows keyed by the header."""
    if fmt_name == "json":
        return json.loads(stdout), []
    lines = stdout.split("\r\n")
    require(lines[0].startswith("# command="), "CSV record lacks its comment line")
    rows = list(csv.DictReader(io.StringIO("\r\n".join(lines[1:]))))
    return {"csv_comment": lines[0]}, rows


def _checked_decreasing(values, what):
    for a, b in zip(values, values[1:]):
        require(b < a, f"{what}: V_n not strictly decreasing ({a} then {b})")
    for v in values:
        require(v > V_INF, f"{what}: V_n = {v} not above 3/16")


def _argv_value(argv, flag):
    return argv[argv.index(flag) + 1]


def _fmt_of(argv):
    return _argv_value(argv, "--format") if "--format" in argv else "json"


def _power_of_two_check(n, v, what):
    if n & (n - 1) == 0:
        require(v == power_of_two_error(level(n)),
                f"{what}: V_{n} differs from the power-of-two formula")


def check_verify(argv, stdout, refs: References):
    max_n, lvl = int(_argv_value(argv, "--max-n")), int(_argv_value(argv, "--level"))
    rec, rows = parse_cli(stdout, _fmt_of(argv))
    if rows:
        checks = [{"n": int(r["n"]), "dp_value": r["dp_value"],
                   "closed_value": r["closed_value"],
                   **{k: r[k] == "True" for k in
                      ("value_match", "points_match", "lloyd_fixed")}}
                  for r in rows]
        all_pass = all(c["value_match"] and c["points_match"] and c["lloyd_fixed"]
                       for c in checks)
    else:
        require(rec["command"] == "verify", "record is not a verify record")
        require(rec["parameters"]["level"] == lvl, "level parameter lost")
        checks, all_pass = rec["results"]["checks"], rec["results"]["all_pass"]
    require([c["n"] for c in checks] == list(range(1, max_n + 1)),
            "verify rows do not cover n = 1..max-n")
    values = []
    for c in checks:
        n = c["n"]
        v = refs.v(n)
        require(rat(c["dp_value"]) == v, f"verify n={n}: dp_value != reference V_n")
        require(rat(c["closed_value"]) == v, f"verify n={n}: closed_value != reference V_n")
        require(c["value_match"] and c["points_match"] and c["lloyd_fixed"],
                f"verify n={n}: a check flag is false")
        values.append(v)
    require(all_pass is True, "verify all_pass is not true")
    _checked_decreasing(values, "verify")


def check_error_table(argv, stdout, refs: References):
    max_n = int(_argv_value(argv, "--max-n"))
    rec, rows = parse_cli(stdout, _fmt_of(argv))
    if not rows:
        require(rec["command"] == "error-table", "record is not an error-table record")
        rows = rec["results"]["rows"]
    require([int(r["n"]) for r in rows] == list(range(1, max_n + 1)),
            "error-table rows do not cover n = 1..max-n")
    values = []
    for r in rows:
        n, v = int(r["n"]), rat(r["v_exact"])
        ref = refs.v(n)
        require(v == ref, f"error-table n={n}: v_exact != reference V_n")
        require(rat(r["excess"]) == v - V_INF, f"error-table n={n}: excess != V_n - 3/16")
        require(r["v_float"] == format(float(ref), ".12g"),
                f"error-table n={n}: v_float is not V_n rounded")
        _power_of_two_check(n, v, "error-table")
        values.append(v)
    _checked_decreasing(values, "error-table")


def _optimal_sets(rec, rows):
    """[(split words, [(x, y)], total, variance_term, a_term)] per set."""
    if not rows:
        require(rec["command"] == "optimal-set", "record is not an optimal-set record")
        return [(s["split_set"], [(rat(p["x"]), rat(p["y"])) for p in s["points"]],
                 rat(s["total"]), rat(s["variance_term"]), rat(s["a_term"]))
                for s in rec["results"]["sets"]]
    sets = []
    for idx, group in itertools.groupby(rows, key=lambda r: r["set_index"]):
        group = list(group)
        require([int(r["point_index"]) for r in group] == list(range(len(group))),
                f"set {idx}: point indices out of order")
        g = group[0]
        for r in group:
            require((r["split_set"], r["total"], r["variance_term"], r["a_term"])
                    == (g["split_set"], g["total"], g["variance_term"], g["a_term"]),
                    f"set {idx}: rows disagree on the set's totals")
        words = g["split_set"].split("+") if g["split_set"] else []
        sets.append((words, [(rat(r["x"]), rat(r["y"])) for r in group],
                     rat(g["total"]), rat(g["variance_term"]), rat(g["a_term"])))
    return sets


def _check_on_segment(n, pts, what):
    s = Fraction(1, n)
    for x, y in pts:
        require(y == x + s, f"{what}: point ({x}, {y}) is not on S_{n}")
        require(-s <= x <= 1, f"{what}: abscissa {x} outside S_{n}")
    xs = [x for x, _ in pts]
    require(all(a < b for a, b in zip(xs, xs[1:])), f"{what}: abscissas not increasing")


def check_optimal_set(argv, stdout, refs: References):
    n = int(_argv_value(argv, "--n"))
    selector = _argv_value(argv, "--split-set") if "--split-set" in argv else "canonical"
    rec, rows = parse_cli(stdout, _fmt_of(argv))
    sets = _optimal_sets(rec, rows)
    l = level(n)
    words_l = ["".join(w) for w in itertools.product("12", repeat=l)]
    if selector == "all":
        require(len(sets) == math.comb(2 ** l, n - 2 ** l),
                f"optimal-set n={n}: {len(sets)} sets, expected C(2^{l}, {n - 2 ** l})")
        require(len({tuple(s[0]) for s in sets}) == len(sets),
                f"optimal-set n={n}: a split set repeats")
    else:
        require(len(sets) == 1, f"optimal-set n={n}: expected one set")
        require(sorted(sets[0][0]) == words_l[:n - 2 ** l],
                f"optimal-set n={n}: split set is not the canonical one")
    v, u = refs.v(n), refs.u(n)
    totals = set()
    for words, pts, total, var_term, a in sets:
        what = f"optimal-set n={n} split {'+'.join(words)}"
        require(len(words) == n - 2 ** l and all(w in words_l for w in words),
                f"{what}: not {n - 2 ** l} words of length {l}")
        require(len(pts) == n, f"{what}: {len(pts)} points")
        _check_on_segment(n, pts, what)
        require([2 * x + Fraction(1, n) for x, _ in pts] == optimal_feet(n, words),
                f"{what}: feet are not the centroids of the split codebook")
        require(total == v, f"{what}: total != reference V_n")
        require(var_term == u, f"{what}: variance_term != unconstrained error")
        require(a == v - u, f"{what}: a_term != V_n - unconstrained error")
        totals.add(total)
    require(len(totals) == 1, f"optimal-set n={n}: totals differ between sets")
    require(v > V_INF, f"optimal-set n={n}: V_n not above 3/16")


def check_asymptotics(argv, stdout, refs: References):
    max_level = int(_argv_value(argv, "--max-level"))
    rec, rows = parse_cli(stdout, _fmt_of(argv))
    if not rows:
        require(rec["command"] == "asymptotics", "record is not an asymptotics record")
        rows = rec["results"]["rows"]
    require([int(r["level"]) for r in rows] == list(range(1, max_level + 1)),
            "asymptotics rows do not cover levels 1..max-level")
    dims = []
    for r in rows:
        l, n, v = int(r["level"]), int(r["n"]), rat(r["v_exact"])
        require(n == 2 ** l, f"asymptotics level {l}: n != 2**level")
        require(v == refs.v(n), f"asymptotics level {l}: v_exact != reference V_n")
        require(v == power_of_two_error(l),
                f"asymptotics level {l}: v_exact != power-of-two formula")
        require(rat(r["excess"]) == v - V_INF, f"asymptotics level {l}: excess != V_n - 3/16")
        dims.append(float(r["dim_estimate"]))
    require(all(d < 2 for d in dims), "asymptotics: a dimension estimate is not below 2")
    require(all(a < b for a, b in zip(dims[4:], dims[5:])),
            "asymptotics: dimension estimates do not increase from level 5 on")


CLI_CHECKS = {"verify": check_verify, "error-table": check_error_table,
              "optimal-set": check_optimal_set, "asymptotics": check_asymptotics}


def check_descent(n: int, feet, steps, refs: References):
    """Each step: points on S_n, distortion and cell masses exact, masses sum
    to 1, distortion between V_n and the previous step's, and the next step
    the recentred cells of this one."""
    v, s = refs.v(n), Fraction(1, n)
    require(len(steps) >= 1, "descent recorded no step")
    expected = [(f - s) / 2 for f in feet]
    prev = None
    for t, step in enumerate(steps):
        what = f"descent n={n} step {t}"
        pts = [(rat(x), rat(y)) for x, y in step["points"]]
        require([x for x, _ in pts] == expected, f"{what}: points are not the expected iterate")
        _check_on_segment(n, pts, what)
        cells = cell_moments(n, pts)
        masses = [rat(m) for m in step["masses"]]
        require(masses == [c[0] for c in cells], f"{what}: cell masses are wrong")
        require(sum(masses) == 1, f"{what}: cell masses do not sum to 1")
        d = rat(step["distortion"])
        require(d == distortion(n, pts), f"{what}: distortion is wrong")
        require(d >= v, f"{what}: distortion below V_n")
        require(prev is None or d <= prev, f"{what}: Lloyd step raised the distortion")
        prev = d
        if t + 1 < len(steps):
            require(all(c[0] > 0 for c in cells), f"{what}: a cell is empty")
            expected = [(m1 / f - s) / 2 for f, m1, _ in cells]


def check_s2_fault(feet, value: str):
    """The feet {0, 1/2} on S_2 cut the line at 1/4, inside the Cantor set;
    with mu[0, 1/4] = 1/3 the distortion works out to 3/5."""
    pts = [((f - Fraction(1, 2)) / 2, (f + Fraction(1, 2)) / 2) for f in feet]
    require(distortion(2, pts) == S2_FAULT_VALUE, "integrator disagrees on the S_2 codebook")
    require(rat(value) == S2_FAULT_VALUE, "S_2 fault codebook: distortion != 3/5")
