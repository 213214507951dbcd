import argparse
import contextlib
import csv
import gc
import hashlib
import io
import itertools
import json
import os
import shlex
import subprocess
import sys
import weakref
from datetime import timedelta
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cantorq import asymptotics, cli, closedform
from cantorq.cli import _Raw, _emit, _json, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_optimal_set_one_point(capsys):
    code, rec = run_json(capsys, "optimal-set", "--n", "1")
    assert code == 0
    assert rec["command"] == "optimal-set"
    assert rec["parameters"]["n"] == 1
    (s,) = rec["results"]["sets"]
    assert s["points"] == [{"x": "-1/4", "y": "3/4"}]
    assert s["total"] == "5/4"


def test_optimal_set_four_points(capsys):
    code, rec = run_json(capsys, "optimal-set", "--n", "4")
    assert code == 0
    (s,) = rec["results"]["sets"]
    assert [p["x"] for p in s["points"]] == ["-7/72", "1/72", "17/72", "25/72"]
    assert s["total"] == "893/2592"
    assert s["split_set"] == []


def test_optimal_set_all_split_sets_share_total(capsys):
    code, rec = run_json(capsys, "optimal-set", "--n", "3", "--split-set", "all")
    assert code == 0
    sets = rec["results"]["sets"]
    assert len(sets) == 2
    assert len({s["total"] for s in sets}) == 1


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("n", [*range(1, 13), 18])
def test_each_set_of_all_is_the_set_its_words_give(capsys, n, fmt):
    # the sets of one record share their point texts; each must still read
    # as the record of its own words does
    def sets(split_set):
        code, out = run(capsys, "optimal-set", "--n", str(n), "--split-set",
                        split_set, "--format", fmt)
        assert code == 0
        if fmt == "json":
            return [(",".join(s["split_set"]), s)
                    for s in json.loads(out)["results"]["sets"]]
        reader = csv.reader(out.split("\r\n")[2:-1])  # after the # line and header
        return [(rows[0][1].replace("+", ","), [row[1:] for row in rows])
                for _, group in itertools.groupby(reader, key=lambda row: row[0])
                for rows in [list(group)]]

    every = sets("all")
    assert len(every) == closedform.count_optimal_sets(n)
    assert len({words for words, _ in every}) == len(every)
    for words, s in every:
        assert sets(words) == [(words, s)]


def test_optimal_set_explicit_split_set(capsys):
    code, rec = run_json(capsys, "optimal-set", "--n", "3", "--split-set", "2")
    assert code == 0
    (s,) = rec["results"]["sets"]
    assert s["split_set"] == ["2"]
    assert [p["x"] for p in s["points"]] == ["-1/12", "7/36", "11/36"]


def test_optimal_set_invalid_split_set_is_usage_error(capsys):
    assert main(["optimal-set", "--n", "3", "--split-set", "11,12"]) == 2
    assert main(["optimal-set", "--n", "3", "--split-set", "bogus"]) == 2
    # a repeated word is refused, not merged into one
    capsys.readouterr()
    assert main(["optimal-set", "--n", "5", "--split-set", "11,11"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: repeated word 11\n"


@pytest.mark.parametrize("argv, err", [
    ("optimal-set --n 3 --split-set 11", "11 is not a word of length 1 over {1,2}"),
    ("optimal-set --n 5 --split-set 11,11", "repeated word 11"),
    ("optimal-set --n 3 --split-set 3", "3 is not a word of length 1 over {1,2}"),
    ("optimal-set --n 3 --split-set bogus",
     "bogus is not a word of length 1 over {1,2}"),
    ("optimal-set --n 5 --split-set 1x,2", "1x is not a word of length 2 over {1,2}"),
    # repr keeps the usage error on one line
    ("optimal-set --n 3 --split-set 1\n2",
     "'1\\n2 is not a word of length 1 over {1,2}'"),
])
def test_bad_split_word_is_named_by_its_letters(capsys, argv, err):
    assert main(argv.split(" ")) == 2
    assert capsys.readouterr() == ("", f"error: {err}\n")


@pytest.mark.parametrize("argv", [
    # C(16, 8) * 24 = 308880 rows; C(32, 16) is about 6e8 sets
    *(pytest.param(["optimal-set", "--n", n, "--split-set", "all"], id=n)
      for n in ("24", "48", str(10 ** 18))),
    # one set of n point rows; 10**20 overflows islice, 2**30 would build
    # a list of 2**31 centroid numerators
    *(pytest.param(["optimal-set", "--n", str(n)], id=f"canonical-{n}")
      for n in (10 ** 20, 2 ** 30, 2 ** 16 + 1)),
    pytest.param(["error-table", "--max-n", str(2 ** 16 + 1)],
                 id=f"error-table-{2 ** 16 + 1}"),
])
def test_optimal_set_all_above_row_cap_is_usage_error(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_output_is_deterministic(capsys):
    _, first = run(capsys, "optimal-set", "--n", "5", "--split-set", "all")
    _, second = run(capsys, "optimal-set", "--n", "5", "--split-set", "all")
    assert first == second


def test_error_table(capsys):
    code, rec = run_json(capsys, "error-table", "--max-n", "4")
    assert code == 0
    rows = rec["results"]["rows"]
    assert rows[0]["v_exact"] == "5/4"
    assert rows[1]["v_exact"] == "41/72"
    exacts = [tuple(map(int, r["v_exact"].split("/"))) for r in rows]
    values = [a / b for a, b in exacts]
    assert values == sorted(values, reverse=True)


def test_error_table_csv(capsys):
    code, out = run(capsys, "error-table", "--max-n", "2", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# command=error-table")
    assert lines[1] == "n,v_exact,v_float,excess"
    assert lines[2].split(",")[1] == "5/4"


def test_verify_passes(capsys):
    code, rec = run_json(capsys, "verify", "--max-n", "4", "--level", "6")
    assert code == 0
    assert rec["results"]["all_pass"] is True
    assert all(c["value_match"] and c["points_match"] and c["lloyd_fixed"]
               for c in rec["results"]["checks"])


def test_verify_usage_error_when_level_too_small(capsys):
    assert main(["verify", "--max-n", "20", "--level", "4"]) == 2


def test_verify_usage_error_when_level_above_cap(capsys):
    assert main(["verify", "--max-n", "1", "--level", "21"]) == 2
    # rejected before 2**level is built
    assert main(["verify", "--max-n", "1", "--level", str(10 ** 18)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 2 and "Traceback" not in err


def test_verify_reports_an_oracle_failure_in_one_line(capsys, monkeypatch):
    lloyd_step = cli.oracle.lloyd_step

    def failing_at_3(n, points):
        if n == 3:
            raise cli.oracle.EmptyCellError("cell of point 2 has zero measure")
        return lloyd_step(n, points)

    monkeypatch.setattr(cli.oracle, "lloyd_step", failing_at_3)
    assert main(["verify", "--max-n", "4", "--level", "6"]) == 1
    assert capsys.readouterr() == (
        "", "error: oracle failure at n=3: cell of point 2 has zero measure\n")


def test_verify_reads_the_closed_value_as_a_reduced_pair(capsys, monkeypatch):
    def no_fraction(n):
        raise AssertionError(f"quantization_error({n}) called")

    monkeypatch.setattr(closedform, "quantization_error", no_fraction)
    code, rec = run_json(capsys, "verify", "--max-n", "4", "--level", "6")
    assert (code, rec["results"]["all_pass"]) == (0, True)
    assert rec["results"]["checks"][1]["closed_value"] == "41/72"
    sweep = closedform.error_pairs_sweep
    monkeypatch.setattr(closedform, "error_pairs_sweep", lambda ns: (
        ((82, 144), *pairs[1:]) if n == 2 else pairs  # 41/72 unreduced
        for n, pairs in zip(ns, sweep(ns))))
    code, rec = run_json(capsys, "verify", "--max-n", "4", "--level", "6")
    assert (code, rec["results"]["all_pass"]) == (1, False)
    assert [c["value_match"] for c in rec["results"]["checks"]] == [
        True, False, True, True]


def _verify_columns(rec):
    """The three checks of a verify record, one list per column."""
    checks = rec["results"]["checks"]
    return [[c[k] for c in checks] for k in ("value_match", "points_match", "lloyd_fixed")]


def test_verify_fails_on_lloyd_fixed_alone(capsys, monkeypatch):
    step = cli.oracle.lloyd_step
    monkeypatch.setattr(cli.oracle, "lloyd_step",
                        lambda n, ps: None if n == 2 else step(n, ps))
    code, rec = run_json(capsys, "verify", "--max-n", "4", "--level", "6")
    assert (code, rec["results"]["all_pass"]) == (1, False)
    assert _verify_columns(rec) == [[True] * 4, [True] * 4, [True, False, True, True]]


def test_verify_fails_on_points_match_alone(capsys, monkeypatch):
    # the other optimal set at n = 3 splits word "2": the DP's value, and
    # the canonical set's Lloyd step, are unchanged
    dp, other = cli.oracle.dp_optimal_upto, closedform.build_alpha(3, ["2"])
    monkeypatch.setattr(cli.oracle, "dp_optimal_upto", lambda max_n, level: [
        (other, value) if ps.n == 3 else (ps, value) for ps, value in dp(max_n, level)])
    code, rec = run_json(capsys, "verify", "--max-n", "4", "--level", "6")
    assert (code, rec["results"]["all_pass"]) == (1, False)
    assert _verify_columns(rec) == [[True] * 4, [True, True, False, True], [True] * 4]


def _module_env():
    """The environment in which a child process imports this cantorq."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def _run_module(*argv):
    """Run `python -m cantorq.cli argv` in a child process."""
    return subprocess.run([sys.executable, "-m", "cantorq.cli", *argv],
                          env=_module_env(), capture_output=True, text=True)


def test_the_module_exits_through_entry_with_mains_code(capsys):
    usage = _run_module("verify", "--max-n", "5", "--level", "2")
    assert (usage.returncode, usage.stdout, usage.stderr) == (
        2, "", "error: max-n 5 exceeds 2**level = 4\n")
    table = _run_module("error-table", "--max-n", "3")
    assert main(["error-table", "--max-n", "3"]) == 0
    assert (table.returncode, table.stdout, table.stderr) == (
        0, capsys.readouterr().out, "")


def test_verify_refuses_work_above_the_budget_before_any_work(capsys, monkeypatch):
    # the DP is replaced, so no argv here runs it: each level's largest
    # max-n within the budget reaches it, and one more is refused first
    calls = []
    monkeypatch.setattr(cli.oracle, "dp_optimal_upto",
                        lambda max_n, level: calls.append((max_n, level)) or [])
    allowed = [(4, 10), (2, 12), (8, 10)]  # the benchmark's and the README's
    for level in range(1, cli.MAX_ENUM_LEVEL + 1):
        largest = min(2 ** level, cli.VERIFY_BUDGET // 2 ** level + 1)
        allowed.append((largest, level))
        if largest < 2 ** level:
            argv = ["verify", "--max-n", str(largest + 1), "--level", str(level)]
            assert main(argv) == 2
            assert capsys.readouterr().err == (
                "error: (max-n - 1) * 2**level exceeds the work budget "
                f"{cli.VERIFY_BUDGET}\n")
    for max_n, level in allowed:
        assert main(["verify", "--max-n", str(max_n), "--level", str(level)]) == 0
    assert calls == allowed
    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())  # unwrapped
    assert f"(max-n - 1) * 2**level <= {cli.VERIFY_BUDGET}" in help_text


def test_verify_parameters(capsys):
    _, rec = run_json(capsys, "verify", "--max-n", "2", "--level", "3")
    assert rec["parameters"] == {"format": "json", "level": 3, "max_n": 2}
    code, out = run(capsys, "verify", "--max-n", "2", "--level", "3",
                    "--format", "csv")
    assert code == 0
    assert out.split("\r\n")[0] == "# command=verify format=csv level=3 max_n=2"


def test_asymptotics_dimension(capsys):
    code, rec = run_json(capsys, "asymptotics", "--kind", "dimension",
                         "--max-level", "3")
    assert code == 0
    rows = rec["results"]["rows"]
    assert rows[0]["excess"] == "55/144"
    assert len(rows) == 3


# Runs `python -m cantorq.cli argv` with its stdout on /dev/null, as the CI
# memory step does, and prints its exit code and peak RSS.  Its child starts
# from this small process, not from the test runner, as Linux carries the peak
# RSS of the address space an exec leaves into ru_maxrss (KiB on Linux).
PEAK_RSS = """
import os, sys
argv = [sys.executable, "-m", "cantorq.cli", *sys.argv[1:]]
_, status, usage = os.wait4(os.posix_spawn(sys.executable, argv, os.environ,
    file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]), 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def _peak_rss(*argv):
    """(exit code, peak RSS in KiB, stderr) of `python -m cantorq.cli argv`."""
    run = subprocess.run([sys.executable, "-c", PEAK_RSS, *argv],
                         env=_module_env(), capture_output=True, text=True)
    [line] = run.stdout.splitlines()
    code, peak_kib = map(int, line.split())
    return code, peak_kib, run.stderr


def test_asymptotics_at_the_cap_fails_before_any_other_sample(capsys):
    # the sample at max-level overflows first, so none of the 65535 powers of
    # two below it is built (5 s and a 294 MB peak while every sample came
    # first), and no byte of the record is written
    argv = ["asymptotics", "--kind", "dimension", "--max-level", "65536"]
    code, peak_kib, err = _peak_rss(*argv)
    assert code == 1
    assert peak_kib < 40 * 1024
    assert err.splitlines()[-1].startswith("OverflowError")
    with pytest.raises(OverflowError):
        main(argv)
    assert capsys.readouterr().out == ""


def test_error_table_at_the_cap_streams_its_rows():
    # 15 MB with each row written as the sweep makes it, 41 MB with all
    # 65536 rows held until the first byte
    code, peak_kib, _ = _peak_rss("error-table", "--max-n", "65536")
    assert code == 0
    assert peak_kib < 25 * 1024


def test_asymptotics_plot_data_csv(capsys):
    code, out = run(capsys, "asymptotics", "--kind", "coefficient",
                    "--max-level", "2", "--plot-data", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "x,y"
    assert len(lines) == 4


def test_rationals_are_always_p_over_q(capsys):
    _, rec = run_json(capsys, "error-table", "--max-n", "3")
    for row in rec["results"]["rows"]:
        num, den = row["v_exact"].split("/")
        int(num), int(den)


def test_nonpositive_arguments_are_usage_errors(capsys):
    assert main(["error-table", "--max-n", "0"]) == 2
    assert main(["asymptotics", "--kind", "dimension", "--max-level", "0"]) == 2


def _readme_cli_examples() -> list[str]:
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1]
    return [line for line in block.split("```", 1)[0].splitlines()
            if line.startswith("cantorq ")]


def test_readme_cli_examples_run(capsys):
    examples = _readme_cli_examples()
    assert examples
    for line in examples:
        assert main(shlex.split(line, comments=True)[1:]) == 0, line
        assert capsys.readouterr().err == "", line


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


# stdout SHA-256 and exit code of each argv, pinned so that a refactor of
# the CLI cannot change a record's bytes
GOLDEN = [
    ("optimal-set --n 5", 0,
     "b14d3fba33b3d2d2bfae694f358b1fb5d5cab9583d08400da459b29b6bad46fd"),
    ("optimal-set --n 5 --format csv", 0,
     "30cc9f75b1c84892d66e1f6d20812c92a07b5c63c7e7dcdd7d0d06aaf3182118"),
    ("optimal-set --n 64 --format csv", 0,
     "3dc566ba8efb05f71086ce7011117cf1d7dc6f9a736016e9f3b19690b8fbc8f1"),
    ("optimal-set --n 5 --split-set all", 0,
     "9aea5281753917beeca70027ae787ba6e008cd55c808f5ee45e4c40a5a932716"),
    ("optimal-set --n 5 --split-set all --format csv", 0,
     "4f3132a8a7b83c2a7414a43dc4df5180cfec30b74acea71a59c21df6ce71f5e5"),
    ("optimal-set --split-set 11,12 --n 6", 0,
     "43b701ca07f612dec9f4a5d15d44dc883b3fe7e689072c04b7463800ef26a3d0"),
    ("optimal-set --n 6 --split-set 11,12 --format csv", 0,
     "e6148dedb5f0087792129d96a55e0aa3fc6c39b3154cce91d8b304c8402cff48"),
    ("error-table --max-n 300", 0,
     "29d1731978076339bdd414a33a22e4d699861dd5348c622fcafd45ad4d6e94d1"),
    ("error-table --max-n 300 --format csv", 0,
     "e5eeb0d70f65a468cef148843b3da08c34b505737e8a272d5a7fc927eb01de0e"),
    ("verify --max-n 16 --level 8", 0,
     "6af75c6645eca333bd11f867f2b68c6c505fc1ae7b8b9dba1622b9d657f6521a"),
    ("verify --max-n 16 --level 8 --format csv", 0,
     "2e4344a4a4f76f8dcef6de91a6338b8b8ebdab41e697da22585ec2be4f06e0d5"),
    ("asymptotics --kind dimension --max-level 40", 0,
     "80ec46bcd4af7f3abc64af5e8ff2097a99b67fdd89ee5c1ee7e036a539239170"),
    ("asymptotics --kind coefficient --max-level 40 --format csv", 0,
     "1bae6172226b568825606166a80d087f5f5454d3f2904c4c0b09c9ea7490824c"),
    ("asymptotics --kind dimension --max-level 40 --plot-data", 0,
     "58161870507a648615fac295ec2e4d53750ad2a977c47e48d6614e550252cccf"),
    ("asymptotics --kind dimension --max-level 40 --plot-data --format csv", 0,
     "d49e6a45ce89833f5d6891c2bb444cd4df0864acd8126cc8a580e1dbd516f91a"),
    ("asymptotics --kind coefficient --max-level 40 --plot-data", 0,
     "71f8bc510cd6a81d4dd9d7645e033726b22539664cb5fafaf6d54e345e1ee9fe"),
    ("asymptotics --kind coefficient --max-level 40 --plot-data --format csv", 0,
     "370324bee2082bf0389d080c7523e2fd383220acb83fdbb29d9971e42a169ad4"),
    # the sizes the benchmark's `tables` workload runs
    ("error-table --max-n 2003 --format csv", 0,
     "816b4f17ab61b3720c9a440690c5a32e5c9f57085a9f75f19d2d99695047072f"),
    ("optimal-set --n 2100", 0,
     "7039cb13a8846cad4b62b156fce91342608e642ac2e50059be5f9646e536ceb4"),
    ("optimal-set --n 2101", 0,
     "c4497eb3dafb01c7748e1bd9e3cec3938ea5d4fd81eff1ff70a4b7c06e363c56"),
    ("asymptotics --kind dimension --max-level 1024", 0,
     "01425ef31faaf23c68398752cad3eb7d74d51e4d10f27fbb9328ca902749114a"),
    ("asymptotics --kind coefficient --max-level 1024 --format csv", 0,
     "1f59dc2a88edb9c3e141d68feec9c481a75e6ecd5ee85d9e2a1100e58a11c9bd"),
    # unsorted split words; the benchmark's `--split-set all` operation
    ("optimal-set --n 7 --split-set 22,11,21", 0,
     "3b9b81b1c5009e44d26fe6fcb9fd2a0944905d96131d9d3ad8549203e812505c"),
    ("optimal-set --n 7 --split-set 22,11,21 --format csv", 0,
     "2de816c4390913999c78a324c3374e0ae0632883fcb5c40a1128ab1df6c20e04"),
    ("optimal-set --n 18 --split-set all --format csv", 0,
     "8e0cc8194db23ae0f7c322d0149a8af67f36db3abcdb34bf833c76a2892b4bd0"),
    ("verify --max-n 8 --level 6 --format csv", 0,
     "548cc9cee254f6db16e71861a477d6c3f67f4419bb21ef0f4393b557ee940049"),
    # the largest error-table records, at the row cap
    ("error-table --max-n 65536", 0,
     "cad99da7d0f6699800ce8b34647641dbd42e3940a8ea522ef9803f2ebc009cf7"),
    ("error-table --max-n 65536 --format csv", 0,
     "ea2fe234add95f15355f4921ebbf4de245e8eff0a2e902866f36b7050f2a9747"),
    # the largest point-row CSV record, 12.5 MB
    ("optimal-set --n 65536 --format csv", 0,
     "ca97cbd82f17238a805ffc93c62c195a3c9589f7fd19deca1f51897c1e198ddf"),
    ("optimal-set --n 65536", 0,
     "0a77622e67380b179ba04ebdfd19e52429c2f852e16512f83eb54c91c93e4825"),
    # C(16, 4) = C(16, 12) = 1820 sets: 36400 point rows at n = 20, and at
    # n = 28 the largest --split-set all under the row cap, 50960 rows
    ("optimal-set --n 20 --split-set all", 0,
     "2aa030dd5b81b1f49ab033056c3ad137711c86e8dcadc2f93714e61845a2592c"),
    ("optimal-set --n 20 --split-set all --format csv", 0,
     "83cce9c2c92f9aaa50348b75334be5dc4a95bff2a5ae58b0e153a30a533a9d81"),
    ("optimal-set --n 28 --split-set all", 0,
     "aebcfba9ec0a41e5d99c06ba7a9f8c34563726b24f03ef396b256ad42dfb45b0"),
    ("optimal-set --n 28 --split-set all --format csv", 0,
     "d8dc72a220f3d90f5374766a082680aa9c8a77492552f4fc58bbd985f918aff8"),
]


@pytest.mark.parametrize("argv, code, digest", GOLDEN)
def test_records_are_byte_identical(capsys, argv, code, digest):
    assert main(argv.split()) == code
    out, err = capsys.readouterr()
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    assert err == ""


def test_only_typed_split_words_are_parsed(capsys, monkeypatch):
    # the canonical set and --split-set all are word indices from the start,
    # so their records come out with the parser refusing every call; typed
    # words are parsed once, as one set
    digests, calls = {argv: digest for argv, _, digest in GOLDEN}, []
    parse = closedform.parse_split_set

    def refuse(n, split_set):
        raise AssertionError(f"words parsed at n={n}: {split_set}")

    monkeypatch.setattr(closedform, "parse_split_set", refuse)
    for argv in ("optimal-set --n 20 --split-set all", "optimal-set --n 2100"):
        assert main(argv.split()) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digests[argv]
    monkeypatch.setattr(closedform, "parse_split_set",
                        lambda *args: calls.append(args) or parse(*args))
    argv = "optimal-set --n 7 --split-set 22,11,21"
    assert main(argv.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digests[argv]
    assert calls == [(7, ["22", "11", "21"])]


def _run_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _flag_value(hi):
    """An integer flag value up to hi, including invalid ones <= 0."""
    return st.integers(min_value=-2, max_value=hi).map(str)


@st.composite
def argvs(draw):
    """An argv of a bounded, fast run, valid or not."""
    command = draw(st.sampled_from(
        ("optimal-set", "error-table", "verify", "asymptotics")))
    if command == "optimal-set":
        n = draw(st.integers(min_value=-2, max_value=64))
        level = max(n, 1).bit_length() - 1
        # two draws in three are words over {1, 2}
        letters = draw(st.sampled_from(("12", "12", "123a")))
        ws = draw(st.lists(st.text(letters, min_size=level, max_size=level),
                           max_size=max(n - 2 ** level, 0) + 1))
        if ws and draw(st.booleans()):
            ws.append(ws[0])
        split = draw(st.sampled_from(
            ("canonical", ",".join(ws)) + (("all",) if n <= 18 else ())))
        argv = [command, "--n", str(n), "--split-set", split]
    elif command == "error-table":
        argv = [command, "--max-n", draw(_flag_value(300))]
    elif command == "verify":
        argv = [command, "--max-n", draw(_flag_value(70)),
                "--level", draw(_flag_value(6))]
    else:
        argv = [command, "--kind",
                draw(st.sampled_from(("dimension", "coefficient"))),
                "--max-level", draw(_flag_value(60))]
        if draw(st.booleans()):
            argv.append("--plot-data")
    return argv + ["--format", draw(st.sampled_from(("json", "csv")))]


@settings(max_examples=150, deadline=timedelta(seconds=1))
@given(argvs())
@example(["optimal-set", "--n", str(10 ** 20)])
@example(["optimal-set", "--n", str(2 ** 30)])
@example(["optimal-set", "--n", str(2 ** 16 + 1)])
@example(["error-table", "--max-n", str(2 ** 16 + 1)])
@example(["verify", "--max-n", str(2 ** 16 + 1), "--level", "20"])
@example(["asymptotics", "--kind", "dimension",
          "--max-level", str(2 ** 16 + 1)])
@example(["optimal-set", "--n", "x"])
@example(["optimal-set", "--n", "3", "--split-set", "1\r\n2\u2028"])
@example(["error-table"])
def test_every_argv_gives_one_record_or_one_error(argv):
    code, out, err = _run_captured(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        assert out == ""
        lines = err.splitlines()
        assert [line for line in lines if "error:" in line] == lines[-1:]
        return
    assert err == ""
    if "csv" in argv:
        comment, *rows = out.split("\r\n")
        assert comment.startswith(f"# command={argv[0]} ")
        rows = list(csv.reader(rows[:-1]))
        assert rows and all(len(row) == len(rows[0]) for row in rows)
    else:
        record = json.loads(out)
        assert record["command"] == argv[0]
        assert set(record) == {"command", "parameters", "results"}


@pytest.mark.xfail(raises=OverflowError,
                   reason="ROADMAP item 5: the coefficient n**2 * excess "
                          "overflows a float past level 1024")
def test_asymptotics_past_level_1024():
    main(["asymptotics", "--kind", "dimension", "--max-level", "1025"])


# text draws quotes, backslashes, control characters, non-ASCII characters
# and lone surrogates often, alone and among any other code points
json_text = st.text(st.one_of(
    st.sampled_from('"\\\x00\x1f\x7f\u00e9\u2028\ud800\udfff\U0001f600'),
    st.characters(exclude_categories=())))
json_values = st.recursive(
    st.one_of(json_text, st.booleans(), st.integers(),
              st.sampled_from((-(10 ** 400), 2 ** 4000))),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(json_text, inner, max_size=4)),
    max_leaves=20)


@given(json_values)
def test_json_matches_json_dumps(value):
    assert _json(value) == json.dumps(value, sort_keys=True, indent=2)


@pytest.mark.parametrize("value", [1.5, [1, {"a": 0.0}], None, (1,)])
def test_json_refuses_other_types(value):
    with pytest.raises(TypeError):
        _json(value)


def _args(fmt="json"):
    return argparse.Namespace(command="error-table", func=None, format=fmt,
                              max_n=3)


def test_emit_record_with_zero_rows(capsys):
    _emit(_args(), ["n", "v_exact"], iter(()), all_pass=True)
    record = {"command": "error-table",
              "parameters": {"format": "json", "max_n": 3},
              "results": {"all_pass": True, "rows": []}}
    assert capsys.readouterr().out == json.dumps(
        record, sort_keys=True, indent=2) + "\n"


def test_emit_writes_each_row_before_pulling_the_next(capsys):
    header, seen = ["n", "name", "flags"], []

    def rows():
        for k in range(4):
            seen.append(capsys.readouterr().out)  # what stdout held at pull k
            yield [k, f"row-{k}", [k % 2 == 0, {"k": k}]]

    _emit(_args(), header, rows(), "checks", all_pass=False)
    out = "".join(seen) + capsys.readouterr().out
    for k in range(1, 4):
        written = "".join(seen[:k + 1])
        assert f'"row-{k - 1}"' in written and f'"row-{k}"' not in written
    record = {"command": "error-table",
              "parameters": {"format": "json", "max_n": 3},
              "results": {"all_pass": False, "checks": [
                  dict(zip(header, [k, f"row-{k}", [k % 2 == 0, {"k": k}]]))
                  for k in range(4)]}}
    assert out == json.dumps(record, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("raws", [{"a"}, {"m"}, {"z"}, {"a", "z"}, {"points"}],
                         ids=["first", "middle", "last", "first-and-last", "alone"])
def test_emit_writes_a_raw_field_by_its_own_write(monkeypatch, raws):
    # a _Raw field, first, in the middle, last or alone in its row, is passed
    # to write as it is, never joined into its row, and the record keeps the
    # bytes of json.dumps
    header = ["points"] if raws == {"points"} else ["m", "z", "a"]
    records = [{h: [k, {"k": "\"%d\"" % k}, []] if h in raws else f"{h}-{k}"
                for h in header} for k in range(3)]
    rows = [[_Raw(json.dumps(record[h], sort_keys=True, indent=2)
                  .replace("\n", "\n" + 8 * " ")) if h in raws else record[h]
             for h in header] for record in records]
    written = []
    monkeypatch.setattr(sys, "stdout", argparse.Namespace(write=written.append))
    _emit(_args(), header, iter(rows), "sets")
    assert "".join(written) == json.dumps(
        {"command": "error-table", "parameters": {"format": "json", "max_n": 3},
         "results": {"sets": records}}, sort_keys=True, indent=2) + "\n"
    raw_fields = [v for row in rows for v in row if type(v) is _Raw]
    assert len(raw_fields) == 3 * len(raws)
    assert all(any(w is v for w in written) for v in raw_fields)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_error_table_makes_the_row_at_max_n_first(capsys, monkeypatch, fmt):
    # error_pairs(max-n) before the first byte, then one sweep over
    # 1..max-n-1, each row written before the next pair is made
    sweep, calls, out = closedform.error_pairs_sweep, [], []

    def written():  # the rows on stdout so far
        out.append(capsys.readouterr().out)
        text = "".join(out)
        return text.count('"n": ') if fmt == "json" else max(text.count("\n") - 2, 0)

    def pairs(n):
        calls.append(("error_pairs", n, written()))
        return next(sweep((n,)))

    def swept(ns):
        calls.append(("sweep", list(ns)))
        for n, p in zip(ns, sweep(ns)):
            calls.append(("pull", n, written()))
            yield p

    monkeypatch.setattr(closedform, "error_pairs", pairs)
    monkeypatch.setattr(closedform, "error_pairs_sweep", swept)
    assert main(["error-table", "--max-n", "5", "--format", fmt]) == 0
    assert out[0] == ""
    assert calls == [("error_pairs", 5, 0), ("sweep", [1, 2, 3, 4]),
                     *(("pull", n, n - 1) for n in range(1, 5))]


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_failing_row_writes_no_partial_record(capsys, monkeypatch, fmt):
    sweep = closedform.error_pairs_sweep

    def failing(ns):
        for n, pairs in zip(ns, sweep(ns)):
            if n == 5:
                raise RuntimeError("at max-n")
            yield pairs

    monkeypatch.setattr(closedform, "error_pairs_sweep", failing)
    with pytest.raises(RuntimeError, match="at max-n"):
        main(["error-table", "--max-n", "5", "--format", fmt])
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_failing_sample_writes_no_partial_record(capsys, monkeypatch, fmt):
    # the sample at max-level is made before the first byte, and it fails
    # if any sample does (asymptotics.dimension_sequence)
    sample = asymptotics._sample

    def failing(n, pairs):
        if n == 2 ** 5:
            raise OverflowError("at max-level")
        return sample(n, pairs)

    monkeypatch.setattr(asymptotics, "_sample", failing)
    with pytest.raises(OverflowError, match="at max-level"):
        main(["asymptotics", "--kind", "dimension", "--max-level", "5",
              "--format", fmt])
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [
    "error-table --max-n 50", "error-table --max-n 50 --format csv",
    "asymptotics --kind dimension --max-level 40",
    "asymptotics --kind coefficient --max-level 40 --format csv"])
def test_error_rows_build_no_fraction(capsys, monkeypatch, argv):
    # the rows are formatted, floated and logged from integer pairs
    made = []
    new = Fraction.__new__
    monkeypatch.setattr(Fraction, "__new__", lambda cls, *args, **kwargs:
                        made.append(args) or new(cls, *args, **kwargs))
    if hasattr(Fraction, "_from_coprime_ints"):  # Python 3.12 and up
        monkeypatch.setattr(Fraction, "_from_coprime_ints", classmethod(
            lambda cls, *args: made.append(args) or new(cls, *args)))
    assert main(argv.split()) == 0
    assert made == []
    assert capsys.readouterr().out.count("/") >= 80  # two "p/q" a row


def test_a_sets_points_are_written_as_text(capsys, monkeypatch):
    # no point of a set goes through _json, so its calls do not grow with n
    calls, json_ = [], cli._json
    monkeypatch.setattr(cli, "_json", lambda *args: calls.append(args) or json_(*args))
    counts = []
    for n in ("64", "128"):
        calls.clear()
        assert main(["optimal-set", "--n", n]) == 0
        counts.append(len(calls))
    assert counts[0] == counts[1]
    assert capsys.readouterr().out.count('"x": ') == 64 + 128


@pytest.mark.parametrize("split_set", ["canonical", "all"])
def test_no_codebook_is_alive_while_the_record_is_written(monkeypatch, split_set):
    # one table of the level's centroids per command, read once per set and
    # gone, with every codebook but its feet, before the record is written
    table, refs, reads, alive = closedform.feet_table, [], [], []

    def tracked(n):
        den, feet = table(n)
        refs.append(weakref.ref(feet))
        return den, lambda ss: reads.append(ss) or feet(ss)

    def emit(*args, **kwargs):
        gc.collect()
        alive.append(sum(ref() is not None for ref in refs))

    monkeypatch.setattr(closedform, "feet_table", tracked)
    monkeypatch.setattr(closedform, "build_alpha", None)
    monkeypatch.setattr(cli, "_emit", emit)
    assert main(["optimal-set", "--n", "6", "--split-set", split_set]) == 0
    assert alive == [0] and len(refs) == 1
    assert len(reads) == (6 if split_set == "all" else 1)
