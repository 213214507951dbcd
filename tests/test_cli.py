import contextlib
import csv
import hashlib
import io
import json
from datetime import timedelta

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cantorq.cli import main


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
    assert main(["optimal-set", "--n", "5", "--split-set", "11,11"]) == 2


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
]


@pytest.mark.parametrize("argv, code, digest", GOLDEN)
def test_records_are_byte_identical(capsys, argv, code, digest):
    assert main(argv.split()) == code
    out, err = capsys.readouterr()
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    assert err == ""


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
                   reason="ROADMAP item 4: the coefficient n**2 * excess "
                          "overflows a float past level 1024")
def test_asymptotics_past_level_1024():
    main(["asymptotics", "--kind", "dimension", "--max-level", "1025"])
