import json

import pytest

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


@pytest.mark.parametrize("n", ["24", "48", str(10 ** 18)])
def test_optimal_set_all_above_row_cap_is_usage_error(capsys, n):
    # C(16, 8) * 24 = 308880 rows; C(32, 16) is about 6e8 sets
    code = main(["optimal-set", "--n", n, "--split-set", "all"])
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
