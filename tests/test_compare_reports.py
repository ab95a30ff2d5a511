"""scripts/compare_reports.py: two catalog CSVs equal in every column but runtime_ms."""

import csv

from test_params import load

compare = load("scripts/compare_reports.py", "shipped_compare_reports").main

FIELDS = ["check_id", "anchor", "measured", "bound", "pass", "seed", "runtime_ms"]
ROWS = [["a/one", "x", "0.5", "1.0", "True", "7", "12"],
        ["b/two", "y", "2.0", "1.0", "False", "7", "3"],
        ["c/three", "z", "1e-17", "1e-10", "True", "7", "40"]]


def write(path, rows):
    with open(path, "w", newline="") as stream:
        writer = csv.writer(stream)
        writer.writerow(FIELDS)
        writer.writerows(rows)
    return str(path)


def test_rows_equal_but_for_runtime_are_equal(tmp_path, capsys):
    a = write(tmp_path / "a.csv", ROWS)
    b = write(tmp_path / "b.csv", [row[:-1] + ["999"] for row in ROWS])
    assert compare([a, b]) == 0
    assert capsys.readouterr().out == "3 rows equal apart from runtime_ms\n"


def test_the_first_differing_check_is_named(tmp_path, capsys):
    a = write(tmp_path / "a.csv", ROWS)
    changed = [ROWS[0], ROWS[1][:2] + ["2.0000000000000004"] + ROWS[1][3:],
               ROWS[2][:4] + ["False"] + ROWS[2][5:]]
    b = write(tmp_path / "b.csv", changed)
    assert compare([a, b]) == 1
    assert capsys.readouterr().err.startswith("b/two: differs")
    assert compare([a, b, "--skip", "b/"]) == 1
    assert capsys.readouterr().err.startswith("c/three: differs")
    assert compare([a, b, "--skip", "b/", "--skip", "c/"]) == 0


def test_a_missing_row_is_named(tmp_path, capsys):
    a = write(tmp_path / "a.csv", ROWS)
    b = write(tmp_path / "b.csv", ROWS[:2])
    assert compare([a, b]) == 1
    assert capsys.readouterr().err.startswith("c/three: differs")
    assert compare([b, a]) == 1
    assert capsys.readouterr().err.startswith("c/three: differs")


def test_nothing_left_to_compare_fails(tmp_path, capsys):
    a = write(tmp_path / "a.csv", ROWS)
    assert compare([a, a, "--skip", ""]) == 1
    assert capsys.readouterr().err == "no rows to compare\n"
