"""End-to-end CLI tests via subprocess."""

import json
import subprocess
import sys

from knotoidal.measure import builtin_curve_path, estimate_measure, load_curve

SEGMENT = "0 0 0\n1 2 3\n"


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "knotoidal.cli", *args],
        capture_output=True,
        text=True,
    )


def test_trivial_invariant_text():
    result = run_cli("invariant", "--fixture", "trivial", "--format", "text")
    assert result.returncode == 0
    assert result.stdout.strip() == "1"


def test_invariant_leading_term_json():
    result = run_cli(
        "invariant", "--fixture", "5_7", "--eps-order", "1", "--hbar-order", "2"
    )
    assert result.returncode == 0
    data = json.loads(result.stdout)
    unit_terms = [
        t for t in data["terms"] if t["monomial"] == [0, 0, 0, 0] and t["eps"] == 0
    ]
    assert unit_terms[0]["hbar"] == 0 and unit_terms[0]["coeff"] == "1"
    assert any(t["eps"] == 1 for t in data["terms"])


def test_invariant_eps_coefficient_flag():
    result = run_cli(
        "invariant",
        "--fixture",
        "5_7",
        "--hbar-order",
        "2",
        "--eps-coefficient",
        "1",
    )
    data = json.loads(result.stdout)
    assert data["eps_coefficient"] == 1
    assert all(t["eps"] == 1 for t in data["terms"])


def test_invariant_bad_file_exits_2(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("this is not a decomposition\n")
    result = run_cli("invariant", "--file", str(bad))
    assert result.returncode == 2


def test_invariant_eps_coefficient_out_of_caps_exits_3():
    result = run_cli(
        "invariant", "--fixture", "trivial", "--eps-coefficient", "5"
    )
    assert result.returncode == 3


def test_compare_distinct_pair():
    result = run_cli(
        "compare",
        "--fixtures",
        "5_9",
        "5_561",
        "--with-reversal",
        "--expect-distinct",
        "--hbar-order",
        "3",
    )
    assert result.returncode == 0
    data = json.loads(result.stdout)
    assert [row["equal"] for row in data["comparisons"]] == [False, False]


def test_compare_equal_pair():
    result = run_cli(
        "compare", "--fixtures", "5_7", "5_421", "--hbar-order", "3", "--format", "text"
    )
    assert result.returncode == 0
    assert "Equal" in result.stdout
    strict = run_cli(
        "compare", "--fixtures", "5_7", "5_421", "--hbar-order", "3", "--expect-distinct"
    )
    assert strict.returncode == 1


def test_compare_self():
    result = run_cli("compare", "--fixtures", "5_7", "5_7", "--hbar-order", "2")
    data = json.loads(result.stdout)
    assert data["comparisons"][0]["equal"] is True


def test_table_statuses():
    result = run_cli("table", "--hbar-order", "2")
    assert result.returncode == 0
    data = json.loads(result.stdout)
    status = {tuple(row["pair"]): row["status"] for row in data["rows"]}
    assert status[("5_9", "5_561")] == "distinct"
    assert status[("5_12", "5_593")] == "distinct"
    assert status[("5_7", "5_421")] == "equal_up_to_caps"
    assert status[("5_19", "5_796")] == "no_decomposition"
    assert data["summary"]["distinct"] == 2
    assert data["summary"]["no_decomposition"] == 3
    writhes = {tuple(row["pair"]): row["writhe"] for row in data["rows"]}
    assert writhes[("5_24", "5_891")] == -3


def test_table_eps_zero_pairs_all_equal():
    result = run_cli("table", "--eps-order", "0", "--hbar-order", "3")
    data = json.loads(result.stdout)
    computed = [row for row in data["rows"] if row["status"] != "no_decomposition"]
    assert computed and all(row["status"] == "equal_up_to_caps" for row in computed)


def test_measure_segment(tmp_path):
    curve = tmp_path / "segment.xyz"
    curve.write_text(SEGMENT)
    result = run_cli("measure", "--file", str(curve), "--samples", "40")
    assert result.returncode == 0
    data = json.loads(result.stdout)
    assert data["dominant"] == "trivial"
    assert data["class_freq"]["trivial"]["fraction"] == "1"
    assert data["rejected"] == 0


def test_measure_deterministic_and_csv(tmp_path):
    csv_path = tmp_path / "out.csv"
    args = (
        "measure",
        "--file",
        builtin_curve_path("open_trefoil"),
        "--samples",
        "100",
        "--seed",
        "0",
        "--csv",
        str(csv_path),
    )
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == 0
    assert first.stdout == second.stdout
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "class,count,frequency"
    assert len(lines) > 2


def test_measure_zmean(tmp_path):
    result = run_cli(
        "measure",
        "--file",
        builtin_curve_path("open_trefoil"),
        "--samples",
        "12",
        "--phi",
        "zmean",
        "--hbar-order",
        "2",
    )
    assert result.returncode == 0
    data = json.loads(result.stdout)
    assert data["invariant_mean"]["eps_degree"] == 1
    assert data["invariant_mean"]["components"]


def test_measure_zmean_default_caps_match_api():
    path = builtin_curve_path("open_trefoil")
    result = run_cli("measure", "--file", path, "--samples", "50", "--phi", "zmean")
    assert result.returncode == 0
    cli_mean = json.loads(result.stdout)["invariant_mean"]
    api_mean = estimate_measure(load_curve(path), 50, phi="zmean").to_json()["invariant_mean"]
    assert json.dumps(cli_mean, sort_keys=True) == json.dumps(api_mean, sort_keys=True)


def test_measure_zero_samples_usage_error(tmp_path):
    curve = tmp_path / "segment.xyz"
    curve.write_text(SEGMENT)
    result = run_cli("measure", "--file", str(curve), "--samples", "0")
    assert result.returncode == 1
    assert "usage error" in result.stderr


def test_measure_missing_file_exits_2():
    result = run_cli("measure", "--file", "/definitely/not/here.xyz")
    assert result.returncode == 2


def test_measure_non_finite_coordinate_exits_2(tmp_path):
    curve = tmp_path / "nan.xyz"
    curve.write_text("0 0 0\nnan 1 2\n3 3 3\n")
    result = run_cli("measure", "--file", str(curve), "--samples", "5")
    assert result.returncode == 2
    assert "non-finite coordinate" in result.stderr
    assert "cannot convert" not in result.stderr

