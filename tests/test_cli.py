"""End-to-end CLI tests via subprocess."""

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from knotoidal.cli import _load_decomposition, build_parser, main
from knotoidal.errors import ParseError
from knotoidal.measure import builtin_curve_path, estimate_measure, load_curve

SEGMENT = "0 0 0\n1 2 3\n"
SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(*args, module="knotoidal.cli"):
    """Run the CLI in a fresh interpreter that imports this checkout's
    package, whatever ``PYTHONPATH`` the tests were started with."""
    inherited = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": SRC + (os.pathsep + inherited if inherited else "")}
    return subprocess.run(
        [sys.executable, "-m", module, *args],
        capture_output=True,
        text=True,
        env=env,
    )


def test_trivial_invariant_text():
    result = run_cli("invariant", "--fixture", "trivial", "--format", "text")
    assert result.returncode == 0
    assert result.stdout.strip() == "1"


def test_package_entry_point_runs_the_cli():
    result = run_cli("invariant", "--fixture", "trivial", "--format", "text", module="knotoidal")
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


def test_malformed_files_exit_2_with_one_line(tmp_path):
    good = tmp_path / "good.txt"
    good.write_text("labels 1\n")
    digits = tmp_path / "digits.txt"
    digits.write_text("labels ٢; C+ ١\n", encoding="utf-8")
    not_utf8 = tmp_path / "latin1.txt"
    not_utf8.write_bytes(b"labels 1\n# caf\xe9\n")
    curve = tmp_path / "bad.xyz"
    curve.write_text("0 0 0\n1_0 2 3\n")
    for args in (
        ("invariant", "--file", digits),
        ("invariant", "--file", not_utf8),
        ("compare", "--files", good, digits),
        ("compare", "--files", not_utf8, good),
        ("measure", "--file", curve, "--samples", "5"),
        ("measure", "--file", not_utf8, "--samples", "5"),
    ):
        result = run_cli(*map(str, args))
        assert (result.returncode, result.stdout) == (2, ""), args
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1, args


def test_decomposition_file_not_utf8_is_a_parse_error(tmp_path):
    not_utf8 = tmp_path / "latin1.txt"
    not_utf8.write_bytes(b"labels 1\n# caf\xe9\n")
    with pytest.raises(ParseError, match="latin1.txt: not UTF-8 text"):
        _load_decomposition(None, str(not_utf8))
    good = tmp_path / "good.txt"
    good.write_text("labels 1\n")
    for args in (("invariant", "--file", not_utf8), ("compare", "--files", good, not_utf8)):
        result = run_cli(*map(str, args))
        assert (result.returncode, result.stdout) == (2, ""), args
        assert result.stderr == f"error: {not_utf8}: not UTF-8 text: invalid continuation byte at byte 14\n"


def test_unknown_fixture_exits_2_with_one_line():
    for args in (
        ("invariant", "--fixture", "nope"),
        ("compare", "--fixtures", "nope", "5_7"),
        ("compare", "--fixtures", "5_7", "nope"),
    ):
        result = run_cli(*args)
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr == "error: no fixture named 'nope'\n"


def test_invariant_eps_coefficient_out_of_caps_exits_3():
    result = run_cli(
        "invariant", "--fixture", "trivial", "--eps-coefficient", "5"
    )
    assert result.returncode == 3


def test_costly_caps_exit_3():
    # from hbar ~ 14300 the cost (eps+1)*2^hbar has more than 4300 digits
    for hbar in ("40", "15000"):
        result = run_cli("invariant", "--fixture", "5_7", "--hbar-order", hbar)
        assert result.returncode == 3
        assert result.stderr.startswith("caps error:") and "limit" in result.stderr
    result = run_cli("compare", "--fixtures", "5_7", "5_421", "--eps-order", "2", "--hbar-order", "10")
    assert result.returncode == 3
    # zmean checks the caps before it projects any of the 4000 directions
    path = builtin_curve_path("open_trefoil")
    result = run_cli("measure", "--file", path, "--phi", "zmean", "--hbar-order", "40", "--samples", "4000")
    assert (result.returncode, result.stdout) == (3, "")
    assert result.stderr.startswith("caps error:") and "limit" in result.stderr


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


def test_table_mixed_row_with_reversal():
    result = run_cli("table", "--with-reversal", "--hbar-order", "2")
    assert result.returncode == 0
    data = json.loads(result.stdout)
    status = {tuple(row["pair"]): row["status"] for row in data["rows"]}
    assert status[("5_7", "5_421")] == "mixed"
    assert data["summary"] == {
        "distinct": 2,
        "equal_up_to_caps": 0,
        "no_decomposition": 3,
        "mixed": 1,
    }


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


def test_measure_zmean_text_prints_the_mean():
    # the eps^1 part of the mean, one line per term in the term order of
    # InvariantValue.to_json; classes mode prints no mean
    path = builtin_curve_path("open_trefoil")
    zmean = run_cli("measure", "--file", path, "--phi", "zmean", "--format", "text")
    classes = run_cli("measure", "--file", path, "--format", "text")
    assert zmean.returncode == classes.returncode == 0
    lines, head = zmean.stdout.splitlines(), classes.stdout.splitlines()
    assert lines[: len(head)] == head
    assert lines[len(head):] == [
        "invariant mean, eps^1 part, at caps (eps 1, hbar 2):",
        "  -1021/1000 * eps * hbar * a",
        "  -583/500 * eps * hbar^2 * b",
        "  5803/4000 * eps * hbar^2 * b*a",
        "  -469/200 * eps * hbar^2 * y*x",
        "  441/160 * eps * hbar^2 * b*a^2",
        "  -3873/4000 * eps * hbar^2 * y*a*x",
    ]
    assert "invariant mean" not in classes.stdout


def test_measure_zero_samples_usage_error(tmp_path):
    curve = tmp_path / "segment.xyz"
    curve.write_text(SEGMENT)
    result = run_cli("measure", "--file", str(curve), "--samples", "0")
    assert result.returncode == 1
    assert "usage error" in result.stderr


def test_measure_non_finite_tol_is_a_usage_error():
    for tol in ("nan", "inf"):
        result = run_cli("measure", "--file", builtin_curve_path("open_trefoil"), "--tol", tol)
        assert result.returncode == 1, tol
        assert "usage error" in result.stderr


def test_measure_seed_outside_64_bits_is_a_usage_error():
    # rand64 would read -1 as 2**64 - 1 and print a seed it did not sample with
    for seed in ("-1", str(2**64)):
        result = run_cli("measure", "--file", builtin_curve_path("open_trefoil"), "--seed", seed)
        assert result.returncode == 1, seed
        assert "usage error" in result.stderr


def test_package_main_is_the_cli():
    args = ("invariant", "--fixture", "5_9", "--hbar-order", "2")
    package = run_cli(*args, module="knotoidal")
    assert package.returncode == 0
    assert package.stdout == run_cli(*args).stdout


def test_readme_names_every_option():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    (subcommands,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    missing = [
        f"{command} {option}"
        for command, parser in subcommands.choices.items()
        for action in parser._actions
        for option in action.option_strings
        if option.startswith("--") and option != "--help"
        and not re.search(rf"{re.escape(option)}(?![\w-])", readme)
    ]
    assert missing == []


def test_measure_classes_rejects_order_flags(tmp_path):
    curve = tmp_path / "segment.xyz"
    curve.write_text(SEGMENT)
    for flags in (["--eps-order", "0"], ["--hbar-order", "9"], ["--phi", "classes", "--hbar-order", "2"]):
        result = run_cli("measure", "--file", str(curve), "--samples", "5", *flags)
        assert result.returncode == 1, flags
        assert "apply only to --phi zmean" in result.stderr
    assert run_cli("measure", "--file", str(curve), "--samples", "5").returncode == 0
    result = run_cli("measure", "--file", str(curve), "--samples", "5", "--phi", "zmean", "--hbar-order", "-1")
    assert result.returncode == 1
    assert "non-negative" in result.stderr


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


def test_a_bare_value_error_is_a_bug_not_an_exit_code(monkeypatch):
    # bad input raises a KnotoidalError; a bare ValueError from inside the
    # package is a bug, so main lets it through rather than print it as one
    def broken(*_):
        raise ValueError("a bug")

    monkeypatch.setattr("knotoidal.cli.evaluate_Z", broken)
    with pytest.raises(ValueError, match="a bug"):
        main(["invariant", "--fixture", "trivial"])
