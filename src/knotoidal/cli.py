"""Command-line interface: invariants, pair comparison, tabulated pairs, measures.

Exit codes: 0 success (and, with ``--expect-distinct``, all comparisons
differ); 1 usage error; 2 input parse error; 3 caps error.  All output is
deterministic given the flags; JSON is emitted with sorted keys.
"""

from __future__ import annotations

import argparse
import json
import sys

from .diagram import (
    RotDecomp,
    fixture_decomposition,
    fixtures,
    parse_decomposition,
    reverse_decomposition,
    table_rows,
    writhe,
)
from .errors import CapsMismatch, DegreeOutOfRange, KnotoidalError
from .invariant import compare, epsilon_coefficient, evaluate_Z
from .measure import ZMEAN_CAPS, dominant_knotoid, estimate_measure, load_curve
from .series import Caps

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_CAPS = 3


class UsageError(Exception):
    pass


def _load_decomposition(args) -> tuple[str, RotDecomp]:
    if args.fixture is not None:
        return args.fixture, fixture_decomposition(args.fixture)
    with open(args.file) as handle:
        return args.file, parse_decomposition(handle.read())


def _emit(data: dict, fmt: str, text_lines) -> None:
    if fmt == "json":
        print(json.dumps(data, sort_keys=True, indent=2))
    else:
        for line in text_lines:
            print(line)


def cmd_invariant(args, caps: Caps) -> int:
    name, decomp = _load_decomposition(args)
    value = evaluate_Z(decomp, caps)
    if args.eps_coefficient is not None:
        element = epsilon_coefficient(value, args.eps_coefficient)
        data = element.to_json()
        data["input"] = name
        data["eps_coefficient"] = args.eps_coefficient
        _emit(data, args.fmt, [element.render()])
    else:
        data = value.to_json()
        data["input"] = name
        _emit(data, args.fmt, [value.render()])
    return EXIT_OK


def _comparison_rows(name_a, decomp_a, name_b, decomp_b, caps, with_reversal):
    za = evaluate_Z(decomp_a, caps)
    zb = evaluate_Z(decomp_b, caps)
    rows = [(f"{name_a} vs {name_b}", compare(za, zb))]
    if with_reversal:
        zra = evaluate_Z(reverse_decomposition(decomp_a), caps)
        rows.append((f"reverse({name_a}) vs {name_b}", compare(zra, zb)))
    return rows


def cmd_compare(args, caps: Caps) -> int:
    if args.fixtures:
        name_a, name_b = args.fixtures
        decomp_a = fixture_decomposition(name_a)
        decomp_b = fixture_decomposition(name_b)
    else:
        name_a, name_b = args.files
        with open(name_a) as fh:
            decomp_a = parse_decomposition(fh.read())
        with open(name_b) as fh:
            decomp_b = parse_decomposition(fh.read())
    rows = _comparison_rows(name_a, decomp_a, name_b, decomp_b, caps, args.with_reversal)
    data = {
        "caps": {"eps_order": caps.eps_order, "hbar_order": caps.hbar_order},
        "comparisons": [
            {"pair": label, "equal": c.equal, "detail": c.describe()} for label, c in rows
        ],
    }
    _emit(data, args.fmt, [f"{label}: {c.describe()}" for label, c in rows])
    if args.expect_distinct:
        return EXIT_OK if all(not c.equal for _, c in rows) else EXIT_USAGE
    return EXIT_OK


def cmd_table(args, caps: Caps) -> int:
    available = fixtures()
    rows_out = []
    text = []
    summary = {"distinct": 0, "equal_up_to_caps": 0, "no_decomposition": 0}
    for k1, k2, code in table_rows():
        row = {"pair": [k1, k2], "writhe": writhe(code), "gauss_code": code.render()}
        if k1 in available and k2 in available:
            comparisons = _comparison_rows(
                k1, available[k1][1], k2, available[k2][1], caps, args.with_reversal
            )
            verdicts = [c for _, c in comparisons]
            row["comparisons"] = [
                {"pair": label, "equal": c.equal, "detail": c.describe()}
                for label, c in comparisons
            ]
            if all(not c.equal for c in verdicts):
                row["status"] = "distinct"
                summary["distinct"] += 1
            elif all(c.equal for c in verdicts):
                row["status"] = "equal_up_to_caps"
                summary["equal_up_to_caps"] += 1
            else:
                row["status"] = "mixed"
                summary.setdefault("mixed", 0)
                summary["mixed"] += 1
        else:
            row["status"] = "no_decomposition"
            summary["no_decomposition"] += 1
        rows_out.append(row)
        text.append(f"({k1}, {k2}): {row['status']} [writhe {row['writhe']}]")
        for comp in row.get("comparisons", []):
            text.append(f"    {comp['pair']}: {comp['detail']}")
    data = {
        "caps": {"eps_order": caps.eps_order, "hbar_order": caps.hbar_order},
        "rows": rows_out,
        "summary": summary,
    }
    text.append(f"summary: {summary}")
    _emit(data, args.fmt, text)
    return EXIT_OK


def cmd_measure(args, caps: Caps) -> int:
    if args.samples < 1:
        raise UsageError("--samples must be at least 1")
    if args.tol <= 0:
        raise UsageError("--tol must be positive")
    curve = load_curve(args.file)
    estimate = estimate_measure(
        curve, args.samples, seed=args.seed, tol=args.tol, phi=args.phi, caps=caps
    )
    data = estimate.to_json()
    data["dominant"] = dominant_knotoid(estimate)
    data["input"] = args.file
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(estimate.to_csv())
    text = [
        f"samples {estimate.samples}, rejected {estimate.rejected}",
        f"dominant class: {data['dominant']}",
    ] + [
        f"  {float(freq):.4f}  {label}"
        for label, freq in sorted(estimate.class_freq.items(), key=lambda kv: (-kv[1], kv[0]))
    ]
    _emit(data, args.fmt, text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="knotoidal",
        description="Exact quantum invariants of biframed planar knotoids "
        "and knottedness statistics of open 3D curves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, caps=Caps(1, 6)):
        p.add_argument("--eps-order", type=int, default=caps.eps_order)
        p.add_argument("--hbar-order", type=int, default=caps.hbar_order)
        p.add_argument("--format", dest="fmt", default="json", choices=["json", "text"])

    p_inv = sub.add_parser("invariant", help="evaluate the invariant of a decomposition")
    src = p_inv.add_mutually_exclusive_group(required=True)
    src.add_argument("--fixture", help="built-in diagram name (or 'trivial')")
    src.add_argument("--file", help="decomposition text file")
    p_inv.add_argument(
        "--eps-coefficient",
        type=int,
        default=None,
        help="print only the coefficient of this eps power",
    )
    common(p_inv)

    p_cmp = sub.add_parser("compare", help="compare the invariants of two diagrams")
    src = p_cmp.add_mutually_exclusive_group(required=True)
    src.add_argument("--fixtures", nargs=2, metavar=("A", "B"))
    src.add_argument("--files", nargs=2, metavar=("A", "B"))
    p_cmp.add_argument("--with-reversal", action="store_true")
    p_cmp.add_argument("--expect-distinct", action="store_true")
    common(p_cmp)

    p_tab = sub.add_parser("table", help="compare all tabulated pairs")
    p_tab.add_argument("--with-reversal", action="store_true")
    common(p_tab)

    p_mea = sub.add_parser("measure", help="estimate knottedness of a 3D curve")
    p_mea.add_argument("--file", required=True, help="curve file, one 'x y z' per line")
    p_mea.add_argument("--samples", type=int, default=2000)
    p_mea.add_argument("--seed", type=int, default=0)
    p_mea.add_argument("--tol", type=float, default=1e-9)
    p_mea.add_argument("--phi", default="classes", choices=["classes", "zmean"])
    p_mea.add_argument("--csv", default=None, help="also write a class,count,frequency CSV")
    common(p_mea, ZMEAN_CAPS)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.eps_order < 0 or args.hbar_order < 0:
            raise UsageError("orders must be non-negative")
        handler = {
            "invariant": cmd_invariant,
            "compare": cmd_compare,
            "table": cmd_table,
            "measure": cmd_measure,
        }[args.command]
        return handler(args, Caps(args.eps_order, args.hbar_order))
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (CapsMismatch, DegreeOutOfRange) as exc:
        print(f"caps error: {exc}", file=sys.stderr)
        return EXIT_CAPS
    except (KnotoidalError, OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    raise SystemExit(main())
