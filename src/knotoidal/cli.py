"""Command-line interface: invariants, pair comparison, tabulated pairs, measures.

Exit codes: 0 success (and, with ``--expect-distinct``, all comparisons
differ); 1 usage error; 2 input parse error; 3 caps error.  All output is
deterministic given the flags; JSON is emitted with sorted keys.
"""

from __future__ import annotations

import argparse
import json
import sys

from .algebra import render_monomial
from .diagram import (
    RotDecomp,
    fixture_decomposition,
    fixtures,
    parse_decomposition,
    reverse_decomposition,
    table_rows,
    writhe,
)
from .errors import CapsMismatch, CapsTooCostly, DegreeOutOfRange, InvalidArgument, KnotoidalError
from .invariant import compare, evaluate_Z
from .measure import ZMEAN_CAPS, dominant_knotoid, estimate_measure, load_curve
from .series import Caps, _power_factors, _read_text

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_CAPS = 3


def _load_decomposition(fixture: str | None, file: str | None) -> tuple[str, RotDecomp]:
    if fixture is not None:
        return fixture, fixture_decomposition(fixture)
    return file, parse_decomposition(_read_text(file))


def _emit(data: dict, fmt: str, text_lines) -> None:
    if fmt == "json":
        print(json.dumps(data, sort_keys=True, indent=2))
    else:
        for line in text_lines:
            print(line)


def cmd_invariant(args, caps: Caps) -> int:
    name, decomp = _load_decomposition(args.fixture, args.file)
    value = evaluate_Z(decomp, caps)
    if args.eps_coefficient is not None:
        element = value.element.epsilon_part(args.eps_coefficient)
        data = element.to_json()
        data["input"] = name
        data["eps_coefficient"] = args.eps_coefficient
        _emit(data, args.fmt, [element.render()])
    else:
        data = value.to_json()
        data["input"] = name
        _emit(data, args.fmt, [value.render()])
    return EXIT_OK


def _comparison_rows(name_a, decomp_a, name_b, decomp_b, caps, with_reversal) -> list[dict]:
    za = evaluate_Z(decomp_a, caps)
    zb = evaluate_Z(decomp_b, caps)
    rows = [(f"{name_a} vs {name_b}", compare(za, zb))]
    if with_reversal:
        zra = evaluate_Z(reverse_decomposition(decomp_a), caps)
        rows.append((f"reverse({name_a}) vs {name_b}", compare(zra, zb)))
    return [{"pair": label, "equal": c.equal, "detail": c.describe()} for label, c in rows]


def cmd_compare(args, caps: Caps) -> int:
    inputs = zip(args.fixtures or (None, None), args.files or (None, None))
    (name_a, decomp_a), (name_b, decomp_b) = (_load_decomposition(*pair) for pair in inputs)
    rows = _comparison_rows(name_a, decomp_a, name_b, decomp_b, caps, args.with_reversal)
    data = {
        "caps": caps.to_json(),
        "comparisons": rows,
    }
    _emit(data, args.fmt, [f"{row['pair']}: {row['detail']}" for row in rows])
    if args.expect_distinct:
        return EXIT_OK if all(not row["equal"] for row in rows) else EXIT_USAGE
    return EXIT_OK


def cmd_table(args, caps: Caps) -> int:
    available = fixtures()
    rows_out = []
    text = []
    summary = {"distinct": 0, "equal_up_to_caps": 0, "no_decomposition": 0}
    for k1, k2, code in table_rows():
        row = {"pair": [k1, k2], "writhe": writhe(code), "gauss_code": code.render()}
        if k1 in available and k2 in available:
            row["comparisons"] = _comparison_rows(
                k1, available[k1][1], k2, available[k2][1], caps, args.with_reversal
            )
            verdicts = {comp["equal"] for comp in row["comparisons"]}
            row["status"] = "mixed" if len(verdicts) > 1 else (
                "equal_up_to_caps" if verdicts == {True} else "distinct"
            )
        else:
            row["status"] = "no_decomposition"
        summary[row["status"]] = summary.get(row["status"], 0) + 1
        rows_out.append(row)
        text.append(f"({k1}, {k2}): {row['status']} [writhe {row['writhe']}]")
        for comp in row.get("comparisons", []):
            text.append(f"    {comp['pair']}: {comp['detail']}")
    data = {
        "caps": caps.to_json(),
        "rows": rows_out,
        "summary": summary,
    }
    text.append(f"summary: {summary}")
    _emit(data, args.fmt, text)
    return EXIT_OK


def cmd_measure(args, caps: Caps | None) -> int:
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
    if estimate.invariant_mean is not None:
        text.append(f"invariant mean, eps^1 part, at caps (eps {caps.eps_order}, hbar {caps.hbar_order}):")
        # one line per term, in the order of InvariantValue.to_json
        terms = estimate.invariant_mean["components"]
        for term in sorted(terms, key=lambda t: (sum(t["monomial"]), t["monomial"], t["hbar"])):
            factors = [term["mean"], "eps", *_power_factors(["hbar"], [term["hbar"]])]
            mon = render_monomial(term["monomial"])
            text.append("  " + " * ".join(factors if mon == "1" else [*factors, mon]))
    _emit(data, args.fmt, text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="knotoidal",
        description="Exact quantum invariants of biframed planar knotoids "
        "and knottedness statistics of open 3D curves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, caps: Caps | None = Caps(1, 6)):
        p.add_argument("--eps-order", type=int, default=None if caps is None else caps.eps_order)
        p.add_argument("--hbar-order", type=int, default=None if caps is None else caps.hbar_order)
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
    # no default here: the orders are read only with --phi zmean (see _caps)
    common(p_mea, None)

    return parser


def _caps(args) -> Caps | None:
    """The caps of the order flags; ``measure`` takes them only with
    ``--phi zmean``, defaults each to ``ZMEAN_CAPS``, and has none with
    ``--phi classes``."""
    eps, hbar = args.eps_order, args.hbar_order
    if args.command == "measure":
        if args.phi != "zmean":
            if (eps, hbar) != (None, None):
                raise InvalidArgument("--eps-order and --hbar-order apply only to --phi zmean")
            return None
        eps = ZMEAN_CAPS.eps_order if eps is None else eps
        hbar = ZMEAN_CAPS.hbar_order if hbar is None else hbar
    return Caps(eps, hbar)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        caps = _caps(args)
        handler = {
            "invariant": cmd_invariant,
            "compare": cmd_compare,
            "table": cmd_table,
            "measure": cmd_measure,
        }[args.command]
        return handler(args, caps)
    except InvalidArgument as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (CapsMismatch, CapsTooCostly, DegreeOutOfRange) as exc:
        print(f"caps error: {exc}", file=sys.stderr)
        return EXIT_CAPS
    except (KnotoidalError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    raise SystemExit(main())
