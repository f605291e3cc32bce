"""Command-line front end.

Subcommands
-----------
params     build a functional-equation document from a preset
constants  evaluate the full bound report for one (T0, T) window
bound      evaluate the total error bound and its coefficient form
table      regenerate the published constants table (CSV)
verify     check a zero-ordinate file against both inequalities

Exit codes: 0 success, 1 validation or usage error, 2 a verify inequality
failed.  Output is deterministic; floats print with 12 significant digits
(override the printed digits with ZEROBOUND_PRECISION).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import presets
from .bounds import bound_report, total_count_error, window_coefficients
from .errors import ZeroboundError
from .newform import read_pairs_csv, table_generate
from .selberg import document_dict, load_document
from .zeros import check_bound, load_zeros

_DEFAULT_DIGITS = 12


class _Parser(argparse.ArgumentParser):
    """argparse with the package's exit-code convention (usage errors -> 1)."""

    def error(self, message: str) -> None:
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _digits() -> int:
    raw = os.environ.get("ZEROBOUND_PRECISION", "")
    if raw:
        try:
            return max(1, min(17, int(raw)))
        except ValueError:
            pass
    return _DEFAULT_DIGITS


def _round_tree(obj, digits: int):
    """Round every float in a JSON-ready structure to `digits` significant digits."""
    if isinstance(obj, float):
        return float(f"{obj:.{digits}g}")
    if isinstance(obj, dict):
        return {k: _round_tree(v, digits) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_round_tree(v, digits) for v in obj]
    return obj


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(obj: dict, out_path: str | None) -> None:
    try:
        text = json.dumps(_round_tree(obj, _digits()), indent=2, allow_nan=False) + "\n"
    except ValueError:
        raise ZeroboundError("a result is not finite, so it has no JSON form") from None
    _emit(text, out_path)


def _build_parser() -> _Parser:
    parser = _Parser(prog="zerobound", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("params", parents=[], help="emit a functional-equation document")
    p.add_argument("--preset", required=True, choices=["newform", "zeta"])
    p.add_argument("--level", type=int, help="newform level N")
    p.add_argument("--weight", type=int, help="newform weight (even)")
    p.add_argument("--out", help="output path (default stdout)")

    p = sub.add_parser("constants", help="emit the full bound report as JSON")
    p.add_argument("--input", required=True, help="functional-equation document (JSON)")
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--t", type=float, help="upper height (default 2 * t0)")
    p.add_argument("--out", help="output path (default stdout)")

    p = sub.add_parser("bound", help="emit the total error bound for a window")
    p.add_argument("--input", required=True)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--out", help="output path (default stdout)")

    p = sub.add_parser("table", help="regenerate the constants table as CSV")
    p.add_argument("--preset", required=True, choices=["newform"])
    p.add_argument("--pairs", help="CSV of N,kappa pairs (default: bundled 25 pairs)")
    p.add_argument("--out", help="output path (default stdout)")

    p = sub.add_parser("verify", help="check a zero table against both inequalities")
    p.add_argument("--input", required=True)
    p.add_argument("--zeros", required=True, help="zero-ordinate text file")
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--out", help="output path (default stdout)")

    return parser


def _load_input(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return load_document(json.load(fh))


def _cmd_params(args) -> int:
    if args.preset == "newform":
        if args.level is None or args.weight is None:
            raise ZeroboundError("preset 'newform' needs --level and --weight")
        data, strip = presets.newform(args.level, args.weight)
    else:
        data, strip = presets.zeta()
    _emit_json(document_dict(data, strip), args.out)
    return 0


def _cmd_constants(args) -> int:
    data, strip = _load_input(args.input)
    t = args.t if args.t is not None else 2.0 * args.t0
    report = bound_report(data, strip, args.t0, t)
    doc = report.to_json_dict()
    doc["input"] = document_dict(data, strip)
    _emit_json(doc, args.out)
    return 0


def _cmd_bound(args) -> int:
    data, strip = _load_input(args.input)
    coeffs = window_coefficients(data, strip, args.t0)
    _emit_json(
        {
            "t0": args.t0,
            "t": args.t,
            "r_total": total_count_error(data, strip, args.t0, args.t),
            "c1": coeffs.c1,
            "c2": coeffs.c2,
            "c3": coeffs.c3,
            "coeff_bound": coeffs.evaluate(args.t),
        },
        args.out,
    )
    return 0


def _bundled_pairs() -> str:
    from importlib import resources  # only table --preset newform without --pairs reads it

    return resources.files("zerobound.data").joinpath("table_pairs.csv").read_text("utf-8")


def _cmd_table(args) -> int:
    if args.pairs:
        with open(args.pairs, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = _bundled_pairs()
    specs = read_pairs_csv(text)
    _emit(table_generate(specs), args.out)
    return 0


def _cmd_verify(args) -> int:
    data, strip = _load_input(args.input)
    zeros = load_zeros(args.zeros)
    report = check_bound(data, strip, zeros, args.t0, args.t)
    _emit_json(report.to_json_dict(), args.out)
    return 0 if (report.pass_lemma and report.pass_theorem) else 2


_COMMANDS = {
    "params": _cmd_params,
    "constants": _cmd_constants,
    "bound": _cmd_bound,
    "table": _cmd_table,
    "verify": _cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (ZeroboundError, OSError, json.JSONDecodeError, OverflowError) as exc:
        print(f"zerobound: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
