"""Command-line front end: polynomial dumps, verification reports, QEC tables.

Floats are printed with repr (shortest round-trip form), so parsing CSV or
JSON output reproduces the in-memory values bit-exactly.  Data goes to
stdout, diagnostics to stderr.  Exit codes: 0 success, 1 verification
failure, 2 bad arguments, 3 disconnected input graph.  `main` maps the
library's exceptions onto them in one place and never prints a traceback.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from itertools import chain
from typing import Callable, Iterable

from . import roots
from .chebyshev import (
    cheb_t,
    cheb_u,
    cheb_v,
    cheb_w,
    compress,
    identity_suite,
    partial_e,
    partial_o,
    phi,
    s_poly,
)
from .graphs import Disconnected, from_edge_list
from .polynomial import Poly
from .qec import Method, closed_form, qec_fan, qec_numeric

_FAMILIES: dict[str, tuple[Callable[[int], Poly], int]] = {
    "u": (cheb_u, -2),
    "t": (cheb_t, 0),
    "v": (cheb_v, 0),
    "w": (cheb_w, 0),
    "ue": (partial_e, 0),
    "uo": (partial_o, 0),
    "ucomp": (lambda n: compress(cheb_u(n)), -2),
    "uecomp": (lambda n: compress(partial_e(n)), 0),
    "uocomp": (lambda n: compress(partial_o(n)), 0),
    "s": (s_poly, 0),
    "phi": (phi, 0),
}

# Grid intervals on which `verify` checks the elementary inequality.
_INEQUALITY_GRID = 512

_METHODS = {
    "auto": "auto",
    "numeric": Method.NUMERIC_ORACLE,
    "closed": Method.CLOSED_FORM_EVEN,
    "root": Method.ROOT_BASED,
}


def _fail(message: str, code: int) -> int:
    print(message, file=sys.stderr)
    return code


def _emit(fmt: str, data: Callable[[], object], header: list[str],
          rows: Callable[[], Iterable[list]], lines: Callable[[], Iterable]) -> None:
    """Print data() as JSON, header and rows() as CSV, or lines() one per line.

    Only fmt's callable runs: no command builds a payload it does not print."""
    if fmt == "json":
        print(json.dumps(data()))
    elif fmt == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows())
    else:
        for line in lines():
            print(line)


def _cert_text(certificate: dict[str, float] | None) -> str:
    if not certificate:
        return "-"
    return " ".join(f"{k}={v!r}" for k, v in sorted(certificate.items()))


# -- poly --------------------------------------------------------------------


def _cmd_poly(args: argparse.Namespace) -> int:
    builder, min_n = _FAMILIES[args.family]
    if args.n < min_n:
        return _fail(f"family {args.family!r} needs n >= {min_n}", 2)
    coeffs = list(builder(args.n).coeffs)
    _emit(args.format,
          lambda: {"family": args.family, "n": args.n, "coeffs": coeffs},
          ["family", "n", "coeffs"],
          lambda: [[args.family, args.n, " ".join(map(str, coeffs))]],
          lambda: [coeffs])
    return 0


# -- verify ------------------------------------------------------------------


def _cmd_verify(args: argparse.Namespace) -> int:
    roots_cap = args.roots_max_n
    if roots_cap is None:
        roots_cap = min(args.max_n, 60)
    elif roots_cap < 0:
        return _fail("roots_max_n must be >= 0", 2)
    report = identity_suite(args.max_n)
    roots_failures = roots.root_report(roots_cap).failures
    inequality_ok = roots.check_elementary_inequality(_INEQUALITY_GRID)
    ok = report.ok and not roots_failures and inequality_ok

    _emit(args.format,
          lambda: {
              "identities": report.to_json_dict(),
              "identity_checks": len(report.checked),
              "roots_max_n": roots_cap,
              "roots_failures": roots_failures,
              "elementary_inequality": inequality_ok,
              "ok": ok,
          },
          ["section", "check", "n", "passed"],
          lambda: chain(
              (["identity", c.identity, c.n, c.passed] for c in report.checked),
              (["roots", msg, "", False] for msg in roots_failures),
              [["inequality", "elementary-inequality", _INEQUALITY_GRID,
                inequality_ok]]),
          lambda: chain(
              [f"identities: {len(report.checked)} checks up to n={args.max_n}, "
               f"{len(report.failures)} failures"],
              (f"  FAIL {c.identity} at n={c.n}" for c in report.failures),
              [f"zero structure and orderings up to n={roots_cap}: "
               f"{len(roots_failures)} failures"],
              (f"  FAIL {msg}" for msg in roots_failures),
              [f"elementary inequality on {_INEQUALITY_GRID} intervals: "
               f"{'ok' if inequality_ok else 'FAIL'}",
               "OK" if ok else "FAILED"]))
    return 0 if ok else 1


# -- qec ---------------------------------------------------------------------


def _cmd_qec(args: argparse.Namespace) -> int:
    method = _METHODS[args.method]
    if args.target == "fan":
        try:
            n = int(args.value)
        except ValueError:
            return _fail(f"fan size must be an integer, got {args.value!r}", 2)
        label, result = f"fan:{n}", qec_fan(n, method=method, tol=args.tol)
    else:
        if method not in ("auto", Method.NUMERIC_ORACLE):
            return _fail("graph targets support only the numeric method", 2)
        try:
            with open(args.value, encoding="utf-8") as f:
                text = f.read()
        except OSError as exc:
            return _fail(f"cannot read {args.value!r}: {exc}", 2)
        label, result = args.value, qec_numeric(from_edge_list(text))

    _emit(args.format,
          lambda: {"target": label, "value": result.value,
                   "method": result.method.value, "certificate": result.certificate},
          ["target", "value", "method", "certificate"],
          lambda: [[label, repr(result.value), result.method.value,
                    _cert_text(result.certificate)]],
          lambda: [repr(result.value), f"method: {result.method.value}",
                   f"certificate: {_cert_text(result.certificate)}"])
    return 0


# -- table -------------------------------------------------------------------


def _odd_bounds(n: int) -> tuple[float, float] | None:
    if n % 2 == 0 or n < 3:
        return None
    return closed_form(n), closed_form(n + 1)


def _cmd_table(args: argparse.Namespace) -> int:
    if not 1 <= args.start <= args.stop:
        return _fail(f"need 1 <= from <= to, got {args.start}..{args.stop}", 2)
    entries = [(n, qec_fan(n, tol=args.tol), _odd_bounds(n))
               for n in range(args.start, args.stop + 1)]
    line = "{:>4}  {:<24} {:<18} {:<24} {:<24}".format
    _emit(args.format,
          lambda: {"rows": [
              {"n": n, "qec": r.value, "method": r.method.value,
               "lower": b[0] if b else None, "upper": b[1] if b else None}
              for n, r, b in entries]},
          ["n", "qec", "method", "lower", "upper"],
          lambda: ([n, repr(r.value), r.method.value,
                    repr(b[0]) if b else "", repr(b[1]) if b else ""]
                   for n, r, b in entries),
          lambda: chain(
              [line("n", "qec", "method", "lower", "upper")],
              (line(n, repr(r.value), r.method.value,
                    repr(b[0]) if b else "-", repr(b[1]) if b else "-")
               for n, r, b in entries)))
    return 0


# -- parser ------------------------------------------------------------------


def _add_format(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("plain", "csv", "json"),
                   default="plain", help="output format (default plain)")


def _positive_tol(text: str) -> float:
    try:
        tol = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not (math.isfinite(tol) and tol > 0):
        raise argparse.ArgumentTypeError(
            f"must be a positive finite number, got {text!r}")
    return tol


def _add_tol(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tol", type=_positive_tol, default=1e-12,
                   help="bisection tolerance, > 0 (default 1e-12)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fanqec",
        description="Chebyshev-type polynomial identities and quadratic "
                    "embedding constants of fan graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_poly = sub.add_parser("poly", help="print a family member's coefficients")
    p_poly.add_argument("family", choices=sorted(_FAMILIES))
    p_poly.add_argument("n", type=int)
    _add_format(p_poly)
    p_poly.set_defaults(func=_cmd_poly)

    p_verify = sub.add_parser("verify", help="run the exact identity battery "
                                             "and root-structure checks")
    p_verify.add_argument("--max-n", type=int, default=50, dest="max_n")
    p_verify.add_argument("--roots-max-n", type=int, default=None,
                          dest="roots_max_n",
                          help="cap for the root-structure report "
                               "(default min(max-n, 60))")
    _add_format(p_verify)
    p_verify.set_defaults(func=_cmd_verify)

    p_qec = sub.add_parser("qec", help="compute one quadratic embedding constant")
    p_qec.add_argument("target", choices=("fan", "graph"))
    p_qec.add_argument("value", help="fan size or edge-list file path")
    p_qec.add_argument("--method", choices=sorted(_METHODS), default="auto")
    _add_tol(p_qec)
    _add_format(p_qec)
    p_qec.set_defaults(func=_cmd_qec)

    p_table = sub.add_parser("table", help="tabulate fan constants over a range")
    p_table.add_argument("kind", choices=("fan",))
    p_table.add_argument("start", type=int, metavar="from")
    p_table.add_argument("stop", type=int, metavar="to")
    _add_tol(p_table)
    _add_format(p_table)
    p_table.set_defaults(func=_cmd_table)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except Disconnected as exc:
        return _fail(f"graph is disconnected: {exc}", 3)
    except roots.BadBracket as exc:
        return _fail(f"verification failed: {exc}", 1)
    except ValueError as exc:
        return _fail(str(exc), 2)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
