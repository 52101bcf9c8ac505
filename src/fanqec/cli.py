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
import io
import json
import math
import sys
from typing import Callable

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
from .qec import Method, qec_fan, qec_numeric

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

_METHODS = {
    "auto": "auto",
    "numeric": Method.NUMERIC_ORACLE,
    "closed": Method.CLOSED_FORM_EVEN,
    "root": Method.ROOT_BASED,
}


def _fail(message: str, code: int) -> int:
    print(message, file=sys.stderr)
    return code


def _print_csv(header: list[str], rows: list[list]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    sys.stdout.write(buf.getvalue())


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
    if args.format == "json":
        print(json.dumps({"family": args.family, "n": args.n, "coeffs": coeffs}))
    elif args.format == "csv":
        _print_csv(["family", "n", "coeffs"],
                   [[args.family, args.n, " ".join(map(str, coeffs))]])
    else:
        print(coeffs)
    return 0


# -- verify ------------------------------------------------------------------


def _zero_structure_failures(max_n: int, tol: float) -> list[str]:
    """Interlacing and simplicity of the companion-polynomial zeros."""
    failures = []
    for n in range(max_n + 1):
        try:
            certs = roots.zeros_of_s(n, tol)
        except roots.BadBracket as exc:
            failures.append(f"zero-structure n={n}: {exc}")
            continue
        if len(certs) != s_poly(n).degree:
            failures.append(f"zero-structure n={n}: {len(certs)} zeros for "
                            f"degree {s_poly(n).degree}")
            continue
        if any(not c.simple for c in certs):
            failures.append(f"zero-structure n={n}: non-simple certificate")
        values = [c.value for c in certs]
        if values != sorted(values):
            failures.append(f"zero-structure n={n}: zeros not ascending")
        m, odd = divmod(n, 2)
        den = 2 * m + 2 if odd else 2 * m + 1
        count = m + 1 if odd else m
        xi = [math.cos((2 * k - 1) * math.pi / den) for k in range(1, count + 1)]
        # values[:-1] ascend from the bracket at -1, xi descends from x = 1.
        for i, value in enumerate(values[:-1]):
            k = count - i
            lo = -1.0 if k == count else xi[k]
            hi = xi[k - 1]
            if not lo < value < hi:
                failures.append(f"zero-structure n={n}: zero {value} outside "
                                f"({lo}, {hi})")
    return failures


def _ordering_failures(max_n: int, tol: float) -> list[str]:
    """Minimal-zero comparisons and interleaving, plus monotonicity."""
    failures = []
    gam = {n: roots.gamma(n, tol).value for n in range(1, max_n + 1)}
    bet = {n: roots.beta(n) for n in range(2, max_n + 1)}
    for n in range(3, max_n + 1):
        m = n // 2
        if n % 2:
            edge = math.cos((2 * m + 1) * math.pi / (2 * m + 2))
            if not (-1.0 < gam[n] < edge < bet[n]):
                failures.append(f"comparison n={n}: odd ordering violated")
        else:
            edge = math.cos((2 * m - 1) * math.pi / (2 * m + 1))
            if not (-1.0 < bet[n] < gam[n] < edge):
                failures.append(f"comparison n={n}: even ordering violated")
    for n in range(3, max_n, 2):
        if not bet[n + 1] < gam[n] < bet[n - 1]:
            failures.append(f"interleaving n={n}: not between adjacent "
                            "even-factor zeros")
    alphas = [roots.alpha(n, tol) for n in range(0, max_n + 1)]
    if max_n >= 2 and not (alphas[0] == 1.0 and alphas[1] == alphas[2] == -0.5):
        failures.append("alpha-monotone: wrong initial values")
    for n in range(2, max_n):
        if not (-1.0 < alphas[n + 1] < alphas[n]):
            failures.append(f"alpha-monotone: not strictly decreasing at {n + 1}")
    return failures


def _cmd_verify(args: argparse.Namespace) -> int:
    roots_cap = args.roots_max_n
    if roots_cap is None:
        roots_cap = min(args.max_n, 60)
    report = identity_suite(args.max_n)
    roots_failures = []
    if roots_cap >= 3:
        roots_failures += _zero_structure_failures(roots_cap, args.tol)
        roots_failures += _ordering_failures(roots_cap, args.tol)
    inequality_ok = roots.check_elementary_inequality(args.grid)
    ok = report.ok and not roots_failures and inequality_ok

    if args.format == "json":
        print(json.dumps({
            "identities": report.to_json_dict(),
            "identity_checks": len(report.checked),
            "roots_max_n": roots_cap,
            "roots_failures": roots_failures,
            "elementary_inequality": inequality_ok,
            "ok": ok,
        }))
    elif args.format == "csv":
        rows = [["identity", c.identity, c.n, c.passed] for c in report.checked]
        rows += [["roots", msg, "", False] for msg in roots_failures]
        rows += [["inequality", "elementary-inequality", args.grid, inequality_ok]]
        _print_csv(["section", "check", "n", "passed"], rows)
    else:
        print(f"identities: {len(report.checked)} checks up to n={args.max_n}, "
              f"{len(report.failures)} failures")
        for c in report.failures:
            print(f"  FAIL {c.identity} at n={c.n}")
        print(f"zero structure and orderings up to n={roots_cap}: "
              f"{len(roots_failures)} failures")
        for msg in roots_failures:
            print(f"  FAIL {msg}")
        print(f"elementary inequality on {args.grid} intervals: "
              f"{'ok' if inequality_ok else 'FAIL'}")
        print("OK" if ok else "FAILED")
    return 0 if ok else 1


# -- qec ---------------------------------------------------------------------


def _print_qec(result, label: str, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps({
            "target": label,
            "value": result.value,
            "method": result.method.value,
            "certificate": result.certificate,
        }))
    elif fmt == "csv":
        _print_csv(["target", "value", "method", "certificate"],
                   [[label, repr(result.value), result.method.value,
                     _cert_text(result.certificate)]])
    else:
        print(repr(result.value))
        print(f"method: {result.method.value}")
        print(f"certificate: {_cert_text(result.certificate)}")


def _cmd_qec(args: argparse.Namespace) -> int:
    method = _METHODS[args.method]
    if args.target == "fan":
        try:
            n = int(args.value)
        except ValueError:
            return _fail(f"fan size must be an integer, got {args.value!r}", 2)
        result = qec_fan(n, method=method, tol=args.tol)
        _print_qec(result, f"fan:{n}", args.format)
        return 0

    if method not in ("auto", Method.NUMERIC_ORACLE):
        return _fail("graph targets support only the numeric method", 2)
    try:
        with open(args.value, encoding="utf-8") as f:
            text = f.read()
    except OSError as exc:
        return _fail(f"cannot read {args.value!r}: {exc}", 2)
    result = qec_numeric(from_edge_list(text))
    _print_qec(result, args.value, args.format)
    return 0


# -- table -------------------------------------------------------------------


def _odd_bounds(n: int) -> tuple[float, float] | None:
    if n % 2 == 0 or n < 3:
        return None
    lower = -4.0 * math.sin(math.pi / (2 * (n + 1))) ** 2
    upper = -4.0 * math.sin(math.pi / (2 * (n + 2))) ** 2
    return lower, upper


def _cmd_table(args: argparse.Namespace) -> int:
    if args.kind != "fan":
        return _fail(f"unknown table kind {args.kind!r}", 2)
    if not 1 <= args.start <= args.stop:
        return _fail(f"need 1 <= from <= to, got {args.start}..{args.stop}", 2)
    entries = []
    for n in range(args.start, args.stop + 1):
        result = qec_fan(n, tol=args.tol)
        entries.append((n, result, _odd_bounds(n)))

    if args.format == "json":
        print(json.dumps({"rows": [
            {"n": n, "qec": r.value, "method": r.method.value,
             "lower": b[0] if b else None, "upper": b[1] if b else None}
            for n, r, b in entries
        ]}))
    elif args.format == "csv":
        rows = [[n, repr(r.value), r.method.value,
                 repr(b[0]) if b else "", repr(b[1]) if b else ""]
                for n, r, b in entries]
        _print_csv(["n", "qec", "method", "lower", "upper"], rows)
    else:
        print(f"{'n':>4}  {'qec':<24} {'method':<18} {'lower':<24} {'upper':<24}")
        for n, r, b in entries:
            lower = repr(b[0]) if b else "-"
            upper = repr(b[1]) if b else "-"
            print(f"{n:>4}  {r.value!r:<24} {r.method.value:<18} "
                  f"{lower:<24} {upper:<24}")
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
                          help="cap for bisection-based checks "
                               "(default min(max-n, 60))")
    p_verify.add_argument("--grid", type=int, default=512,
                          help="grid intervals for the inequality check")
    _add_tol(p_verify)
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
    except (ValueError, argparse.ArgumentError) as exc:
        return _fail(str(exc), 2)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
