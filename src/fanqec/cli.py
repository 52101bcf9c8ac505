"""Command-line front end: polynomial dumps, verification reports, QEC tables.

The command line is read against one table, `_COMMANDS`, that gives each
command's handler, help, positionals and options; usage and help text are
rendered from the same table.  Options may come before, between or after the
positionals, spelled `--opt value`, `--opt=value` or as a unique prefix
(`verify --max 3`).  A repeated option keeps its last value, `--` ends the
options, and `-1` or `-2.5` is a value, never an option.  `-h` or `--help`,
at the root or after any command, prints help to stdout.

Floats are printed with repr (shortest round-trip form), so parsing CSV or
JSON output reproduces the in-memory values bit-exactly.  Data goes to
stdout, diagnostics to stderr.  Exit codes: 0 success or help, 1
verification failure, 2 bad arguments, 3 disconnected input graph, 141
(128 + SIGPIPE) stdout closed before all output was written, with nothing
on stderr.  An integer argument too large to compute with is a bad
argument, and so are a size over the top its argument admits in
`_COMMANDS` and a fan size the root route cannot reach, (n + 1)^2 > 2^53,
on that route.  A bad command line prints nothing to stdout, and a
usage line and `fanqec <cmd>: error: argument <name>: <message>` to
stderr.  `main` maps the library's exceptions onto the codes in one place
and never prints a traceback.
"""

from __future__ import annotations

import math
import os
import sys
from itertools import chain
from types import SimpleNamespace
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

_METHODS = {
    "auto": "auto",
    "numeric": Method.NUMERIC_ORACLE,
    "closed": Method.CLOSED_FORM_EVEN,
    "root": Method.ROOT_BASED,
}


def _fail(message: str, code: int) -> int:
    print(message, file=sys.stderr)
    return code


def _emit(fmt: str, data: Callable[[Callable], Iterable[str]], header: list[str],
          rows: Callable[[], Iterable[list]], lines: Callable[[], Iterable]) -> None:
    """Print data(json.dumps), the pieces of one JSON document, header and
    rows() as CSV, or lines() one per line.

    Each piece is written as it comes.  Only fmt's callable runs: no command
    builds a payload it does not print, and only fmt's module (json or csv)
    is imported.  Python's limit on the digits of an int converted to str is
    lifted while it writes, so a coefficient of any size prints, and
    restored after; arguments are parsed under it."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        if fmt == "json":
            import json

            sys.stdout.writelines(chain(data(json.dumps), ["\n"]))
        elif fmt == "csv":
            import csv

            writer = csv.writer(sys.stdout, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows())
        else:
            for line in lines():
                print(line)
    finally:
        sys.set_int_max_str_digits(limit)


def _cert_text(certificate: dict[str, float] | None) -> str:
    if not certificate:
        return "-"
    return " ".join(f"{k}={v!r}" for k, v in sorted(certificate.items()))


# -- poly --------------------------------------------------------------------


def _cmd_poly(args: SimpleNamespace) -> int:
    builder, min_n = _FAMILIES[args.family]
    if args.n < min_n:
        return _fail(f"family {args.family!r} needs n >= {min_n}", 2)
    coeffs = list(builder(args.n).coeffs)
    _emit(args.format,
          lambda dumps: [dumps({"family": args.family, "n": args.n, "coeffs": coeffs})],
          ["family", "n", "coeffs"],
          lambda: [[args.family, args.n, " ".join(map(str, coeffs))]],
          lambda: [coeffs])
    return 0


# -- verify ------------------------------------------------------------------


def _cmd_verify(args: SimpleNamespace) -> int:
    roots_cap = args.roots_max_n
    if roots_cap is None:
        roots_cap = min(args.max_n, 60)
    elif roots_cap < 0:
        return _fail("roots_max_n must be >= 0", 2)
    report = identity_suite(args.max_n)
    failures = report.failures
    unproven = [name for name in roots.LOCALIZATION_IDENTITIES
                if name not in report.proven]
    roots_failures = roots.root_report(roots_cap)
    ok = not failures and not unproven and not roots_failures

    _emit(args.format,
          lambda dumps: [dumps({
              "identities": report.to_json_dict(),
              "identity_checks": report.count,
              "roots_max_n": roots_cap,
              "roots_failures": roots_failures,
              "localization_unproven": unproven,
              "elementary_inequality": True,
              "ok": ok,
          })],
          ["section", "check", "n", "passed"],
          lambda: chain(
              (["identity", c.identity, c.n, c.passed] for c in report.checked),
              (["roots", msg, "", False] for msg in roots_failures),
              [["localization", "zero-localization-of-s", "", not unproven],
               ["inequality", "elementary-inequality", "", True]]),
          lambda: chain(
              [f"identities: {report.count} checks up to n={args.max_n}, "
               f"{len(failures)} failures"],
              (f"  FAIL {c.identity} at n={c.n}" for c in failures),
              [f"gamma and beta brackets and initial values up to n={roots_cap}: "
               f"{len(roots_failures)} failures"],
              (f"  FAIL {msg}" for msg in roots_failures),
              [f"zero localization of S_n: "
               f"{'not proven' if unproven else 'proven'} for every n"],
              (f"  FAIL {name} not proven for every n" for name in unproven),
              ["elementary inequality on [0, 1/3]: proven",
               "OK" if ok else "FAILED"]))
    return 0 if ok else 1


# -- qec ---------------------------------------------------------------------


def _cmd_qec(args: SimpleNamespace) -> int:
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
          lambda dumps: [dumps({"target": label, "value": result.value,
                               "method": result.method.value,
                               "certificate": result.certificate})],
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


def _cmd_table(args: SimpleNamespace) -> int:
    if not 1 <= args.start <= args.stop:
        return _fail(f"need 1 <= from <= to, got {args.start}..{args.stop}", 2)
    # Only one format's callable runs, so the generator is read once: every
    # format prints each row as it is computed, JSON with the bytes of
    # json.dumps({"rows": [...]}).  The first row is computed before anything
    # is printed, so a start too large to compute with exits 2 with empty stdout.
    computed = ((n, qec_fan(n, tol=args.tol), _odd_bounds(n))
                for n in range(args.start, args.stop + 1))
    entries = chain([next(computed)], computed)
    line = "{:>4}  {:<24} {:<18} {:<24} {:<24}".format
    _emit(args.format,
          lambda dumps: chain(['{"rows": ['], (
              ", " * (n > args.start) + dumps(
                  {"n": n, "qec": r.value, "method": r.method.value,
                   "lower": b[0] if b else None, "upper": b[1] if b else None})
              for n, r, b in entries), ["]}"]),
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


# -- command line ------------------------------------------------------------
#
# One table, _COMMANDS, drives parsing, usage and help.  The standard
# library's option parser is not used: building it cost several times more
# than a whole `qec fan N` request, and each call of the program builds it.


class _BadValue(ValueError):
    """A converter's refusal, carrying the whole message to print."""


class _BadCommandLine(Exception):
    """args: the command whose usage to print (None for the root), message."""


def _positive_tol(text: str) -> float:
    try:
        tol = float(text)
    except ValueError:
        raise _BadValue(f"not a number: {text!r}") from None
    if not (math.isfinite(tol) and tol > 0):
        raise _BadValue(f"must be a positive finite number, got {text!r}")
    return tol


class _Arg:
    """A positional (name as shown) or an option (name is its --flag).

    attr is the namespace attribute: dest, or else the name without its
    dashes.  most, if given, is the largest value admitted: the top of the
    argument's range, refused while the command line is read, before
    anything is built.  A plain class: a dataclass costs more to create at
    import than parsing a whole command line does.
    """

    def __init__(self, name: str, convert: Callable[[str], object] = str,
                 choices: tuple[str, ...] = (), default: object = None,
                 help: str = "", dest: str = "", most: int | None = None):
        self.name, self.convert, self.choices = name, convert, choices
        self.default, self.help, self.most = default, help, most
        self.attr = dest or name.lstrip("-").replace("-", "_")
        if choices:
            self.metavar = "{" + ",".join(choices) + "}"
        else:
            self.metavar = self.attr.upper() if name.startswith("-") else name

    def parse(self, text: str) -> object:
        """text converted and checked against choices and most, or _BadValue."""
        try:
            value = self.convert(text)
        except _BadValue as exc:
            raise _BadValue(f"argument {self.name}: {exc}") from None
        except ValueError:
            raise _BadValue(f"argument {self.name}: invalid "
                            f"{self.convert.__name__} value: {text!r}") from None
        if self.choices and value not in self.choices:
            raise _BadValue(f"argument {self.name}: invalid choice: {value!r} "
                            f"(choose from {', '.join(map(repr, self.choices))})")
        if self.most is not None and value > self.most:
            raise _BadValue(f"argument {self.name}: must be at most {self.most}, "
                            f"got {text!r}")
        return value


class _Command:
    def __init__(self, run: Callable[[SimpleNamespace], int], help: str,
                 positionals: tuple[_Arg, ...], options: tuple[_Arg, ...]):
        self.run, self.help = run, help
        self.positionals, self.options = positionals, options


_HELP = _Arg("--help", help="show this help message and exit")
_FORMAT = _Arg("--format", choices=("plain", "csv", "json"), default="plain",
               help="output format (default plain)")
_TOL = _Arg("--tol", _positive_tol, default=1e-12,
            help="bisection tolerance, > 0 (default 1e-12)")

# The tops of the admitted sizes, from cold runs on a 2-core x86-64 Linux VM
# (Python 3.11.7), each at most about 10 s and 400 MiB peak:
# - poly n: coefficients hold about n^2/2 bits in all, printing takes about
#   n^3.  At 12000 the costliest member, phi in CSV, took 4.3 s and peaked
#   at 394 MiB, and u 2.2 s and 184 MiB.
# - verify --max-n: the battery grows about as max_n^3; 2000 took 8.7-10.8 s
#   in CSV, peaking at 44 MiB.
# - verify --roots-max-n: the brackets grow about linearly; 40000 took
#   7.2-8.0 s, peaking at 30 MiB.
_COMMANDS = {
    "poly": _Command(
        _cmd_poly, "print a family member's coefficients",
        (_Arg("family", choices=tuple(sorted(_FAMILIES))), _Arg("n", int, most=12000)),
        (_FORMAT,)),
    "verify": _Command(
        _cmd_verify, "run the exact identity battery and root-structure checks",
        (),
        (_Arg("--max-n", int, default=50, most=2000),
         _Arg("--roots-max-n", int, most=40000, help="cap for the gamma and beta "
              "brackets and the initial values (default min(max-n, 60))"),
         _FORMAT)),
    "qec": _Command(
        _cmd_qec, "compute one quadratic embedding constant",
        (_Arg("target", choices=("fan", "graph")),
         _Arg("value", help="fan size or edge-list file path")),
        (_Arg("--method", choices=tuple(sorted(_METHODS)), default="auto"),
         _TOL, _FORMAT)),
    "table": _Command(
        _cmd_table, "tabulate fan constants over a range",
        (_Arg("kind", choices=("fan",)), _Arg("from", int, dest="start"),
         _Arg("to", int, dest="stop")),
        (_TOL, _FORMAT)),
}


def _is_option(token: str) -> bool:
    """A token starting with - names an option, unless it is - alone or a
    negative number such as -1, -2.5 or -.5, which is a value."""
    if token[:1] != "-" or token == "-":
        return False
    digits, dot, fraction = token[1:].partition(".")
    return not ((digits + fraction).isdecimal() and (fraction or not dot))


def _option(name: str | None, token: str) -> tuple[_Arg | None, str | None]:
    """The option token names (None if unknown) and its =value, if any."""
    if token == "-h":
        return _HELP, None
    flag, eq, value = token.partition("=")
    options = (_HELP, *_COMMANDS[name].options) if name else (_HELP,)
    hits = [o for o in options if o.name == flag] or \
        [o for o in options if flag.startswith("--") and o.name.startswith(flag)]
    if len(hits) > 1:
        raise _BadCommandLine(name, f"ambiguous option: {token} could match "
                                    f"{', '.join(o.name for o in hits)}")
    return (hits[0] if hits else None), (value if eq else None)


def _parse(argv: list[str]) -> tuple[str | None, SimpleNamespace | None]:
    """The command argv names and its arguments, or None for help, by the
    rules in the module docstring.  Tokens are read left to right, so a help
    flag after a refused token comes too late.  Raises _BadCommandLine."""
    if not argv:
        raise _BadCommandLine(None, "the following arguments are required: command")
    name, tokens = argv[0], iter(argv[1:])
    if name != "--" and _option(None, name)[0] is _HELP:
        return None, None
    if name not in _COMMANDS:
        raise _BadCommandLine(None, f"argument command: invalid choice: {name!r} "
                                    f"(choose from {', '.join(map(repr, _COMMANDS))})")
    command = _COMMANDS[name]
    values = {o.attr: o.default for o in command.options}
    given, extras, options_done = 0, [], False
    try:
        for token in tokens:
            if token == "--" and not options_done:
                options_done = True
            elif options_done or not _is_option(token):
                if given < len(command.positionals):
                    arg = command.positionals[given]
                    values[arg.attr] = arg.parse(token)
                    given += 1
                else:
                    extras.append(token)
            else:
                option, value = _option(name, token)
                if option is _HELP:
                    if value is not None:
                        raise _BadValue("argument -h/--help: ignored explicit "
                                        f"argument {value!r}")
                    return name, None
                if option is None:
                    extras.append(token)
                    continue
                if value is None:
                    value = next(tokens, None)
                    if value is None or _is_option(value):
                        raise _BadValue(f"argument {option.name}: "
                                        "expected one argument")
                values[option.attr] = option.parse(value)
    except _BadValue as exc:
        raise _BadCommandLine(name, str(exc)) from None
    if given < len(command.positionals):
        missing = ", ".join(a.name for a in command.positionals[given:])
        raise _BadCommandLine(name, f"the following arguments are required: {missing}")
    if extras:
        raise _BadCommandLine(None, f"unrecognized arguments: {' '.join(extras)}")
    return name, SimpleNamespace(**values)


def _usage(name: str | None) -> str:
    if name is None:
        return f"usage: fanqec [-h] {{{','.join(_COMMANDS)}}} ..."
    command = _COMMANDS[name]
    return " ".join(["usage: fanqec", name, "[-h]",
                     *(f"[{o.name} {o.metavar}]" for o in command.options),
                     *(a.metavar for a in command.positionals)])


def _help(name: str | None) -> str:
    """Usage, description and one row per command, positional and option."""

    def row(left: str, text: str) -> str:
        left = "  " + left
        if not text:
            return left
        return (f"{left:<24}" if len(left) <= 22 else left + "\n" + " " * 24) + text

    help_row = row("-h, --help", _HELP.help)
    if name is None:
        return "\n".join([
            _usage(None), "", "Chebyshev-type polynomial identities and "
            "quadratic embedding constants of fan graphs.", "", "commands:",
            *(row(n, c.help) for n, c in _COMMANDS.items()),
            "", "options:", help_row, "",
            "Run `fanqec <command> -h` for a command's arguments."])
    command = _COMMANDS[name]
    positionals = (["", "positional arguments:",
                    *(row(a.metavar, a.help) for a in command.positionals)]
                   if command.positionals else [])
    return "\n".join([
        _usage(name), "", command.help, *positionals, "", "options:", help_row,
        *(row(f"{o.name} {o.metavar}", o.help) for o in command.options)])


def main(argv: list[str] | None = None) -> int:
    try:
        code = _run(argv)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # stdout was closed early (`| head`).  Point it at the null device,
        # so that the interpreter's last flush cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141


def _run(argv: list[str] | None) -> int:
    try:
        name, args = _parse(sys.argv[1:] if argv is None else list(argv))
    except _BadCommandLine as exc:
        name, message = exc.args
        print(_usage(name), file=sys.stderr)
        return _fail(f"fanqec{' ' + name if name else ''}: error: {message}", 2)
    if args is None:
        sys.stdout.write(_help(name) + "\n")
        return 0
    try:
        return _COMMANDS[name].run(args)
    except Disconnected as exc:
        return _fail(f"graph is disconnected: {exc}", 3)
    except roots.BadBracket as exc:
        return _fail(f"verification failed: {exc}", 1)
    except (ValueError, OverflowError) as exc:
        return _fail(str(exc), 2)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
