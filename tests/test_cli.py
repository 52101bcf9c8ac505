"""Command-line interface: outputs, exit codes, round-trips."""

import csv
import hashlib
import io
import json
import math
import os
import select
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from fanqec import chebyshev, cli, qec, roots
from fanqec.cli import main
from fanqec.graphs import path
from fanqec.polynomial import Poly
from fanqec.qec import qec_fan, qec_numeric


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def doc_examples():
    """Every `$ fanqec ...` line in README.md and PAPER.md with the output
    lines that follow it, up to a blank line, the next prompt or the fence."""
    root = Path(__file__).resolve().parents[1]
    for doc in ("README.md", "PAPER.md"):
        lines = (root / doc).read_text(encoding="utf-8").splitlines()
        for i, line in enumerate(lines):
            if not line.startswith("$ fanqec "):
                continue
            expected = []
            for follow in lines[i + 1:]:
                if not follow or follow.startswith(("$ ", "```")):
                    break
                expected.append(follow + "\n")
            yield pytest.param(shlex.split(line)[2:], "".join(expected),
                               id=f"{doc}:{line[2:]}")


@pytest.mark.parametrize("argv, expected", doc_examples())
def test_doc_example_output_is_exact(capsys, argv, expected):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == expected


# SHA-256 of stdout, recorded at commit 0a2f280: any byte of these outputs
# that changes must change here too, on purpose.  The verify digests here
# and in _ARGV were re-recorded at the commit that proved the zero
# localization for every n: the parent's bytes plus two identities' checks,
# the counts, the reworded roots line, the localization line or row and the
# localization_unproven JSON key.  The plain and CSV verify digests were
# re-recorded again when the elementary inequality was proven for every x:
# its line reads "proven" and its row has no grid size, and the roots line
# names the gamma and beta brackets and initial values.  JSON is unchanged.
_GOLDEN = {
    "table fan 1 401 --format csv":
        "c02d3ca519bf00d8933d132d8988c1b71bf6222c906e39c133b39868af7a12e8",
    "verify --max-n 60 --format json":
        "f6720c171f7f37da46f261a2eae843dfde81379890c9014b72fe783780738eb4",
    # Every one of the 8428 identity checks, one row each.
    "verify --max-n 300 --format csv":
        "08e8042efee90e9612a89e638f928f94e0b6dd369a37bb3c735ea9c8a09c818b",
    "poly s 300 --format json":
        "24f730776e488d1a1b89baad75eabdab6a0c3025a69c762b34a91c5648d5f8c7",
    "qec fan 4001 --format json":
        "17c39c2f6b6044bd6bb1be2a9888b61b5ad0ac7e99dfcda3d216baa267b7361e",
    # Recorded at commit 2c3a388: one command or more per output format of
    # each command, including the per-command cells for a missing value.
    "poly s 40":
        "9b3bade05418d34534656b0b359c8025c0d16d6a59956e2aaf6e501718ec4bab",
    "poly s 40 --format csv":
        "53d825fe5385a1452a71721ccdc1cc51b6ffe1a289684d94c64ba368ed60a155",
    "verify --max-n 300":
        "936f4ce02957a8e911ecff30f2ff1c5cb4c7f6639fc4c3f683da9947e5a0f2fd",
    "verify --max-n 300 --format json":
        "cecd415ba6a3963a2461abfb8d67d236f9663aa81df48f800b8eaee256bac9d7",
    "qec fan 101":
        "8ea3b3c48c78d3ef33b0300cb7a54016e99ee5661cdfe924fc82116e15de04bd",
    "qec fan 101 --format csv":
        "71c4208e2ab46b2c74827360df0f46034e90a25f9a1c32ff3af3e2d36d4e9d8e",
    "qec fan 2 --format csv":
        "35d50c6b3bf6a8c3cdef7ddd6dd6b2b03b3b7f7eda259dc8cffa3adee9721cc7",
    "qec fan 6":
        "b57142f3b055b8e87deaa23996bc74861e3ca7bdade846b66365ed92511771d0",
    "table fan 1 201":
        "91ad6b868a82343f913c34564070e3ec389d39dea79f621a9018df0616b583f0",
    "table fan 1 201 --format json":
        "27b3430cfc3c2bddc54ac6a08bf797a8416cc20e5f8802fbaa05cc538b447caf",
    # Recorded at commit 69266a7, where every sign came from the exact
    # kernel: large fans on both root routes.
    "qec fan 4011":
        "36fb6cfae7e8ca7936cbecf79f40c4a617ecbc0809487fe9c8c7ee0ebf67a142",
    "qec fan 20001 --format json":
        "a9ad1e400d931ebaf6fc53b856b2a9dd03f0df9d378e62a335e8b69841aca798",
    "qec fan 100000 --method root":
        "de4ea0c0b582215fd28dd92ce8a3bfc6a2be4b4c7dc2604cf0343339bcd5f49d",
    # Recorded at commit 029915f: below tol 4e-13 the float proposal stops at
    # width 1e-13 and exact bisection narrows on from there.
    "qec fan 4011 --tol 1e-15 --format json":
        "10e8f88ae448c4526f977601b4a19ba4e082e56cbe2e0a7941ffd2060c5e28a2",
    "table fan 1 401 --tol 3e-13 --format csv":
        "71c21b1bccc595b008e5007e300873009616b76ac865ff1f3e735669622ee522",
}


@pytest.mark.parametrize("command", _GOLDEN)
def test_golden_stdout_bytes(capsys, command):
    code, out, _ = run(capsys, *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _GOLDEN[command]


def test_sound_verify_makes_no_record_per_proven_check(capsys, monkeypatch):
    # Every check of a sound build is proven, so plain and JSON verify
    # print the count without one IdentityCheck per (identity, n); only CSV,
    # which prints a row per check, builds the 8428 records.
    made = []
    real = chebyshev.IdentityCheck.__new__

    def counting(cls, *args, **kwargs):
        made.append(args[:3])
        return real(cls, *args, **kwargs)

    monkeypatch.setattr(chebyshev.IdentityCheck, "__new__", staticmethod(counting))
    for fmt, digest in (("plain", _GOLDEN["verify --max-n 300"]),
                        ("json", _GOLDEN["verify --max-n 300 --format json"])):
        code, out, _ = run(capsys, "verify", "--max-n", "300", "--format", fmt)
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest
        assert made == [], (fmt, made[:3])
    code, out, _ = run(capsys, "verify", "--max-n", "300", "--format", "csv")
    assert code == 0 and len(made) == 8428
    assert hashlib.sha256(out.encode()).hexdigest() == _GOLDEN["verify --max-n 300 --format csv"]


# SHA-256 of the stdout of `poly <family> <n> --format <f>` for every valid n
# in _POLY_INDICES and f in plain, csv, json, concatenated in that order.
# Recorded at commit 43098b0, where U, T, V and W were walked up their
# recurrences.
_POLY_INDICES = (-2, -1, 0, 1, 2, 7, 60, 301, 1000)
_POLY_GOLDEN = {
    "phi": "070ec6691d3e31434e972e00719bf1d7a64fbef00cd3ee9f44ca159c8be08d0a",
    "s": "ed4f7525572b9469bcf46623d29c9c24ce84053924cfbd61853e2a5d7c6de391",
    "t": "c4ec99940eb9691b5d8d2ef5df42deff488c0fbaea00c8feff90124e41646ad0",
    "u": "c6630587fb33279ab539c6185a832a5a3902189abb21022e99e2e8a135de767b",
    "ucomp": "4b22060b4f4d6eb26aaf28c853730110ffe25274fcfa23da6446664857d684a2",
    "ue": "420c9b77a9fe981b30602fbabbdc976fb1e8986ea1860fc22f1fa0974fcdb7b1",
    "uecomp": "c13dbedd75caa84a88e1e4edcd10b4b08f23425ea0d379fea8d0995648d985fc",
    "uo": "7669ebb16ff80ce8dc4680b940226a141ccacecf24884d10c8cb513e5861d233",
    "uocomp": "abccef8572763c57db0efd87ce68cac60c3372af0415c8826fbf047cfe817c14",
    "v": "a5417a1b02f2b3a85d26dba956539737cb70e1e0cc8a4cdf7329914eef5c6165",
    "w": "1f2cd395c3019378302fd6c5c938482bfbf7d8cab1ecafe1e7ed9fed61867a92",
}


@pytest.mark.parametrize("family", sorted(_POLY_GOLDEN))
def test_poly_bytes_of_every_family(capsys, family):
    first = -2 if family in ("u", "ucomp") else 0
    digest = hashlib.sha256()
    for n in _POLY_INDICES[_POLY_INDICES.index(first):]:
        for fmt in ("plain", "csv", "json"):
            code, out, _ = run(capsys, "poly", family, str(n), "--format", fmt)
            assert code == 0, (n, fmt)
            digest.update(out.encode())
    assert digest.hexdigest() == _POLY_GOLDEN[family]


# Exit code, then the SHA-256 of stdout on exit 0 or else the last line of
# stderr, recorded at commit 0bf1374 under the argparse front end: spellings,
# option positions, negative values, and one bad command line per error kind.
_ARGV = [
    ("poly s 5 --format json", 0,
     "62eadf8c7c910315ef7d2417b39db94eaf875cf5f0a0c06b04e2311b201f9550"),
    ("poly u -1", 0,
     "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570"),
    ("poly --format=csv s 4", 0,
     "93f8ac621189f4ef6c4aa372c503bde4f0f5ed98de63e433122c5d9873514848"),
    ("poly s --format csv 4", 0,
     "93f8ac621189f4ef6c4aa372c503bde4f0f5ed98de63e433122c5d9873514848"),
    ("poly s 4 --format csv --format json", 0,
     "fef1975767bd0100a70321a1c9be3a949875a6ed16bfa929911728790d2697bd"),
    ("poly s 4 --form json", 0,
     "fef1975767bd0100a70321a1c9be3a949875a6ed16bfa929911728790d2697bd"),
    ("verify --max 3", 0,
     "f282c014114cfd29deb60c42b5564de2aa26b39d2ed464fed855301bfe19e646"),
    ("verify --max-n=3 --roots-max-n 2", 0,
     "87af61e9bfbe62ac5a879315ee488e2c1a2941bc9340bf220ce6dee42ddb1a95"),
    ("verify --roots 2 --max-n 4 --format=csv", 0,
     "ac83cf5ab5c5b2f678ac6271ae1e2f4b77384d5411a17e7f5adecea2ce1afb28"),
    ("qec --tol 1e-9 fan 5", 0,
     "21e6de4c8506fd496ff7253216434ecfcdb7d4fc5b724fd04acc7940f964d1d6"),
    ("qec fan -- 5", 0,
     "8ff2f15bc7e28c3fe3c8b41c361947781400bb4a9f38b5590d858d9485d9e0ae"),
    ("qec -- fan 5", 0,
     "8ff2f15bc7e28c3fe3c8b41c361947781400bb4a9f38b5590d858d9485d9e0ae"),
    ("qec fan 5 --method=numeric --format=json", 0,
     "be4b3f2b834b4906cb3d04aa9ec15c8f570b97c5d53d4fb93cf2c9e5752ffa19"),
    ("qec fan 7 --me root --t 1e-6", 0,
     "735b07b35ceb8022200054b08ee44f794ae3f9e82a59d4de8a329197df0d3f57"),
    ("qec --method root fan 9 --format json", 0,
     "913f8fa2541b9305f3cc0c4b6e785bd2d75a8144ec626a671b03b72317043cd4"),
    ("qec fan 4 --method closed --tol 1e-3", 0,
     "058cfbbccc5836f38556d5870d66a491da7c0d310e67db7b78dedc3f1ffacdc4"),
    ("table fan 3 7 --tol=1e-6 --format json", 0,
     "ba65a92a59d403f14e221cc7ae43b04bc214c77a97b48812bfd7fc91118bc8e9"),
    ("table --format csv fan 1 4", 0,
     "e6ddf32efeb661b96f242af067fda62593aa171fd92abea1dc8a15b6395cc621"),
    ("table fan 2 --tol 1e-9 6", 0,
     "974d9ae11aa71fc8d8b48be6ea559dce01e1a978ad0b8889b8dac6142a679f50"),
    ("", 2,
     "fanqec: error: the following arguments are required: command"),
    ("frobnicate", 2,
     "fanqec: error: argument command: invalid choice: 'frobnicate' (choose from 'poly', 'verify', 'qec', 'table')"),
    ("-- qec fan 5", 2,
     "fanqec: error: argument command: invalid choice: '--' (choose from 'poly', 'verify', 'qec', 'table')"),
    ("qec fan", 2,
     "fanqec qec: error: the following arguments are required: value"),
    ("table fan 1", 2,
     "fanqec table: error: the following arguments are required: to"),
    ("poly s 4 5", 2,
     "fanqec: error: unrecognized arguments: 5"),
    ("verify --grid 512", 2,
     "fanqec: error: unrecognized arguments: --grid 512"),
    ("qec fan -- 5 --format json", 2,
     "fanqec: error: unrecognized arguments: --format json"),
    ("qec fan 5 -x", 2,
     "fanqec: error: unrecognized arguments: -x"),
    ("qec fan 5 --tol", 2,
     "fanqec qec: error: argument --tol: expected one argument"),
    ("qec fan 5 --tol -1e-9", 2,
     "fanqec qec: error: argument --tol: expected one argument"),
    ("qec fan -1e5", 2,
     "fanqec qec: error: the following arguments are required: value"),
    ("poly u x", 2,
     "fanqec poly: error: argument n: invalid int value: 'x'"),
    ("poly u 2.5", 2,
     "fanqec poly: error: argument n: invalid int value: '2.5'"),
    ("poly u 1 --format xml", 2,
     "fanqec poly: error: argument --format: invalid choice: 'xml' (choose from 'plain', 'csv', 'json')"),
    ("verify --format=", 2,
     "fanqec verify: error: argument --format: invalid choice: '' (choose from 'plain', 'csv', 'json')"),
    ("poly nope 3", 2,
     "fanqec poly: error: argument family: invalid choice: 'nope' (choose from 'phi', 's', 't', 'u', 'ucomp', 'ue', 'uecomp', 'uo', 'uocomp', 'v', 'w')"),
    ("qec fan 5 --method fast", 2,
     "fanqec qec: error: argument --method: invalid choice: 'fast' (choose from 'auto', 'closed', 'numeric', 'root')"),
    ("poly --=3 s 4", 2,
     "fanqec poly: error: ambiguous option: --=3 could match --help, --format"),
    ("qec fan 5 --tol 0", 2,
     "fanqec qec: error: argument --tol: must be a positive finite number, got '0'"),
    ("qec fan 5 --tol nan", 2,
     "fanqec qec: error: argument --tol: must be a positive finite number, got 'nan'"),
    ("qec fan 5 --tol inf", 2,
     "fanqec qec: error: argument --tol: must be a positive finite number, got 'inf'"),
    ("qec fan 5 --tol -1", 2,
     "fanqec qec: error: argument --tol: must be a positive finite number, got '-1'"),
    ("qec fan 5 --tol x", 2,
     "fanqec qec: error: argument --tol: not a number: 'x'"),
    ("verify --max-n -1", 2,
     "max_n must be >= 0"),
    ("qec fan -2.5", 2,
     "fan size must be an integer, got '-2.5'"),
    ("table fan -1 2", 2,
     "need 1 <= from <= to, got -1..2"),
]


@pytest.mark.parametrize("command, code, expected", _ARGV,
                         ids=[c[0] or "<none>" for c in _ARGV])
def test_recorded_argv_behaviour(capsys, command, code, expected):
    got, out, err = run(capsys, *shlex.split(command))
    assert got == code
    assert "Traceback" not in err
    if code == 0:
        assert hashlib.sha256(out.encode()).hexdigest() == expected
        return
    assert out == ""
    lines = err.splitlines()
    assert lines[-1] == expected
    if ": error: " in expected:  # a bad command line, not a library error
        assert lines[0].startswith("usage: fanqec")


_FORMAT_HELP = ["--format", "plain", "csv", "json", "output format (default plain)"]
_TOL_HELP = ["--tol", "bisection tolerance, > 0 (default 1e-12)"]

# What each help page names: every command at the root, and every positional
# (by name, or by its choices), option, choice and help string of a command.
_HELP = {
    (): ["poly", "verify", "qec", "table",
         "Chebyshev-type polynomial identities and quadratic embedding "
         "constants of fan graphs.",
         "print a family member's coefficients",
         "run the exact identity battery and root-structure checks",
         "compute one quadratic embedding constant",
         "tabulate fan constants over a range"],
    ("poly",): ["phi", "s", "t", "u", "ucomp", "ue", "uecomp", "uo", "uocomp",
                "v", "w", "n", *_FORMAT_HELP],
    ("verify",): ["--max-n", "--roots-max-n",
                  "cap for the gamma and beta brackets and the initial values "
                  "(default min(max-n, 60))",
                  *_FORMAT_HELP],
    ("qec",): ["fan", "graph", "value", "fan size or edge-list file path",
               "--method", "auto", "closed", "numeric", "root",
               *_TOL_HELP, *_FORMAT_HELP],
    ("table",): ["fan", "from", "to", *_TOL_HELP, *_FORMAT_HELP],
}


@pytest.mark.parametrize("spelling", ["-h", "--help", "--he"])
@pytest.mark.parametrize("command", _HELP, ids=lambda c: " ".join(c) or "root")
def test_help_names_everything(capsys, command, spelling):
    code, out, err = run(capsys, *command, spelling)
    assert code == 0
    assert err == ""
    text = " ".join(out.split())  # help text may be wrapped anywhere
    for name in _HELP[command]:
        assert name in text


class TestEntry:
    """The console-script target `entry`, in a fresh interpreter."""

    @staticmethod
    def command(*argv):
        """The interpreter command line and environment that run entry()."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        script = ("import sys; from fanqec.cli import entry; "
                  f"sys.argv = ['fanqec', *{list(argv)!r}]; entry()")
        return [sys.executable, "-c", script], dict(os.environ, PYTHONPATH=path)

    def entry(self, *argv):
        command, env = self.command(*argv)
        return subprocess.run(command, capture_output=True, env=env, timeout=120)

    def test_closed_stdout_exits_141_quietly(self):
        # About 1.4 MB of CSV, far more than a pipe holds, so the command is
        # still writing when the reader goes away.
        command, env = self.command("poly", "u", "3000", "--format", "csv")
        with subprocess.Popen(command, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, env=env) as proc:
            assert proc.stdout.read(10) == b"family,n,c"
            proc.stdout.close()
            _, err = proc.communicate(timeout=120)
        assert proc.returncode == 141
        assert err == b""

    def test_table_rows_reach_a_reader_that_leaves_early(self):
        # The whole table would take many minutes.  Its rows are printed as
        # they are computed, so the first ones arrive at once and the
        # command stops when the reader closes the pipe.
        command, env = self.command("table", "fan", "1", "2000001", "--format", "csv")
        with subprocess.Popen(command, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, env=env) as proc:
            try:
                assert select.select([proc.stdout], [], [], 20)[0], "no row in 20 s"
                assert proc.stdout.read(10) == b"n,qec,meth"
                proc.stdout.close()
                _, err = proc.communicate(timeout=20)
            finally:
                proc.kill()
        assert proc.returncode == 141
        assert err == b""

    def test_json_table_rows_reach_a_reader_that_leaves_early(self):
        # JSON too is written a row at a time, as one document.
        command, env = self.command("table", "fan", "1", "2000001", "--format", "json")
        with subprocess.Popen(command, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, env=env) as proc:
            try:
                assert select.select([proc.stdout], [], [], 20)[0], "no row in 20 s"
                assert proc.stdout.read(31) == b'{"rows": [{"n": 1, "qec": -1.0,'
                proc.stdout.close()
                _, err = proc.communicate(timeout=20)
            finally:
                proc.kill()
        assert proc.returncode == 141
        assert err == b""

    def test_readme_example(self):
        expected = next(p.values[1] for p in doc_examples()
                        if p.values[0] == ["qec", "fan", "3"])
        proc = self.entry("qec", "fan", "3")
        assert proc.returncode == 0
        assert proc.stdout == expected.encode()

    def test_bad_argument_exits_two(self):
        proc = self.entry("qec", "fan", "0")
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert proc.stderr.strip() and b"Traceback" not in proc.stderr

    def test_disconnected_graph_exits_three(self, tmp_path):
        edge_file = tmp_path / "two_parts.edges"
        edge_file.write_text("0 1\n2 3\n")
        proc = self.entry("qec", "graph", str(edge_file))
        assert proc.returncode == 3
        assert b"disconnected" in proc.stderr


class TestPoly:
    def test_phi_json(self, capsys):
        code, out, _ = run(capsys, "poly", "phi", "0", "--format", "json")
        assert code == 0
        assert json.loads(out) == {"family": "phi", "n": 0, "coeffs": [1, -2, 1]}

    def test_even_part_plain(self, capsys):
        code, out, _ = run(capsys, "poly", "ue", "2")
        assert code == 0
        assert out.strip() == "[1, 2]"

    def test_zero_polynomial(self, capsys):
        code, out, _ = run(capsys, "poly", "u", "-1")
        assert code == 0
        assert out.strip() == "[]"

    def test_compressed_family(self, capsys):
        code, out, _ = run(capsys, "poly", "ucomp", "2")
        assert code == 0
        assert out.strip() == "[-1, 0, 1]"

    def test_bad_family_exits_two(self, capsys):
        code, _, _ = run(capsys, "poly", "nope", "3")
        assert code == 2

    def test_out_of_range_index_exits_two(self, capsys):
        code, _, err = run(capsys, "poly", "s", "-1")
        assert code == 2
        assert "n >=" in err

    def test_csv_shape(self, capsys):
        code, out, _ = run(capsys, "poly", "s", "2", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["family", "n", "coeffs"]
        assert rows[1] == ["s", "2", "-3 -3 6"]


# A coefficient of 5000 digits, over Python's default limit of 4300 on
# int-to-str conversion, and its digits written out.
_BIG_COEFF = 10 ** 4999
_BIG_DIGITS = "1" + "0" * 4999


class TestDigitLimit:
    @pytest.mark.parametrize("fmt, expected", [
        ("plain", f"[{_BIG_DIGITS}, 1]\n"),
        ("csv", f"family,n,coeffs\nu,3,{_BIG_DIGITS} 1\n"),
        ("json", f'{{"family": "u", "n": 3, "coeffs": [{_BIG_DIGITS}, 1]}}\n'),
    ], ids=["plain", "csv", "json"])
    def test_poly_prints_a_coefficient_of_any_size(self, capsys, monkeypatch,
                                                    fmt, expected):
        monkeypatch.setitem(cli._FAMILIES, "u", (lambda n: Poly((_BIG_COEFF, 1)), -2))
        limit = sys.get_int_max_str_digits()
        assert run(capsys, "poly", "u", "3", "--format", fmt) == (0, expected, "")
        assert sys.get_int_max_str_digits() == limit

    def test_verify_failure_payload_prints_a_coefficient_of_any_size(
            self, capsys, monkeypatch):
        failure = chebyshev.IdentityCheck("u-split-product", 4, False, (_BIG_COEFF,), (1,))
        monkeypatch.setattr(cli, "identity_suite", lambda max_n: chebyshev.IdentityReport(
            max_n, [failure], tuple(roots.LOCALIZATION_IDENTITIES), ()))
        limit = sys.get_int_max_str_digits()
        code, out, _ = run(capsys, "verify", "--max-n", "4", "--format", "json")
        assert code == 1
        assert (f'"failures": [{{"identity": "u-split-product", "n": 4, '
                f'"lhs": [{_BIG_DIGITS}], "rhs": [1]}}]') in out
        assert sys.get_int_max_str_digits() == limit

    def test_limit_is_restored_when_printing_raises(self, capsys, monkeypatch):
        # table computes every row after the first while it prints.
        real = cli.qec_fan

        def failing_at_two(n, tol):
            if n == 2:
                raise ValueError("no value at 2")
            return real(n, tol=tol)

        monkeypatch.setattr(cli, "qec_fan", failing_at_two)
        limit = sys.get_int_max_str_digits()
        assert run(capsys, "table", "fan", "1", "2")[0] == 2
        assert sys.get_int_max_str_digits() == limit

    def test_arguments_are_parsed_under_the_limit(self, capsys):
        code, out, err = run(capsys, "poly", "u", "1" * 4301)
        assert code == 2 and out == ""
        assert "argument n" in err
        assert sys.get_int_max_str_digits() == 4300


class TestVerify:
    def test_small_run_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-n", "10")
        assert code == 0
        assert out.strip().endswith("OK")

    def test_trivial_run_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-n", "0")
        assert code == 0
        # The localization and the elementary inequality are proven for
        # every n and every x whatever --max-n is.
        assert out.splitlines()[1:4] == [
            "gamma and beta brackets and initial values up to n=0: 0 failures",
            "zero localization of S_n: proven for every n",
            "elementary inequality on [0, 1/3]: proven",
        ]

    def test_json_shape(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-n", "5", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["ok"] is True
        assert data["identities"]["failures"] == []
        assert data["elementary_inequality"] is True

    @pytest.mark.parametrize("argv", [
        ("verify", "--max-n", "-1"),
        ("verify", "--grid", "512"),  # --grid is gone: an unknown option
        ("verify", "--roots-max-n", "-5"),
    ])
    def test_bad_argument_exits_two_with_message(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.strip() and "Traceback" not in err

    def test_mutated_companion_fails_with_line(self, capsys, monkeypatch):
        real = chebyshev._s_factors

        def flipped(n):
            m, head, tail = real(n)
            return (m, head, (-tail[0],) + tail[1:]) if n == 7 else (m, head, tail)

        monkeypatch.setattr(chebyshev, "_s_factors", flipped)
        code, out, _ = run(capsys, "verify", "--max-n", "2", "--roots-max-n", "9")
        assert code == 1
        assert out.splitlines()[1:6] == [
            "gamma and beta brackets and initial values up to n=9: 1 failures",
            "  FAIL gamma bracket n=7: no verified endpoint near -1.0 (sign -1)",
            "zero localization of S_n: not proven for every n",
            "  FAIL s-odd-index-from-split-factors not proven for every n",
            "  FAIL s-even-index-from-split-factors not proven for every n",
        ]
        assert out.strip().endswith("FAILED")

    def test_corrupted_build_fails_with_name(self, capsys, monkeypatch):
        # The even part's formula, which partial_e returns and the proofs
        # expand, changed at n = 4.
        real = chebyshev._Families.defined

        def corrupted(self, family, n):
            p = real(self, family, n)
            if family == "pe" and n == 4:
                coeffs = list(p.coeffs)
                coeffs[0] += 1
                return Poly(coeffs)
            return p

        monkeypatch.setattr(chebyshev._Families, "defined", corrupted)
        code, out, _ = run(capsys, "verify", "--max-n", "6", "--roots-max-n", "0")
        assert code == 1
        assert "u-split-product" in out
        assert out.strip().endswith("FAILED")

    @pytest.mark.parametrize("builder", ["partial_e", "partial_o"])
    def test_corrupted_split_factor_leaves_the_localization_unproven(
            self, capsys, monkeypatch, builder):
        # The derived formulas changed by a branch on n, taken at n = 11 for
        # one factor: no identity that reads pe, po, s or phi has an order
        # bound, and each of the six the localization rests on reads a
        # factor.  No check reported at --max-n 2 reads index 11, so none
        # fails, but verify says the localization is unproven.
        family, real = {"partial_e": "pe", "partial_o": "po"}[builder], chebyshev._Families.defined

        def corrupted(self, name, n):
            p = real(self, name, n)
            if n == 11 and name == family:
                return Poly((p.coeffs[0] + 1,) + p.coeffs[1:])
            return p

        monkeypatch.setattr(chebyshev._Families, "defined", corrupted)
        code, out, _ = run(capsys, "verify", "--max-n", "2", "--format", "json")
        assert code == 1
        data = json.loads(out)
        assert data["identities"]["failures"] == [] and data["roots_failures"] == []
        assert data["localization_unproven"] == list(roots.LOCALIZATION_IDENTITIES)

    @pytest.mark.parametrize("builder, named", [
        ("s_poly", ("phi-factorization", "s-even-index-from-split-factors")),
        ("phi", ("phi-factorization",)),
    ])
    @pytest.mark.parametrize("corruption", ["coefficient", "index"])
    def test_corrupted_derived_member_fails_its_tie(
            self, capsys, monkeypatch, builder, named, corruption):
        # The formula of S_n or phi_n changed at 30, above every base index,
        # through a test of n: no identity that reads the family has an
        # order bound, and Poly finds the bad member.
        family, real = {"s_poly": "s", "phi": "phi"}[builder], chebyshev._Families.defined

        def corrupted(self, name, n):
            if name != family or n != 30:
                return real(self, name, n)
            if corruption == "index":
                return real(self, name, n - 2)
            p = real(self, name, n)
            return Poly((p.coeffs[0] + 1,) + p.coeffs[1:])

        monkeypatch.setattr(chebyshev._Families, "defined", corrupted)
        code, out, _ = run(capsys, "verify", "--max-n", "40")
        assert code == 1
        for identity in named:
            assert f"  FAIL {identity} at n=30" in out.splitlines()
        assert out.strip().endswith("FAILED")

    def test_shifted_grid_fails_the_orderings(self, capsys, monkeypatch):
        real = roots._grid_point
        monkeypatch.setattr(roots, "_grid_point", lambda j, den: real(j + 1, den))
        code, out, _ = run(capsys, "verify", "--max-n", "2", "--roots-max-n", "4")
        assert code == 1
        # Each of the six brackets fails at the end whose gap signs are
        # wrong: a base shifted one grid point down lies one gap too low,
        # while beta's lower end, which wants gap n, verifies just below -1,
        # where the split factors keep the signs of gap n.
        assert out.splitlines()[1:8] == [
            "gamma and beta brackets and initial values up to n=4: 6 failures",
            "  FAIL gamma bracket n=1: no verified endpoint near -1.0 (sign -1)",
            "  FAIL gamma bracket n=2: no verified endpoint near -0.4999999999999998 (sign -1)",
            "  FAIL gamma bracket n=3: no verified endpoint near -1.0 (sign 1)",
            "  FAIL gamma bracket n=4: no verified endpoint near -0.8090169943749473 (sign 1)",
            "  FAIL beta bracket n=2: no verified endpoint near -1.0 (sign 1)",
            "  FAIL beta bracket n=4: no verified endpoint near -1.0 (sign -1)",
        ]
        assert "zero localization of S_n: proven for every n" in out
        assert out.strip().endswith("FAILED")


class TestQec:
    def test_fan_three(self, capsys):
        code, out, _ = run(capsys, "qec", "fan", "3")
        assert code == 0
        lines = out.splitlines()
        assert float(lines[0]) == -0.5
        assert lines[1] == "method: root-based"

    def test_fan_numeric_method(self, capsys):
        code, out, _ = run(capsys, "qec", "fan", "4", "--method", "numeric")
        assert code == 0
        value = float(out.splitlines()[0])
        assert value == pytest.approx(-0.3819660113, abs=1e-9)

    def test_json_roundtrip(self, capsys):
        code, out, _ = run(capsys, "qec", "fan", "6", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["value"] == qec_fan(6).value
        assert data["method"] == "closed-form-even"

    def test_graph_file(self, capsys, tmp_path):
        edge_file = tmp_path / "path5.edges"
        edge_file.write_text("0 1\n1 2\n2 3\n3 4\n")
        code, out, _ = run(capsys, "qec", "graph", str(edge_file))
        assert code == 0
        lines = out.splitlines()
        assert float(lines[0]) == qec_numeric(path(5)).value
        assert lines[2].startswith("certificate: residual=")

    def test_disconnected_graph_exits_three(self, capsys, tmp_path):
        edge_file = tmp_path / "two_parts.edges"
        edge_file.write_text("0 1\n2 3\n")
        code, _, err = run(capsys, "qec", "graph", str(edge_file))
        assert code == 3
        assert "disconnected" in err

    def test_label_gap_exits_three(self, capsys, tmp_path):
        edge_file = tmp_path / "gap.edges"
        edge_file.write_text("0 1\n1 3\n")
        code, out, err = run(capsys, "qec", "graph", str(edge_file))
        assert code == 3
        assert out == ""
        assert "disconnected" in err

    def test_missing_file_exits_two(self, capsys):
        code, _, _ = run(capsys, "qec", "graph", "/nonexistent/file.edges")
        assert code == 2

    def test_malformed_file_exits_two(self, capsys, tmp_path):
        edge_file = tmp_path / "bad.edges"
        edge_file.write_text("0 1 2\n")
        code, _, _ = run(capsys, "qec", "graph", str(edge_file))
        assert code == 2

    def test_underscore_label_exits_two(self, capsys, tmp_path):
        # int() reads "1_0" as 10, which left vertex 1 in no edge (exit 3).
        edge_file = tmp_path / "underscore.edges"
        edge_file.write_text("0 1_0\n")
        code, out, err = run(capsys, "qec", "graph", str(edge_file))
        assert code == 2
        assert out == ""
        assert "non-integer vertex label" in err

    def test_closed_method_on_odd_exits_two(self, capsys):
        code, _, _ = run(capsys, "qec", "fan", "5", "--method", "closed")
        assert code == 2

    def test_graph_target_rejects_root_method(self, capsys, tmp_path):
        edge_file = tmp_path / "p.edges"
        edge_file.write_text("0 1\n")
        code, _, _ = run(capsys, "qec", "graph", str(edge_file), "--method", "root")
        assert code == 2

    def test_non_integer_fan_exits_two(self, capsys):
        code, _, _ = run(capsys, "qec", "fan", "many")
        assert code == 2


class TestOracleCap:
    """Graphs over the oracle's vertex cap exit 2 before any n x n array,
    and fans over it before the fan is built."""

    @pytest.fixture(autouse=True)
    def no_matrices(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("n x n array built above the cap")

        monkeypatch.setattr(qec, "distance_matrix", refuse)
        monkeypatch.setattr(qec, "helmert_basis", refuse)
        monkeypatch.setattr(qec, "fan", refuse)

    def test_path_file_just_over_cap(self, capsys, tmp_path):
        n = qec.MAX_ORACLE_VERTICES + 1
        edge_file = tmp_path / "long_path.edges"
        edge_file.write_text("".join(f"{i} {i + 1}\n" for i in range(n - 1)))
        code, out, err = run(capsys, "qec", "graph", str(edge_file))
        assert code == 2
        assert out == ""
        assert str(qec.MAX_ORACLE_VERTICES) in err and "Traceback" not in err

    def test_fan_at_cap_is_over_it(self, capsys):
        # fan n has n + 1 vertices.
        code, out, err = run(capsys, "qec", "fan", str(qec.MAX_ORACLE_VERTICES),
                             "--method", "numeric")
        assert code == 2
        assert out == ""
        assert str(qec.MAX_ORACLE_VERTICES) in err


_HUGE = "1" + "0" * 400


@pytest.mark.parametrize("argv", [
    ["poly", "t", "100000000000000000000"],
    ["qec", "fan", _HUGE],
    ["qec", "fan", _HUGE[:-1] + "1"],
    ["table", "fan", _HUGE, _HUGE],
    ["table", "fan", _HUGE, _HUGE, "--format", "csv"],
    ["table", "fan", _HUGE, _HUGE, "--format", "json"],
], ids=["poly t 10^20", "qec fan 10^400", "qec fan 10^400+1", "table fan 10^400 10^400",
        "table fan 10^400 10^400 --format csv",
        "table fan 10^400 10^400 --format json"])
def test_integer_too_large_exits_two(capsys, argv):
    # A command that exits 2 prints nothing to stdout: table computes its
    # first row before it writes a header.
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.strip() and "Traceback" not in err


# Each size has an admitted top, refused while the command line is read and
# before anything is built: poly u 10^6 would build about 62 GB, and verify
# --max-n 20000 would run for hours.  The top itself is admitted.
@pytest.mark.parametrize("argv, top", [
    (["poly", "u", "1000000"], 12000),
    (["verify", "--max-n", "1000000"], 2000),
    (["verify", "--roots-max-n", "40001", "--format", "csv"], 40000),
], ids=["poly u 10^6", "verify --max-n 10^6", "verify --roots-max-n 40001"])
def test_past_the_admitted_range_exits_two(capsys, argv, top):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 0.2
    assert (code, out) == (2, "")
    size = next(a for a in argv if a.isdecimal())
    assert err.splitlines()[-1].endswith(f": must be at most {top}, got {size!r}")
    assert cli._parse([str(top) if a == size else a for a in argv])[1] is not None


# From (n + 1)^2 > 2^53 no bracket end of the root route can be tried: a bad
# argument, not a failed verification.
@pytest.mark.parametrize("argv", [["qec", "fan", "94906265"],
                                  ["qec", "fan", "94906266", "--method", "root"]],
                         ids=["qec fan 94906265", "qec fan 94906266 --method root"])
def test_past_the_root_route_range_exits_two(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "root route needs (n + 1)^2 <= 2^53, n <= 94906264, " \
                  f"got {argv[2]}\n"


class TestTable:
    def test_csv_contents_roundtrip(self, capsys):
        code, out, _ = run(capsys, "table", "fan", "1", "5", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["n", "qec", "method", "lower", "upper"]
        assert len(rows) == 6
        by_n = {int(r[0]): r for r in rows[1:]}
        assert float(by_n[3][1]) == -0.5
        # bit-exact round-trip against the in-memory values
        for n in range(1, 6):
            assert float(by_n[n][1]) == qec_fan(n).value
        assert by_n[4][3] == "" and by_n[4][4] == ""
        assert float(by_n[5][3]) == -4 * math.sin(math.pi / 12) ** 2
        assert float(by_n[5][3]) < float(by_n[5][1]) < float(by_n[5][4])

    def test_single_even_row_matches_closed_form(self, capsys):
        code, out, _ = run(capsys, "table", "fan", "2", "2", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) == 2
        assert float(rows[1][1]) == -1.0
        assert float(rows[1][1]) == pytest.approx(-4 * math.sin(math.pi / 6) ** 2,
                                                  abs=1e-15)

    def test_row_past_the_root_route_range_exits_two_after_the_rows_before(self, capsys):
        code, out, err = run(capsys, "table", "fan", "94906263", "94906266",
                             "--format", "csv")
        assert code == 2
        rows = list(csv.reader(io.StringIO(out)))
        assert [r[:3] for r in rows] == [["n", "qec", "method"],
                                         ["94906263", rows[1][1], "root-based"],
                                         ["94906264", rows[2][1], "closed-form-even"]]
        assert "n <= 94906264, got 94906265" in err

    def test_reversed_range_exits_two(self, capsys):
        code, _, _ = run(capsys, "table", "fan", "5", "4")
        assert code == 2

    def test_json_roundtrip(self, capsys):
        code, out, _ = run(capsys, "table", "fan", "3", "7", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert [r["n"] for r in data["rows"]] == [3, 4, 5, 6, 7]
        for row in data["rows"]:
            assert row["qec"] == qec_fan(row["n"]).value
            if row["n"] % 2:
                assert row["lower"] < row["qec"] < row["upper"]
            else:
                assert row["lower"] is None

    def test_plain_format_runs(self, capsys):
        code, out, _ = run(capsys, "table", "fan", "1", "4")
        assert code == 0
        assert len(out.splitlines()) == 5


class TestParser:
    def test_no_command_exits_two(self, capsys):
        assert main([]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    @pytest.mark.parametrize("argv", [
        ("table", "fan", "3", "5", "--tol", "0"),
        ("table", "fan", "3", "5", "--tol", "nan"),
        ("qec", "fan", "4", "--method", "closed", "--tol", "-1"),
        ("qec", "fan", "5", "--tol", "inf"),
        ("verify", "--tol", "1e-12"),  # verify has no --tol: an unknown option
    ])
    def test_bad_tol_exits_two_with_message(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "--tol" in err and "Traceback" not in err
