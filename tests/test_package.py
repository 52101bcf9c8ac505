"""The package's export table: every name resolves on first read, from its
defining module, and the exact layers import without numpy."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fanqec
from fanqec import chebyshev, graphs, polynomial, qec, roots

_EXPORTED = [
    "BadBracket", "Bracket", "CrossCheckReport", "CrossCheckRow", "Disconnected",
    "Graph", "IdentityCheck", "IdentityReport", "Method", "NearSingular",
    "NotDivisible", "NotIntegral", "ParseError", "Poly", "QecResult",
    "X", "ZeroCert", "beta", "bisect", "cheb_t", "cheb_u",
    "cheb_v", "cheb_w", "compress", "cross_validate",
    "distance_matrix", "fan", "from_edge_list", "gamma", "helmert_basis",
    "identity_suite", "join", "key_identity_check", "partial_e", "partial_o", "path",
    "path_eigenvector", "path_spectrum", "phi", "qec_fan", "qec_numeric",
    "root_report", "s_poly", "s_value", "split_signs",
    "u_pair_at", "zeros_of_s",
]


def _fresh(script: str):
    """What `script` prints as JSON, run in a fresh interpreter."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    run = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         env=dict(os.environ, PYTHONPATH=path), timeout=120, check=True)
    return json.loads(run.stdout)


# The expression a fresh interpreter prints: numpy and the fanqec modules loaded.
_LOADED = "sorted(m for m in sys.modules if m == 'numpy' or m.startswith('fanqec'))"


def test_exact_layers_import_without_numpy():
    bare, gamma, exact = _fresh(
        "import json, sys; import fanqec; bare = " + _LOADED + "; "
        "gamma = fanqec.roots.gamma(5).value; "
        "import fanqec.polynomial, fanqec.chebyshev, fanqec.roots, fanqec.identities; "
        "print(json.dumps([bare, gamma, " + _LOADED + "]))")
    assert bare == ["fanqec"]
    assert gamma == roots.gamma(5).value
    assert exact == ["fanqec", "fanqec.chebyshev", "fanqec.identities",
                     "fanqec.polynomial", "fanqec.roots"]


def test_cli_loads_what_it_runs():
    # The format modules are read before the script imports json to print.
    loaded, formats, (code, out) = _fresh(
        "import io, sys; import fanqec.cli; loaded = " + _LOADED + "; "
        "stdout, sys.stdout = sys.stdout, io.StringIO(); "
        "code = fanqec.cli.main(['qec', 'fan', '5']); "
        "out, sys.stdout = sys.stdout.getvalue(), stdout; "
        "formats = [m for m in ('json', 'csv') if m in sys.modules]; "
        "import json; print(json.dumps([loaded, formats, [code, out]]))")
    assert loaded == ["fanqec", "fanqec.chebyshev", "fanqec.cli", "fanqec.graphs",
                      "fanqec.polynomial", "fanqec.qec", "fanqec.roots", "numpy"]
    assert formats == []
    assert code == 0 and out.startswith(f"{qec.qec_fan(5).value!r}\n")


def test_every_export_is_its_module_attribute():
    assert sorted(fanqec.__all__) == _EXPORTED
    modules = (chebyshev, graphs, polynomial, qec, roots)
    for name in _EXPORTED:
        assert any(getattr(m, name, None) is getattr(fanqec, name) for m in modules), name
    for module in modules:
        assert getattr(fanqec, module.__name__.rpartition(".")[2]) is module


def test_star_and_named_imports():
    namespace: dict = {}
    exec("from fanqec import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == _EXPORTED
    from fanqec import qec_numeric

    assert qec_numeric is qec.qec_numeric


def test_unknown_name_is_refused():
    with pytest.raises(AttributeError, match="'nope'"):
        fanqec.nope
    with pytest.raises(ImportError):
        exec("from fanqec import nope", {})


def test_patched_module_attribute_is_what_the_package_returns(monkeypatch):
    fake = object()
    monkeypatch.setattr(qec, "qec_fan", fake)
    assert fanqec.qec_fan is fake
    monkeypatch.undo()
    assert fanqec.qec_fan is qec.qec_fan
