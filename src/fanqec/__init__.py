"""Exact Chebyshev-type polynomial identities and fan-graph quadratic
embedding constants.

The package splits into exact polynomial arithmetic (`polynomial`), the
polynomial families (`chebyshev`) and their machine-checked identity
battery (`identities`, run through `chebyshev.identity_suite`), certified
minimal-zero extraction (`roots`), graph and
distance-matrix construction (`graphs`), the three independent constant
computations (`qec`), and a command-line front end (`cli`).

Importing the package imports none of them.  Each name in `__all__`, and
each of the five modules that define them, is imported on its first read
(`fanqec.qec_numeric`, `from fanqec import gamma`) and read from its module
every time, so a name patched in its module is what the package returns.
Only `graphs` and `qec` use numpy: `polynomial`, `chebyshev`, `identities`
and `roots` import without it.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "chebyshev": ("IdentityCheck", "IdentityReport", "NotIntegral", "cheb_t", "cheb_u",
                  "cheb_v", "cheb_w", "compress", "identity_suite", "partial_e",
                  "partial_o", "phi", "s_poly", "s_value", "split_signs", "u_pair_at"),
    "graphs": ("Disconnected", "Graph", "ParseError", "distance_matrix", "fan",
               "from_edge_list", "join", "path", "path_eigenvector", "path_spectrum"),
    "polynomial": ("X", "NotDivisible", "Poly"),
    "qec": ("CrossCheckReport", "CrossCheckRow", "Method", "NearSingular", "QecResult",
            "cross_validate", "helmert_basis", "key_identity_check", "qec_fan",
            "qec_numeric"),
    "roots": ("BadBracket", "Bracket", "ZeroCert", "beta", "bisect", "gamma",
              "root_report", "zeros_of_s"),
}

__all__ = sorted(name for names in _EXPORTS.values() for name in names)


def __getattr__(name: str):
    """The module `name` or the attribute `name` of the module that defines
    it, imported on first use."""
    for module, names in _EXPORTS.items():
        if name == module or name in names:
            from importlib import import_module

            found = import_module(f".{module}", __name__)
            return found if name == module else getattr(found, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
