"""Exact Chebyshev-type polynomial identities and fan-graph quadratic
embedding constants.

The package splits into exact polynomial arithmetic (`polynomial`), the
polynomial families (`chebyshev`) and their machine-checked identity
battery (`identities`, run through `chebyshev.identity_suite`), certified
minimal-zero extraction (`roots`), graph and
distance-matrix construction (`graphs`), the three independent constant
computations (`qec`), and a command-line front end (`cli`).
"""

from .chebyshev import (
    IdentityCheck,
    IdentityReport,
    NotIntegral,
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
    s_value,
    split_signs,
    u_pair_at,
)
from .graphs import (
    Disconnected,
    Graph,
    ParseError,
    distance_matrix,
    fan,
    from_edge_list,
    join,
    path,
    path_eigenvector,
    path_spectrum,
    single,
)
from .polynomial import ONE, X, ZERO, NotDivisible, Poly
from .qec import (
    CrossCheckReport,
    CrossCheckRow,
    Method,
    NearSingular,
    QecResult,
    cross_validate,
    helmert_basis,
    key_identity_check,
    qec_fan,
    qec_numeric,
    sigma,
    tau,
)
from .roots import (
    BadBracket,
    Bracket,
    RootReport,
    ZeroCert,
    beta,
    bisect,
    check_elementary_inequality,
    gamma,
    root_report,
    zeros_of_s,
)

__version__ = "0.1.0"

__all__ = [
    "BadBracket",
    "Bracket",
    "CrossCheckReport",
    "CrossCheckRow",
    "Disconnected",
    "Graph",
    "IdentityCheck",
    "IdentityReport",
    "Method",
    "NearSingular",
    "NotDivisible",
    "NotIntegral",
    "ONE",
    "ParseError",
    "Poly",
    "QecResult",
    "RootReport",
    "X",
    "ZERO",
    "ZeroCert",
    "beta",
    "bisect",
    "cheb_t",
    "cheb_u",
    "cheb_v",
    "cheb_w",
    "check_elementary_inequality",
    "compress",
    "cross_validate",
    "distance_matrix",
    "fan",
    "from_edge_list",
    "gamma",
    "helmert_basis",
    "identity_suite",
    "join",
    "key_identity_check",
    "partial_e",
    "partial_o",
    "path",
    "path_eigenvector",
    "path_spectrum",
    "phi",
    "qec_fan",
    "qec_numeric",
    "root_report",
    "s_poly",
    "s_value",
    "sigma",
    "single",
    "split_signs",
    "tau",
    "u_pair_at",
    "zeros_of_s",
]
