"""Quadratic embedding constants of fan graphs, three independent ways.

The numeric oracle works straight from the definition: compress the distance
matrix onto the hyperplane orthogonal to the all-ones vector with an explicit
Helmert basis and take the top eigenvalue of the compressed matrix with
numpy's symmetric eigensolver (`eigh`, LAPACK).  The closed form covers even
path lengths, and the root-based route goes through the certified minimal
zero machinery.  The two stationary-value branches (resolvent zeros and
admissible path eigenvalues) are not computed apart: the proven minimal-zero
orderings of `fanqec.roots` name the smaller at each n, and the root-based
route computes that one.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import roots
from .graphs import Graph, distance_matrix, fan, path_spectrum


class NearSingular(ValueError):
    """Shift parameter too close to a path eigenvalue or to +/-2."""


class Method(str, enum.Enum):
    KNOWN_SMALL = "known-small"
    CLOSED_FORM_EVEN = "closed-form-even"
    ROOT_BASED = "root-based"
    NUMERIC_ORACLE = "numeric-oracle"


@dataclass(frozen=True)
class QecResult:
    """Computed constant with the method used and its certificate data."""

    value: float
    method: Method
    certificate: dict[str, float] | None = None


def helmert_basis(m: int) -> np.ndarray:
    """Orthonormal rows spanning the hyperplane orthogonal to the ones vector.

    Row k (1-based) has k entries 1/sqrt(k(k+1)) followed by -k/sqrt(k(k+1))
    and zeros.
    """
    if m < 2:
        raise ValueError("need at least two coordinates")
    q = np.zeros((m - 1, m))
    for k in range(1, m):
        r = 1.0 / math.sqrt(k * (k + 1))
        q[k - 1, :k] = r
        q[k - 1, k] = -k * r
    return q


# Largest graph the numeric oracle accepts.  At this size `qec fan 2047
# --method numeric` peaks at about 262 MiB VmHWM, 234 MiB above the import
# baseline (x86-64 Linux, numpy 2.4.6).  That is n x n arrays of 32 MiB each,
# not all alive at once: the distance matrix d and its float copy, the
# Helmert basis q, the two products, and eigh's eigenvectors and workspace.
# The BFS behind d runs its sources in blocks, so its working set (at most
# about 100 MiB besides d) stays below that peak.
MAX_ORACLE_VERTICES = 2048


def _oracle_takes(n_vertices: int) -> None:
    """Raise ValueError unless the numeric oracle takes n_vertices vertices."""
    if n_vertices < 2:
        raise ValueError("need at least two vertices")
    if n_vertices > MAX_ORACLE_VERTICES:
        raise ValueError(f"numeric oracle takes at most {MAX_ORACLE_VERTICES} "
                         f"vertices, got {n_vertices}")


def qec_numeric(g: Graph) -> QecResult:
    """Constant straight from the definition: the maximum of <f, Df> over
    unit vectors orthogonal to the ones vector, via subspace compression.

    Independent of every closed form in this package, which is what makes it
    an oracle.  The certificate is the residual |Cv - lambda v| of the top
    eigenpair of the compressed matrix C.  Graphs over MAX_ORACLE_VERTICES
    vertices raise ValueError before any n x n array exists.
    """
    _oracle_takes(g.n_vertices)
    d = distance_matrix(g).astype(float)
    q = helmert_basis(g.n_vertices)
    compressed = q @ d @ q.T
    # eigh reads one triangle; the residual is measured on the matrix it solves.
    compressed = 0.5 * (compressed + compressed.T)
    evals, evecs = np.linalg.eigh(compressed)
    top, v = float(evals[-1]), evecs[:, -1]
    residual = float(np.linalg.norm(compressed @ v - top * v))
    return QecResult(top, Method.NUMERIC_ORACLE, {"residual": residual})


def closed_form(n: int) -> float:
    """-4 sin^2(pi / (2(n+1))), the fan constant for even n; for odd n,
    closed_form(n) and closed_form(n + 1) bound it from below and above."""
    return -4.0 * math.sin(math.pi / (2 * (n + 1))) ** 2


def qec_fan(n: int, method: Method | str = "auto", tol: float = 1e-12) -> QecResult:
    """Constant of the fan over a path of n vertices.

    Auto selection: the two smallest fans are complete graphs with value -1;
    even n uses the closed form -4 sin^2(pi / (2(n+1))); odd n >= 3 uses
    -2 alpha_n - 2 with alpha_n the certified minimal zero.  A tol that is
    not finite and positive raises ValueError on every route.
    """
    if n < 1:
        raise ValueError("fan needs n >= 1")
    roots._width(tol)
    if method == "auto":
        if n <= 2:
            method = Method.KNOWN_SMALL
        elif n % 2 == 0:
            method = Method.CLOSED_FORM_EVEN
        else:
            method = Method.ROOT_BASED
    method = Method(method)

    if method is Method.KNOWN_SMALL:
        if n > 2:
            raise ValueError("known-small covers only the two complete-graph fans")
        return QecResult(-1.0, method, None)
    if method is Method.CLOSED_FORM_EVEN:
        if n % 2:
            raise ValueError("closed form is proven for even path lengths only")
        return QecResult(closed_form(n), method, {"angle": math.pi / (2 * (n + 1))})
    if method is Method.NUMERIC_ORACLE:
        _oracle_takes(n + 1)  # before fan(n) builds its edges
        return qec_numeric(fan(n))

    # root-based, valid for every n >= 1
    if n == 1:
        return QecResult(-1.0, method, {"minimal_zero": -0.5})
    if n % 2 == 0:
        b = roots.beta(n)
        return QecResult(-2.0 * b - 2.0, method, {"minimal_zero": b})
    cert = roots.gamma(n, tol)
    return QecResult(-2.0 * cert.value - 2.0, method,
                     {"minimal_zero": cert.value,
                      "bracket_lo": float(cert.lo), "bracket_hi": float(cert.hi)})


def key_identity_check(n: int, alpha: Fraction | int) -> float:
    """|LHS - RHS| of the resolvent identity for <1, (A_n - a I)^{-1} 1>.

    The left side solves (A_n - a I) g = 1 with np.linalg.solve; the right
    side uses the halved-variable second-kind recurrence.  The shift must stay 1e-6
    away from the path spectrum and from +/-2.
    """
    if n < 1:
        raise ValueError("path needs n >= 1")
    af = float(Fraction(alpha))
    spectrum = path_spectrum(n)
    margin = 1e-6
    if min(abs(af - w) for w in spectrum) <= margin:
        raise NearSingular(f"{af} within {margin} of a path eigenvalue")
    if abs(af - 2.0) <= margin or abs(af + 2.0) <= margin:
        raise NearSingular(f"{af} within {margin} of +/-2")

    ones = np.ones(n)
    shifted = np.diag(ones[1:], 1) + np.diag(ones[1:], -1) - af * np.eye(n)
    lhs = float(np.linalg.solve(shifted, ones).sum())

    # Halved-variable recurrence: P_{k+1} = a P_k - P_{k-1}.
    un1, un = 1.0, af
    for _ in range(n - 1):
        un1, un = un, af * un - un1
    rhs = (n * (2.0 - af) + 2.0 - 2.0 * (un1 + 1.0) / un) / (2.0 - af) ** 2
    return abs(lhs - rhs)


@dataclass(frozen=True)
class CrossCheckRow:
    n: int
    fan_value: float
    oracle_value: float
    decomposition_value: float
    passed: bool


@dataclass
class CrossCheckReport:
    tol: float
    rows: list[CrossCheckRow]

    @property
    def failures(self) -> list[CrossCheckRow]:
        return [r for r in self.rows if not r.passed]

    @property
    def ok(self) -> bool:
        return not self.failures


def cross_validate(n_max: int, tol: float = 1e-8) -> CrossCheckReport:
    """Check the fan constant three ways for 3 <= n <= n_max.

    Per n: the selected method against the numeric oracle, and against the
    stationary-branch decomposition -min(sigma, tau) - 2, sigma = 2 gamma_n
    and tau = 2 beta_n.  The proven minimal-zero orderings (fanqec.roots)
    pick the branch: the zero localization puts gamma_n below beta_n for
    odd n, and beta_n < gamma_n for even n, so the minimum is the root-based
    route's.
    """
    if n_max < 3:
        raise ValueError("n_max must be >= 3")
    rows = []
    for n in range(3, n_max + 1):
        fan_value = qec_fan(n).value
        oracle_value = qec_numeric(fan(n)).value
        decomposition = qec_fan(n, Method.ROOT_BASED).value
        passed = (abs(fan_value - oracle_value) <= tol
                  and abs(fan_value - decomposition) <= tol)
        rows.append(CrossCheckRow(n, fan_value, oracle_value, decomposition, passed))
    return CrossCheckReport(tol, rows)
