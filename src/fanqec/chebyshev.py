"""Chebyshev-type polynomial families and the exact identity battery.

Every family lives in exact integer arithmetic.  The second-kind family is
built by its three-term recurrence; the first/third/fourth kinds get their
own independent recurrences so that the cross-family identifications below
are genuine checks rather than tautologies.  The even/odd split factors of
the second-kind polynomials are built from second-kind differences, and the
fan-graph polynomials from their defining combinations.

Exact signs of S_n and of the even split factor at a rational p/q need no
coefficients: the homogenised second-kind recurrence gives q^k U_k(p/q)
with two integers of state (``u_pair_at``, ``CompanionSign``,
``EvenPartSign``).

Floating-point evaluation goes through the recurrences (stable on [-1, 1])
rather than coefficient Horner, whose cancellation is hopeless once the
coefficients reach 2**50 and beyond.
"""

from __future__ import annotations

import dataclasses
import threading
from fractions import Fraction
from functools import lru_cache
from typing import Callable

from .polynomial import ONE, Poly

_TWO_X = Poly((0, 2))
_X_MINUS_ONE = Poly((-1, 1))
_TWO_X_MINUS_TWO = Poly((-2, 2))
_TWO_X_PLUS_TWO = Poly((2, 2))


class NotIntegral(ArithmeticError):
    """Halving the variable produced a non-integer coefficient."""


def _three_term_family(p0: Poly, p1: Poly) -> Callable[[int], Poly]:
    """Memoized builder for P(k+2) = 2x*P(k+1) - P(k) with the given seeds."""
    cache = [p0, p1]
    lock = threading.Lock()

    def build(n: int) -> Poly:
        if n >= len(cache):
            with lock:
                while len(cache) <= n:
                    cache.append(_TWO_X * cache[-1] - cache[-2])
        return cache[n]

    return build


_u_core = _three_term_family(ONE, Poly((0, 2)))
_t_core = _three_term_family(ONE, Poly((0, 1)))
_v_core = _three_term_family(ONE, Poly((-1, 2)))
_w_core = _three_term_family(ONE, Poly((1, 2)))


def cheb_u(n: int) -> Poly:
    """Second-kind polynomial U_n; conventions U_{-1} = 0 and U_{-2} = -1."""
    if n == -1:
        return Poly()
    if n == -2:
        return Poly((-1,))
    if n < -2:
        raise ValueError(f"index {n} below -2")
    return _u_core(n)


def cheb_t(n: int) -> Poly:
    """First-kind polynomial T_n."""
    if n < 0:
        raise ValueError(f"index {n} must be >= 0")
    return _t_core(n)


def cheb_v(n: int) -> Poly:
    """Third-kind polynomial V_n (seeds 1 and 2x - 1)."""
    if n < 0:
        raise ValueError(f"index {n} must be >= 0")
    return _v_core(n)


def cheb_w(n: int) -> Poly:
    """Fourth-kind polynomial W_n (seeds 1 and 2x + 1)."""
    if n < 0:
        raise ValueError(f"index {n} must be >= 0")
    return _w_core(n)


@lru_cache(maxsize=None)
def partial_e(n: int) -> Poly:
    """Even-zero factor of U_n: collects the zeros cos(k*pi/(n+1)) with k even.

    Built exactly as U_m + U_{m-1} for n = 2m and U_{(n-1)/2} for odd n; the
    trigonometric form and the even-k product formula are float test oracles.
    """
    if n < 0:
        raise ValueError(f"index {n} must be >= 0")
    m, odd = divmod(n, 2)
    if odd:
        return cheb_u(m)
    return cheb_u(m) + cheb_u(m - 1)


@lru_cache(maxsize=None)
def partial_o(n: int) -> Poly:
    """Odd-zero factor of U_n, so that U_n = partial_e(n) * partial_o(n)."""
    if n < 0:
        raise ValueError(f"index {n} must be >= 0")
    m, odd = divmod(n, 2)
    if odd:
        return cheb_u(m + 1) - cheb_u(m - 1)
    return cheb_u(m) - cheb_u(m - 1)


def compress(p: Poly) -> Poly:
    """q with q(x) = p(x/2), exact; raises NotIntegral if a coefficient breaks."""
    out = []
    for k, c in enumerate(p.coeffs):
        if c % (1 << k):
            raise NotIntegral(f"coefficient {c} of degree {k} not divisible by 2^{k}")
        out.append(c >> k)
    return Poly(out)


@lru_cache(maxsize=None)
def s_poly(n: int) -> Poly:
    """Companion polynomial S_n whose minimal zero drives the odd fan values.

    S_{2m}   = ((2m+1)x + 2m-1) U_m - ((2m+3)x + 2m+1) U_{m-1}
    S_{2m+1} = 2((2m+2)x^2 + (2m-1)x - 1) U_m - 2((2m+3)x + 2m+1) U_{m-1}
    """
    m, head, tail = _s_factors(n)
    return Poly(head) * cheb_u(m) - Poly(tail) * cheb_u(m - 1)


def _s_factors(n: int) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """(m, head, tail) with S_n = head * U_m - tail * U_{m-1}, ascending coefficients."""
    if n < 0:
        raise ValueError(f"index {n} must be >= 0")
    m, odd = divmod(n, 2)
    if odd:
        return m, (-2, 4 * m - 2, 4 * m + 4), (4 * m + 2, 4 * m + 6)
    return m, (2 * m - 1, 2 * m + 1), (2 * m + 1, 2 * m + 3)


@lru_cache(maxsize=None)
def phi(n: int) -> Poly:
    """Stationary-value polynomial of the fan problem, degree n + 2.

    phi_n = ((n+1)x^2 - 3x - n) U_n + (x+1)(U_{n-1} + 1); it factors as
    (x-1) * partial_e(n) * s_poly(n), which the identity suite checks.
    """
    if n < 0:
        raise ValueError(f"index {n} must be >= 0")
    return Poly((-n, -3, n + 1)) * cheb_u(n) + Poly((1, 1)) * (cheb_u(n - 1) + ONE)


# -- exact signs without coefficients ---------------------------------------


def u_pair_at(m: int, p: int, q: int) -> tuple[int, int]:
    """(V_m, V_{m-1}) with V_k = q^k U_k(p/q), for q > 0 and m >= 0.

    Integer recurrence V_0 = 1, V_1 = 2p, V_{k+1} = 2p V_k - q^2 V_{k-1}
    (with V_{-1} = 0): only two integers are held, so memory stays linear in
    the bit size of V_m and no U_k coefficient vector is built.
    """
    if m < 0:
        raise ValueError(f"index {m} must be >= 0")
    if q <= 0:
        raise ValueError("denominator must be positive")
    two_p, q2, cur, prev = 2 * p, q * q, 1, 0
    for _ in range(m):
        cur, prev = two_p * cur - q2 * prev, cur
    return cur, prev


def _homogenised(coeffs: tuple[int, ...], p: int, q: int) -> int:
    """q^d * c(p/q) for the degree-d coefficient tuple c."""
    d = len(coeffs) - 1
    return sum(c * p ** i * q ** (d - i) for i, c in enumerate(coeffs))


def _sign(value: int) -> int:
    return (value > 0) - (value < 0)


@dataclasses.dataclass(frozen=True)
class CompanionSign:
    """Exact sign of s_poly(n) at rationals, from u_pair_at alone.

    With x = p/q, d the head degree and e = d - tail degree + 1,
    q^(m+d) S_n(x) = head(p, q) V_m - tail(p, q) q^e V_{m-1}; q > 0, so the
    signs agree.  Same sign_at contract as Poly.
    """

    n: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"index {self.n} must be >= 0")

    def sign_at(self, x: Fraction | int) -> int:
        xf = Fraction(x)
        p, q = xf.numerator, xf.denominator
        m, head, tail = _s_factors(self.n)
        vm, vm1 = u_pair_at(m, p, q)
        q_e = q ** (len(head) - len(tail) + 1)
        return _sign(_homogenised(head, p, q) * vm
                     - _homogenised(tail, p, q) * q_e * vm1)


@dataclasses.dataclass(frozen=True)
class EvenPartSign:
    """Exact sign of partial_e(n) at rationals, from u_pair_at alone.

    q^m U_m(p/q) = V_m for odd n = 2m+1 and q^m (U_m + U_{m-1})(p/q) =
    V_m + q V_{m-1} for even n = 2m.  Same sign_at contract as Poly.
    """

    n: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"index {self.n} must be >= 0")

    def sign_at(self, x: Fraction | int) -> int:
        xf = Fraction(x)
        p, q = xf.numerator, xf.denominator
        m, odd = divmod(self.n, 2)
        vm, vm1 = u_pair_at(m, p, q)
        return _sign(vm if odd else vm + q * vm1)


# -- stable floating-point evaluation ---------------------------------------


def u_value(n: int, x: float) -> float:
    """U_n(x) by the forward recurrence (stable for |x| <= 1)."""
    if n == -1:
        return 0.0
    if n == -2:
        return -1.0
    if n < -2:
        raise ValueError(f"index {n} below -2")
    prev, cur = 1.0, 2.0 * x
    if n == 0:
        return prev
    for _ in range(n - 1):
        prev, cur = cur, 2.0 * x * cur - prev
    return cur


def partial_e_value(n: int, x: float) -> float:
    m, odd = divmod(n, 2)
    if odd:
        return u_value(m, x)
    return u_value(m, x) + u_value(m - 1, x)


def partial_o_value(n: int, x: float) -> float:
    m, odd = divmod(n, 2)
    if odd:
        return u_value(m + 1, x) - u_value(m - 1, x)
    return u_value(m, x) - u_value(m - 1, x)


def s_value(n: int, x: float) -> float:
    m, odd = divmod(n, 2)
    um, um1 = u_value(m, x), u_value(m - 1, x)
    if odd:
        return (2.0 * ((2 * m + 2) * x * x + (2 * m - 1) * x - 1.0) * um
                - 2.0 * ((2 * m + 3) * x + 2 * m + 1) * um1)
    return ((2 * m + 1) * x + 2 * m - 1) * um - ((2 * m + 3) * x + 2 * m + 1) * um1


# -- identity battery --------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class IdentityCheck:
    """Outcome of one coefficient-exact identity at one index."""

    identity: str
    n: int
    passed: bool
    lhs: tuple[int, ...] | None = None
    rhs: tuple[int, ...] | None = None


@dataclasses.dataclass
class IdentityReport:
    max_n: int
    checked: list[IdentityCheck]

    @property
    def failures(self) -> list[IdentityCheck]:
        return [c for c in self.checked if not c.passed]

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json_dict(self) -> dict:
        return {
            "max_n": self.max_n,
            "failures": [
                {"identity": c.identity, "n": c.n,
                 "lhs": list(c.lhs or ()), "rhs": list(c.rhs or ())}
                for c in self.failures
            ],
        }


@lru_cache(maxsize=16)
def _u_pair(i: int, j: int) -> Poly:
    # Pairwise products U_i * U_j dominate the suite cost; consecutive
    # indices reuse all but three of them, so a small LRU pays off.
    return cheb_u(i) * cheb_u(j)


def _pair(i: int, j: int) -> Poly:
    return _u_pair(i, j) if i <= j else _u_pair(j, i)


def _cmp(identity: str, n: int, lhs: Poly, rhs: Poly) -> IdentityCheck:
    if lhs == rhs:
        return IdentityCheck(identity, n, True)
    return IdentityCheck(identity, n, False, lhs.coeffs, rhs.coeffs)


def _split_product_checks(n: int) -> list[IdentityCheck]:
    return [_cmp("u-split-product", n, cheb_u(n), partial_e(n) * partial_o(n))]


def _classical_factorization_checks(n: int) -> list[IdentityCheck]:
    u2n, u2n1 = cheb_u(2 * n), cheb_u(2 * n + 1)
    p = _pair
    return [
        _cmp("u-even-as-split-product", n, u2n, p(n, n) - p(n - 1, n - 1)),
        _cmp("u-odd-as-split-product", n, u2n1, p(n, n + 1) - p(n, n - 1)),
        _cmp("u-even-minus-one-factor", n, u2n - 1,
             p(n - 1, n + 1) - p(n - 1, n - 1)),
        _cmp("u-odd-minus-one-factor", n, u2n1 - 1,
             p(n + 1, n) + p(n + 1, n - 1) - p(n, n) - p(n, n - 1)),
        _cmp("u-even-plus-one-factor", n, u2n + 1, p(n, n) - p(n, n - 2)),
        _cmp("u-odd-plus-one-factor", n, u2n1 + 1,
             p(n + 1, n) - p(n + 1, n - 1) + p(n, n) - p(n, n - 1)),
        _cmp("u-square-gap", n, p(n, n) - p(n + 1, n - 1), ONE),
    ]


def _sum_factorization_checks(n: int) -> list[IdentityCheck]:
    u2n, u2n1 = cheb_u(2 * n), cheb_u(2 * n + 1)
    u2nm1 = cheb_u(2 * n - 1)
    p = _pair
    return [
        _cmp("u-even-diff-minus-one-factor", n, u2n - u2nm1 - 1,
             _TWO_X_MINUS_TWO * (p(n - 1, n) + p(n - 1, n - 1))),
        _cmp("u-even-sum-minus-one-factor", n, u2n + u2nm1 - 1,
             _TWO_X_PLUS_TWO * (p(n - 1, n) - p(n - 1, n - 1))),
        _cmp("u-even-diff-plus-one-factor", n, u2n - u2nm1 + 1,
             p(n, n) - p(n, n - 2) - p(n - 1, n) + p(n - 1, n - 2)),
        _cmp("u-even-sum-plus-one-factor", n, u2n + u2nm1 + 1,
             p(n, n) - p(n, n - 2) + p(n - 1, n) - p(n - 1, n - 2)),
        _cmp("u-odd-diff-minus-one-factor", n, u2n1 - u2n - 1,
             _TWO_X_MINUS_TWO * (p(n, n) + p(n, n - 1))),
        _cmp("u-odd-sum-plus-one-factor", n, u2n1 + u2n + 1,
             _TWO_X_PLUS_TWO * (p(n, n) - p(n, n - 1))),
        _cmp("u-odd-diff-plus-one-factor", n, u2n1 - u2n + 1,
             p(n, n + 1) - p(n, n - 1) - p(n - 1, n + 1) + p(n - 1, n - 1)),
        _cmp("u-odd-sum-minus-one-factor", n, u2n1 + u2n - 1,
             p(n, n + 1) - p(n, n - 1) + p(n - 1, n + 1) - p(n - 1, n - 1)),
    ]


def _monic_checks(n: int) -> list[IdentityCheck]:
    out = []
    for name, poly in (
        ("compressed-u-monic", cheb_u(n)),
        ("compressed-even-part-monic", partial_e(n)),
        ("compressed-odd-part-monic", partial_o(n)),
    ):
        try:
            c = compress(poly)
        except NotIntegral:
            out.append(IdentityCheck(name, n, False, poly.coeffs, ()))
            continue
        if c.leading == 1:
            out.append(IdentityCheck(name, n, True))
        else:
            expected = c.coeffs[:-1] + (1,) if c.coeffs else (1,)
            out.append(IdentityCheck(name, n, False, c.coeffs, expected))
    return out


def _kind_identification_checks(n: int) -> list[IdentityCheck]:
    m, odd = divmod(n, 2)
    if odd:
        return [
            _cmp("even-part-is-second-kind", n, partial_e(n), cheb_u(m)),
            _cmp("odd-part-is-doubled-first-kind", n, partial_o(n),
                 2 * cheb_t(m + 1)),
        ]
    return [
        _cmp("even-part-is-fourth-kind", n, partial_e(n), cheb_w(m)),
        _cmp("odd-part-is-third-kind", n, partial_o(n), cheb_v(m)),
    ]


def _phi_factorization_check(n: int) -> IdentityCheck:
    return _cmp("phi-factorization", n, phi(n),
                _X_MINUS_ONE * partial_e(n) * s_poly(n))


def _s_root_at_one_check(n: int) -> IdentityCheck:
    s = s_poly(n)
    try:
        s.exact_div(_X_MINUS_ONE)
    except (ArithmeticError, ZeroDivisionError):
        return IdentityCheck("s-divisible-by-x-minus-one", n, False,
                             s.coeffs, (int(s.evaluate(1)),))
    return IdentityCheck("s-divisible-by-x-minus-one", n, True)


def _partial_recurrence_checks(k: int) -> list[IdentityCheck]:
    out = []
    for name, fam, base in (
        ("even-part-even-index-recurrence", partial_e, 2 * k),
        ("odd-part-even-index-recurrence", partial_o, 2 * k),
        ("even-part-odd-index-recurrence", partial_e, 2 * k + 1),
        ("odd-part-odd-index-recurrence", partial_o, 2 * k + 1),
    ):
        out.append(_cmp(name, k, fam(base + 4),
                        _TWO_X * fam(base + 2) - fam(base)))
    return out


def identity_suite(max_n: int) -> IdentityReport:
    """Check every implemented identity for all indices up to max_n.

    All comparisons are exact coefficient equality; failures are recorded
    with both coefficient vectors rather than raised.  The report is sorted
    by (identity, n) so output is deterministic.
    """
    if max_n < 0:
        raise ValueError("max_n must be >= 0")
    checked: list[IdentityCheck] = []
    for n in range(max_n + 1):
        checked.extend(_split_product_checks(n))
        checked.extend(_classical_factorization_checks(n))
        checked.extend(_sum_factorization_checks(n))
        checked.extend(_monic_checks(n))
        checked.extend(_kind_identification_checks(n))
        checked.append(_phi_factorization_check(n))
        checked.append(_s_root_at_one_check(n))
        checked.extend(_partial_recurrence_checks(n))
    checked.sort(key=lambda c: (c.identity, c.n))
    return IdentityReport(max_n, checked)
