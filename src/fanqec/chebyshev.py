"""Chebyshev-type polynomial families and the exact identity battery.

Every family lives in exact integer arithmetic.  The second-kind family is
built by its three-term recurrence; the first/third/fourth kinds get their
own independent recurrences so that the cross-family identifications below
are genuine checks rather than tautologies.  The even/odd split factors of
the second-kind polynomials are built from second-kind differences, and the
fan-graph polynomials from their defining combinations.

The identity battery over these families (``identity_suite``, code in
``fanqec.identities``) checks each identity coefficient-exactly without
multiplying coefficient vectors: lhs - rhs is evaluated at the points 0..D
modulo primes just below 2**31 whose product exceeds a proven l1 bound on
its coefficients, which makes it zero over the integers (the CRT
argument).  That stands for the stored families only after each one the
battery reads is tied, in linear time, to its recurrence or formula; if a
tie fails the battery runs on exact Poly arithmetic, which also decides
and reports every failure.

Exact signs of S_n and of the even split factor at a rational p/q need no
coefficients: q^k U_k(p/q) is a Lucas sequence in 2p and q^2, and index
doubling gives the pair (q^m U_m, q^(m-1) U_{m-1})(p/q) with two integers
of state and O(log m) multiplications of numbers up to the final size
(``u_pair_at``, ``CompanionSign``, ``EvenPartSign``).

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

from .polynomial import X, Poly

_TWO_X = Poly((0, 2))

# family: (first index, that member, the next one) as coefficient tuples;
# every later member follows P(k+2) = 2x*P(k+1) - P(k).  Starting the
# second kind at U_{-2} = -1, U_{-1} = 0 makes its conventions part of the
# recurrence.
_SEEDS = {
    "u": (-2, (-1,), ()),
    "t": (0, (1,), (0, 1)),
    "v": (0, (1,), (-1, 2)),
    "w": (0, (1,), (1, 2)),
}


class NotIntegral(ArithmeticError):
    """Halving the variable produced a non-integer coefficient."""


def _three_term_family(name: str) -> Callable[[int], Poly]:
    """Memoized builder of family `name`, indexed from its first seed."""
    _, first, second = _SEEDS[name]
    cache = [Poly(first), Poly(second)]
    lock = threading.Lock()

    def build(i: int) -> Poly:
        if i >= len(cache):
            with lock:
                while len(cache) <= i:
                    cache.append(_TWO_X * cache[-1] - cache[-2])
        return cache[i]

    return build


_u_core = _three_term_family("u")
_t_core = _three_term_family("t")
_v_core = _three_term_family("v")
_w_core = _three_term_family("w")


def cheb_u(n: int) -> Poly:
    """Second-kind polynomial U_n; conventions U_{-1} = 0 and U_{-2} = -1."""
    if n < -2:
        raise ValueError(f"index {n} below -2")
    return _u_core(n + 2)


def cheb_t(n: int) -> Poly:
    """First-kind polynomial T_n."""
    _check_index(n)
    return _t_core(n)


def cheb_v(n: int) -> Poly:
    """Third-kind polynomial V_n (seeds 1 and 2x - 1)."""
    _check_index(n)
    return _v_core(n)


def cheb_w(n: int) -> Poly:
    """Fourth-kind polynomial W_n (seeds 1 and 2x + 1)."""
    _check_index(n)
    return _w_core(n)


def _check_index(n: int) -> None:
    if n < 0:
        raise ValueError(f"index {n} must be >= 0")


class _Families:
    """Family accessor that the identities and the derived builders use.

    A subclass gives member(family, k), x and poly(coeffs) for one kind of
    value: Poly, residues modulo primes, or norm bounds.  defined() builds a
    derived family member (pe, po, s, phi) by its formula in u.
    """

    def u(self, k): return self.member("u", k)
    def t(self, k): return self.member("t", k)
    def v(self, k): return self.member("v", k)
    def w(self, k): return self.member("w", k)
    def pe(self, n): return self.member("pe", n)
    def po(self, n): return self.member("po", n)
    def s(self, n): return self.member("s", n)
    def phi(self, n): return self.member("phi", n)

    def defined(self, family: str, n: int):
        u = self.u
        m, odd = divmod(n, 2)
        if family == "pe":
            return u(m) if odd else u(m) + u(m - 1)
        if family == "po":
            return u(m + 1) - u(m - 1) if odd else u(m) - u(m - 1)
        if family == "s":
            m, head, tail = _s_factors(n)
            return u(m) * self.poly(head) - u(m - 1) * self.poly(tail)
        if family == "phi":
            return (u(n) * self.poly((-n, -3, n + 1))
                    + (u(n - 1) + 1) * self.poly((1, 1)))
        raise KeyError(family)


class _Defined(_Families):
    """Derived families as Poly, by their formulas in the stored U_k."""

    x = X
    poly = Poly

    def member(self, family: str, k: int) -> Poly:
        return cheb_u(k) if family == "u" else self.defined(family, k)


_DEFINED = _Defined()


@lru_cache(maxsize=64)
def partial_e(n: int) -> Poly:
    """Even-zero factor of U_n: collects the zeros cos(k*pi/(n+1)) with k even.

    Built exactly as U_m + U_{m-1} for n = 2m and U_{(n-1)/2} for odd n; the
    trigonometric form and the even-k product formula are float test oracles.
    """
    _check_index(n)
    return _DEFINED.pe(n)


@lru_cache(maxsize=64)
def partial_o(n: int) -> Poly:
    """Odd-zero factor of U_n, so that U_n = partial_e(n) * partial_o(n)."""
    _check_index(n)
    return _DEFINED.po(n)


def compress(p: Poly) -> Poly:
    """q with q(x) = p(x/2), exact; raises NotIntegral if a coefficient breaks."""
    out = []
    for k, c in enumerate(p.coeffs):
        if c % (1 << k):
            raise NotIntegral(f"coefficient {c} of degree {k} not divisible by 2^{k}")
        out.append(c >> k)
    return Poly(out)


@lru_cache(maxsize=64)
def s_poly(n: int) -> Poly:
    """Companion polynomial S_n whose minimal zero drives the odd fan values.

    S_{2m}   = ((2m+1)x + 2m-1) U_m - ((2m+3)x + 2m+1) U_{m-1}
    S_{2m+1} = 2((2m+2)x^2 + (2m-1)x - 1) U_m - 2((2m+3)x + 2m+1) U_{m-1}
    """
    return _DEFINED.s(n)


def _s_factors(n: int) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """(m, head, tail) with S_n = head * U_m - tail * U_{m-1}, ascending coefficients."""
    if n < 0:
        raise ValueError(f"index {n} must be >= 0")
    m, odd = divmod(n, 2)
    if odd:
        return m, (-2, 4 * m - 2, 4 * m + 4), (4 * m + 2, 4 * m + 6)
    return m, (2 * m - 1, 2 * m + 1), (2 * m + 1, 2 * m + 3)


@lru_cache(maxsize=64)
def phi(n: int) -> Poly:
    """Stationary-value polynomial of the fan problem, degree n + 2.

    phi_n = ((n+1)x^2 - 3x - n) U_n + (x+1)(U_{n-1} + 1); it factors as
    (x-1) * partial_e(n) * s_poly(n), which the identity suite checks.
    """
    _check_index(n)
    return _DEFINED.phi(n)


# -- exact signs without coefficients ---------------------------------------


def u_pair_at(m: int, p: int, q: int) -> tuple[int, int]:
    """(V_m, V_{m-1}) with V_k = q^k U_k(p/q), for q > 0 and m >= 0.

    V_k is the Lucas sequence U_{k+1}(2p, q^2): V_{-1} = 0, V_0 = 1 and
    V_{k+1} = 2p V_k - q^2 V_{k-1}.  The pair is reached by doubling over
    the bits of m, most significant first (Joye and Quisquater, Efficient
    computation of full Lucas sequences, 1996):

        V_{2k}   = (V_k - q V_{k-1}) (V_k + q V_{k-1})
        V_{2k-1} = V_{k-1} (2 V_k - 2p V_{k-1})

    and a set bit takes one ordinary step.  That is O(log m) multiplications
    of numbers up to the bit size of V_m, with two integers of state and no
    U_k coefficient vector.
    """
    if m < 0:
        raise ValueError(f"index {m} must be >= 0")
    if q <= 0:
        raise ValueError("denominator must be positive")
    two_p, q2, cur, prev = 2 * p, q * q, 1, 0
    for bit in range(m.bit_length() - 1, -1, -1):
        q_prev = q * prev
        cur, prev = (cur - q_prev) * (cur + q_prev), prev * (2 * cur - two_p * prev)
        if m >> bit & 1:
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


def _u_walk(n: int, x: float) -> tuple[float, float]:
    """(U_n(x), U_{n-1}(x)) by the forward recurrence from U_{-1} = 0, n >= 0."""
    prev, cur = 0.0, 1.0
    for _ in range(n):
        prev, cur = cur, 2.0 * x * cur - prev
    return cur, prev


def u_value(n: int, x: float) -> float:
    """U_n(x) by the forward recurrence (stable for |x| <= 1)."""
    if n == -1:
        return 0.0
    if n == -2:
        return -1.0
    if n < -2:
        raise ValueError(f"index {n} below -2")
    return _u_walk(n, x)[0]


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
    _check_index(n)
    m, odd = divmod(n, 2)
    um, um1 = _u_walk(m, x)
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


def identity_suite(max_n: int) -> IdentityReport:
    """Check every implemented identity for all indices up to max_n.

    All results are exact over the integers; failures are recorded with
    both coefficient vectors rather than raised.  The report is sorted by
    (identity, n) so output is deterministic.  The battery itself is in
    fanqec.identities, imported on first use so that commands which never
    verify do not load it.
    """
    from . import identities

    return identities.identity_suite(max_n)
