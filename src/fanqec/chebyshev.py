"""Chebyshev-type polynomial families and the exact identity battery.

Every family lives in exact integer arithmetic.  Each of the four kinds is
built from its own explicit coefficient formula (Mason and Handscomb,
Chebyshev Polynomials, 2003, ch. 2), so that the cross-family
identifications below are genuine checks rather than tautologies; the
battery ties every member it reads to that kind's three-term recurrence
(``_SEEDS``).  The even/odd split factors of the second-kind polynomials
are built from second-kind differences, and the fan-graph polynomials from
their defining combinations.  No table of members is kept: U alone
remembers its last ``_KEEP`` members (``functools.lru_cache``), so memory
follows the largest member read, not every one.

The identity battery over these families (``identity_suite``) proves all
31 of its checks for every index at once; the proofs, and the ties of the
stored members to their recurrences that they rest on, are in
``fanqec.identities``.

Exact signs of S_n and of both split factors at a rational p/q need no
coefficients: q^k U_k(p/q) is a Lucas sequence in 2p and q^2, and index
doubling gives the pair (q^m U_m, q^(m-1) U_{m-1})(p/q) with two integers
of state and O(log m) multiplications of numbers up to the final size
(``u_pair_at``), about m log2(q) bits.  Where that is large,
``split_signs`` first runs the same doubling on integer enclosures of
(U_m, U_{m-1})(p/q) with a few hundred fractional bits, outward-rounded
so that they hold the exact values, and encloses the factors head and tail
of S_n by the floor and ceiling of their exact values at p/q, which the
exact path computes too (``_homogenised``); an enclosure that excludes 0 is a
proof of the sign, and one that holds 0 is retried with more bits and
then handed to the exact pair, which alone returns a sign 0.  A product
of two enclosures forms only the two end products their signs name
unless one straddles 0 (``_mul``), and at |x| <= 1 the a-priori bound
|U_k(x)| <= k + 1 cuts back an enclosure that has lost its sign, so its
ends stay small (``_u_pair_enclosure``).  Its
formulas are the only ones: ``fanqec.roots`` reads all three signs from
``split_signs``.

Floating-point values of S_n (``s_value``) are only proposals for the
root search.  They take U_m and U_{m-1} from the angle of x, in O(1)
operations with full relative precision next to -1 and 1, rather than from
coefficient Horner, whose cancellation is hopeless once the coefficients
reach 2**50 and beyond, or from an O(n) walk of the recurrence.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import operator
from fractions import Fraction
from typing import NamedTuple

from .polynomial import X, Poly

# family: (first index, that member, the next one) as coefficient tuples;
# every later member follows P(k+2) = 2x*P(k+1) - P(k), the recurrence the
# battery ties each built member to.  Starting the second kind at
# U_{-2} = -1, U_{-1} = 0 makes its conventions part of the recurrence.
_SEEDS = {
    "u": (-2, (-1,), ()),
    "t": (0, (1,), (0, 1)),
    "v": (0, (1,), (-1, 2)),
    "w": (0, (1,), (1, 2)),
}


class NotIntegral(ArithmeticError):
    """Halving the variable produced a non-integer coefficient."""


# Members cheb_u keeps (functools.lru_cache).  The battery's walk reads
# each U member once, upward, and ties it through the last two it holds
# itself; the base checks after it read U_{-2} to U_11, 873 times in all.
# In identity_suite(300), in one process, cheb_u builds 774 members, 604 of
# them (U_{-2} to U_601, once each) in the walk, and has 703 cache hits, all
# in the base checks.  Keeping one member it builds 1275, and without the
# cache the call took 1.4 times as long (0.107 against 0.074 s, best of
# five, 2-core VM, Python 3.11.7).  T, V and W keep none: the walk ties each
# of their members through its own family's last two, and no identity reads
# one twice.
_KEEP = 8


def _alternating(n: int, lead: int, offset: int) -> Poly:
    """sum_k c_k x^(n-2k) from c_0 = lead and, with j = n - 2k,

        c_{k+1} = c_k j (j - 1) / (-4 (k + 1) (n - k - offset)),

    each step an exact division, since every c_k is an integer, with the
    sign in the divisor so that no step negates a big integer.  That is
    U_n with lead 2^n and offset 0, and T_n with lead 2^(n-1) and offset 1.
    """
    coeffs = [0] * (n + 1)
    c = coeffs[n] = lead
    for k in range(n // 2):
        j = n - 2 * k
        c = c * (j * (j - 1)) // (-4 * (k + 1) * (n - k - offset))
        coeffs[j - 2] = c
    return Poly(coeffs)


def _third_fourth(n: int, flip_at: int) -> Poly:
    """W_n (flip_at 1) or V_n (flip_at 0): |coefficient of x^(n-i)| is
    C(n - ceil(i/2), floor(i/2)) 2^(n-i), and its sign flips from i to i + 1
    where i % 2 == flip_at: (-1)^floor(i/2) for W, (-1)^ceil(i/2) for V.

    From i to i + 1 the magnitude is multiplied by (n - i) / (2n - i) at
    even i and by (n - i) / (i + 1) at odd i, an exact division, and a
    flip divides by the negated divisor.
    """
    coeffs = [0] * (n + 1)
    c = coeffs[n] = 1 << n
    for i in range(n):
        d = i + 1 if i % 2 else 2 * n - i
        c = c * (n - i) // (-d if i % 2 == flip_at else d)
        coeffs[n - i - 1] = c
    return Poly(coeffs)


@functools.lru_cache(maxsize=_KEEP)
def cheb_u(n: int) -> Poly:
    """Second-kind polynomial U_n; conventions U_{-1} = 0 and U_{-2} = -1.

    U_n = sum_k (-1)^k C(n-k, k) (2x)^(n-2k) (Mason and Handscomb,
    Chebyshev Polynomials, 2003, section 2.3).
    """
    if n < -2:
        raise ValueError(f"index {n} below -2")
    if n < 0:
        return Poly((n + 1,))
    return _alternating(n, 1 << n, 0)


def cheb_t(n: int) -> Poly:
    """First-kind polynomial T_n = sum_k (-1)^k 2^(n-2k-1) n/(n-k) C(n-k, k) x^(n-2k)."""
    _check_index(n)
    if n == 0:
        return Poly((1,))
    return _alternating(n, 1 << (n - 1), 1)


def cheb_v(n: int) -> Poly:
    """Third-kind polynomial V_n (seeds 1 and 2x - 1)."""
    _check_index(n)
    return _third_fourth(n, 0)


def cheb_w(n: int) -> Poly:
    """Fourth-kind polynomial W_n (seeds 1 and 2x + 1)."""
    _check_index(n)
    return _third_fourth(n, 1)


def _check_index(n: int) -> None:
    if n < 0:
        raise ValueError(f"index {n} must be >= 0")


class _Families:
    """Family accessor that the identities and the derived builders use.

    A subclass gives member(family, k), x and poly(coeffs) for one kind of
    value: Poly at an int index, or order bounds at an index a*j + b
    (fanqec.identities).  defined() builds a derived family member (pe, po,
    s, phi) by its formula in u; it and _s_factors never compare or test
    the index, so one formula serves both.
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


class _Stored(_Families):
    """Poly backend: the families exactly as this module builds them.

    member() looks the builder of u, t, v or w up by name when it is
    called, so a builder replaced in this module is what runs, and it reads
    pe, po, s and phi through defined(), which is what their public
    builders return and what the battery's order bounds expand.
    """

    x = X
    poly = Poly

    def member(self, family: str, k: int) -> Poly:
        if family in _SEEDS:
            return globals()[f"cheb_{family}"](k)
        return self.defined(family, k)


_STORED = _Stored()


def partial_e(n: int) -> Poly:
    """Even-zero factor of U_n: collects the zeros cos(k*pi/(n+1)) with k even.

    Built exactly as U_m + U_{m-1} for n = 2m and U_{(n-1)/2} for odd n; the
    trigonometric form and the even-k product formula are float test oracles.
    """
    _check_index(n)
    return _STORED.defined("pe", n)


def partial_o(n: int) -> Poly:
    """Odd-zero factor of U_n, so that U_n = partial_e(n) * partial_o(n)."""
    _check_index(n)
    return _STORED.defined("po", n)


def compress(p: Poly) -> Poly:
    """q with q(x) = p(x/2), exact; raises NotIntegral if a coefficient breaks.

    2^k divides c exactly when (c >> k) << k gives c back, so the halving is
    decided in one shift round trip; only a failure walks the coefficients,
    to name the lowest one that breaks.
    """
    out = tuple(map(operator.rshift, p.coeffs, itertools.count()))
    if tuple(map(operator.lshift, out, itertools.count())) != p.coeffs:
        k, c = next((k, c) for k, c in enumerate(p.coeffs) if c % (1 << k))
        raise NotIntegral(f"coefficient {c} of degree {k} not divisible by 2^{k}")
    return Poly(out)


def s_poly(n: int) -> Poly:
    """Companion polynomial S_n whose minimal zero drives the odd fan values.

    S_{2m}   = ((2m+1)x + 2m-1) U_m - ((2m+3)x + 2m+1) U_{m-1}
    S_{2m+1} = 2((2m+2)x^2 + (2m-1)x - 1) U_m - 2((2m+3)x + 2m+1) U_{m-1}
    """
    _check_index(n)
    return _STORED.defined("s", n)


def _s_factors(n: int) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """(m, head, tail) with S_n = head * U_m - tail * U_{m-1}, ascending coefficients."""
    m, odd = divmod(n, 2)
    if odd:
        return m, (-2, 4 * m - 2, 4 * m + 4), (4 * m + 2, 4 * m + 6)
    return m, (2 * m - 1, 2 * m + 1), (2 * m + 1, 2 * m + 3)


def phi(n: int) -> Poly:
    """Stationary-value polynomial of the fan problem, degree n + 2.

    phi_n = ((n+1)x^2 - 3x - n) U_n + (x+1)(U_{n-1} + 1); it factors as
    (x-1) * partial_e(n) * s_poly(n), which the identity suite checks.
    """
    _check_index(n)
    return _STORED.defined("phi", n)


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


def _mul(a_lo: int, a_hi: int, b_lo: int, b_hi: int, bits: int) -> tuple[int, int]:
    """Enclosure of a product of two enclosures held at 2^bits, at 2^bits.

    ab is bilinear, so over the box [a_lo, a_hi] x [b_lo, b_hi] it lies
    between the least and the greatest product of two ends; those carry
    2^(2 bits), and the shift back floors the least and ceils the greatest.
    When neither box holds 0 inside, their signs name those two products
    (Moore, Kearfott and Cloud, 2009, ch. 2): a, b >= 0 give [a_lo b_lo,
    a_hi b_hi], a, b <= 0 give [a_hi b_hi, a_lo b_lo], a >= 0 >= b gives
    [a_hi b_lo, a_lo b_hi] and a <= 0 <= b gives [a_lo b_hi, a_hi b_lo].
    Only a box that straddles 0 needs all four products.
    """
    if a_lo >= 0:
        if b_lo >= 0:
            return a_lo * b_lo >> bits, -(-a_hi * b_hi >> bits)
        if b_hi <= 0:
            return a_hi * b_lo >> bits, -(-a_lo * b_hi >> bits)
    elif a_hi <= 0:
        if b_hi <= 0:
            return a_hi * b_hi >> bits, -(-a_lo * b_lo >> bits)
        if b_lo >= 0:
            return a_lo * b_hi >> bits, -(-a_hi * b_lo >> bits)
    ends = (a_lo * b_lo, a_lo * b_hi, a_hi * b_lo, a_hi * b_hi)
    return min(ends) >> bits, -(-max(ends) >> bits)


def _point(p: int, q: int, bits: int) -> tuple[int, int]:
    """[floor(p 2^bits / q), ceil(p 2^bits / q)], which holds p/q times 2^bits.

    Both ends are p 2^bits / q when q is a power of two up to 2^bits.
    """
    return (p << bits) // q, -(-(p << bits) // q)


def _u_pair_enclosure(m: int, x_lo: int, x_hi: int, bits: int) -> tuple[int, ...]:
    """Integers (lo_m, hi_m, lo_m1, hi_m1) enclosing 2^bits (U_m, U_{m-1})(x).

    Each value v is held as integers lo <= v 2^bits <= hi, x as x_lo <= x
    2^bits <= x_hi (_point).  The walk over the bits of m is u_pair_at's
    divided by q^k:

        U_{2k}   = (U_k - U_{k-1}) (U_k + U_{k-1})
        U_{2k-1} = U_{k-1} (2 U_k - 2x U_{k-1})
        U_{k+1}  = 2x U_k - U_{k-1}

    from U_0 = 1, U_{-1} = 0, which are held exactly.  Sums, differences
    and products by the integer 2 of enclosures are exact on the integer
    ends (lo + lo', hi + hi' and so on), and _mul encloses every product of
    two values.  So each step takes enclosures of the exact pair at k to
    enclosures of the exact pair at 2k or 2k + 1, and by induction the
    result holds (U_m, U_{m-1})(x) times 2^bits.  No float and no Fraction
    enters.

    Where x_lo and x_hi lie in [-2^bits, 2^bits], x lies in [-1, 1], and
    then |U_k(x)| <= k + 1 <= m + 1 for every k <= m the walk visits.  An
    enclosure that has lost its sign keeps widening; once U_k's is wider
    than cap = (m + 1) 2^bits, both enclosures are cut back to [-cap, cap].
    The intersection of two enclosures of a value is one, so the induction
    holds, and the ends stay near bits + log2(m) bits instead of growing
    with every step.
    """
    one = 1 << bits
    cap = (m + 1) << bits if -one <= x_lo and x_hi <= one else math.inf
    cur_lo = cur_hi = one
    prev_lo = prev_hi = 0
    for bit in range(m.bit_length() - 1, -1, -1):
        sq_lo, sq_hi = _mul(cur_lo - prev_hi, cur_hi - prev_lo,
                            cur_lo + prev_lo, cur_hi + prev_hi, bits)
        xp_lo, xp_hi = _mul(x_lo, x_hi, prev_lo, prev_hi, bits)
        prev_lo, prev_hi = _mul(prev_lo, prev_hi, 2 * (cur_lo - xp_hi),
                                2 * (cur_hi - xp_lo), bits)
        cur_lo, cur_hi = sq_lo, sq_hi
        if m >> bit & 1:
            xc_lo, xc_hi = _mul(x_lo, x_hi, cur_lo, cur_hi, bits)
            cur_lo, cur_hi, prev_lo, prev_hi = (2 * xc_lo - prev_hi, 2 * xc_hi - prev_lo,
                                                cur_lo, cur_hi)
        if cur_hi - cur_lo > cap:
            cur_lo, cur_hi = max(cur_lo, -cap), min(cur_hi, cap)
            prev_lo, prev_hi = max(prev_lo, -cap), min(prev_hi, cap)
    return cur_lo, cur_hi, prev_lo, prev_hi


def _enclosed_sign(lo: int, hi: int) -> int | None:
    """The sign of every value in [lo, hi], or None if 0 is in it."""
    return 1 if lo > 0 else -1 if hi < 0 else None


def _enclosed_signs(n: int, p: int, q: int, bits: int) -> tuple[int, int, int] | None:
    """split_signs(n, p/q) from enclosures at 2^bits, or None if one holds 0.

    The formulas are split_signs', on U_m and U_{m-1} rather than V: S_n =
    head U_m - tail U_{m-1}; for odd n partial_e = U_m and partial_o =
    2 (x U_m - U_{m-1}), for even n U_m + U_{m-1} and U_m - U_{m-1}.
    x, head(x) and tail(x) times 2^bits are enclosed by the floor and
    ceiling of their exact values (_point), head(x) = _homogenised(head, p,
    q) / q^d for head of degree d, and U_m, U_{m-1} by _u_pair_enclosure.
    """
    m, head, tail = _s_factors(n)
    x_lo, x_hi = _point(p, q, bits)
    um_lo, um_hi, um1_lo, um1_hi = _u_pair_enclosure(m, x_lo, x_hi, bits)
    h_lo, h_hi = _mul(*_point(_homogenised(head, p, q), q ** (len(head) - 1), bits),
                      um_lo, um_hi, bits)
    t_lo, t_hi = _mul(*_point(_homogenised(tail, p, q), q ** (len(tail) - 1), bits),
                      um1_lo, um1_hi, bits)
    if n % 2:
        xu_lo, xu_hi = _mul(x_lo, x_hi, um_lo, um_hi, bits)
        e_lo, e_hi, o_lo, o_hi = um_lo, um_hi, xu_lo - um1_hi, xu_hi - um1_lo
    else:
        e_lo, e_hi = um_lo + um1_lo, um_hi + um1_hi
        o_lo, o_hi = um_lo - um1_hi, um_hi - um1_lo
    signs = (_enclosed_sign(h_lo - t_hi, h_hi - t_lo),
             _enclosed_sign(e_lo, e_hi), _enclosed_sign(o_lo, o_hi))
    return None if None in signs else signs


# The exact pair at a point p/q has about m (bit length of q - 1) bits; above
# _ENCLOSE_ABOVE of them split_signs tries enclosures first.  Measured for
# one query at double-precision grid points on a 2-core VM (Python 3.11.7;
# median over four grid points of the best of five), exact path against
# 128-bit enclosure: 6.7 against 12.6 us at 1.1 kbit (n = 41), 12.5
# against 14.5 us at 2.6 kbit, 14.4 against 15.0 us at 3.2 kbit, 16.1
# against 15.4 us at 3.4 kbit, 24.5 against 16.1 us at 5.2 kbit and 64.3
# against 17.3 us at 10.6 kbit (n = 401).  The enclosure's cost barely
# grows with n, and the crossover lies near 3.3 kbit.  With 3328, table fan 1 2001 took 0.17 s in-process,
# as with 6144, with the same bytes.  Fans from about n = 126 on start on
# enclosures; verify's default root report (at most 1.6 kbit) stays on the
# exact path, the only one that can return a sign 0.
#
# The first enclosure has max(_ENCLOSE_BITS, w (w + 1) / 2 + 48) fractional
# bits, w the bit length of m, and each retry doubles them.  Next to -1 the
# walk's doubling step at index k loses about log2(k) bits, so about
# w (w + 1) / 2 over the walk, and a sign at a bracket end next to a zero of
# S_n needs some 15-45 bits more.  The fewest bits that decide every query
# of qec fan N were 109 at N = 4021 (w = 11), 113 at 6401, 133 at 20001, 164
# at 100001, 219 at 1000001, 245 at 2400001 and 366 at 94906263 (w = 26),
# and at x = -1 + 2^-52, 454 at n = 10^9 + 1 and 539 at 10^10 + 1.  A start
# of 128 at every m lost one or two attempts from about N = 20001 on, and
# three at 10^10 + 1.  Up to w = 12 (n < 8192, every odd_large fan) the
# start stays 128.  Above it, every query of qec fan N at the N listed and
# at 8193, 32769, 65537, 500001 and 30000001 decided at the first attempt,
# and qec fan 94906263 took 0.38 against 0.84 ms in-process.
_ENCLOSE_ABOVE = 3328
_ENCLOSE_BITS = 128


def split_signs(n: int, x: Fraction | int) -> tuple[int, int, int]:
    """Exact signs of (s_poly(n), partial_e(n), partial_o(n)) at x = p/q.

    Where the exact pair is large (more than _ENCLOSE_ABOVE bits), the
    signs are first read from integer enclosures of U_m and U_{m-1}
    (_enclosed_signs; Moore, Kearfott and Cloud, Introduction to Interval
    Analysis, 2009, ch. 2-3), with a first number of fractional bits that
    grows with the bit length of m and is never below 128 (see
    _ENCLOSE_BITS).  An enclosure holds the exact value, so one that
    excludes 0 gives its exact sign; one that holds 0 decides nothing, and
    the bits are doubled while they are below the exact pair's size.
    Otherwise, and at last, all three come from (V_m, V_{m-1}) =
    u_pair_at(m, p, q), which alone can return 0.  Both paths give the same
    signs, and no float enters either.

    From the exact pair, each value times a positive power of q, which
    keeps its sign: with S_n = head U_m - tail U_{m-1} (_s_factors), d the
    head degree and e = d - tail degree + 1, q^(m+d) S_n = head(p, q) V_m
    - tail(p, q) q^e V_{m-1}.  For n = 2m+1, partial_e = U_m and partial_o
    = U_{m+1} - U_{m-1}, so q^m partial_e = V_m and q^(m+1) partial_o =
    2 (p V_m - q^2 V_{m-1}); for n = 2m they are U_m + U_{m-1} and U_m -
    U_{m-1}, so q^m times them is V_m + q V_{m-1} and V_m - q V_{m-1}.
    """
    _check_index(n)
    p, q = x.numerator, x.denominator
    m, head, tail = _s_factors(n)
    exact_bits = m * (q.bit_length() - 1)
    if exact_bits > _ENCLOSE_ABOVE:
        width = m.bit_length()
        bits = max(_ENCLOSE_BITS, width * (width + 1) // 2 + 48)
        while True:
            signs = _enclosed_signs(n, p, q, bits)
            if signs is not None:
                return signs
            if bits >= exact_bits:
                break
            bits *= 2
    vm, vm1 = u_pair_at(m, p, q)
    q_e = q ** (len(head) - len(tail) + 1)
    s = _sign(_homogenised(head, p, q) * vm
              - _homogenised(tail, p, q) * q_e * vm1)
    if n % 2:
        return s, _sign(vm), _sign(p * vm - q * q * vm1)
    return s, _sign(vm + q * vm1), _sign(vm - q * vm1)


# -- floating-point evaluation in the angle variable -------------------------


def _u_pair_float(m: int, x: float) -> tuple[float, float]:
    """(U_m(x), U_{m-1}(x)) for m >= 0 and -1 <= x <= 1, from the angle of x.

    With x = cos(phi), U_k(x) = sin((k+1) phi) / sin(phi).  The angle is
    taken from 1 + x for x <= 0 and from 1 - x for x > 0, so that it keeps
    full relative precision next to -1 and 1.
    """
    if not -1.0 <= x <= 1.0:
        raise ValueError(f"x = {x} outside [-1, 1]")
    # For x <= 0 the angle is delta = pi - phi, and
    # sin(k phi) = (-1)^(k+1) sin(k delta).
    flip = x <= 0.0
    sign = -1.0 if flip and m % 2 else 1.0
    sign_prev = -sign if flip else sign
    if abs(x) == 1.0:
        return sign * (m + 1), sign_prev * m
    angle = 2.0 * math.asin(math.sqrt(0.5 * (1.0 + x if flip else 1.0 - x)))
    below = math.sin(angle)
    return (sign * math.sin((m + 1) * angle) / below,
            sign_prev * math.sin(m * angle) / below)


def s_value(n: int, x: float) -> float:
    """S_n(x) in double precision, for n >= 0 and -1 <= x <= 1.

    S_n = head U_m - tail U_{m-1} with m = n // 2 (see s_poly), where U_m
    and U_{m-1} come from the trigonometric form of the second kind,
    U_k(cos phi) = sin((k+1) phi) / sin(phi) (Mason and Handscomb,
    Chebyshev Polynomials, ch. 1): O(1) operations at any n.  Where
    |x| >= 1/2, the one of 1 + x and 1 - x that sets the angle is exact,
    so the angle is accurate relative to the distance to -1 or 1, where
    the zeros crowd.  Each of U_m, U_{m-1} is off by a few ulps of m + 1,
    so the error is a few ulps of (|head| + |tail|)(m + 1), with no
    cancellation between huge coefficients.  Raises ValueError outside
    [-1, 1].  A float proposal only: roots accepts nothing by it.
    """
    _check_index(n)
    m, odd = divmod(n, 2)
    um, um1 = _u_pair_float(m, x)
    if odd:
        return (2.0 * ((2 * m + 2) * x * x + (2 * m - 1) * x - 1.0) * um
                - 2.0 * ((2 * m + 3) * x + 2 * m + 1) * um1)
    return ((2 * m + 1) * x + 2 * m - 1) * um - ((2 * m + 3) * x + 2 * m + 1) * um1


# -- identity battery --------------------------------------------------------


class IdentityCheck(NamedTuple):
    """Outcome of one coefficient-exact identity at one index."""

    identity: str
    n: int
    passed: bool
    lhs: tuple[int, ...] | None = None
    rhs: tuple[int, ...] | None = None


@dataclasses.dataclass
class IdentityReport:
    """The battery's outcome up to max_n, without one record per proven check.

    decided holds the checks decided on Poly, sorted by (identity, n), each
    failure with its two coefficient vectors.  proven holds the sorted
    names proven for every n, each on every parity class it is checked at.
    ranges holds one (name, indices) entry per identity class or coefficient
    property that passed by proof: every n in indices passed.  checked
    rebuilds the sorted list of every check from both, only when asked.
    """

    max_n: int
    decided: list[IdentityCheck]
    proven: tuple[str, ...]
    ranges: tuple[tuple[str, range], ...]

    @property
    def count(self) -> int:
        return len(self.decided) + sum(len(indices) for _, indices in self.ranges)

    @property
    def checked(self) -> list[IdentityCheck]:
        # No two checks share (identity, n), so the tuples sort by it.
        return sorted(itertools.chain(self.decided, *(
            map(IdentityCheck, itertools.repeat(name), indices, itertools.repeat(True))
            for name, indices in self.ranges)))

    @property
    def failures(self) -> list[IdentityCheck]:
        return [c for c in self.decided if not c.passed]

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
    both coefficient vectors rather than raised.  A check proven for every
    n is kept as a range of indices, and only checks decided on Poly as
    records (IdentityReport); report.checked lists every one, sorted by
    (identity, n) so output is deterministic.  The battery itself is in
    fanqec.identities, imported on first use so that commands which never
    verify do not load it.
    """
    from . import identities

    return identities.identity_suite(max_n)
