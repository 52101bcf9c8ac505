"""Certified minimal-zero extraction with exact sign arithmetic.

The companion polynomials S_n have one zero at x = 1 and one simple zero in
each open interval of a cosine grid; the even-zero factors of U_n have
closed-form minimal zeros.  This module turns those statements into
certificates: every bracket endpoint is a rational whose sign is verified by
exact integer arithmetic, and bisection narrows brackets by exact-sign
midpoint queries.  Floating point is used only to propose endpoints, never
to accept them.

The signs come from q^k U_k(p/q) by index doubling (``CompanionSign`` and
``EvenPartSign``), not from coefficient vectors, so no S_n or U_k
coefficients are built here and memory stays linear in the bit size of one
value.  Every helper only calls ``sign_at``, so a ``Poly`` works in their
place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Protocol

from .chebyshev import CompanionSign, EvenPartSign, s_value

_NUDGE_START = Fraction(1, 2 ** 52)
_NUDGE_LIMIT = Fraction(1, 2 ** 20)
_SIMPLE_PROBE = Fraction(1, 2 ** 40)
_HALF = Fraction(1, 2)


class BadBracket(ValueError):
    """Endpoint signs do not certify a sign change."""


class ExactSign(Protocol):
    """Anything with an exact sign (-1, 0, +1) at rationals, such as Poly."""

    def sign_at(self, x: Fraction | int) -> int: ...


@dataclass(frozen=True)
class Bracket:
    """Sign-change interval: lo < hi with opposite exact signs at the ends."""

    lo: Fraction
    hi: Fraction
    sign_lo: int
    sign_hi: int

    def __post_init__(self):
        if self.lo >= self.hi:
            raise BadBracket(f"empty interval [{self.lo}, {self.hi}]")
        if self.sign_lo not in (-1, 1) or self.sign_hi not in (-1, 1):
            raise BadBracket("endpoint signs must be -1 or +1")
        if self.sign_lo == self.sign_hi:
            raise BadBracket("equal signs at both endpoints")

    @classmethod
    def around(cls, p: ExactSign, lo: Fraction, hi: Fraction) -> Bracket:
        """Bracket with signs computed exactly; zero at an endpoint is rejected."""
        slo, shi = p.sign_at(lo), p.sign_at(hi)
        if slo == 0 or shi == 0:
            raise BadBracket("exact zero at a bracket endpoint")
        return cls(lo, hi, slo, shi)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo


@dataclass(frozen=True)
class ZeroCert:
    """A located zero: float value plus the rational interval certifying it.

    lo == hi marks an exact rational root (width-0 certificate); otherwise
    lo < hi is a verified sign-change bracket of width <= the requested
    tolerance containing the zero.
    """

    value: float
    lo: Fraction
    hi: Fraction
    simple: bool

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def is_exact(self) -> bool:
        return self.lo == self.hi


def _is_simple(p: ExactSign, x: Fraction) -> bool:
    # Opposite exact signs just outside the root witness odd multiplicity;
    # all roots certified here are isolated far beyond the probe width.
    return p.sign_at(x - _SIMPLE_PROBE) * p.sign_at(x + _SIMPLE_PROBE) < 0


def _exact_cert(p: ExactSign, x: Fraction) -> ZeroCert:
    return ZeroCert(float(x), x, x, _is_simple(p, x))


def bisect(p: ExactSign, bracket: Bracket, tol: float = 1e-12) -> ZeroCert:
    """Narrow a sign-change bracket to width <= tol by exact midpoint signs.

    An exact rational root hit at a midpoint short-circuits to a width-0
    certificate.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    lo, hi, sign_lo = bracket.lo, bracket.hi, bracket.sign_lo
    limit = Fraction(tol)
    while hi - lo > limit:
        mid = (lo + hi) / 2
        s = p.sign_at(mid)
        if s == 0:
            return _exact_cert(p, mid)
        if s == sign_lo:
            lo = mid
        else:
            hi = mid
    return ZeroCert(float((lo + hi) / 2), lo, hi, True)


def _verified_endpoint(p: ExactSign, base: Fraction, toward: Fraction,
                       want: int, exact: bool = False) -> Fraction:
    """Rational point near base, on the side of toward, with the required exact sign.

    An exact base is tried as is first.  A base rounded from an irrational
    grid point is not: it may sit on either side of that point, so its first
    candidate lies 2^-52 away, about one unit in the last place of a double
    near 1, which covers the rounding.  Every grid endpoint then costs one
    sign query, whichever way its rounding fell, and stays that close to the
    grid point.  The nudge doubles on a failed sign check up to 2^-20, but a
    candidate never reaches toward, the neighbouring point of the zero
    localization: past it the bracket could hold three zeros.
    """
    direction = 1 if toward > base else -1
    nudge = Fraction(0) if exact else _NUDGE_START
    while nudge <= _NUDGE_LIMIT:
        cand = base + direction * nudge
        if direction * (toward - cand) <= 0:
            break
        if p.sign_at(cand) == want:
            return cand
        nudge = nudge * 2 if nudge else _NUDGE_START
    raise BadBracket(f"no verified endpoint near {float(base)} (sign {want})")


def _float_refined(p: ExactSign, feval, bracket: Bracket, tol: float) -> Bracket:
    """Shrink a bracket with float bisection, re-verifying endpoints exactly.

    Purely an accelerator: endpoints that fail the exact sign check are
    discarded in favour of the originals, so correctness never depends on
    the float evaluator.
    """
    lo, hi = float(bracket.lo), float(bracket.hi)
    target = max(0.25 * tol, 1e-13)
    neg_lo = bracket.sign_lo < 0
    for _ in range(80):
        if hi - lo <= target:
            break
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        fm = feval(mid)
        if fm == 0.0:
            break
        if (fm < 0.0) == neg_lo:
            lo = mid
        else:
            hi = mid
    new_lo, new_hi = bracket.lo, bracket.hi
    cand_lo, cand_hi = Fraction(lo), Fraction(hi)
    if cand_lo > new_lo and p.sign_at(cand_lo) == bracket.sign_lo:
        new_lo = cand_lo
    if cand_hi < new_hi and p.sign_at(cand_hi) == bracket.sign_hi:
        new_hi = cand_hi
    if new_lo >= new_hi:
        return bracket
    return Bracket(new_lo, new_hi, bracket.sign_lo, bracket.sign_hi)


def beta(n: int) -> float:
    """Minimal zero of the even-zero factor of U_n, n >= 2.

    Closed form cos(2m*pi/(2m+1)) for n = 2m and cos(2m*pi/(2m+2)) for
    n = 2m+1, verified by an exact sign change (or exact evaluation when the
    zero is rational).
    """
    if n <= 1:
        raise ValueError(f"even-zero factor of index {n} is constant, no minimal zero")
    ue = EvenPartSign(n)
    if n == 2:
        if ue.sign_at(-_HALF) != 0:
            raise BadBracket("expected exact zero at -1/2")
        return -0.5
    if n == 3:
        if ue.sign_at(0) != 0:
            raise BadBracket("expected exact zero at 0")
        return 0.0
    m = n // 2
    den = n + 1  # 2m+1 for even n, 2m+2 for odd n
    b = math.cos(2 * m * math.pi / den)
    bf = Fraction(b)
    probe = _SIMPLE_PROBE
    while probe <= _NUDGE_LIMIT:
        if ue.sign_at(bf - probe) * ue.sign_at(bf + probe) < 0:
            return b
        probe *= 2
    raise BadBracket(f"no sign change around claimed minimal zero {b}")


def _grid_point(j: int, den: int) -> float:
    """cos(j*pi/den) on the zero grid of S_n, with its ends -1 (j >= den) and 1 (j <= 0)."""
    if j >= den:
        return -1.0
    return math.cos(max(j, 0) * math.pi / den)


def _zero_between(s: ExactSign, n: int, den: int, j_lo: int, j_hi: int,
                  want_lo: int, tol: float) -> ZeroCert:
    """Certified zero of S_n between the grid points j_lo > j_hi.

    The endpoint -1 (j_lo >= den) is exact and nudged inward if its sign is
    wrong; cosine endpoints are nudged outward, so the target zero stays
    inside, but never to the next grid point, so no other zero joins it.
    """
    lo_f, hi_f = _grid_point(j_lo, den), _grid_point(j_hi, den)
    exact = _probe_rationals(s, lo_f, hi_f)
    if exact is not None:
        return exact
    if j_lo >= den:
        lo = _verified_endpoint(s, Fraction(-1), Fraction(hi_f), want_lo,
                                exact=True)
    else:
        lo = _verified_endpoint(s, Fraction(lo_f),
                                Fraction(_grid_point(j_lo + 2, den)), want_lo)
    hi = _verified_endpoint(s, Fraction(hi_f),
                            Fraction(_grid_point(j_hi - 2, den)), -want_lo)
    bracket = Bracket(lo, hi, want_lo, -want_lo)
    bracket = _float_refined(s, lambda x: s_value(n, x), bracket, tol)
    return bisect(s, bracket, tol)


# Rational zeros that actually occur in the family (S_1, S_2, S_3); probing
# them first turns those certificates into exact width-0 ones.
_RATIONAL_PROBES = (Fraction(-3, 4), Fraction(-1, 2), Fraction(0))


def _probe_rationals(s: ExactSign, lo_bound: float, hi_bound: float) -> ZeroCert | None:
    for cand in _RATIONAL_PROBES:
        if lo_bound < cand < hi_bound and s.sign_at(cand) == 0:
            return _exact_cert(s, cand)
    return None


def gamma(n: int, tol: float = 1e-12) -> ZeroCert:
    """Certified minimal zero of s_poly(n), n >= 1.

    Indices 1 and 2 have the exact rational zero -1/2.  Otherwise the bracket
    comes from the proven zero localization: for odd n the interval between
    -1 and the smallest cosine grid point, for even n = 2m >= 4 the interval
    between the minimal even-factor zero and cos((2m-1)pi/(2m+1)).
    """
    if n < 1:
        raise ValueError(f"index {n} must be >= 1")
    s = CompanionSign(n)
    if n in (1, 2):
        if s.sign_at(-_HALF) == 0:
            return _exact_cert(s, -_HALF)
        raise BadBracket("expected exact minimal zero at -1/2")
    m, odd = divmod(n, 2)
    if odd:  # from -1 (grid index den) to the smallest grid point
        den, j_lo, j_hi, want_lo = 2 * m + 2, 2 * m + 2, 2 * m + 1, (-1) ** m
    else:  # from the minimal even-factor zero, cos(2m*pi/(2m+1))
        den, j_lo, j_hi, want_lo = 2 * m + 1, 2 * m, 2 * m - 1, (-1) ** (m + 1)
    return _zero_between(s, n, den, j_lo, j_hi, want_lo, tol)


def alpha(n: int, tol: float = 1e-12) -> float:
    """Minimal zero of phi(n) via the proven case split, never by root search.

    alpha_0 = 1 and alpha_1 = -1/2 directly; even n >= 2 inherit the
    even-factor zero, odd n >= 3 the companion-polynomial zero.
    """
    if n < 0:
        raise ValueError(f"index {n} must be >= 0")
    if n == 0:
        return 1.0
    if n == 1:
        return -0.5
    if n % 2 == 0:
        return beta(n)
    return gamma(n, tol).value


def zeros_of_s(n: int, tol: float = 1e-12) -> list[ZeroCert]:
    """All zeros of s_poly(n), ascending: x = 1 plus one per proven bracket.

    The count always equals the degree and each certificate is a simple sign
    change, which is exactly the statement of the zero-localization theorems.
    """
    if n < 0:
        raise ValueError(f"index {n} must be >= 0")
    s = CompanionSign(n)
    if s.sign_at(1) != 0:
        raise BadBracket("expected zero at x = 1")
    m, odd = divmod(n, 2)
    count = m + 1 if odd else m  # brackets below x = 1
    den = 2 * m + 2 if odd else 2 * m + 1
    certs: list[ZeroCert] = []
    for k in range(count, 0, -1):
        # k == count reaches past den, so its lower end is -1.
        certs.append(_zero_between(s, n, den, 2 * k + 1, 2 * k - 1,
                                   (-1) ** (k + 1), tol))
    certs.append(_exact_cert(s, Fraction(1)))
    return certs


def check_elementary_inequality(grid: int) -> bool:
    """(1-x)/(1+x) <= cos(pi*x) on [0, 1/3]: equality only at the endpoints.

    Checked on a uniform grid with grid+1 points; interior points must be
    strictly below, endpoints within 1e-12.
    """
    if grid < 2:
        raise ValueError("grid must be >= 2")
    for i in range(grid + 1):
        x = i / (3.0 * grid)
        lhs = (1.0 - x) / (1.0 + x)
        rhs = math.cos(math.pi * x)
        if i in (0, grid):
            if abs(lhs - rhs) > 1e-12:
                return False
        elif not lhs < rhs:
            return False
    return True
