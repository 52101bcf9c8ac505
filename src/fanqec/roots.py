"""Certified minimal-zero extraction with exact sign arithmetic.

The companion polynomials S_n have one zero at x = 1 and one simple zero in
each open interval of a cosine grid; the even-zero factors of U_n have
closed-form minimal zeros.  This module turns those statements into
certificates: every bracket endpoint is a rational whose sign is verified by
exact integer arithmetic, and bisection narrows brackets by exact-sign
midpoint queries.  Floating point is used only to propose endpoints, never
to accept them.

The signs come from q^k U_k(p/q) by index doubling (``CompanionSign``,
``EvenPartSign`` and ``split_signs``), on integer enclosures first and on
the exact pair where those hold 0, not from coefficient vectors, so no S_n
or U_k coefficients are built here and memory stays linear in the bit size
of one value.  Every helper only calls ``sign_at``, so a ``Poly`` works
in their place.

``zero_structure`` proves the zero localization of S_n by counting exact
sign changes at rationals around the cosine grid points; ``zeros_of_s``
narrows its brackets, and ``root_report`` runs it up to a cap and decides
the orderings of the minimal zeros by exact signs at one proposed
separator each.  ``gamma`` keeps a bracket built from the theorem's grid
points, a few sign queries where the whole structure costs about 2n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Protocol

from .chebyshev import (
    CompanionSign,
    EvenPartSign,
    s_degree,
    s_value,
    split_signs,
)

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
    zero is rational).  The factor has degree m, so its sign is (-1)^m
    below the zero.  _verified_endpoint nudges the closed form toward -1 and
    toward the neighbouring grid point cos((2m-1)pi/(n+1)), so the sign
    change it brackets is this zero's alone.
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
    below = (-1) ** m
    _verified_endpoint(ue, Fraction(b), Fraction(-1), below)
    _verified_endpoint(ue, Fraction(b), Fraction(_grid_point(2 * m - 1, den)), -below)
    return b


def _grid_point(j: int, den: int) -> float:
    """cos(j*pi/den) on the zero grid of S_n."""
    return math.cos(j * math.pi / den)


# Rational zeros that actually occur in the family (S_1, S_2, S_3); probing
# them first turns those certificates into exact width-0 ones.  0 is never
# one: S_n(0) is +-2 or +-(4m+2) for odd n and +-(2m-1) or +-(2m+1) for even n.
_RATIONAL_PROBES = (Fraction(-3, 4), Fraction(-1, 2))


def _zero_in(s: ExactSign, n: int, bracket: Bracket, tol: float) -> ZeroCert:
    """Certified zero of S_n in a bracket that holds exactly one.

    A rational probe inside the bracket that is a zero gives an exact
    certificate; otherwise the bracket is float-refined and then bisected.
    """
    for cand in _RATIONAL_PROBES:
        if bracket.lo < cand < bracket.hi and s.sign_at(cand) == 0:
            return _exact_cert(s, cand)
    bracket = _float_refined(s, lambda x: s_value(n, x), bracket, tol)
    return bisect(s, bracket, tol)


def gamma(n: int, tol: float = 1e-12) -> ZeroCert:
    """Certified minimal zero of s_poly(n), n >= 1.

    Indices 1 and 2 have the exact rational zero -1/2.  Otherwise the bracket
    comes from the proven zero localization on the grid cos(j*pi/(n+1)):
    for odd n the interval between -1 and the smallest grid point (j = n),
    for even n the interval between the minimal even-factor zero (j = n)
    and the grid point j = n - 1.  The endpoint -1 is exact and nudged
    inward if its sign is wrong; cosine endpoints are nudged outward, so
    the zero stays inside, but never to the next grid point, so no other
    zero joins it.
    """
    if n < 1:
        raise ValueError(f"index {n} must be >= 1")
    s = CompanionSign(n)
    if n in (1, 2):
        if s.sign_at(-_HALF) == 0:
            return _exact_cert(s, -_HALF)
        raise BadBracket("expected exact minimal zero at -1/2")
    m, odd = divmod(n, 2)
    den, j_hi = n + 1, (n if odd else n - 1)
    want_lo = (-1) ** m if odd else (-1) ** (m + 1)
    hi_f = _grid_point(j_hi, den)
    if odd:
        lo = _verified_endpoint(s, Fraction(-1), Fraction(hi_f), want_lo,
                                exact=True)
    else:
        lo = _verified_endpoint(s, Fraction(_grid_point(n, den)), Fraction(-1),
                                want_lo)
    hi = _verified_endpoint(s, Fraction(hi_f),
                            Fraction(_grid_point(j_hi - 2, den)), -want_lo)
    return _zero_in(s, n, Bracket(lo, hi, want_lo, -want_lo), tol)


# -- exact root-structure report ---------------------------------------------

# A sandwich around a grid point first reaches _SANDWICH_START / (n+1) of a
# grid step to either side; a rejected one is shrunk by 2^-8, at most
# _SANDWICH_TRIES times.  The zero of S_n nearest a grid point is typically
# 0.6/(n+1) steps away, so most pairs pass at once; near -1 the zeros crowd
# the grid points (4e-8 steps away at n = 401) and the lowest few shrink.
_SANDWICH_START = 2.0 ** -4
_SANDWICH_SHRINK = 2.0 ** -8
_SANDWICH_TRIES = 6


def _bits_for(gap: float) -> int:
    """Fractional bits of a dyadic grid whose step is at most gap / 8."""
    return max(1, 4 - math.frexp(gap)[1])


def _cos_pi_dyadic(j: float, den: float, bits: int, shift: float = 0.0,
                   up: bool = False) -> Fraction:
    """A dyadic with the given fractional bits next to cos((j+shift)*pi/den).

    The float is 1 - 2 sin^2(t pi/(2 den)) with t = j + shift, or near -1
    it is -1 + 2 sin^2(t' pi/(2 den)) with t' = (den - j) - shift, so it is
    accurate relative to its distance from the nearer of 1 and -1 and a
    shift far below one unit of j survives.  It is rounded up or down.  It
    only proposes a point: which side of anything the point lies on is
    settled by exact signs.
    """
    if 2 * j <= den:
        base, t = 1, j + shift
    else:
        base, t = -1, (den - j) - shift
    scaled = math.ldexp(-base * 2.0 * math.sin(t * math.pi / (2 * den)) ** 2, bits)
    k = math.ceil(scaled) if up else math.floor(scaled)
    return Fraction((base << bits) + k, 1 << bits)


def _sandwich(n: int, j: int, den: int) -> list[tuple[Fraction, tuple]]:
    """Rationals a < b around cos(j*pi/den), each with its split_signs.

    Accepted when partial_o(n) changes sign from a to b while S_n keeps a
    nonzero sign and no sign is zero; a rejected pair is moved closer.
    """
    eps = _SANDWICH_START / den
    for _ in range(_SANDWICH_TRIES):
        bits = _bits_for(eps * math.pi / den * math.sin(j * math.pi / den))
        a = _cos_pi_dyadic(j, den, bits, eps)
        b = _cos_pi_dyadic(j, den, bits, -eps, up=True)
        sa, sb = split_signs(n, a), split_signs(n, b)
        if 0 not in sa and 0 not in sb and sa[2] != sb[2] and sa[0] == sb[0]:
            return [(a, sa), (b, sb)]
        eps *= _SANDWICH_SHRINK
    raise BadBracket(f"no sign-verified rationals around cos({j}pi/{den})")


@dataclass(frozen=True)
class ZeroStructure:
    """Exact zero localization of s_poly(n), as zero_structure proves it.

    brackets ascend and each holds exactly one zero of S_n, a simple one;
    with x = 1 they account for every zero.  The i-th lies inside the i-th
    open interval of the cosine grid from the bottom, the first reaching
    down to -1.  even_bracket holds the minimal zero of partial_e(n) and no
    other zero of it (None when partial_e(n) is constant, n <= 1).
    """

    n: int
    brackets: tuple[Bracket, ...]
    even_bracket: Bracket | None


def zero_structure(n: int) -> ZeroStructure:
    """Certify the zero localization of S_n by counting exact sign changes.

    The grid points cos(j*pi/(n+1)) with odd j are the zeros of
    partial_o(n), whose degree is their number, c.  Around each, a pair of
    rationals where partial_o changes sign puts that grid point between
    them; c such disjoint pairs leave partial_o no other zero, so the pairs
    isolate the grid points in order.  S_n keeps its sign across every pair
    and changes it across each of the c gaps between them (the lowest from
    -1); with S_n(1) = 0 that is c + 1 distinct zeros, which is its degree.
    So each gap holds exactly one zero, a simple one, and S_n has no other.
    The even part changes sign across the gaps its zeros fall in, the top
    deg partial_e(n) of them, which isolates its minimal zero the same way.
    Every sign comes from one split_signs query; a float only proposes the
    rationals.  Raises BadBracket naming the first step that fails.
    """
    if n < 0:
        raise ValueError(f"index {n} must be >= 0")
    den = n + 1
    m, odd = divmod(n, 2)
    count = m + odd
    if split_signs(n, 1)[0] != 0:
        raise BadBracket("expected zero at x = 1")
    degree = s_degree(n)
    if degree != count + 1:
        raise BadBracket(f"degree {degree} for {count} grid intervals")
    points = [(Fraction(-1), split_signs(n, -1))]
    for j in range(2 * count - 1, 0, -2):
        points += _sandwich(n, j, den)
    xs = [x for x, _ in points] + [Fraction(1)]
    if any(x >= y for x, y in zip(xs, xs[1:])):
        raise BadBracket("grid rationals out of order")
    brackets, even = [], None
    for i in range(count):
        (lo, slo), (hi, shi) = points[2 * i], points[2 * i + 1]
        if slo[0] * shi[0] >= 0:
            raise BadBracket(f"no sign change in grid interval {i + 1} from -1")
        brackets.append(Bracket(lo, hi, slo[0], shi[0]))
        if i >= odd:
            if slo[1] * shi[1] >= 0:
                raise BadBracket(f"even part keeps its sign in grid interval "
                                 f"{i + 1} from -1")
            if i == odd:
                even = Bracket(lo, hi, slo[1], shi[1])
    return ZeroStructure(n, tuple(brackets), even)


def zeros_of_s(n: int, tol: float = 1e-12) -> list[ZeroCert]:
    """All zeros of s_poly(n), ascending: one per zero_structure bracket, then 1.

    zero_structure proves that each of its brackets holds exactly one zero,
    a simple one, and that with x = 1 they are all of them; each bracket is
    narrowed to width <= tol here.  Raises BadBracket if the structure fails.
    """
    brackets = zero_structure(n).brackets
    s = CompanionSign(n)
    certs = [_zero_in(s, n, bracket, tol) for bracket in brackets]
    certs.append(_exact_cert(s, Fraction(1)))
    return certs


def _side(zero: tuple[ExactSign, Bracket], x: Fraction) -> int:
    """-1, 0 or 1 as x lies below, at or above the one zero in the bracket."""
    sign, bracket = zero
    if x <= bracket.lo:
        return -1
    if x >= bracket.hi:
        return 1
    s = sign.sign_at(x)
    return 0 if s == 0 else (-1 if s == bracket.sign_lo else 1)


def _separated(low, high, x: Fraction) -> bool:
    """Whether x certifies that zero low lies strictly below zero high."""
    a, b = _side(low, x), _side(high, x)
    return a >= 0 >= b and (a, b) != (0, 0)


def _alpha_separator(n: int) -> Fraction:
    """Rational proposed between alpha_{n+1} and alpha_n, n >= 2.

    alpha_n, the minimal zero of phi(n), is -cos(pi/(n+1)) for even n and
    just below it for odd n, above -cos(pi/(n+2)); the proposal is
    -cos(pi/(n+3/2)).
    """
    gap = 2 * (math.sin(math.pi / (2 * n + 2)) ** 2
               - math.sin(math.pi / (2 * n + 4)) ** 2)
    return _cos_pi_dyadic(n + 0.5, n + 1.5, _bits_for(gap))


@dataclass(frozen=True)
class RootReport:
    """Outcome of root_report: one line per failed check, in a fixed order."""

    max_n: int
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def root_report(max_n: int) -> RootReport:
    """Zero structure of S_n and the minimal-zero orderings for n <= max_n.

    Each n gets zero_structure.  The orderings compare the certified
    minimal zeros gamma_n of S_n and beta_n of partial_e(n) at proposed
    rational separators, accepted by exact signs (CompanionSign,
    EvenPartSign) inside the brackets zero_structure isolated them in:

    * gamma_n < cos(n pi/(n+1)) < beta_n for odd n >= 3 holds once the
      structure does, since the rationals around that grid point are the top
      of gamma_n's bracket and the bottom of beta_n's;
    * beta_n < gamma_n for even n >= 4, where both share the lowest bracket,
      and gamma_n < cos((n-1)pi/(n+1)) by that bracket;
    * alpha strictly decreasing from n = 2, with alpha_1 = alpha_2 = -1/2
      (alpha_0 = 1 is S_0's only zero), where alpha_n is beta_n for even n
      and gamma_n for odd n; for odd n the interleaving
      beta_{n+1} < gamma_n < beta_{n-1} is the same pair of steps.

    An ordering that needs an index whose structure failed is not decided;
    that index's structure failure is reported instead.  No float accepts
    anything.
    """
    if max_n < 0:
        raise ValueError("max_n must be >= 0")
    failures: list[str] = []
    gammas, betas = {}, {}
    for n in range(max_n + 1):
        try:
            structure = zero_structure(n)
        except BadBracket as exc:
            failures.append(f"zero-structure n={n}: {exc}")
            continue
        if structure.brackets:
            gammas[n] = (CompanionSign(n), structure.brackets[0])
        if structure.even_bracket is not None:
            betas[n] = (EvenPartSign(n), structure.even_bracket)

    for n in range(4, max_n + 1, 2):
        # beta_n = cos(n pi/(n+1)); the proposal lies a quarter step above.
        if n in gammas and n in betas:
            den = n + 1
            between = _cos_pi_dyadic(n, den, _bits_for(
                math.pi / (4 * den) * math.sin(math.pi / den)), -0.25)
            if not _separated(betas[n], gammas[n], between):
                failures.append(f"comparison n={n}: even ordering violated")

    alphas = {n: (gammas if n % 2 else betas).get(n) for n in range(2, max_n + 1)}
    decreasing = {n: _separated(alphas[n + 1], alphas[n], _alpha_separator(n))
                  for n in range(2, max_n) if alphas[n] and alphas[n + 1]}
    for n in range(3, max_n, 2):
        if not (decreasing.get(n - 1, True) and decreasing.get(n, True)):
            failures.append(f"interleaving n={n}: not between adjacent "
                            "even-factor zeros")
    half = Fraction(-1, 2)
    if (max_n >= 2 and 1 in gammas and 2 in betas
            and not _side(gammas[1], half) == _side(betas[2], half) == 0):
        failures.append("alpha-monotone: wrong initial values")
    failures += [f"alpha-monotone: not strictly decreasing at {n + 1}"
                 for n, ok in decreasing.items() if not ok]
    return RootReport(max_n, tuple(failures))


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
