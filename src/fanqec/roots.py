"""Certified minimal-zero extraction with exact sign arithmetic.

Every bracket here rests on one theorem, the zero localization of S_n:
with c = deg partial_o(n) (m + 1 for n = 2m + 1, m for n = 2m) and the
grid g_j = cos(j pi/(n+1)), each gap (g_{j+2}, g_j), j = 1, 3, ..., 2c - 1,
with g_{2c+1} read as -1, holds exactly one zero of S_n, a simple one, and
S_n has no other zero but x = 1.  The identity battery proves it for every
n at once, from the identities named in LOCALIZATION_IDENTITIES:

    S_n = (n + (n+2) x) partial_o(n) - h(x) (1 + x) partial_e(n),

h = 2(1 + x) for odd n and 1 for even n, and partial_e(n), partial_o(n) =
U_m, 2 T_{m+1} for n = 2m + 1 and W_m, V_m for n = 2m.  The zeros of these
are simple and lie on the grid, at odd j <= 2c - 1 for partial_o and at
even j, 2 <= j <= 2m, for partial_e (Mason and Handscomb, Chebyshev
Polynomials, 2003, section 2.2), so the two strictly interlace.  Then:

* at each zero g_j of partial_o, S_n(g_j) = -h (1 + g_j) partial_e(g_j)
  with h (1 + g_j) > 0, so sign S_n(g_j) = -sign partial_e(g_j), which is
  (-1)^((j+1)/2): partial_e has a positive leading coefficient and (j-1)/2
  zeros above g_j;
* so S_n changes sign across each of the c - 1 gaps between consecutive
  zeros of partial_o, exactly one zero of partial_e lying between them;
* S_n(-1) = -2 partial_o(-1), of sign (-1)^(c+1), opposite to its sign at
  the lowest zero g_{2c-1}: a sign change in (-1, g_{2c-1}) as well;
* S_n(1) = 2(n+1) partial_o(1) - 2 h(1) partial_e(1) = 0, with
  partial_o(1), partial_e(1) = 2, m + 1 for odd n and 1, 2m + 1 for even
  n; and the right-hand side has degree c + 1, with leading coefficient
  (n+1) 2^(m+1) for odd n and (n+1) 2^m for even n.  So the c sign changes
  and x = 1 are all deg S_n zeros, each simple.

The minimal zeros are ordered for every n by the same theorem.  Write
gamma_n and beta_n for the minimal zeros of S_n and partial_e(n), and
alpha_n for beta_n at even n and gamma_n at odd n.  In the two cases with
a point x below, N >= 5, s = sin(pi/(2N)) and x = -cos(pi/N), so
1 + x = 2 s^2, and x lies in the lowest gap (-1, g_{2c-1}), which ends at
g_n for odd n and at g_{n-1} for even n.  S_n has
exactly one zero there, gamma_n, and the sign of S_n(-1) below it, so a
point where S_n has the sign of S_n(-1) lies below gamma_n.

* Even n = 2m >= 4, N = n + 1, x = g_n = beta_n: partial_e = W_m
  (even-part-is-fourth-kind) vanishes at x, so by
  s-even-index-from-split-factors and odd-part-is-third-kind S_n(x) =
  (n + (n+2) x) V_m(x) = 2((N+1) s^2 - 1) V_m(x).  Every zero of V_m lies
  above x and its leading coefficient is positive, so V_m(x) has the sign
  (-1)^m of V_m(-1), and S_n(-1) = -2 V_m(-1) (the localization's third
  step).  So beta_n < gamma_n exactly when (N+1) s^2 < 1.
* Odd n = 2m + 1 >= 3, N = n + 2, x = cos((n+1) pi/(n+2)) = beta_{n+1}.
  T_k(cos t) = cos(k t) and U_k(cos t) = sin((k+1) t)/sin t (Mason and
  Handscomb, chapter 1) at t = pi - pi/N give T_{m+1}(x) = (-1)^(m+1) s and
  U_m(x) = (-1)^m/(2s).  With partial_o = 2 T_{m+1} and partial_e = U_m
  (odd-part-is-doubled-first-kind, even-part-is-second-kind),
  s-odd-index-from-split-factors gives S_n(x) = (-1)^m 4 s (1 - (N+1) s^2),
  while S_n(-1) = -4 T_{m+1}(-1) = 4 (-1)^m.  So beta_{n+1} < gamma_n
  exactly when (N+1) s^2 < 1.
* Even n >= 2: the localization of S_{n+1} alone gives gamma_{n+1} <
  cos((n+1) pi/(n+2)) < cos(n pi/(n+1)) = beta_n.
* The ordering inequality (N+1) s^2 < 1: sin t < t for t > 0 and
  pi^2 < 10 give (N+1) s^2 < 10 (N+1)/(4 N^2), which is below 1 when
  4 N^2 > 10 (N+1).  That holds at N = 4, and 4 N^2 - 10 (N+1) grows with
  N from there.

So beta_n < gamma_n for even n >= 4, and alpha strictly decreases from
n = 2: the second case is its step at odd n, the third its step at even
n, and together they are the interleaving beta_{n+1} < gamma_n <
beta_{n-1} for odd n >= 3.  The exact initial values alpha_1 = alpha_2 =
-1/2 (S_1 and partial_e(2) = 2x + 1 vanish there) complete the orderings;
``root_report`` checks those values, and the brackets, up to a cap.

Every bracket runs between rationals next to grid points that
``_verified_endpoint`` accepts.  One list, ``_s_brackets``, holds those of
S_n, lowest first, from -1 through a point just above each zero of
partial_o, and verifies an end only when a caller takes the bracket it
closes: ``gamma`` narrows the lowest at every n >= 1, and ``zeros_of_s``
every one.  ``beta`` has its own two ends around the minimal zero of
partial_e, and like ``gamma`` returns a rational zero inside its bracket
exactly.  Bisection narrows brackets by exact-sign midpoints.

Gap i = (g_{i+1}, g_i), 0 <= i <= n, has i of g_1, ..., g_n above it
(g_{n+1} = -1).  Each g_j is a simple zero of one split factor (partial_o
at odd j, partial_e at even j), both with positive leading coefficients,
so on gap i partial_e has the sign (-1)^floor(i/2) and partial_o
(-1)^ceil(i/2).  A bracket end is accepted when these are its exact signs
and its sign of S_n (of partial_e for ``beta``) is the one wanted: a float
only proposes a point.  All three signs come in one query from
``chebyshev.split_signs(n, x)``, which builds no coefficient vector.
Bisection takes a sign function (``ExactSign``), element 0 of that triple
for S_n; ``Poly.sign_at`` works in its place.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from fractions import Fraction

from .chebyshev import s_value, split_signs

# The identities of the battery that the zero localization rests on (see
# above); verify holds it proven only when all are proven for every n.
LOCALIZATION_IDENTITIES = (
    "s-odd-index-from-split-factors", "s-even-index-from-split-factors",
    "even-part-is-second-kind", "odd-part-is-doubled-first-kind",
    "even-part-is-fourth-kind", "odd-part-is-third-kind",
)

_NUDGE_START = Fraction(1, 2 ** 52)
_NUDGE_LIMIT = Fraction(1, 2 ** 20)
_ABOVE, _BELOW = 1, -1
_SIMPLE_PROBE = Fraction(1, 2 ** 40)
_HALF = Fraction(1, 2)


class BadBracket(ValueError):
    """Endpoint signs do not certify a sign change."""


# An exact sign (-1, 0, +1) at rationals, such as Poly.sign_at.
ExactSign = Callable[[Fraction], int]


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


def _is_simple(sign: ExactSign, x: Fraction) -> bool:
    # Opposite exact signs just outside the root witness odd multiplicity;
    # all roots certified here are isolated far beyond the probe width.
    return sign(x - _SIMPLE_PROBE) * sign(x + _SIMPLE_PROBE) < 0


def _exact_cert(sign: ExactSign, x: Fraction) -> ZeroCert:
    return ZeroCert(float(x), x, x, _is_simple(sign, x))


def _width(tol: float) -> Fraction:
    """tol as an exact bracket width; ValueError unless it is finite and > 0.

    Every function here that takes a tol refuses a bad one through this
    before its first sign query."""
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be a positive finite number, got {tol!r}")
    return Fraction(tol)


def bisect(sign: ExactSign, bracket: Bracket, tol: float = 1e-12) -> ZeroCert:
    """Narrow a sign-change bracket to width <= tol by exact midpoint signs.

    An exact rational root hit at a midpoint short-circuits to a width-0
    certificate.
    """
    limit = _width(tol)
    lo, hi, sign_lo = bracket.lo, bracket.hi, bracket.sign_lo
    while hi - lo > limit:
        mid = (lo + hi) / 2
        s = sign(mid)
        if s == 0:
            return _exact_cert(sign, mid)
        if s == sign_lo:
            lo = mid
        else:
            hi = mid
    return ZeroCert(float((lo + hi) / 2), lo, hi, True)


def _verified_endpoint(n: int, j: int, side: int, part: int, want: int) -> Fraction:
    """Rational point of gap j - 1 (side 1, above g_j) or gap j (side -1).

    A candidate is accepted when its signs of partial_e(n) and partial_o(n)
    are the gap's and its sign of part (0 for S_n, 1 for partial_e) is want.
    j = den = n + 1 stands for -1, exact and tried first.  A base rounded
    from g_j may lie on either side of it: the first candidate is 2^-52
    away, and one still on the wrong side has the other gap's signs.  The nudge
    doubles while at most 2^-20, which bounds the cost and keeps a wrong S_n
    from finding its sign far from g_j, and 2/den^2, below every gap: g_j -
    g_{j+1} >= 1 - cos(pi/den) = 2 sin^2(pi/(2 den)) >= 2/den^2, as sin u >=
    2u/pi.  The gap signs repeat every four gaps, so the one float fact left
    is that the rounded base lies within one gap of g_j: 2/den^2 = 3.5e-13
    at n = 2.4e6 is over 300 times the rounding, as j pi/den in doubles is
    within 8.2e-16 of the angle and cos adds at most one unit in the last place.
    """
    den = n + 1
    base = Fraction(-1) if j == den else Fraction(_grid_point(j, den))
    i = j - 1 if side == _ABOVE else j
    gap = (-1) ** (i // 2), (-1) ** ((i + 1) // 2)
    nudge = Fraction(0) if j == den else _NUDGE_START
    while nudge <= min(_NUDGE_LIMIT, Fraction(2, den * den)):
        signs = split_signs(n, base + side * nudge)
        if signs[1:] == gap and signs[part] == want:
            return base + side * nudge
        nudge = nudge * 2 or _NUDGE_START
    raise BadBracket(f"no verified endpoint near {float(base)} (sign {want})")


def _grid_point(j: int, den: int) -> float:
    """cos(j*pi/den) on the zero grid of S_n."""
    return math.cos(j * math.pi / den)


def _s_brackets(n: int) -> Iterator[Bracket]:
    """The brackets of the zeros of S_n below 1, lowest first, n >= 0.

    They run from -1 through a verified point just above each zero
    cos(j pi/(n+1)) of partial_o(n), j = 2c-1, ..., 3, 1, in gap j - 1; by
    the zero localization each holds exactly one zero.  Below the lowest
    one S_n has the sign of S_n(-1), (-1)^(c+1), c = (n+1) // 2, and the
    sign alternates from there.  The zeros near -1 lie just below their
    grid points (2.4e-12 below at j = n = 401), so one point above each
    grid point ends one bracket and starts the next.  A point is verified
    only when the bracket it closes is taken, so gamma pays for two.
    """
    want = (-1) ** ((n + 3) // 2)
    lo = _verified_endpoint(n, n + 1, _ABOVE, 0, want)
    for j in range(2 * ((n + 1) // 2) - 1, 0, -2):
        hi = _verified_endpoint(n, j, _ABOVE, 0, -want)
        yield Bracket(lo, hi, want, -want)
        lo, want = hi, -want


def _beta_bracket(n: int) -> Bracket:
    """Bracket on the minimal zero cos(2m pi/(n+1)) of partial_e(n), n >= 2.

    Its ends lie in gaps 2m and 2m - 1, just below and just above the zero,
    where the factor has the signs (-1)^m and (-1)^(m-1); no sign of S_n
    enters.  At n = 2 the zero is -1/2 itself, and a nudge that lands on it
    is doubled past it.
    """
    m = n // 2
    want = (-1) ** m
    return Bracket(_verified_endpoint(n, 2 * m, _BELOW, 1, want),
                   _verified_endpoint(n, 2 * m, _ABOVE, 1, -want), want, -want)


def beta(n: int) -> float:
    """Minimal zero of the even-zero factor of U_n, n >= 2.

    Closed form cos(2m*pi/(2m+1)) for n = 2m and cos(2m*pi/(2m+2)) for
    n = 2m+1, verified by an exact sign change across it (_beta_bracket).
    A rational zero, -1/2 or 0, strictly inside that bracket where the
    factor's exact sign is 0 is returned exactly: -1/2 at n = 2 and 5, 0
    at n = 3.
    """
    if n <= 1:
        raise ValueError(f"even-zero factor of index {n} is constant, no minimal zero")
    bracket = _beta_bracket(n)
    for zero in (-_HALF, Fraction(0)):
        if bracket.lo < zero < bracket.hi and split_signs(n, zero)[1] == 0:
            return float(zero)
    return _grid_point(2 * (n // 2), n + 1)


# Rational zeros that actually occur in the family (S_1, S_2, S_3); probing
# them first turns those certificates into exact width-0 ones.  0 is never
# one: S_n(0) is +-2 or +-(4m+2) for odd n and +-(2m-1) or +-(2m+1) for even n.
_RATIONAL_PROBES = (Fraction(-3, 4), Fraction(-1, 2))


def _s_sign(n: int) -> ExactSign:
    """The exact sign of S_n at rationals: element 0 of split_signs."""
    return lambda x: split_signs(n, x)[0]


def _zero_in(s: ExactSign, n: int, bracket: Bracket, tol: float) -> ZeroCert:
    """Certified zero of S_n in a bracket that holds exactly one.

    A rational probe inside the bracket that is a zero gives an exact
    certificate.  Otherwise float bisection on s_value proposes two nearer
    ends, and each is kept only if its exact sign is that of the end it
    replaces, so correctness never depends on the float; exact bisection
    then narrows the bracket to tol.
    """
    for cand in _RATIONAL_PROBES:
        if bracket.lo < cand < bracket.hi and s(cand) == 0:
            return _exact_cert(s, cand)
    lo, hi = float(bracket.lo), float(bracket.hi)
    # Every bracket lies in [-1, 1], where doubles are at most 2^-53 (1.1e-16)
    # apart, and target is at least 1e-13: each midpoint lies strictly inside,
    # and at most 45 halvings of a width of at most 2 reach target.
    target = max(0.25 * tol, 1e-13)
    while hi - lo > target:
        mid = 0.5 * (lo + hi)
        fm = s_value(n, mid)
        if fm == 0.0:
            break
        if (fm < 0.0) == (bracket.sign_lo < 0):
            lo = mid
        else:
            hi = mid
    new_lo, new_hi = Fraction(lo), Fraction(hi)
    if new_lo <= bracket.lo or s(new_lo) != bracket.sign_lo:
        new_lo = bracket.lo
    if new_hi >= bracket.hi or s(new_hi) != bracket.sign_hi:
        new_hi = bracket.hi
    if new_lo < new_hi:
        bracket = Bracket(new_lo, new_hi, bracket.sign_lo, bracket.sign_hi)
    return bisect(s, bracket, tol)


def gamma(n: int, tol: float = 1e-12) -> ZeroCert:
    """Certified minimal zero of s_poly(n), n >= 1: the zero in the lowest
    of _s_brackets, so gamma(n) is zeros_of_s(n)[0].

    Indices 1 and 2 have the exact rational zero -1/2, and 3 has -3/4, all
    found by the rational probes; only the lowest bracket's two ends are
    verified.
    """
    if n < 1:
        raise ValueError(f"index {n} must be >= 1")
    _width(tol)
    return _zero_in(_s_sign(n), n, next(_s_brackets(n)), tol)


def zeros_of_s(n: int, tol: float = 1e-12) -> list[ZeroCert]:
    """All zeros of s_poly(n), ascending: one in each of _s_brackets, then 1.

    With x = 1 they are all of them (the zero localization); each is
    narrowed to width <= tol.
    """
    _width(tol)
    s = _s_sign(n)
    one = _exact_cert(s, Fraction(1))  # split_signs refuses n < 0 here
    return [*(_zero_in(s, n, b, tol) for b in _s_brackets(n)), one]


# -- the report --------------------------------------------------------------


def root_report(max_n: int) -> tuple[str, ...]:
    """The brackets gamma and beta narrow, and the initial values, to max_n.

    It builds gamma's bracket, the lowest of _s_brackets, for 1 <= n <= max_n
    and _beta_bracket for even 2 <= n <= max_n by exact signs (split_signs),
    and from max_n = 2 checks alpha_1 = alpha_2 = -1/2 exactly: S_1 and
    partial_e(2) vanish at -1/2.  It returns one line per failed check, in
    a fixed order, so an empty tuple is a pass; a bracket whose endpoint
    signs do not verify is reported.  The minimal-zero orderings need no
    per-n check: the module docstring proves them for every n.
    """
    if max_n < 0:
        raise ValueError("max_n must be >= 0")
    failures: list[str] = []
    for kind, build, indices in (("gamma", lambda n: next(_s_brackets(n)),
                                  range(1, max_n + 1)),
                                 ("beta", _beta_bracket, range(2, max_n + 1, 2))):
        for n in indices:
            try:
                build(n)
            except BadBracket as exc:
                failures.append(f"{kind} bracket n={n}: {exc}")
    if max_n >= 2 and not (split_signs(1, -_HALF)[0] == split_signs(2, -_HALF)[1] == 0):
        failures.append("alpha-monotone: wrong initial values")
    return tuple(failures)

