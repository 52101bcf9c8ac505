"""The exact identity battery over the Chebyshev-type families.

``identity_suite`` runs 31 named checks: 27 identities and 4 coefficient
properties, at every index n up to a bound, each coefficient-exactly over
the integers, and proves all 31 for every n.  Each identity is written
once, as lhs and rhs over a family accessor, and runs on two backends: the
stored Poly objects, and order bounds (``_Orders``) on an index object that
stands for every n of one parity class n = 2j + r at once.

On such a class every member an identity reads sits at an index a*j + b,
and with lambda + 1/lambda = 2x each member of U, T, V and W is
c lambda^(a*j) + c' lambda^(-a*j), with c and c' free of j.  Sums and
products keep that shape, so lhs - rhs is sum_e p_e(j) lambda^(e*j) with
polynomials p_e: a C-finite sequence in j, which satisfies a monic linear
recurrence of order B = sum_e (deg p_e + 1) (Kauers and Paule, The
Concrete Tetrahedron, ch. 4; Zeilberger, The C-finite ansatz, 2013).  If it
vanishes at j = 0..B-1 it vanishes at every j, for every x > 1 and so as
a polynomial.  The backend reads B off the identity's own formula; a
formula that compares, tests or hashes the index raises there, gets no
bound, and is not proven.

That proof stands for the stored polynomials only once they are tied to
their definitions: every member of U, T, V and W the battery reads, up to
the larger of max_n and the top base index, is checked, in linear time,
against its recurrence, and if one tie fails nothing is proven.

The coefficient properties (``_PROPERTIES``) are proven the same way: each
once every tie held and the identities its argument rests on are proven.
Write P~(x) for P(x/2).  U, T, V and W follow P_{k+1} = 2x P_k - P_{k-1},
so U~, 2T~, V~ and W~ follow P~_{k+1} = x P~_k - P~_{k-1}, from the seeds
(U~_{-1}, U~_0) = (0, 1), (2T~_0, 2T~_1) = (2, x), (V~_0, V~_1) = (1, x - 1)
and (W~_0, W~_1) = (1, x + 1) (Mason and Handscomb, Chebyshev Polynomials,
2003, ch. 2).  From k = 0 on (k = 1 for 2T~) each member is monic of degree
k with integer coefficients, since x times a monic integer polynomial of
degree k, minus an integer one of lower degree, is monic of degree k + 1.

* compressed-u-monic: U_n(x/2) = U~_n; the ties alone.
* compressed-even-part-monic: partial_e(n) is U_m for n = 2m + 1 and W_m
  for n = 2m (even-part-is-second-kind, even-part-is-fourth-kind).
* compressed-odd-part-monic: partial_o(n) is 2 T_{m+1} for n = 2m + 1 and
  V_m for n = 2m (odd-part-is-doubled-first-kind, odd-part-is-third-kind).
* s-divisible-by-x-minus-one: x - 1 is monic, so it divides S_n over the
  integers exactly when S_n(1) = 0, step 4 of the zero localization
  (fanqec.roots), which rests on roots.LOCALIZATION_IDENTITIES.  At x = 1
  the recurrence is P_{k+1}(1) = 2 P_k(1) - P_{k-1}(1), so U_k(1) = k + 1,
  T_k(1) = V_k(1) = 1 and W_k(1) = 2k + 1.

A check without a proof, whether it has no bound, a failing base check, a
failing tie or an unproven identity it rests on, is decided at every n on
Poly, which also gives a failure its two coefficient vectors.

The report (chebyshev.IdentityReport) keeps those decided checks as
records, and each identity class or coefficient property proven for every
n as one (name, range of n up to max_n) entry, so a sound build makes no
record per n; report.checked lists every check only when it is asked for.

Every stored family is read through ``chebyshev._STORED``.  It looks the
builder of U, T, V or W up when it is used, so a builder replaced there is
what the battery checks.  It reads pe, po, s and phi through
``chebyshev._Families.defined``, their formulas in U: what the public
builders return and what ``_Orders`` expands, so the proofs are about the
polynomials ``fanqec poly`` prints, and a derived family needs no tie of
its own.

The ties are one walk in the calling process: each member of U, T, V and W
is built once from its own coefficient formula and tied through its own
family's last two members, and the base checks follow the walk.
"""

from __future__ import annotations

import collections
import operator
from typing import Callable, Sequence

from .chebyshev import (
    _SEEDS,
    _STORED,
    IdentityCheck,
    IdentityReport,
    NotIntegral,
    _Families,
    compress,
)
from .polynomial import Poly
from .roots import LOCALIZATION_IDENTITIES


def _cmp(identity: str, n: int, lhs: Poly, rhs: Poly) -> IdentityCheck:
    if lhs == rhs:
        return IdentityCheck(identity, n, True)
    return IdentityCheck(identity, n, False, lhs.coeffs, rhs.coeffs)


# Each identity is written once: name, the parity of n it is checked at
# (None: every n), and a function of a family accessor f and n that returns
# (lhs, rhs).  The accessor gives f.u(k), f.t(k), f.v(k), f.w(k), f.pe(n),
# f.po(n), f.s(n), f.phi(n), f.x and f.poly(coeffs) on one of two
# backends: the stored Poly objects at an int n, or order bounds at an
# index a*j + b.
_IDENTITIES: tuple[tuple[str, int | None, Callable], ...] = (
    ("u-split-product", None, lambda f, n: (f.u(n), f.pe(n) * f.po(n))),
    ("u-even-as-split-product", None, lambda f, n: (
        f.u(2 * n), f.u(n) * f.u(n) - f.u(n - 1) * f.u(n - 1))),
    ("u-odd-as-split-product", None, lambda f, n: (
        f.u(2 * n + 1), f.u(n) * f.u(n + 1) - f.u(n) * f.u(n - 1))),
    ("u-even-minus-one-factor", None, lambda f, n: (
        f.u(2 * n) - 1, f.u(n - 1) * f.u(n + 1) - f.u(n - 1) * f.u(n - 1))),
    ("u-odd-minus-one-factor", None, lambda f, n: (
        f.u(2 * n + 1) - 1,
        f.u(n + 1) * f.u(n) + f.u(n + 1) * f.u(n - 1)
        - f.u(n) * f.u(n) - f.u(n) * f.u(n - 1))),
    ("u-even-plus-one-factor", None, lambda f, n: (
        f.u(2 * n) + 1, f.u(n) * f.u(n) - f.u(n) * f.u(n - 2))),
    ("u-odd-plus-one-factor", None, lambda f, n: (
        f.u(2 * n + 1) + 1,
        f.u(n + 1) * f.u(n) - f.u(n + 1) * f.u(n - 1)
        + f.u(n) * f.u(n) - f.u(n) * f.u(n - 1))),
    ("u-square-gap", None, lambda f, n: (
        f.u(n) * f.u(n) - f.u(n + 1) * f.u(n - 1), f.poly((1,)))),
    ("u-even-diff-minus-one-factor", None, lambda f, n: (
        f.u(2 * n) - f.u(2 * n - 1) - 1,
        (2 * f.x - 2) * (f.u(n - 1) * f.u(n) + f.u(n - 1) * f.u(n - 1)))),
    ("u-even-sum-minus-one-factor", None, lambda f, n: (
        f.u(2 * n) + f.u(2 * n - 1) - 1,
        (2 * f.x + 2) * (f.u(n - 1) * f.u(n) - f.u(n - 1) * f.u(n - 1)))),
    ("u-even-diff-plus-one-factor", None, lambda f, n: (
        f.u(2 * n) - f.u(2 * n - 1) + 1,
        f.u(n) * f.u(n) - f.u(n) * f.u(n - 2)
        - f.u(n - 1) * f.u(n) + f.u(n - 1) * f.u(n - 2))),
    ("u-even-sum-plus-one-factor", None, lambda f, n: (
        f.u(2 * n) + f.u(2 * n - 1) + 1,
        f.u(n) * f.u(n) - f.u(n) * f.u(n - 2)
        + f.u(n - 1) * f.u(n) - f.u(n - 1) * f.u(n - 2))),
    ("u-odd-diff-minus-one-factor", None, lambda f, n: (
        f.u(2 * n + 1) - f.u(2 * n) - 1,
        (2 * f.x - 2) * (f.u(n) * f.u(n) + f.u(n) * f.u(n - 1)))),
    ("u-odd-sum-plus-one-factor", None, lambda f, n: (
        f.u(2 * n + 1) + f.u(2 * n) + 1,
        (2 * f.x + 2) * (f.u(n) * f.u(n) - f.u(n) * f.u(n - 1)))),
    ("u-odd-diff-plus-one-factor", None, lambda f, n: (
        f.u(2 * n + 1) - f.u(2 * n) + 1,
        f.u(n) * f.u(n + 1) - f.u(n) * f.u(n - 1)
        - f.u(n - 1) * f.u(n + 1) + f.u(n - 1) * f.u(n - 1))),
    ("u-odd-sum-minus-one-factor", None, lambda f, n: (
        f.u(2 * n + 1) + f.u(2 * n) - 1,
        f.u(n) * f.u(n + 1) - f.u(n) * f.u(n - 1)
        + f.u(n - 1) * f.u(n + 1) - f.u(n - 1) * f.u(n - 1))),
    ("even-part-is-second-kind", 1, lambda f, n: (f.pe(n), f.u(n // 2))),
    ("odd-part-is-doubled-first-kind", 1, lambda f, n: (
        f.po(n), 2 * f.t(n // 2 + 1))),
    ("even-part-is-fourth-kind", 0, lambda f, n: (f.pe(n), f.w(n // 2))),
    ("odd-part-is-third-kind", 0, lambda f, n: (f.po(n), f.v(n // 2))),
    ("phi-factorization", None, lambda f, n: (
        f.phi(n), (f.x - 1) * f.pe(n) * f.s(n))),
    # S_n from its split factors, with 2(1 + x)^2 for odd n and 1 + x for
    # even n: the zero localization in fanqec.roots rests on these two.
    ("s-odd-index-from-split-factors", 1, lambda f, n: (
        f.s(n), f.poly((n, n + 2)) * f.po(n) - f.poly((2, 4, 2)) * f.pe(n))),
    ("s-even-index-from-split-factors", 0, lambda f, n: (
        f.s(n), f.poly((n, n + 2)) * f.po(n) - f.poly((1, 1)) * f.pe(n))),
    ("even-part-even-index-recurrence", None, lambda f, k: (
        f.pe(2 * k + 4), 2 * f.x * f.pe(2 * k + 2) - f.pe(2 * k))),
    ("odd-part-even-index-recurrence", None, lambda f, k: (
        f.po(2 * k + 4), 2 * f.x * f.po(2 * k + 2) - f.po(2 * k))),
    ("even-part-odd-index-recurrence", None, lambda f, k: (
        f.pe(2 * k + 5), 2 * f.x * f.pe(2 * k + 3) - f.pe(2 * k + 1))),
    ("odd-part-odd-index-recurrence", None, lambda f, k: (
        f.po(2 * k + 5), 2 * f.x * f.po(2 * k + 3) - f.po(2 * k + 1))),
)


# -- the order-bound backend -------------------------------------------------


class _Index:
    """The index a*j + b on one parity class n = 2j + r, j = 0, 1, 2, ...

    It adds and subtracts ints and indices with the index on the left,
    negates, multiplies by ints, and divides by an int d that divides a (//
    and divmod, the remainder b % d being the same at every j): all that
    the identities use.  Comparisons, bool and hash raise, so a formula
    that branches on the index cannot run on one, and one that needs any
    other operation (1 - n, n % 2) gets no bound.
    """

    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        self.a, self.b = a, b

    @staticmethod
    def of(k: _Index | int) -> _Index:
        return k if isinstance(k, _Index) else _Index(0, operator.index(k))

    def __add__(self, other: _Index | int) -> _Index:
        other = _Index.of(other)
        return _Index(self.a + other.a, self.b + other.b)

    def __neg__(self) -> _Index:
        return _Index(-self.a, -self.b)

    def __sub__(self, other: _Index | int) -> _Index:
        return self + -_Index.of(other)

    def __mul__(self, other: int) -> _Index:
        if not isinstance(other, int):
            return NotImplemented
        return _Index(self.a * other, self.b * other)

    __rmul__ = __mul__

    def __divmod__(self, d: int) -> tuple[_Index, int]:
        if not isinstance(d, int) or not d or self.a % d:
            raise TypeError(f"({self.a}j + {self.b}) // {d} is not affine in j")
        return _Index(self.a // d, self.b // d), self.b % d

    def __floordiv__(self, d: int) -> _Index:
        return divmod(self, d)[0]

    def _refuse(self, *args):
        raise TypeError("an index a*j + b has no value to compare, test or hash")

    # Ordering comparisons already raise TypeError, and != asks __eq__.
    __eq__ = __bool__ = __hash__ = _refuse


class _Terms(dict):
    """{e: d}: a sequence in j of the form sum_e p_e(j) lambda^(e*j), deg p_e <= d.

    Here lambda + 1/lambda = 2x.  A sum takes the union of the terms and the
    larger degree, a product adds exponents and degrees.  Such a sequence
    satisfies the monic recurrence with characteristic polynomial
    prod_e (z - lambda^e)^(d + 1), of order sum_e (d + 1) = order().
    """

    @staticmethod
    def of(value: _Terms | _Index | int) -> _Terms:
        if isinstance(value, _Terms):
            return value
        if isinstance(value, _Index):
            return _Terms({0: 1})
        operator.index(value)  # any other value has no bound
        return _Terms({0: 0})

    def __add__(self, other: _Terms | _Index | int) -> _Terms:
        out = _Terms(self)
        for e, d in _Terms.of(other).items():
            out[e] = max(d, out.get(e, d))
        return out

    __sub__ = __add__

    def __mul__(self, other: _Terms | _Index | int) -> _Terms:
        out = _Terms()
        for e, d in self.items():
            for f, g in _Terms.of(other).items():
                out[e + f] = max(d + g, out.get(e + f, 0))
        return out

    __rmul__ = __mul__

    def order(self) -> int:
        return sum(d + 1 for d in self.values())


class _Orders(_Families):
    """Order-bound backend: _Terms values, and every u, t, v or w member read,
    as (family, index).

    A member of u, t, v or w at index a*j + b is c lambda^(a*j) +
    c' lambda^(-a*j), with c and c' free of j; x and ints are constants, and
    poly(coeffs) is affine in j once a coefficient is an index.
    """

    x = _Terms({0: 0})

    def __init__(self):
        self.reads: list[tuple[str, _Index]] = []

    @staticmethod
    def poly(coeffs: tuple) -> _Terms:
        return sum(map(_Terms.of, coeffs), _Terms({0: 0}))

    def member(self, family: str, k: _Index | int) -> _Terms:
        if family not in _SEEDS:
            return self.defined(family, k)
        k = _Index.of(k)
        self.reads.append((family, k))
        return _Terms({k.a: 0, -k.a: 0})


def _order(fn: Callable, parity: int) -> tuple[int | None, list[tuple[str, _Index]]]:
    """(B, reads) of fn on the class n = 2j + parity; B is None without a bound.

    B bounds the order of lhs - rhs as a sequence in j, and reads lists the
    members of u, t, v and w that fn reads, through the derived families
    too.  An exception while fn runs on the index means that fn is not one
    expression in j, and it gets no bound.
    """
    orders = _Orders()
    try:
        lhs, rhs = fn(orders, _Index(2, parity))
        return _Terms.of(lhs - rhs).order(), orders.reads
    except Exception:  # whatever it was, the Poly battery meets it again
        return None, []


def _tie(family: str, k: int, member: Poly, below: Sequence[Poly]) -> bool:
    """Whether member k of u, t, v or w, as stored, equals its definition.

    Each starts from its seeds and follows its recurrence from `below`, the
    stored members k-2 and k-1: member k must have the coefficients of
    2 (0, *below[1]) - below[0], all three padded with zeros to one length
    and compared in one map pass.  Linear in the degree.
    """
    k0, first, second = _SEEDS[family]
    if k < k0 + 2:
        return member.coeffs == (first if k == k0 else second)
    tuples = (member.coeffs, below[0].coeffs, (0, *below[1].coeffs))
    size = max(map(len, tuples))
    coeffs, lower, upper = (c + (0,) * (size - len(c)) for c in tuples)
    return coeffs == tuple(map(operator.sub, map(operator.add, upper, upper), lower))


# Each coefficient property: its name, the family whose members n <= max_n
# it is checked on, and the identities its proof rests on besides the ties
# (module docstring).
_PROPERTIES = (
    ("compressed-u-monic", "u", ()),
    ("compressed-even-part-monic", "pe",
     ("even-part-is-second-kind", "even-part-is-fourth-kind")),
    ("compressed-odd-part-monic", "po",
     ("odd-part-is-doubled-first-kind", "odd-part-is-third-kind")),
    ("s-divisible-by-x-minus-one", "s", LOCALIZATION_IDENTITIES),
)


def _compressed_monic(name: str, n: int, poly: Poly) -> IdentityCheck:
    """poly compresses (compress) to a monic polynomial."""
    try:
        c = compress(poly)
    except NotIntegral:
        return IdentityCheck(name, n, False, poly.coeffs, ())
    if c.leading == 1:
        return IdentityCheck(name, n, True)
    return IdentityCheck(name, n, False, c.coeffs, c.coeffs[:-1] + (1,))


def _divisible_by_x_minus_one(name: str, n: int, s: Poly) -> IdentityCheck:
    """x - 1 divides s: it is monic, so it does over the integers iff s(1) = 0."""
    if at_one := sum(s.coeffs):
        return IdentityCheck(name, n, False, s.coeffs, (at_one,))
    return IdentityCheck(name, n, True)


def _walk(reads: dict[str, int]) -> bool:
    """Whether every member of the kinds `reads` names is tied to its
    definition: `reads` maps u, t, v or w to its highest index, and each of
    those members is fetched once from its builder, upward from the first
    index, and tied.  The walk stops at the first tie that fails."""
    for family, top in reads.items():
        fetch, below = getattr(_STORED, family), collections.deque(maxlen=2)
        for k in range(_SEEDS[family][0], top + 1):
            member = fetch(k)
            if not _tie(family, k, member, below):
                return False
            below.append(member)
    return True


def identity_suite(max_n: int) -> IdentityReport:
    """The battery behind chebyshev.identity_suite.

    An identity passes without Poly arithmetic only on its parity classes
    with a bound (_order) whose base checks pass on the stored Poly objects,
    and only after those objects are tied to their definitions (_walk).  A
    coefficient property passes without Poly arithmetic only when every tie
    held and every identity it rests on (_PROPERTIES) is proven.  Each such
    class or property enters the report as one (name, indices) range.
    Everything else, and every failure, is decided on Poly and enters it as
    one IdentityCheck per n, sorted by (identity, n).  Base checks above
    max_n are not reported, but they run whatever max_n is, so the report's
    proven checks are the same at every max_n for a sound build.
    """
    if max_n < 0:
        raise ValueError("max_n must be >= 0")
    plan = [(name, r, fn, _order(fn, r)) for name, parity, fn in _IDENTITIES
            for r in ((0, 1) if parity is None else (parity,))]
    top_n = max([max_n] + [r + 2 * order - 2 for _, r, _, (order, _) in plan if order])
    # compressed-u-monic stands for U_n, n <= max_n, once those are tied.
    reads = {"u": max_n}
    for _, r, _, (_, class_reads) in plan:
        j = (top_n - r) // 2
        for family, k in class_reads:
            reads[family] = max(reads.get(family, k.b), k.b, k.a * j + k.b)
    ties = _walk(reads)
    decided, ranges, unproven = [], [], set()
    for name, r, fn, (order, _) in plan:
        indices = range(r, max_n + 1, 2)
        if ties and order and all(operator.eq(*fn(_STORED, n))
                                  for n in range(r, r + 2 * order, 2)):
            ranges.append((name, indices))
        else:
            unproven.add(name)
            decided.extend(_cmp(name, n, *fn(_STORED, n)) for n in indices)
    proven, indices = {name for name, *_ in plan} - unproven, range(max_n + 1)
    for name, family, rests_on in _PROPERTIES:
        if ties and proven.issuperset(rests_on):
            proven.add(name)
            ranges.append((name, indices))
        else:
            check = _divisible_by_x_minus_one if family == "s" else _compressed_monic
            decided.extend(check(name, n, _STORED.member(family, n)) for n in indices)
    # No two checks share (identity, n), so the tuples sort by it.
    decided.sort()
    return IdentityReport(max_n, decided, tuple(sorted(proven)), tuple(ranges))
