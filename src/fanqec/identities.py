"""The exact identity battery over the Chebyshev-type families.

``identity_suite`` checks 27 identities at every index n up to a bound,
each coefficient-exactly over the integers.  Each identity is written once,
as lhs and rhs over a family accessor, and runs on three backends:

* residues: the families' values at the points 0..D modulo the primes
  just below 2**31 (``_primes_above``), as int64 numpy arrays, with U, T,
  V and W from their own three-term recurrences and the split factors,
  S_n and phi_n from their defining formulas;
* norms: upper bounds on degree and l1 norm (||fg|| <= ||f|| ||g||,
  ||f + g|| <= ||f|| + ||g||), which give D and a bound M on every
  coefficient of lhs - rhs;
* the stored Poly objects, i.e. plain exact coefficient arithmetic.

lhs - rhs vanishing at D + 1 distinct points modulo a prime p makes it zero
modulo p; over primes whose product exceeds M, every coefficient is a
multiple of that product and at most M in size, so it is 0 (the CRT
argument, von zur Gathen and Gerhard, Modern Computer Algebra, ch. 5).
That proof stands for the stored polynomials only once they are tied to
their definitions: before the residues run, every stored member the battery
reads is checked, in linear time, against its recurrence or formula, and if
one tie fails the whole battery runs on Poly.  A check the residues do not
prove, a false identity, is decided on Poly, which also gives the failure
its two coefficient vectors.  The
compress/monic and S_n divisible by x - 1 checks are coefficient
properties and always run on Poly.

Every stored family is read through ``chebyshev._STORED``, which looks its
builder up when it is used, so a builder replaced there is what the battery
checks.
"""

from __future__ import annotations

import bisect
import itertools
import operator
from typing import Callable

import numpy as np

from .chebyshev import (
    _SEEDS,
    _STORED,
    _TWO_X,
    IdentityCheck,
    IdentityReport,
    NotIntegral,
    _ChainStore,
    _Families,
    compress,
)
from .polynomial import Poly

_X_MINUS_ONE = Poly((-1, 1))


def _cmp(identity: str, n: int, lhs: Poly, rhs: Poly) -> IdentityCheck:
    if lhs == rhs:
        return IdentityCheck(identity, n, True)
    return IdentityCheck(identity, n, False, lhs.coeffs, rhs.coeffs)


# Each identity is written once: name, the parity of n it is checked at
# (None: every n), and a function of a family accessor f and n that returns
# (lhs, rhs).  The accessor gives f.u(k), f.t(k), f.v(k), f.w(k), f.pe(n),
# f.po(n), f.s(n), f.phi(n), f.x and f.poly(coeffs) on one of three
# backends: the stored Poly objects, residues at the points 0..D modulo
# primes, or degree and l1-norm bounds.
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
    ("even-part-even-index-recurrence", None, lambda f, k: (
        f.pe(2 * k + 4), 2 * f.x * f.pe(2 * k + 2) - f.pe(2 * k))),
    ("odd-part-even-index-recurrence", None, lambda f, k: (
        f.po(2 * k + 4), 2 * f.x * f.po(2 * k + 2) - f.po(2 * k))),
    ("even-part-odd-index-recurrence", None, lambda f, k: (
        f.pe(2 * k + 5), 2 * f.x * f.pe(2 * k + 3) - f.pe(2 * k + 1))),
    ("odd-part-odd-index-recurrence", None, lambda f, k: (
        f.po(2 * k + 5), 2 * f.x * f.po(2 * k + 3) - f.po(2 * k + 1))),
)


# -- the three backends ------------------------------------------------------


class _Bound:
    """Upper bounds on the degree and the l1 norm of a polynomial.

    ||f + g||_1, ||f - g||_1 <= ||f||_1 + ||g||_1 and ||fg||_1 <=
    ||f||_1 ||g||_1, so bounds computed through an identity's expression
    bound every coefficient of lhs - rhs.
    """

    __slots__ = ("degree", "norm")

    def __init__(self, degree: int, norm: int):
        self.degree, self.norm = degree, norm

    @staticmethod
    def of(value: _Bound | int) -> _Bound:
        return value if isinstance(value, _Bound) else _Bound(0, abs(value))

    def __add__(self, other: _Bound | int) -> _Bound:
        other = _Bound.of(other)
        return _Bound(max(self.degree, other.degree), self.norm + other.norm)

    __radd__ = __sub__ = __rsub__ = __add__

    def __mul__(self, other: _Bound | int) -> _Bound:
        other = _Bound.of(other)
        if not (self.norm and other.norm):
            return _Bound(-1, 0)
        return _Bound(self.degree + other.degree, self.norm * other.norm)

    __rmul__ = __mul__


class _Norms(_Families):
    """Norm backend: _Bound values, and the highest index of each family read.

    The recorded indices are the range the ties must cover.
    """

    x = _Bound(1, 1)

    def __init__(self):
        self.reads: dict[str, int] = {}
        two_x = 2 * self.x
        self._families = _ChainStore(self.poly, lambda cur, prev: two_x * cur - prev)

    @staticmethod
    def poly(coeffs: tuple[int, ...]) -> _Bound:
        return _Bound(len(coeffs) - 1, sum(map(abs, coeffs)))

    def member(self, family: str, k: int) -> _Bound:
        self.reads[family] = max(self.reads.get(family, k), k)
        if family in _SEEDS:
            return self._families.member(family, k)
        return self.defined(family, k)


def _is_prime(q: int) -> bool:
    """Miller-Rabin with bases 2, 3, 5, 7: deterministic below 3,215,031,751."""
    d, s = q - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, q)
        if x in (1, q - 1):
            continue
        for _ in range(s - 1):
            x = x * x % q
            if x == q - 1:
                break
        else:
            return False
    return True


def _primes_above(bound: int) -> list[int]:
    """Fewest of the primes below 2**31, largest first, whose product exceeds bound.

    A product of two residues fits in int64, and the points 0..D stay
    distinct modulo each of these primes for any D reached here.
    """
    primes, product = [], 1
    for q in itertools.count(2 ** 31 - 1, -2):
        if _is_prime(q):
            primes.append(q)
            product *= q
            if product > bound:
                return primes


# The largest prime the residues are taken modulo.
_TOP_PRIME = _primes_above(0)[0]
# Bound tracking keeps every entry below this in absolute value, so that
# a - q*p in _reduce cannot overflow int64 either.
_INT64_LIMIT = 2 ** 63 - 2 ** 32
# Absolute value of an entry after _reduce.
_REDUCED_BOUND = _TOP_PRIME // 2 + 2 ** 13


def _reduce(a, p: np.ndarray, inv_p: np.ndarray) -> np.ndarray:
    """a - q*p, congruent to a modulo p, with q a/p rounded in float64.

    For |a| < 2**63 the float quotient is off by less than 2**-18, so
    |a - q*p| <= p/2 + p * 2**-18 <= _REDUCED_BOUND.  Three float roundings
    cost less than one int64 division.
    """
    q = a * inv_p
    np.rint(q, out=q)
    return a - p * q.astype(np.int64)


class _Mod:
    """Residues of one polynomial: row i modulo prime i, column j at x = j.

    `mod` is the (p, 1/p) column pair of the rows; `bound` caps the absolute
    value of every entry, and entries are reduced only when a sum or a
    product could pass _INT64_LIMIT.
    """

    __slots__ = ("a", "bound", "mod")

    def __init__(self, a, bound: int, mod: tuple[np.ndarray, np.ndarray]):
        self.a, self.bound, self.mod = a, bound, mod

    def _lift(self, other: _Mod | int) -> _Mod:
        if isinstance(other, _Mod):
            return other
        if abs(other) <= _REDUCED_BOUND:
            return _Mod(other, abs(other), self.mod)
        residues = [[other % int(q)] for q in self.mod[0][:, 0]]
        return _Mod(np.array(residues, dtype=np.int64), _TOP_PRIME - 1, self.mod)

    def reduced(self) -> _Mod:
        if self.bound <= _REDUCED_BOUND:
            return self
        return _Mod(_reduce(self.a, *self.mod), _REDUCED_BOUND, self.mod)

    def _combine(self, other: _Mod | int, op) -> _Mod:
        a, b = self, self._lift(other)
        if a.bound + b.bound >= _INT64_LIMIT:
            a, b = a.reduced(), b.reduced()
        return _Mod(op(a.a, b.a), a.bound + b.bound, self.mod)

    def __add__(self, other: _Mod | int) -> _Mod:
        return self._combine(other, operator.add)

    __radd__ = __add__

    def __sub__(self, other: _Mod | int) -> _Mod:
        return self._combine(other, operator.sub)

    def __rsub__(self, other: int) -> _Mod:
        return self._lift(other)._combine(self, operator.sub)

    def __mul__(self, other: _Mod | int) -> _Mod:
        a, b = self, self._lift(other)
        if a.bound < b.bound:
            a, b = b, a
        if a.bound * b.bound >= _INT64_LIMIT:
            a = a.reduced()
            if a.bound * b.bound >= _INT64_LIMIT:
                b = b.reduced()
        return _Mod(a.a * b.a, a.bound * b.bound, self.mod)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        """Zero modulo every row's prime: a reduced entry is below p."""
        return not np.count_nonzero(self.reduced().a)


class _Tables:
    """u, t, v and w at the points 0..cols-1 modulo each of `primes`.

    Members come from each family's own recurrence, in the same windowed
    chains as the stored Poly families (chebyshev._ChainStore).  Members
    are kept reduced, so sums of four products of them fit in int64.
    """

    def __init__(self, primes: list[int], cols: int):
        self.rows, self.cols = len(primes), cols
        self._products = list(itertools.accumulate(primes, operator.mul))
        p = np.array(primes, dtype=np.int64)[:, None]
        self.mod = (p, 1.0 / p)
        self.x = np.arange(cols, dtype=np.int64)[None, :]
        two_x = 2 * self.x
        self.families = _ChainStore(
            self._values, lambda cur, prev: _reduce(two_x * cur - prev, *self.mod))

    def _values(self, coeffs: tuple[int, ...]) -> np.ndarray:
        acc = np.zeros((self.rows, self.cols), dtype=np.int64)
        for c in reversed(coeffs):
            acc = _reduce(acc * self.x + c, *self.mod)
        return acc

    def vanishes(self, fn: Callable, n: int, bound: _Bound) -> bool:
        """True when lhs - rhs of fn at n is proven zero over the integers.

        lhs - rhs has degree <= bound.degree, so if it is zero modulo a
        prime p at the bound.degree + 1 points (distinct modulo p) it is the
        zero polynomial over Z/p; if that holds for primes whose product
        exceeds bound.norm, every integer coefficient, being a multiple of
        that product and at most bound.norm in size, is zero.
        """
        rows = bisect.bisect_right(self._products, bound.norm) + 1
        lhs, rhs = fn(_Residues(self, rows, bound.degree + 1), n)
        return (lhs - rhs).is_zero()


class _Residues(_Families):
    """Modular backend: one check's slice of the tables, as _Mod values."""

    def __init__(self, tables: _Tables, rows: int, cols: int):
        self._tables, self._rows, self._cols = tables, rows, cols
        self._mod = tuple(column[:rows] for column in tables.mod)
        self.x = _Mod(tables.x[:, :cols], tables.cols, self._mod)

    def poly(self, coeffs: tuple[int, ...]) -> _Mod:
        acc = _Mod(0, 0, self._mod) + (coeffs[-1] if coeffs else 0)
        for c in reversed(coeffs[:-1]):
            acc = acc * self.x + c
        return acc

    def member(self, family: str, k: int) -> _Mod:
        if family in _SEEDS:
            values = self._tables.families.member(family, k)
            return _Mod(values[:self._rows, :self._cols], _REDUCED_BOUND, self._mod)
        return self.defined(family, k)


def _tie(family: str, k: int) -> bool:
    """Whether stored member k of a family equals its definition.

    u, t, v and w start from their seeds and follow their recurrence; the
    derived families equal their defining formulas in u.  Linear in the
    degree.
    """
    stored = getattr(_STORED, family)
    if family not in _SEEDS:
        return stored(k) == _STORED.defined(family, k)
    k0, first, second = _SEEDS[family]
    if k < k0 + 2:
        return stored(k) == Poly(first if k == k0 else second)
    return stored(k) == _TWO_X * stored(k - 1) - stored(k - 2)


def _stored_pass(max_n: int, reads: dict[str, int]) -> tuple[bool, list[IdentityCheck]]:
    """All work on the stored Poly objects, in one upward walk of the index.

    Ties every member the battery reads (`reads` maps a family to its highest
    index) to its definition, and runs the coefficient-property checks for
    n <= max_n while their members are still cached.  The first element is
    whether every tie held: only then may the modular backend, which
    computes the definitions, stand in for the stored Poly objects.
    """
    first = {family: _SEEDS[family][0] if family in _SEEDS else 0 for family in reads}
    ties, checks = True, []
    for k in range(min(first.values(), default=0), max([max_n, *reads.values()]) + 1):
        for family, top in reads.items():
            if ties and first[family] <= k <= top:
                ties = _tie(family, k)
        if 0 <= k <= max_n:
            checks.extend(_monic_checks(k))
            checks.append(_s_root_at_one_check(k))
    return ties, checks


def _monic_checks(n: int) -> list[IdentityCheck]:
    out = []
    for name, poly in (
        ("compressed-u-monic", _STORED.u(n)),
        ("compressed-even-part-monic", _STORED.pe(n)),
        ("compressed-odd-part-monic", _STORED.po(n)),
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


def _s_root_at_one_check(n: int) -> IdentityCheck:
    s = _STORED.s(n)
    try:
        s.exact_div(_X_MINUS_ONE)
    except (ArithmeticError, ZeroDivisionError):
        return IdentityCheck("s-divisible-by-x-minus-one", n, False,
                             s.coeffs, (int(s.evaluate(1)),))
    return IdentityCheck("s-divisible-by-x-minus-one", n, True)


def identity_suite(max_n: int) -> IdentityReport:
    """The battery behind chebyshev.identity_suite.

    An identity passes on the modular backend only with a proof (see
    _Tables.vanishes), and only after _stored_pass has shown that the
    stored Poly families equal what that backend computes; everything else,
    and every failure, is decided on the stored Poly objects.
    """
    if max_n < 0:
        raise ValueError("max_n must be >= 0")
    norms = _Norms()
    plan = []
    for n in range(max_n + 1):
        for name, parity, fn in _IDENTITIES:
            if parity is None or n % 2 == parity:
                lhs, rhs = fn(norms, n)
                plan.append((name, n, fn, _Bound.of(lhs - rhs)))
    ties_hold, checked = _stored_pass(max_n, norms.reads)
    primes = _primes_above(max((bound.norm for *_, bound in plan), default=0))
    cols = max((bound.degree for *_, bound in plan), default=-1) + 1
    tables = None
    if ties_hold and cols <= primes[-1]:  # points distinct modulo every prime
        tables = _Tables(primes, cols)
    for name, n, fn, bound in plan:
        if tables is not None and tables.vanishes(fn, n, bound):
            checked.append(IdentityCheck(name, n, True))
        else:
            checked.append(_cmp(name, n, *fn(_STORED, n)))
    checked.sort(key=lambda c: (c.identity, c.n))
    return IdentityReport(max_n, checked)
