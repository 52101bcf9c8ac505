"""The exact identity battery over the Chebyshev-type families.

``identity_suite`` runs 31 named checks: 27 identities and 4 coefficient
properties, at every index n up to a bound, each coefficient-exactly over
the integers.  Each identity is written once, as lhs and rhs over a family
accessor, and runs on two backends: the stored Poly objects, and order
bounds (``_Orders``) on an index object that stands for every n of one
parity class n = 2j + r at once.

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
their definitions: every stored member the battery reads, up to the larger
of max_n and the top base index, is checked, in linear time, against its
recurrence or formula, and if one tie fails nothing is proven.  An identity
without a proof, whether it has no bound, a failing base check or a
failing tie, is decided at every n on Poly, which also gives a failure its
two coefficient vectors.  The compress/monic and S_n divisible by x - 1
checks are coefficient properties and always run on Poly.

Every stored family is read through ``chebyshev._STORED``, which looks its
builder up when it is used, so a builder replaced there is what the battery
checks.  While the walk that ties the members runs, ``_STORED`` records in
the walking thread the last formula result of each derived family, so the
tie of a derived member reads the evaluation its builder already made
rather than evaluating the formula a second time.

The ties split into two walks that share nothing but cheb_u's cache: a
U, T, V or W member is built from its own coefficient formula and tied
through its own family's last two members, and a pe, po, s or phi member
through its formula in U.  From max_n = _FORK_FROM on, the measured
crossover, and where this process may run on two CPUs, a forked worker
walks the derived families, in its own record and with its own cache,
while the calling process walks the four kinds; otherwise one walk does
both.  The report is the same either way.
"""

from __future__ import annotations

import collections
import functools
import operator
import os
import pickle
import signal
import sys
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

    It adds and subtracts ints and indices, multiplies by ints, and divides
    by an int d that divides a (//, % and divmod, the remainder b % d being
    the same at every j).  Comparisons, bool and hash raise, so a formula
    that branches on the index cannot run on one.
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

    __radd__ = __add__

    def __neg__(self) -> _Index:
        return _Index(-self.a, -self.b)

    def __sub__(self, other: _Index | int) -> _Index:
        return self + -_Index.of(other)

    def __rsub__(self, other: int) -> _Index:
        return -self + other

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

    def __mod__(self, d: int) -> int:
        return divmod(self, d)[1]

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

    __radd__ = __sub__ = __rsub__ = __add__

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
    """Order-bound backend: _Terms values, and every member read, as (family, index).

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
        k = _Index.of(k)
        self.reads.append((family, k))
        if family in _SEEDS:
            return _Terms({k.a: 0, -k.a: 0})
        return self.defined(family, k)


def _order(fn: Callable, parity: int) -> tuple[int | None, list[tuple[str, _Index]]]:
    """(B, reads) of fn on the class n = 2j + parity; B is None without a bound.

    B bounds the order of lhs - rhs as a sequence in j, and reads lists the
    family members fn reads.  An exception while fn runs on the index means
    that fn is not one expression in j, and it gets no bound.
    """
    orders = _Orders()
    try:
        lhs, rhs = fn(orders, _Index(2, parity))
        return _Terms.of(lhs - rhs).order(), orders.reads
    except Exception:  # whatever it was, the Poly battery meets it again
        return None, []


def _tie(family: str, k: int, member: Poly, below: Sequence[Poly]) -> bool:
    """Whether member k of a family, as stored, equals its definition.

    u, t, v and w start from their seeds and follow their recurrence from
    `below`, the stored members k-2 and k-1: member k must have the
    coefficients of 2 (0, *below[1]) - below[0], all three padded with
    zeros to one length and compared in one map pass.  The derived families
    equal their defining formulas in u.  Linear in the degree.

    The formula's value comes from _STORED.defined.  While the pass
    records, that returns the value it computed when the builder asked for
    this same (family, k), rather than computing it again.  The record
    holds only genuine evaluations, so a builder that changed the value it
    got still fails, and one that never evaluated the formula at k, or only
    at another index, misses the record and meets a fresh evaluation.
    """
    if family not in _SEEDS:
        return member == _STORED.defined(family, k)
    k0, first, second = _SEEDS[family]
    if k < k0 + 2:
        return member.coeffs == (first if k == k0 else second)
    tuples = (member.coeffs, below[0].coeffs, (0, *below[1].coeffs))
    size = max(map(len, tuples))
    coeffs, lower, upper = (c + (0,) * (size - len(c)) for c in tuples)
    return coeffs == tuple(map(operator.sub, map(operator.add, upper, upper), lower))


def _compressed_monic(name: str, n: int, poly: Poly) -> IdentityCheck:
    """poly compresses (compress) to a monic polynomial."""
    try:
        c = compress(poly)
    except NotIntegral:
        return IdentityCheck(name, n, False, poly.coeffs, ())
    if c.leading == 1:
        return IdentityCheck(name, n, True)
    expected = c.coeffs[:-1] + (1,) if c.coeffs else (1,)
    return IdentityCheck(name, n, False, c.coeffs, expected)


def _divisible_by_x_minus_one(name: str, n: int, s: Poly) -> IdentityCheck:
    """x - 1 divides s: it is monic, so it does over the integers iff s(1) = 0."""
    at_one = sum(s.coeffs)
    if at_one:
        return IdentityCheck(name, n, False, s.coeffs, (at_one,))
    return IdentityCheck(name, n, True)


# The coefficient-property check of each family that has one, run on every
# member n <= max_n as the walk fetches it.
_COEFFICIENT_CHECKS = {
    "u": functools.partial(_compressed_monic, "compressed-u-monic"),
    "pe": functools.partial(_compressed_monic, "compressed-even-part-monic"),
    "po": functools.partial(_compressed_monic, "compressed-odd-part-monic"),
    "s": functools.partial(_divisible_by_x_minus_one, "s-divisible-by-x-minus-one"),
}


def _walk(max_n: int, reads: dict[str, int]) -> tuple[bool, list[IdentityCheck]]:
    """Tie and check the families `reads` names, in one upward walk by steps k.

    Step k fetches members 2k and 2k + 1 of pe, po and s and member k of
    every other family, each that `reads` asks for (it maps a family to its
    highest index) once from its builder, family by family in the order of
    `reads`.  Each member is tied to its definition until a tie fails, and
    for n <= max_n handed to its family's coefficient check.  The first
    element is whether every tie held.
    """
    walks = []
    for family, top in reads.items():
        # Member n of pe, po and s reads U near n/2, member k of u and phi U
        # near k.  So step k reads only U_{k-1}, U_k and U_{k+1}, and each U
        # member is built once, while cheb_u's cache holds it.
        pace = 2 if family in ("pe", "po", "s") else 1
        first = _SEEDS[family][0] if family in _SEEDS else 0
        below = collections.deque(maxlen=2)  # the members n-2 and n-1
        walks.append((family, pace, first, top, getattr(_STORED, family),
                      _COEFFICIENT_CHECKS.get(family), below))
    ties, checks = True, []
    with _STORED.recording():
        for k in range(min(first // pace for _, pace, first, *_ in walks),
                       max(top // pace for _, pace, _, top, *_ in walks) + 1):
            for family, pace, first, top, fetch, check, below in walks:
                for n in range(pace * k, pace * (k + 1)):
                    if first <= n <= top:
                        member = fetch(n)
                        ties = ties and _tie(family, n, member, below)
                        below.append(member)
                        if check and 0 <= n <= max_n:
                            checks.append(check(n, member))
    return ties, checks


# From max_n = _FORK_FROM on, _stored_pass walks the four kinds and the
# derived families in two processes.  Measured for identity_suite(max_n)
# in-process on a 2-core VM (Python 3.11.7, numpy loaded), medians of 40
# alternating runs, one process against two: 21 against 27 ms at max_n =
# 40, 37 against 40 ms at 80, 49 against 44 ms at 100, 62 against 53 ms at
# 120, 129 against 94 ms at 200 and 267 against 185 ms at 300.  Forking,
# the pipe and the reaping cost about 5 ms, and the crossover lies between
# 80 and 100.  At 300 the four-kind walk alone took 96 ms and the derived
# one 84 ms (fastest of 9).
_FORK_FROM = 100

# The worker sends each check as its fields: a list of IdentityCheck
# pickles about five times slower.
_CHECK_FIELDS = operator.attrgetter("identity", "n", "passed", "lhs", "rhs")


def _forks(max_n: int) -> bool:
    """Whether _stored_pass at max_n walks in two processes.

    Only from _FORK_FROM on, with os.fork and at least two CPUs this process
    may run on.  From Python 3.12 on, fork warns (DeprecationWarning) in a
    process with more than one thread, as numpy's import makes it, so there
    it forks only from a single-threaded process.
    """
    if max_n < _FORK_FROM or not hasattr(os, "fork"):
        return False
    if not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2:
        return False
    if sys.version_info < (3, 12):
        return True
    try:
        return len(os.listdir("/proc/self/task")) == 1
    except OSError:
        return False


def _stored_pass(max_n: int, reads: dict[str, int]) -> tuple[bool, list[IdentityCheck]]:
    """_walk over every family `reads` names, in one process or in two.

    `reads` maps a family to its highest index; u, pe, po and s reach max_n
    at least.  The first element is whether every tie held: only then are
    the stored Poly objects the families whose order bounds _order
    computes.

    Where _forks says so, a forked worker walks pe, po, s and phi, in its
    own recording, while this process walks u, t, v and w.  The worker
    sends its (ties, checks), or the exception it met, through a pipe and
    leaves through os._exit.  A fork, not a fresh interpreter, so that a
    builder replaced in this process is what the worker checks.  The worker
    is killed and reaped before this returns or raises, and its exception
    is raised here.  identity_suite sorts the checks, so their order does
    not matter.  Where no process can be forked, one walk does it all.
    """
    if not _forks(max_n):
        return _walk(max_n, reads)
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        return _walk(max_n, reads)
    if not pid:
        try:
            os.close(read_fd)
            try:
                ties, checks = _walk(max_n, {f: top for f, top in reads.items()
                                             if f not in _SEEDS})
                result = True, (ties, list(map(_CHECK_FIELDS, checks)))
            except BaseException as exc:
                result = False, exc
            with open(write_fd, "wb") as pipe:
                pickle.dump(result, pipe)
        finally:
            os._exit(0)
    os.close(write_fd)
    with open(read_fd, "rb") as pipe:
        try:
            ties, checks = _walk(max_n, {f: top for f, top in reads.items() if f in _SEEDS})
            try:
                walked, result = pickle.load(pipe)
            except EOFError:
                raise RuntimeError("the worker walking the derived families "
                                   "ended without a result") from None
        finally:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    if not walked:
        raise result
    worker_ties, fields = result
    return ties and worker_ties, checks + [IdentityCheck(*f) for f in fields]


def identity_suite(max_n: int) -> IdentityReport:
    """The battery behind chebyshev.identity_suite.

    An identity passes without Poly arithmetic only on its parity classes
    with a bound (_order) whose base checks pass on the stored Poly objects,
    and only after _stored_pass has tied those objects to their
    definitions; everything else, and every failure, is decided on Poly.
    Base checks above max_n are not reported, but they run whatever max_n
    is, so the report's proven identities are the same at every max_n for
    a sound build.
    """
    if max_n < 0:
        raise ValueError("max_n must be >= 0")
    plan = [(name, r, fn, _order(fn, r)) for name, parity, fn in _IDENTITIES
            for r in ((0, 1) if parity is None else (parity,))]
    top_n = max([max_n] + [r + 2 * order - 2 for _, r, _, (order, _) in plan if order])
    # The coefficient checks read u, pe, po and s at every n <= max_n.
    reads = dict.fromkeys(("u", "pe", "po", "s"), max_n)
    for _, r, _, (_, class_reads) in plan:
        j = (top_n - r) // 2
        for family, k in class_reads:
            reads[family] = max(reads.get(family, k.b), k.b, k.a * j + k.b)
    ties_hold, checked = _stored_pass(max_n, reads)
    unproven = set()
    for name, r, fn, (order, _) in plan:
        indices = range(r, max_n + 1, 2)
        if ties_hold and order and all(_cmp(name, n, *fn(_STORED, n)).passed
                                       for n in range(r, r + 2 * order, 2)):
            checked.extend(IdentityCheck(name, n, True) for n in indices)
        else:
            unproven.add(name)
            checked.extend(_cmp(name, n, *fn(_STORED, n)) for n in indices)
    checked.sort(key=lambda c: (c.identity, c.n))
    proven = tuple(sorted({name for name, *_ in plan} - unproven))
    return IdentityReport(max_n, checked, proven)
