"""Dense univariate polynomials with exact integer coefficients.

Coefficients are stored ascending by degree, so ``Poly([-1, 0, 4])`` is
``4x^2 - 1``.  Python integers are arbitrary precision, which keeps every
operation exact at any degree and coefficient size reached here (degrees in
the hundreds, coefficients far past 2**600).  Rational evaluation points use
``fractions.Fraction``; sign queries at rationals go through an integer-only
Horner scheme so that no gcd reduction happens in hot loops.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction
from operator import add, neg, sub
from typing import Iterable


class NotDivisible(ArithmeticError):
    """Exact division was requested but the divisor does not divide the dividend."""


@dataclasses.dataclass(init=False, frozen=True)
class Poly:
    """Polynomial over the integers, dense ascending coefficient tuple.

    The zero polynomial is the empty tuple and has degree -1.  Trailing zero
    coefficients are stripped on construction, so equal polynomials compare
    equal structurally.
    """

    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Iterable[int] = ()):
        # A tuple is kept as it is, up to its trailing zeros; the ring
        # operations build theirs with map and hand them over here.
        cs = tuple(coeffs)
        end = len(cs)
        while end and cs[end - 1] == 0:
            end -= 1
        object.__setattr__(self, "coeffs", cs[:end])

    # -- basic queries ------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> int:
        """Leading coefficient; 0 for the zero polynomial."""
        return self.coeffs[-1] if self.coeffs else 0

    def __str__(self) -> str:
        return str(list(self.coeffs))

    def __repr__(self) -> str:
        return f"Poly({list(self.coeffs)})"

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: Poly | int) -> Poly:
        if isinstance(other, int):
            other = Poly((other,))
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return Poly((*map(add, a, b), *a[len(b):]))

    __radd__ = __add__

    def __neg__(self) -> Poly:
        return Poly(tuple(map(neg, self.coeffs)))

    def __sub__(self, other: Poly | int) -> Poly:
        if isinstance(other, int):
            other = Poly((other,))
        a, b = self.coeffs, other.coeffs
        return Poly((*map(sub, a, b), *a[len(b):], *map(neg, b[len(a):])))

    def __rsub__(self, other: int) -> Poly:
        return -self + other

    def __mul__(self, other: Poly | int) -> Poly:
        if isinstance(other, int):
            return Poly(tuple(c * other for c in self.coeffs))
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly()
        if len(a) > len(b):
            a, b = b, a
        # The Chebyshev families are half zeros: skip them in both operands.
        b_terms = [(j, bj) for j, bj in enumerate(b) if bj]
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in b_terms:
                    out[i + j] += ai * bj
        return Poly(out)

    __rmul__ = __mul__

    def exact_div(self, divisor: Poly) -> Poly:
        """Quotient q with q * divisor == self, exactly over the integers.

        Raises NotDivisible when no such integer quotient exists.
        """
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return Poly()
        da, db = self.degree, divisor.degree
        if da < db:
            raise NotDivisible(f"degree {da} < degree {db}")
        rem = list(self.coeffs)
        lead = divisor.coeffs[-1]
        quot = [0] * (da - db + 1)
        for k in range(da - db, -1, -1):
            top = rem[k + db]
            if top == 0:
                continue
            if top % lead:
                raise NotDivisible(f"leading coefficient {top} not divisible by {lead}")
            t = top // lead
            quot[k] = t
            for j, bj in enumerate(divisor.coeffs):
                rem[k + j] -= t * bj
        if any(rem):
            raise NotDivisible("nonzero remainder")
        return Poly(quot)

    # -- evaluation ---------------------------------------------------------

    def _horner(self, x: Fraction | int) -> tuple[int, int]:
        """(q^d * self(x), q) for x = p/q in lowest terms and d the degree."""
        xf = Fraction(x)
        num, den = xf.numerator, xf.denominator
        if not self.coeffs:
            return 0, den
        acc = self.coeffs[-1]
        bpow = 1
        for c in reversed(self.coeffs[:-1]):
            bpow *= den
            acc = acc * num + c * bpow
        return acc, den

    def evaluate(self, x: Fraction | int) -> Fraction:
        """Exact value at a rational point."""
        acc, den = self._horner(x)
        return Fraction(acc, den ** max(self.degree, 0))

    def sign_at(self, x: Fraction | int) -> int:
        """Exact sign (-1, 0, +1) at a rational point, integer arithmetic only."""
        acc, _ = self._horner(x)
        return (acc > 0) - (acc < 0)

    def evaluate_float(self, x: float) -> float:
        """The exact value at a finite double x, rounded to a double.

        No cancellation of huge coefficients, but O(degree) big-integer
        steps; the root search proposes floats with chebyshev.s_value.
        """
        return float(self.evaluate(x))


X = Poly((0, 1))
