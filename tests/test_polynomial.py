"""Exact polynomial arithmetic: examples, ring laws, division, evaluation."""

import math
import random
from fractions import Fraction

import pytest

from fanqec.polynomial import ONE, ZERO, NotDivisible, Poly
from fanqec.chebyshev import cheb_u, partial_e, phi, s_poly


def ref_mul(a: Poly, b: Poly) -> Poly:
    """Independent reference product via a coefficient dictionary."""
    acc: dict[int, int] = {}
    for i, ai in enumerate(a.coeffs):
        for j, bj in enumerate(b.coeffs):
            acc[i + j] = acc.get(i + j, 0) + ai * bj
    if not acc:
        return Poly()
    out = [0] * (max(acc) + 1)
    for k, v in acc.items():
        out[k] = v
    return Poly(out)


def random_poly(rng: random.Random, max_degree: int = 8) -> Poly:
    degree = rng.randint(-1, max_degree)  # -1 gives the zero polynomial
    return Poly([rng.randint(-9, 9) for _ in range(degree + 1)])


class TestConstruction:
    def test_trailing_zeros_stripped(self):
        assert Poly([1, 2, 0, 0]).coeffs == (1, 2)

    def test_zero_polynomial(self):
        assert Poly([0, 0]).coeffs == ()
        assert Poly().degree == -1
        assert Poly().is_zero()

    def test_leading(self):
        assert Poly([-1, 0, 4]).leading == 4
        assert ZERO.leading == 0

    def test_text_form_is_ascending_list(self):
        assert str(Poly([-1, 0, 4])) == "[-1, 0, 4]"


class TestAddition:
    def test_cancellation(self):
        assert Poly([1, 2]) + Poly([0, -2]) == ONE

    def test_identity(self):
        p = Poly([3, 0, -1])
        assert ZERO + p == p

    def test_hand_sum(self):
        assert Poly([1, 2]) + Poly([-1, 2]) == Poly([0, 4])


class TestSubtraction:
    @pytest.mark.parametrize("a, b, diff", [
        ((1, 2, 3), (1,), (0, 2, 3)),
        ((1,), (1, 2, 3), (0, -2, -3)),
        ((0, 0, 5), (1, 2, 5), (-1, -2)),
        ((), (4, 0, 1), (-4, 0, -1)),
    ])
    def test_unequal_lengths_both_orders(self, a, b, diff):
        assert Poly(a) - Poly(b) == Poly(diff)
        assert Poly(b) - Poly(a) == Poly(tuple(-c for c in diff))

    def test_integer_operands(self):
        assert Poly([1, 2]) - 3 == Poly([-2, 2])
        assert 3 - Poly([1, 2]) == Poly([2, -2])
        assert 0 - ZERO == ZERO
        assert 5 - ZERO == Poly([5])

    def test_matches_negated_sum(self):
        rng = random.Random(31415)
        for _ in range(150):
            a, b = random_poly(rng), random_poly(rng)
            assert a - b == a + (-b)
            assert (a - b) + b == a


class TestMultiplication:
    def test_difference_of_squares(self):
        assert Poly([-1, 1]) * Poly([1, 1]) == Poly([-1, 0, 1])

    def test_zero_annihilates(self):
        assert Poly([1, 2, 3]) * ZERO == ZERO

    def test_matches_second_kind_member(self):
        # (2x+1)(2x-1) = 4x^2 - 1 is also the n=2 second-kind polynomial.
        assert Poly([1, 2]) * Poly([-1, 2]) == cheb_u(2)

    def test_scalar(self):
        assert 3 * Poly([1, -1]) == Poly([3, -3])


class TestExactDivision:
    def test_linear_factor(self):
        assert Poly([-1, 0, 1]).exact_div(Poly([-1, 1])) == Poly([1, 1])

    def test_companion_by_linear(self):
        # S_1 = 2(2x+1)(x-1), so dividing out (x-1) leaves 4x+2.
        assert s_poly(1).exact_div(Poly([-1, 1])) == Poly([2, 4])

    def test_phi_quotient_is_companion(self):
        divisor = Poly([-1, 1]) * partial_e(2)
        assert phi(2).exact_div(divisor) == s_poly(2)

    def test_not_divisible(self):
        with pytest.raises(NotDivisible):
            Poly([1, 0, 1]).exact_div(Poly([-1, 1]))

    def test_not_divisible_leading(self):
        with pytest.raises(NotDivisible):
            Poly([0, 3]).exact_div(Poly([0, 2]))

    def test_zero_divisor(self):
        with pytest.raises(ZeroDivisionError):
            ONE.exact_div(ZERO)


class TestEvaluation:
    def test_rational_zero(self):
        assert Poly([-1, 1]).evaluate(1) == 0

    def test_companion_rational_zero(self):
        assert s_poly(1).evaluate(Fraction(-1, 2)) == 0

    def test_second_kind_rational_zero(self):
        assert cheb_u(2).evaluate(Fraction(1, 2)) == 0

    def test_rational_value(self):
        assert Poly([1, 1]).evaluate(Fraction(1, 3)) == Fraction(4, 3)

    def test_float_square(self):
        assert Poly([0, 0, 1]).evaluate_float(3.0) == 9.0

    def test_float_zero_of_quartic(self):
        assert abs(cheb_u(4).evaluate_float(math.cos(math.pi / 5))) < 1e-12

    def test_float_zero_poly(self):
        assert ZERO.evaluate_float(7.0) == 0.0

    def test_sign_at_matches_evaluate(self):
        rng = random.Random(20240601)
        for _ in range(200):
            p = random_poly(rng)
            x = Fraction(rng.randint(-30, 30), rng.randint(1, 30))
            value = p.evaluate(x)
            assert p.sign_at(x) == (value > 0) - (value < 0)


class TestRingLaws:
    def test_laws_on_random_samples(self):
        rng = random.Random(987654)
        for _ in range(150):
            a, b, c = (random_poly(rng) for _ in range(3))
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c

    def test_mul_matches_reference(self):
        rng = random.Random(13579)
        for _ in range(150):
            a, b = random_poly(rng), random_poly(rng)
            assert a * b == ref_mul(a, b)

    def test_degree_of_product(self):
        rng = random.Random(2468)
        for _ in range(100):
            a, b = random_poly(rng), random_poly(rng)
            if a.is_zero() or b.is_zero():
                assert (a * b).is_zero()
            else:
                assert (a * b).degree == a.degree + b.degree

    def test_exact_div_inverts_mul(self):
        rng = random.Random(112358)
        for _ in range(150):
            a, b = random_poly(rng), random_poly(rng)
            if b.is_zero():
                continue
            assert (a * b).exact_div(b) == a
