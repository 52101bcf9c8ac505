"""Certified bisection, minimal zeros, zero localization, orderings."""

import math
from fractions import Fraction

import numpy as np
import pytest

from fanqec import roots
from fanqec.chebyshev import s_poly
from fanqec.polynomial import Poly
from fanqec.roots import (
    BadBracket,
    Bracket,
    alpha,
    beta,
    bisect,
    check_elementary_inequality,
    gamma,
    zeros_of_s,
)


def min_real_root(p: Poly) -> float:
    """Independent smallest-real-root oracle via the numpy companion solver."""
    rts = np.roots(list(reversed(p.coeffs)))
    real = sorted(r.real for r in rts if abs(r.imag) < 1e-9)
    return real[0]


class TestBracket:
    def test_rejects_equal_signs(self):
        p = Poly([1, 0, 1])  # positive everywhere
        with pytest.raises(BadBracket):
            Bracket.around(p, Fraction(-1), Fraction(1))

    def test_rejects_zero_endpoint(self):
        with pytest.raises(BadBracket):
            Bracket.around(Poly([-1, 1]), Fraction(1), Fraction(2))

    def test_rejects_empty_interval(self):
        with pytest.raises(BadBracket):
            Bracket(Fraction(1), Fraction(0), -1, 1)


class TestBisect:
    def test_midpoint_hits_exact_root(self):
        p = Poly([-1, 1])
        cert = bisect(p, Bracket.around(p, Fraction(0), Fraction(2)), 1e-12)
        assert cert.value == 1.0
        assert cert.is_exact
        assert cert.simple

    def test_companion_small(self):
        p = s_poly(1)
        cert = bisect(p, Bracket.around(p, Fraction(-1), Fraction(0)), 1e-12)
        assert cert.value == -0.5
        assert cert.is_exact

    def test_width_bound(self):
        p = Poly([-2, 0, 1])  # sqrt(2)
        cert = bisect(p, Bracket.around(p, Fraction(1), Fraction(2)), 1e-10)
        assert not cert.is_exact
        assert float(cert.width) <= 1e-10
        assert abs(cert.value - math.sqrt(2)) < 1e-10

    def test_companion_theorem_bracket(self):
        # Minimal zero of S_3 isolated inside (-1, cos(3pi/4)), the bracket
        # its localization theorem provides.
        p = s_poly(3)
        hi = Fraction(math.cos(3 * math.pi / 4))
        cert = bisect(p, Bracket.around(p, Fraction(-1), hi), 1e-12)
        assert abs(cert.value - (-0.75)) <= 1e-12

    def test_certificate_brackets_root(self):
        p = s_poly(3)
        cert = gamma(3, 1e-12)
        assert p.sign_at(cert.lo) == 0 or cert.lo <= Fraction(cert.value) <= cert.hi


class TestBeta:
    def test_undefined_below_two(self):
        with pytest.raises(ValueError):
            beta(1)

    @pytest.mark.parametrize("n, expected", [
        (2, -0.5),
        (3, 0.0),
        (4, math.cos(4 * math.pi / 5)),
        (5, math.cos(4 * math.pi / 6)),
        (60, math.cos(60 * math.pi / 61)),
        (61, math.cos(60 * math.pi / 62)),
    ])
    def test_closed_form(self, n, expected):
        assert beta(n) == pytest.approx(expected, abs=1e-15)


class TestGamma:
    def test_exact_small_values(self):
        assert gamma(1).value == -0.5 and gamma(1).is_exact
        assert gamma(2).value == -0.5 and gamma(2).is_exact
        assert gamma(3).value == -0.75 and gamma(3).is_exact

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 9, 12, 25, 40])
    def test_matches_companion_solver(self, n):
        assert gamma(n, 1e-12).value == pytest.approx(min_real_root(s_poly(n)),
                                                      abs=1e-9)

    def test_odd_bracket(self):
        cert = gamma(5, 1e-12)
        assert -1.0 < cert.value < math.cos(5 * math.pi / 6)

    def test_tolerance_halving_stability(self):
        for n in (7, 10, 15):
            for tol in (1e-8, 1e-10):
                a = gamma(n, tol).value
                b = gamma(n, tol / 2).value
                assert abs(a - b) <= 2 * tol

    def test_rejects_nonpositive_index(self):
        with pytest.raises(ValueError):
            gamma(0)


class _ConstantSign:
    """Sign stub that records every query and always answers the same."""

    def __init__(self, sign: int):
        self.sign, self.queries = sign, []

    def sign_at(self, x) -> int:
        self.queries.append(Fraction(x))
        return self.sign


def _nudged_end(n: int, end: str) -> tuple[Fraction, Fraction]:
    """(base, neighbouring grid point) of one end of gamma(n)'s bracket."""
    m, odd = divmod(n, 2)
    if odd:
        grid = [Fraction(math.cos(j * math.pi / (2 * m + 2)))
                for j in (2 * m - 1, 2 * m + 1)]
        return (Fraction(-1), grid[1]) if end == "lo" else (grid[1], grid[0])
    beta_, hi, above = (Fraction(math.cos(j * math.pi / (2 * m + 1)))
                        for j in (2 * m, 2 * m - 1, 2 * m - 3))
    return (beta_, Fraction(-1)) if end == "lo" else (hi, above)


@pytest.mark.parametrize("n", [6400, 6401, 20000, 20001])
@pytest.mark.parametrize("end", ["lo", "hi"])
def test_nudges_stop_before_the_neighbouring_grid_point(monkeypatch, n, end):
    # Near -1 the grid gap falls below the 2^-20 nudge ceiling (9.9e-8 above
    # the odd bracket at n = 20001): an endpoint whose sign never verifies
    # must raise, not walk past the next zero.  The stub gives the lower end
    # its sign when the upper end is the one to fail.
    m, odd = divmod(n, 2)
    want_lo = (-1) ** m if odd else (-1) ** (m + 1)
    stub = _ConstantSign(want_lo if end == "hi" else -want_lo)
    monkeypatch.setattr(roots, "CompanionSign", lambda _: stub)
    with pytest.raises(BadBracket):
        gamma(n)
    base, neighbour = _nudged_end(n, end)
    tried = stub.queries[1:] if end == "hi" or base == -1 else stub.queries
    if base == -1:
        assert stub.queries[0] == -1
    assert len(tried) >= 10
    assert all(min(base, neighbour) < x < max(base, neighbour) for x in tried)


class TestAlpha:
    def test_known_values(self):
        assert alpha(0) == 1.0
        assert alpha(1) == -0.5
        assert alpha(2) == -0.5

    def test_even_is_even_part_zero(self):
        for n in (4, 6, 10, 24):
            assert alpha(n) == beta(n)

    def test_odd_is_companion_zero(self):
        for n in (3, 7, 15):
            assert alpha(n) == gamma(n).value

    def test_strictly_decreasing_above_two(self):
        values = [alpha(n) for n in range(2, 61)]
        for a, b in zip(values, values[1:]):
            assert -1.0 < b < a


class TestZerosOfS:
    def test_degenerate(self):
        certs = zeros_of_s(0)
        assert [c.value for c in certs] == [1.0]
        assert certs[0].is_exact

    def test_first_companion(self):
        certs = zeros_of_s(1)
        assert [c.value for c in certs] == [-0.5, 1.0]
        assert all(c.is_exact for c in certs)

    def test_index_three_all_rational(self):
        # S_3 = 2(4x+3)(2x+1)(x-1): every zero is rational and found exactly.
        certs = zeros_of_s(3)
        assert [c.value for c in certs] == [-0.75, -0.5, 1.0]
        assert all(c.is_exact and c.simple for c in certs)

    def test_count_equals_degree(self):
        for n in range(0, 41):
            assert len(zeros_of_s(n, 1e-9)) == s_poly(n).degree

    def test_index_four_brackets(self):
        certs = zeros_of_s(4, 1e-12)
        assert len(certs) == 3
        xi = [math.cos(math.pi / 5), math.cos(3 * math.pi / 5)]
        assert -1.0 < certs[0].value < xi[1]
        assert xi[1] < certs[1].value < xi[0]
        assert certs[2].value == 1.0

    @pytest.mark.parametrize("n", range(2, 17))
    def test_matches_companion_solver(self, n):
        got = [c.value for c in zeros_of_s(n, 1e-12)]
        rts = np.roots(list(reversed(s_poly(n).coeffs)))
        expected = sorted(r.real for r in rts if abs(r.imag) < 1e-9)
        assert len(got) == len(expected)
        for g, e in zip(got, expected):
            assert g == pytest.approx(e, abs=1e-9)

    def test_all_simple_and_sorted(self):
        for n in range(0, 31):
            certs = zeros_of_s(n, 1e-9)
            values = [c.value for c in certs]
            assert values == sorted(values)
            assert all(c.simple for c in certs)


class TestOrderings:
    def test_comparison_up_to_sixty(self):
        for m in range(2, 31):
            n = 2 * m
            assert -1.0 < beta(n) < gamma(n).value < math.cos(
                (2 * m - 1) * math.pi / (2 * m + 1))
        for m in range(1, 30):
            n = 2 * m + 1
            assert -1.0 < gamma(n).value < math.cos(
                (2 * m + 1) * math.pi / (2 * m + 2)) < beta(n)

    def test_interleaving_up_to_sixty(self):
        for n in range(3, 60, 2):
            assert beta(n + 1) < gamma(n).value < beta(n - 1)


class TestElementaryInequality:
    def test_holds_on_fine_grid(self):
        assert check_elementary_inequality(1000)

    def test_equality_at_endpoints(self):
        assert abs((1 - 0) / (1 + 0) - math.cos(0)) == 0
        third = 1.0 / 3.0
        assert abs((1 - third) / (1 + third) - math.cos(math.pi * third)) < 1e-12

    def test_strict_in_interior(self):
        x = 1.0 / 6.0
        assert (1 - x) / (1 + x) < math.cos(math.pi * x)

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            check_elementary_inequality(1)
