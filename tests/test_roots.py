"""Certified bisection, minimal zeros, zero localization, orderings."""

import math
from fractions import Fraction

import numpy as np
import pytest

from fanqec import chebyshev, roots
from fanqec.chebyshev import (
    identity_suite,
    partial_e,
    partial_o,
    s_poly,
    s_value,
    split_signs,
)
from fanqec.polynomial import Poly
from fanqec.qec import qec_fan
from fanqec.roots import (
    BadBracket,
    Bracket,
    beta,
    bisect,
    gamma,
    root_report,
    zeros_of_s,
)


def min_real_root(p: Poly) -> float:
    """Independent smallest-real-root oracle via the numpy companion solver."""
    rts = np.roots(list(reversed(p.coeffs)))
    real = sorted(r.real for r in rts if abs(r.imag) < 1e-9)
    return real[0]


def _around(p: Poly, lo: Fraction, hi: Fraction) -> Bracket:
    """Bracket [lo, hi] with the exact signs of p at its ends."""
    return Bracket(lo, hi, p.sign_at(lo), p.sign_at(hi))


class TestBracket:
    def test_rejects_equal_signs(self):
        with pytest.raises(BadBracket, match="equal signs"):
            Bracket(Fraction(-1), Fraction(1), 1, 1)

    def test_rejects_zero_endpoint(self):
        with pytest.raises(BadBracket, match="must be -1 or \\+1"):
            Bracket(Fraction(1), Fraction(2), 0, 1)

    def test_rejects_empty_interval(self):
        with pytest.raises(BadBracket):
            Bracket(Fraction(1), Fraction(0), -1, 1)


class TestBisect:
    def test_midpoint_hits_exact_root(self):
        p = Poly([-1, 1])
        cert = bisect(p.sign_at, _around(p, Fraction(0), Fraction(2)), 1e-12)
        assert cert.value == 1.0
        assert cert.lo == cert.hi
        assert cert.simple

    def test_companion_small(self):
        p = s_poly(1)
        cert = bisect(p.sign_at, _around(p, Fraction(-1), Fraction(0)), 1e-12)
        assert cert.value == -0.5
        assert cert.lo == cert.hi

    def test_width_bound(self):
        p = Poly([-2, 0, 1])  # sqrt(2)
        cert = bisect(p.sign_at, _around(p, Fraction(1), Fraction(2)), 1e-10)
        assert cert.lo < cert.hi
        assert float(cert.hi - cert.lo) <= 1e-10
        assert abs(cert.value - math.sqrt(2)) < 1e-10

    def test_companion_theorem_bracket(self):
        # Minimal zero of S_3 isolated inside (-1, cos(3pi/4)), the bracket
        # its localization theorem provides.
        p = s_poly(3)
        hi = Fraction(math.cos(3 * math.pi / 4))
        cert = bisect(p.sign_at, _around(p, Fraction(-1), hi), 1e-12)
        assert abs(cert.value - (-0.75)) <= 1e-12

    def test_certificate_brackets_root(self):
        p = s_poly(3)
        cert = gamma(3, 1e-12)
        assert p.sign_at(cert.lo) == 0 or cert.lo <= Fraction(cert.value) <= cert.hi


def _no_sign(x: Fraction) -> int:
    raise AssertionError(f"sign asked at {x}")


# Each bad tol is refused with ValueError before any exact sign is asked:
# neither split_signs nor bisect's sign function is called.
@pytest.mark.parametrize("tol", [math.inf, -math.inf, math.nan, 0.0, -1.0],
                         ids=["inf", "-inf", "nan", "0", "-1"])
@pytest.mark.parametrize("call", [
    lambda tol: bisect(_no_sign, Bracket(Fraction(0), Fraction(1), -1, 1), tol),
    lambda tol: gamma(5, tol),
    lambda tol: gamma(1, tol),
    lambda tol: zeros_of_s(5, tol),
    lambda tol: qec_fan(5, tol=tol),
], ids=["bisect", "gamma-5", "gamma-1", "zeros_of_s", "qec_fan"])
def test_bad_tol_is_refused_before_any_sign_query(split_sign_calls, call, tol):
    with pytest.raises(ValueError, match="^tol must be a positive finite number"):
        call(tol)
    assert split_sign_calls == []


class TestBeta:
    def test_undefined_below_two(self):
        with pytest.raises(ValueError):
            beta(1)

    @pytest.mark.parametrize("n, expected", [
        (2, -0.5),
        (3, 0.0),
        (4, math.cos(4 * math.pi / 5)),
        (5, math.cos(4 * math.pi / 6)),
        (6, math.cos(6 * math.pi / 7)),
        (7, -math.sqrt(2) / 2),
        (60, math.cos(60 * math.pi / 61)),
        (61, math.cos(60 * math.pi / 62)),
    ])
    def test_closed_form(self, n, expected):
        assert beta(n) == pytest.approx(expected, abs=1e-15)

    @pytest.mark.parametrize("n, zero", [(2, -0.5), (3, 0.0), (5, -0.5)])
    def test_rational_zeros_are_exact(self, n, zero):
        # The even-zero factor's rational zeros are found by exact sign 0
        # strictly inside its bracket, not rounded from the grid point.
        assert beta(n) == zero
        bracket = roots._beta_bracket(n)
        assert bracket.lo < Fraction(zero) < bracket.hi

    def test_is_certified_by_its_bracket(self, monkeypatch):
        # A grid shifted by one index leaves the even-factor bracket without
        # verified ends.
        real = roots._grid_point
        monkeypatch.setattr(roots, "_grid_point", lambda j, den: real(j + 1, den))
        with pytest.raises(BadBracket):
            beta(8)


class TestGamma:
    def test_exact_small_values(self):
        for n, zero in ((1, -0.5), (2, -0.5), (3, -0.75)):
            cert = gamma(n)
            assert cert.value == zero and cert.lo == cert.hi

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

    def test_is_the_lowest_zero_of_zeros_of_s(self):
        # Both narrow the lowest bracket of one list, so the certificates
        # are equal, at even n too.
        for n in range(1, 121):
            assert gamma(n) == zeros_of_s(n)[0], n

    def test_verifies_only_the_lowest_brackets_ends(self, monkeypatch):
        # At n = 10^6 + 1 there are 500001 brackets: gamma asks for the two
        # ends of the lowest one and no other.
        real, ends = roots._verified_endpoint, []

        def counted(n, j, side, part, want):
            ends.append(j)
            return real(n, j, side, part, want)

        monkeypatch.setattr(roots, "_verified_endpoint", counted)
        gamma(10 ** 6 + 1)
        assert ends == [10 ** 6 + 2, 10 ** 6 + 1]


def gap_signs(i: int) -> tuple[int, int]:
    """Signs of (partial_e, partial_o) on gap i, below i grid points: each
    point below the first flips the one factor that vanishes there."""
    return (-1) ** (i // 2), (-1) ** ((i + 1) // 2)


class _ConstantSigns:
    """split_signs stub that records every point asked and always answers
    the same signs of (S_n, partial_e, partial_o)."""

    def __init__(self, signs: tuple[int, int, int]):
        self.signs, self.queries = signs, []

    def __call__(self, n, x) -> tuple[int, int, int]:
        self.queries.append(Fraction(x))
        return self.signs


def _nudged_end(n: int, end: str) -> tuple[Fraction, Fraction]:
    """(base, neighbouring grid point) of one end of gamma(n)'s bracket.

    The bracket runs from -1 to just above the lowest zero g_top of
    partial_o(n); the next one up is g_(top-2)."""
    top = 2 * ((n + 1) // 2) - 1
    low, above = (Fraction(math.cos(j * math.pi / (n + 1))) for j in (top, top - 2))
    return (Fraction(-1), low) if end == "lo" else (low, above)


@pytest.mark.parametrize("n", [6400, 6401, 20000, 20001])
@pytest.mark.parametrize("end", ["lo", "hi"])
def test_nudges_stop_before_the_neighbouring_grid_point(monkeypatch, n, end):
    # Near -1 the grid gap falls below 2^-20 (9.9e-8 above the odd bracket
    # at n = 20001): an endpoint whose signs never verify must raise, not
    # walk past the next zero.  The stub answers the signs of the other end,
    # in gap n (the lower end, -1) or in gap n - 1 or n - 2 (the upper end),
    # so the lower end verifies at once or is walked up from -1.
    m, odd = divmod(n, 2)
    want_lo = (-1) ** m if odd else (-1) ** (m + 1)
    lower, upper = (want_lo, *gap_signs(n)), (-want_lo, *gap_signs(n - 2 + odd))
    stub = _ConstantSigns(lower if end == "hi" else upper)
    monkeypatch.setattr(roots, "split_signs", stub)
    with pytest.raises(BadBracket):
        gamma(n)
    base, neighbour = _nudged_end(n, end)
    assert stub.queries[0] == -1
    tried = stub.queries[1:]
    assert len(tried) >= 10
    assert all(min(base, neighbour) < x < max(base, neighbour) for x in tried)


@pytest.mark.parametrize("n", [6400, 6401, 20000, 20001])
def test_beta_probe_stays_between_minus_one_and_the_neighbouring_grid_point(
        monkeypatch, n):
    # At n = 20000, 2^-20 is ten times the gap to the next even-factor zero
    # (9.9e-8): signs that never change must raise, and no probe may pass -1
    # or the grid point above the minimal zero.  The stub answers the signs
    # of the lower end, in gap 2m with partial_e(n) = (-1)^m = 1.
    stub = _ConstantSigns((1, *gap_signs(2 * (n // 2))))
    monkeypatch.setattr(roots, "split_signs", stub)
    with pytest.raises(BadBracket):
        beta(n)
    neighbour = Fraction(math.cos((2 * (n // 2) - 1) * math.pi / (n + 1)))
    assert len(stub.queries) >= 10
    assert all(-1 < x < neighbour for x in stub.queries)


def test_split_factor_signs_follow_the_gap_pattern():
    # At the midpoint of every gap, for n <= 80, the exact signs of
    # partial_e(n) and partial_o(n), from split_signs and from their
    # coefficient vectors, are those of gap_signs.
    for n in range(0, 81):
        den = n + 1
        grid = [Fraction(math.cos(j * math.pi / den)) for j in range(den)]
        grid.append(Fraction(-1))
        even, odd = partial_e(n), partial_o(n)
        for i in range(den):
            x = (grid[i] + grid[i + 1]) / 2
            coefficient_signs = (even.sign_at(x), odd.sign_at(x))
            assert split_signs(n, x)[1:] == gap_signs(i) == coefficient_signs, (n, i)


@pytest.mark.parametrize("n", [6401, 20001, 100001, 10 ** 6 + 1, 24 * 10 ** 5 + 1,
                               20000, 10 ** 6])
def test_large_bracket_ends_lie_in_their_gaps(split_sign_calls, n):
    # From n = 1448 on, 2/(n+1)^2 < 2^-20 caps the nudge, below every gap.
    # Each end of gamma's and beta's brackets has the exact split-factor signs
    # of the gap it names, and no probe lies further than that cap from the
    # rounded grid point (or -1) it starts from.
    m, odd = divmod(n, 2)
    den = n + 1
    gamma_, beta_ = next(roots._s_brackets(n)), roots._beta_bracket(n)
    probes = [x for _, x in split_sign_calls]
    for x, gap in ((gamma_.lo, n), (gamma_.hi, n - 2 + odd),
                   (beta_.lo, 2 * m), (beta_.hi, 2 * m - 1)):
        assert split_signs(n, x)[1:] == gap_signs(gap), (n, float(x), gap)
    bases = [Fraction(-1), *(Fraction(math.cos(j * math.pi / den))
                             for j in (n, n - 1, 2 * m))]
    cap = Fraction(2, den * den)
    assert len(probes) >= 4
    assert all(min(abs(x - b) for b in bases) <= cap for x in probes)


# From (n + 1)^2 > 2^53 the nudge cap 2/(n + 1)^2 is below the first nudge
# 2^-52, so no bracket end could be tried: such n are refused as out of
# range, not failed, before any sign query.  94906264 is the last n inside.
@pytest.mark.parametrize("call", [lambda: gamma(94906265), lambda: beta(94906266),
                                  lambda: gamma(10 ** 9 + 1)],
                         ids=["gamma-94906265", "beta-94906266", "gamma-10^9+1"])
def test_past_the_nudge_range_is_refused_before_any_sign_query(split_sign_calls, call):
    with pytest.raises(ValueError, match=r"n <= 94906264, got ") as raised:
        call()
    assert not isinstance(raised.value, BadBracket)
    assert split_sign_calls == []


def test_zeros_of_s_past_the_nudge_range_is_refused():
    with pytest.raises(ValueError, match=r"n <= 94906264, got 94906265$"):
        zeros_of_s(94906265)


def test_root_report_lets_the_range_refusal_through(monkeypatch):
    # root_report lists failed brackets; an n out of range is not one.
    monkeypatch.setattr(roots, "_NUDGE_START", Fraction(1, 2 ** 10))
    with pytest.raises(ValueError, match=r"got 1$"):
        root_report(1)


@pytest.mark.parametrize("n", [60, 61, 401])
def test_grid_point_past_its_neighbour_is_caught(monkeypatch, n):
    # Every rounded grid point moved up by one and a half grid steps, past
    # the next one, so that each end starts a gap above the one it names.
    # S_n can have the wanted sign there (at odd n >= 61 gamma's upper end
    # used to verify), but the split-factor signs are another gap's: every
    # root finder raises, and the report lists every bracket from n = 3.
    # At n = 1 and 2 gamma's upper end, above g_1, moves to cos(-pi/(2n+2)),
    # still in gap 0, so those brackets verify.
    real = roots._grid_point
    monkeypatch.setattr(roots, "_grid_point", lambda j, den: real(j - 1.5, den))
    for find in (gamma, beta, zeros_of_s):
        with pytest.raises(BadBracket, match="^no verified endpoint near "):
            find(n)
    assert [f.split(":")[0] for f in root_report(n)] == [
        *(f"gamma bracket n={k}" for k in range(3, n + 1)),
        *(f"beta bracket n={k}" for k in range(2, n + 1, 2))]


def _walked_s_value(n: int, x: float) -> float:
    """S_n(x) with U_m, U_{m-1} from the float recurrence walk (test oracle)."""
    m, odd = divmod(n, 2)
    prev, um = 0.0, 1.0
    for _ in range(m):
        prev, um = um, 2.0 * x * um - prev
    if odd:
        return (2.0 * ((2 * m + 2) * x * x + (2 * m - 1) * x - 1.0) * um
                - 2.0 * ((2 * m + 3) * x + 2 * m + 1) * prev)
    return ((2 * m + 1) * x + 2 * m - 1) * um - ((2 * m + 3) * x + 2 * m + 1) * prev


def _certificates() -> list[tuple[Fraction, Fraction, float]]:
    odd = [*range(3, 402, 2), 1601, 2811, 3481, 4001]
    certs = [gamma(n) for n in odd]
    certs += [c for n in range(0, 81) for c in zeros_of_s(n, 1e-9)]
    return [(c.lo, c.hi, c.value) for c in certs]


def test_float_proposals_give_the_walks_certificates(monkeypatch):
    # The float proposals only steer the bisection, but which brackets come
    # out depends on the sign of every float midpoint: the angle form must
    # give the same certificates as a float walk of the recurrence.
    angle = _certificates()
    monkeypatch.setattr(roots, "s_value", _walked_s_value)
    assert _certificates() == angle


class TestAlpha:
    def test_strictly_decreasing_above_two(self):
        # alpha_n, the minimal zero of phi(n), is beta_n for even n and
        # gamma_n for odd n.
        values = [gamma(n).value if n % 2 else beta(n) for n in range(2, 61)]
        for a, b in zip(values, values[1:]):
            assert -1.0 < b < a


class TestZerosOfS:
    def test_degenerate(self):
        certs = zeros_of_s(0)
        assert [c.value for c in certs] == [1.0]
        assert certs[0].lo == certs[0].hi

    def test_first_companion(self):
        certs = zeros_of_s(1)
        assert [c.value for c in certs] == [-0.5, 1.0]
        assert all(c.lo == c.hi for c in certs)

    def test_index_three_all_rational(self):
        # S_3 = 2(4x+3)(2x+1)(x-1): every zero is rational and found exactly.
        certs = zeros_of_s(3)
        assert [c.value for c in certs] == [-0.75, -0.5, 1.0]
        assert all(c.lo == c.hi and c.simple for c in certs)

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

    def test_rational_zeros_are_the_probed_ones(self):
        # S_n(0) = head(0) U_m(0) - tail(0) U_{m-1}(0) is never zero, so 0 is
        # not probed; -1/2 and -3/4 are zeros exactly for S_1..S_3 and S_3.
        zeros = {(Fraction(-1, 2), 1), (Fraction(-1, 2), 2),
                 (Fraction(-1, 2), 3), (Fraction(-3, 4), 3)}
        for n in range(0, 401):
            for r in (Fraction(0), Fraction(-1, 2), Fraction(-3, 4)):
                assert (split_signs(n, r)[0] == 0) == ((r, n) in zeros), f"n={n}, r={r}"

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


def _ordering_point(n: int) -> tuple[int, float, float]:
    """(N, s, x) of the orderings proof in the roots docstring: N = n + 1 for
    even n and n + 2 for odd n, s = sin(pi/(2N)), x = -cos(pi/N)."""
    big_n = n + 1 if n % 2 == 0 else n + 2
    return big_n, math.sin(math.pi / (2 * big_n)), -math.cos(math.pi / big_n)


class TestOrderingsProof:
    # The every-n argument of the roots docstring, checked in floats and
    # integers where a double still resolves it.  Near n = 6e5 the distance
    # from beta_{n+1} to gamma_n falls below one ulp of a double next to -1,
    # so from there on only the proof orders them.

    def test_point_has_the_sign_at_minus_one(self):
        # The ordering point lies below gamma_n: S_n has the sign of S_n(-1)
        # there, for even n >= 4 (x = beta_n) and odd n >= 3 (x = beta_{n+1}).
        for n in range(3, 4002):
            _, _, x = _ordering_point(n)
            value = s_value(n, x)
            assert (value > 0) - (value < 0) == split_signs(n, -1)[0], n

    def test_odd_closed_form(self):
        # S_n(x) = (-1)^m 4 s (1 - (N+1) s^2): x is a float next to a point
        # where S_n is steep, so agreement is to a relative 1e-6 (the worst
        # gap up to 2001 is 1.2e-7).
        for n in range(3, 2002, 2):
            big_n, s, x = _ordering_point(n)
            closed = (-1) ** (n // 2) * 4 * s * (1 - (big_n + 1) * s * s)
            assert s_value(n, x) == pytest.approx(closed, rel=1e-6), n

    def test_even_linear_factor(self):
        # n + (n+2) x = 2((N+1) s^2 - 1) < 0; the left side loses about n
        # ulps to cancellation next to x = -1.
        for n in range(4, 4002, 2):
            big_n, s, x = _ordering_point(n)
            factor = 2 * ((big_n + 1) * s * s - 1)
            assert factor < 0
            assert n + (n + 2) * x == pytest.approx(factor, rel=0, abs=n * 1e-15)

    def test_inequality_threshold(self):
        # 4 N^2 > 10 (N+1), the step after sin t < t and pi^2 < 10, holds
        # from N = 4 on (4 N^2 - 10 (N+1) grows with N from there) and fails
        # at N = 3.
        assert not 4 * 3 ** 2 > 10 * (3 + 1)
        assert all(4 * big_n ** 2 > 10 * (big_n + 1) for big_n in range(4, 10 ** 5 + 1))
        assert math.pi ** 2 < 10


def _mutated_tail(monkeypatch, target: int, change) -> None:
    """Give S_target the tail factor change(tail); every other S_n keeps its own."""
    real = chebyshev._s_factors

    def factors(n):
        m, head, tail = real(n)
        return (m, head, change(tail)) if n == target else (m, head, tail)

    monkeypatch.setattr(chebyshev, "_s_factors", factors)


class TestRootReport:
    def test_passes_to_criterion_six_range(self):
        assert root_report(120) == ()

    def test_rejects_negative_cap(self):
        with pytest.raises(ValueError, match="max_n must be >= 0"):
            root_report(-1)

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_small_structures(self, n):
        # S_0 = x - 1 has no grid bracket; S_1..S_3 have the rational zeros
        # -1/2 and -3/4 inside theirs, and partial_e(n) has a minimal zero
        # from n = 2.
        certs = zeros_of_s(n)
        assert len(certs) == s_poly(n).degree
        zeros = {1: [-0.5], 2: [-0.5], 3: [-0.75, -0.5]}.get(n, [])
        for cert, z in zip(certs, zeros):
            assert cert.lo == Fraction(z) == cert.hi
        if n >= 2:
            bracket = roots._beta_bracket(n)
            assert bracket.lo < Fraction(beta(n)) < bracket.hi

    @pytest.mark.parametrize("n", [3, 10, 11, 60])
    def test_zeros_of_s_raises_the_structure_failure(self, monkeypatch, n):
        # An S_n off the localization's sign pattern leaves a grid endpoint
        # with no verified sign: zeros_of_s stops with BadBracket.
        _mutated_tail(monkeypatch, n, lambda t: (-t[0], t[1] + 2 * t[0]))
        with pytest.raises(BadBracket, match="^no verified endpoint near "):
            zeros_of_s(n, 1e-9)

    def test_even_bracket_holds_beta(self):
        for n in range(2, 61):
            bracket = roots._beta_bracket(n)
            assert bracket.lo < Fraction(beta(n)) < bracket.hi, f"n={n}"

    @pytest.mark.parametrize("n", [2, 3, 10, 11, 60])
    def test_flipped_tail_sign_fails_at_that_index(self, monkeypatch, n):
        # A flip that tests its index leaves no identity reading S_n with an
        # order bound, so the battery no longer proves the localization;
        # the report builds gamma_n's bracket for every n >= 1, and it fails.
        _mutated_tail(monkeypatch, n, lambda t: (-t[0],) + t[1:])
        proven = set(identity_suite(0).proven)
        assert {"s-odd-index-from-split-factors",
                "s-even-index-from-split-factors"}.isdisjoint(proven)
        failures = root_report(n + 1)
        assert len(failures) == 1
        assert all(f.startswith(f"gamma bracket n={n}: no verified endpoint near ")
                   for f in failures)

    @pytest.mark.parametrize("n", [3, 10, 11, 60])
    def test_flip_that_keeps_the_zero_at_one_is_caught(self, monkeypatch, n):
        # tail(1) is unchanged, so only the sign pattern on the grid shows it.
        _mutated_tail(monkeypatch, n, lambda t: (-t[0], t[1] + 2 * t[0]))
        failures = root_report(n + 1)
        assert len(failures) == 1
        assert failures[0].startswith(
            f"gamma bracket n={n}: no verified endpoint near ")

    def test_grid_shifted_by_one_index_is_caught(self, monkeypatch):
        real = roots._grid_point
        monkeypatch.setattr(roots, "_grid_point", lambda j, den: real(j + 1, den))
        assert [f.split(":")[0] for f in root_report(12)] == [
            *(f"gamma bracket n={n}" for n in range(1, 13)),
            *(f"beta bracket n={n}" for n in range(2, 13, 2))]

    def test_asks_only_bracket_points_and_the_initial_values(self, split_sign_calls):
        # The orderings are proven for every n, so the report asks a sign
        # only where gamma's and beta's brackets do, and at -1/2 for
        # alpha_1 = alpha_2 (S_1 and partial_e(2)), in that order.
        assert root_report(120) == ()
        asked = split_sign_calls[:]
        split_sign_calls.clear()
        for n in range(1, 121):
            next(roots._s_brackets(n))
        for n in range(2, 121, 2):
            roots._beta_bracket(n)
        assert asked == [*split_sign_calls, (1, Fraction(-1, 2)), (2, Fraction(-1, 2))]


class TestElementaryInequality:
    def test_equality_at_endpoints(self):
        assert abs((1 - 0) / (1 + 0) - math.cos(0)) == 0
        third = 1.0 / 3.0
        assert abs((1 - third) / (1 + third) - math.cos(math.pi * third)) < 1e-12

    def test_strict_in_interior(self):
        x = 1.0 / 6.0
        assert (1 - x) / (1 + x) < math.cos(math.pi * x)


@pytest.mark.parametrize("liar", [lambda n, x: -s_value(n, x), lambda n, x: 1.0],
                         ids=["negated", "constant"])
@pytest.mark.parametrize("n", [4, 41, 400])
def test_a_lying_float_proposer_moves_no_certificate(split_sign_calls, monkeypatch,
                                                     liar, n):
    # A float proposer whose every sign is wrong (or the same) walks the float
    # bisection to one end of the bracket, so the end proposed on the other
    # side has the wrong exact sign and is refused; exact bisection then
    # narrows from the bracket's own end.  Every certificate still holds the
    # one zero of its bracket within tol.
    tol = Fraction(1e-12)
    honest = [gamma(n), *zeros_of_s(n)[:-1]]
    honest_queries = len(split_sign_calls)
    brackets = [next(roots._s_brackets(n)), *roots._s_brackets(n)]
    bisected, real_bisect = [], roots.bisect

    def recording(sign, bracket, tol):
        bisected.append(bracket)
        return real_bisect(sign, bracket, tol)

    monkeypatch.setattr(roots, "s_value", liar)
    monkeypatch.setattr(roots, "bisect", recording)
    split_sign_calls.clear()
    lying = [gamma(n), *zeros_of_s(n)[:-1]]
    assert len(bisected) == len(brackets) == len(lying) == len(honest)
    for proposed, bracket in zip(bisected, brackets):
        assert proposed.lo == bracket.lo or proposed.hi == bracket.hi
    # Each refusal costs exact bisection steps from the bracket's own end.
    assert len(split_sign_calls) > honest_queries + 10 * len(brackets)
    for cert, truth, bracket in zip(lying, honest, brackets):
        assert bracket.lo <= cert.lo < cert.hi <= bracket.hi
        assert cert.hi - cert.lo <= tol
        assert split_signs(n, cert.lo)[0] == bracket.sign_lo
        assert split_signs(n, cert.hi)[0] == bracket.sign_hi
        assert cert.lo <= truth.hi and truth.lo <= cert.hi
