"""Coefficient-free exact signs: the two-term integer kernel, its agreement
with coefficient Horner signs, and the odd root route that relies on it."""

import math
import random
from fractions import Fraction

import pytest

from fanqec import chebyshev, roots
from fanqec.chebyshev import (
    CompanionSign,
    EvenPartSign,
    cheb_u,
    partial_e,
    s_poly,
    u_pair_at,
)
from fanqec.polynomial import Poly
from fanqec.qec import qec_fan

FIXED_POINTS = (Fraction(-1), Fraction(0), Fraction(1), Fraction(-1, 2),
                Fraction(-3, 4))


def random_points(seed: int, count: int) -> list[Fraction]:
    """Seeded rationals, dyadic and not, two thirds of them outside [-1, 1]."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        q = 2 ** rng.randint(0, 60) if i % 2 else rng.randint(1, 10 ** 6)
        out.append(Fraction(rng.randint(-3 * q, 3 * q), q))
    return out


def linear_pairs(p: int, q: int, count: int) -> list[tuple[int, int]]:
    """(V_m, V_{m-1}) for m < count, one recurrence step at a time.

    The reference for the doubling kernel: V_{k+1} = 2p V_k - q^2 V_{k-1}
    from V_0 = 1, V_{-1} = 0.
    """
    two_p, q2, cur, prev = 2 * p, q * q, 1, 0
    out = []
    for _ in range(count):
        out.append((cur, prev))
        cur, prev = two_p * cur - q2 * prev, cur
    return out


class TestKernel:
    @pytest.mark.parametrize("x", [Fraction(-1), Fraction(3, 7),
                                   Fraction(-5, 8), Fraction(9, 4)])
    def test_matches_homogenised_coefficients(self, x):
        p, q = x.numerator, x.denominator
        for m in range(0, 40):
            vm, vm1 = u_pair_at(m, p, q)
            assert Fraction(vm, q ** m) == cheb_u(m).evaluate(x)
            if m:
                assert Fraction(vm1, q ** (m - 1)) == cheb_u(m - 1).evaluate(x)
            else:
                assert vm1 == 0

    @pytest.mark.parametrize("p, q", [(0, 1), (1, 1), (-1, 1), (3, 7),
                                      (-5, 8), (9, 4), (7, 1024),
                                      (-2 ** 53 + 1, 2 ** 53)])
    def test_doubling_matches_linear_loop(self, p, q):
        for m, pair in enumerate(linear_pairs(p, q, 512)):
            assert u_pair_at(m, p, q) == pair, m

    def test_doubling_at_odd_grid_endpoint(self):
        # The endpoint gamma(4021) queries first: cos(4021*pi/4022) rounded
        # to a double, moved 2^-52 outward; m = 2010 has eight set bits.
        base = Fraction(math.cos(4021 * math.pi / 4022))
        for x in (base, base + Fraction(1, 2 ** 52)):
            p, q = x.numerator, x.denominator
            assert u_pair_at(2010, p, q) == linear_pairs(p, q, 2011)[-1]

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            u_pair_at(-1, 1, 2)
        with pytest.raises(ValueError):
            u_pair_at(3, 1, 0)
        with pytest.raises(ValueError):
            CompanionSign(-1)
        with pytest.raises(ValueError):
            EvenPartSign(-1)


def _recorded_root_queries(monkeypatch, indices, zero_indices):
    """Every point gamma, beta and zeros_of_s ask a sign at, keyed by family."""
    seen: dict[tuple[str, int], set[Fraction]] = {}

    def recording(kind, cls):
        def make(n):
            inner = cls(n)

            class Recorder:
                def sign_at(self, x):
                    seen.setdefault((kind, n), set()).add(Fraction(x))
                    return inner.sign_at(x)

            return Recorder()
        return make

    monkeypatch.setattr(roots, "CompanionSign", recording("s", CompanionSign))
    monkeypatch.setattr(roots, "EvenPartSign", recording("e", EvenPartSign))
    for n in indices:
        if n >= 1:
            roots.gamma(n)
        if n >= 2:
            roots.beta(n)
    for n in zero_indices:
        roots.zeros_of_s(n)
    return seen


def test_signs_match_coefficient_horner(monkeypatch):
    # Gate for the kernel: for every n <= 300 the recurrence signs equal
    # Poly.sign_at at the points the root finders query, at fixed points and
    # at seeded random rationals.  zeros_of_s queries ~70k points over all
    # n <= 300; its points are taken exhaustively up to the verify default
    # cap (60) and at five larger indices to keep the run short.
    indices = range(0, 301)
    queried = _recorded_root_queries(
        monkeypatch, indices, [*range(0, 61), 101, 150, 201, 250, 300])
    shared = FIXED_POINTS + tuple(random_points(2024, 30))
    mismatches = []
    checked = 0
    for n in indices:
        for kind, poly, fast in (("s", s_poly(n), CompanionSign(n)),
                                 ("e", partial_e(n), EvenPartSign(n))):
            points = queried.get((kind, n), set()) | set(shared)
            for x in points:
                checked += 1
                if poly.sign_at(x) != fast.sign_at(x):
                    mismatches.append((kind, n, x))
    assert checked > 301 * 2 * len(shared)
    assert not mismatches, mismatches[:5]


def test_odd_route_builds_no_coefficients(monkeypatch):
    s_misses = s_poly.cache_info().misses
    e_misses = partial_e.cache_info().misses

    def no_coefficients(*args):
        raise AssertionError("coefficient vector built on the odd route")

    monkeypatch.setattr(chebyshev, "_u_core", no_coefficients)
    for op in ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__",
               "__rsub__"):
        monkeypatch.setattr(Poly, op, no_coefficients)
    result = qec_fan(4001)
    assert result.method.value == "root-based"
    assert result.certificate["bracket_hi"] - result.certificate["bracket_lo"] <= 1e-12
    assert s_poly.cache_info().misses == s_misses
    assert partial_e.cache_info().misses == e_misses


@pytest.mark.parametrize("n", [1601, 1603, 1605, 3481, 3569])
def test_odd_value_strictly_inside_proven_bounds(n):
    # The true constant sits just above the lower bound here; an endpoint
    # moved 2^-40 outward past the cosine grid point used to print a value
    # up to 2.2e-13 below it.
    lower = -4.0 * math.sin(math.pi / (2 * (n + 1))) ** 2
    upper = -4.0 * math.sin(math.pi / (2 * (n + 2))) ** 2
    assert lower < qec_fan(n).value < upper


@pytest.mark.parametrize("n", [3479, 3481])
def test_odd_root_query_count_does_not_depend_on_rounding(monkeypatch, n):
    # The rounded cosine grid point lies on the zero's side at n = 3481 and
    # beyond it at n = 3479; both take the exact sign at -1, at the grid
    # endpoint and at the float-refined lower endpoint, nothing more.
    calls = []
    sign_at = CompanionSign.sign_at

    def counted(self, x):
        calls.append(x)
        return sign_at(self, x)

    monkeypatch.setattr(CompanionSign, "sign_at", counted)
    cert = roots.gamma(n)
    assert len(calls) == 3
    assert cert.hi - cert.lo <= 1e-12
