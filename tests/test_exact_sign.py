"""Coefficient-free exact signs: the two-term integer kernel, the integer
enclosures split_signs tries before it, their agreement with coefficient
Horner signs and with the kernel at large n, and the odd root route that
relies on them."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from fanqec import chebyshev, roots
from fanqec.chebyshev import (
    cheb_u,
    partial_e,
    partial_o,
    s_poly,
    split_signs,
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
            split_signs(-1, Fraction(1, 2))
        # roots asks split_signs for every sign, so its check covers an
        # index that the root finders do not refuse themselves.
        for find, n in ((roots.gamma, 0), (roots.beta, 1), (roots.zeros_of_s, -1)):
            with pytest.raises(ValueError):
                find(n)


def _grouped(calls) -> dict[int, set[Fraction]]:
    """The recorded split_signs points, by index."""
    seen: dict[int, set[Fraction]] = {}
    for n, x in calls:
        seen.setdefault(n, set()).add(x)
    return seen


def _recorded_root_queries(calls, indices, zero_indices):
    """Every point gamma, beta and zeros_of_s ask a sign at, by index."""
    for n in indices:
        if n >= 1:
            roots.gamma(n)
        if n >= 2:
            roots.beta(n)
    for n in zero_indices:
        roots.zeros_of_s(n)
    return _grouped(calls)


def _root_query_signs_match(calls) -> set[tuple[int, Fraction]]:
    """Compares the recurrence signs with Poly.sign_at where the root finders
    ask them; returns every (n, x) compared."""
    # zeros_of_s asks split_signs at ~70k points over all n <= 300 (grid
    # bracket ends, float-refined ends and bisection midpoints); its points
    # are taken exhaustively up to the verify default cap (60) and at five
    # larger indices to keep the run short.
    indices = range(0, 301)
    queried = _recorded_root_queries(
        calls, indices, [*range(0, 61), 101, 150, 201, 250, 300])
    shared = FIXED_POINTS + tuple(random_points(2024, 30))
    mismatches = []
    checked = set()
    for n in indices:
        polys = (s_poly(n), partial_e(n))
        for x in queried.get(n, set()) | set(shared):
            checked.add((n, x))
            if split_signs(n, x)[:2] != tuple(poly.sign_at(x) for poly in polys):
                mismatches.append((n, x))
    assert not mismatches, mismatches[:5]
    return checked


def test_signs_match_coefficient_horner(split_sign_calls):
    # Gate for the kernel: for every n <= 300 the recurrence signs of S_n
    # and partial_e equal Poly.sign_at at the points the root finders query,
    # at fixed points and at seeded random rationals.
    checked = _root_query_signs_match(split_sign_calls)
    assert len(checked) > 301 * (len(FIXED_POINTS) + 30)


def _report_query_signs_match(calls) -> set[tuple[int, Fraction]]:
    """Compares split_signs with the coefficient vectors where root_report
    asks a sign; returns every (n, x) compared."""
    assert roots.root_report(120) == ()
    seen = _grouped(calls)
    # Both ends of gamma's bracket for every n in 1..120, and of beta's for
    # every even n, must be among the points compared below.
    ends = [(n, next(roots._s_brackets(n))) for n in range(1, 121)]
    ends += [(n, roots._beta_bracket(n)) for n in range(2, 121, 2)]
    assert all({b.lo, b.hi} <= seen.get(n, set()) for n, b in ends)
    shared = set(FIXED_POINTS) | set(random_points(2025, 20))
    mismatches = []
    checked = set()
    for n in range(121):
        polys = (s_poly(n), partial_e(n), partial_o(n))
        for x in seen.get(n, set()) | shared:
            checked.add((n, x))
            if split_signs(n, x) != tuple(poly.sign_at(x) for poly in polys):
                mismatches.append((n, x))
    assert not mismatches, mismatches[:5]
    return checked


def test_report_signs_match_coefficient_horner(split_sign_calls):
    # Gate for split_signs and for the brackets of the root report: for
    # every n <= 120 each point root_report asks a sign at, and the fixed
    # and seeded points, give the signs of the coefficient vectors of S_n
    # and of both split factors.
    _report_query_signs_match(split_sign_calls)


# -- integer enclosures ahead of the exact pair --------------------------------


@pytest.fixture
def enclosures(monkeypatch):
    """Records the working bits of every enclosure split_signs tries, and
    whether it decided the signs."""
    tried: list[tuple[int, bool]] = []
    real = chebyshev._enclosed_signs

    def recording(n, p, q, bits):
        signs = real(n, p, q, bits)
        tried.append((bits, signs is not None))
        return signs

    monkeypatch.setattr(chebyshev, "_enclosed_signs", recording)
    return tried


@pytest.fixture
def enclose_all(monkeypatch):
    """Crossover 0: every query at a point that is not an integer tries the
    enclosure first.  Holds each (n, x) whose signs an enclosure decided."""
    decided: set[tuple[int, Fraction]] = set()
    real = chebyshev._enclosed_signs

    def recording(n, p, q, bits):
        signs = real(n, p, q, bits)
        if signs is not None:
            decided.add((n, Fraction(p, q)))
        return signs

    monkeypatch.setattr(chebyshev, "_enclosed_signs", recording)
    monkeypatch.setattr(chebyshev, "_ENCLOSE_ABOVE", 0)
    return decided


def _assert_decided_on_enclosures(decided, checked):
    # Every compared query that tries an enclosure (x not an integer, so
    # that the exact pair has bits, and m >= 1) and has no exact sign 0 must
    # have been decided on one; a 0 only the exact pair can return.
    tried = [(n, x) for n, x in checked if x.denominator > 1 and n >= 2]
    undecided = ((n, x) for n, x in tried
                 if (n, x) not in decided and 0 not in exact_signs(n, x))
    missed = list(itertools.islice(undecided, 5))
    assert tried and not missed, missed


def test_enclosure_signs_match_coefficient_horner(enclose_all, split_sign_calls):
    # Below the crossover the gates above never reach the enclosure.
    checked = _root_query_signs_match(split_sign_calls)
    _assert_decided_on_enclosures(enclose_all, checked)


def test_enclosure_report_signs_match_coefficient_horner(enclose_all, split_sign_calls):
    checked = _report_query_signs_match(split_sign_calls)
    _assert_decided_on_enclosures(enclose_all, checked)


@pytest.mark.parametrize("bits", [64, 128, 512])
def test_enclosure_holds_the_exact_pair(bits):
    # U_m(p/q) = V_m / q^m and U_{m-1}(p/q) = q V_{m-1} / q^m, so both
    # enclosures, times q^m, must hold 2^bits times the kernel's integers.
    rng = random.Random(bits)
    for i in range(60):
        m = rng.randint(0, 5000)
        q = 2 ** rng.randint(0, 80) if i % 2 else rng.randint(1, 10 ** 12)
        reach = 3 * q if i % 3 else q
        p = rng.randint(-reach, reach)
        point = chebyshev._point(p, q, bits)
        lo, hi, lo1, hi1 = chebyshev._u_pair_enclosure(m, *point, bits)
        vm, vm1 = u_pair_at(m, p, q)
        scale = q ** m
        assert lo * scale <= vm << bits <= hi * scale, (m, p, q)
        assert lo1 * scale <= q * vm1 << bits <= hi1 * scale, (m, p, q)


def _box(rng: random.Random, kind: str) -> tuple[int, int]:
    width = 1 + rng.getrandbits(rng.randint(0, 200))
    start = rng.getrandbits(rng.randint(0, 200))
    return {"positive": (start, start + width),
            "negative": (-start - width, -start),
            "straddles": (-rng.randint(1, width), width + 1),
            "point": (start - width, start - width),
            "zero": (0, 0),
            "from zero": (0, width),
            "to zero": (-width, 0)}[kind]


@pytest.mark.parametrize("bits", [0, 64, 128])
def test_interval_product_matches_four_products(bits):
    # The sign case rule in _mul against the four end products with
    # min/max, on every pair of box kinds, ends at 0 and points included.
    rng = random.Random(bits)
    kinds = ("positive", "negative", "straddles", "point", "zero",
             "from zero", "to zero")
    for a_kind, b_kind in itertools.product(kinds, repeat=2):
        for _ in range(200):
            a, b = _box(rng, a_kind), _box(rng, b_kind)
            ends = [u * v for u in a for v in b]
            want = (min(ends) >> bits, -(-max(ends) >> bits))
            assert chebyshev._mul(*a, *b, bits) == want, (a, b, bits)


@pytest.mark.parametrize("x", [Fraction(math.cos(math.pi / 10002)),
                               Fraction(-math.cos(math.pi / 10002)),
                               Fraction(math.cos(3 * math.pi / 5001)),
                               Fraction(-1) + Fraction(1, 2 ** 40),
                               Fraction(1), Fraction(-1)])
def test_lost_enclosure_stays_within_the_a_priori_bound(x):
    # Near -1 and 1, 64 fractional bits lose the signs of U_5000 and
    # U_4999; |U_k(x)| <= k + 1 on [-1, 1] keeps the ends from growing
    # past twice that bound while they still hold the exact pair.
    m, bits = 5000, 64
    p, q = x.numerator, x.denominator
    ends = chebyshev._u_pair_enclosure(m, *chebyshev._point(p, q, bits), bits)
    lo, hi, lo1, hi1 = ends
    vm, vm1 = u_pair_at(m, p, q)
    scale = q ** m
    assert lo * scale <= vm << bits <= hi * scale
    assert lo1 * scale <= q * vm1 << bits <= hi1 * scale
    assert max(map(abs, ends)) < (m + 1) << (bits + 1)


def exact_signs(n: int, x: Fraction) -> tuple[int, int, int]:
    """Signs of (S_n, partial_e(n), partial_o(n)) at x from u_pair_at alone,
    by the formulas of s_poly, partial_e and partial_o in U_m, U_{m-1}."""
    q = x.denominator
    m, odd = divmod(n, 2)
    vm, vm1 = u_pair_at(m, x.numerator, q)
    um, um1 = vm, q * vm1  # q^m U_m(x) and q^m U_{m-1}(x)
    if odd:
        s = (2 * ((2 * m + 2) * x * x + (2 * m - 1) * x - 1) * um
             - 2 * ((2 * m + 3) * x + 2 * m + 1) * um1)
        e, o = um, x * um - um1
    else:
        s = ((2 * m + 1) * x + 2 * m - 1) * um - ((2 * m + 3) * x + 2 * m + 1) * um1
        e, o = um + um1, um - um1
    return tuple((v > 0) - (v < 0) for v in (s, e, o))


def test_exact_reference_matches_coefficient_horner():
    for n in range(0, 61):
        polys = (s_poly(n), partial_e(n), partial_o(n))
        for x in FIXED_POINTS + tuple(random_points(n, 10)):
            assert exact_signs(n, x) == tuple(p.sign_at(x) for p in polys), (n, x)


ODD_LARGE = [n for lo, hi in ((1601, 1621), (2801, 2821), (4001, 4021))
             for n in range(lo, hi + 1, 2)]


def test_large_n_signs_at_root_finder_points(split_sign_calls, enclosures):
    # Every point gamma and beta query for the fan sizes of the odd_large
    # benchmark and at 20001, above the crossover, against the exact pair.
    queried = _recorded_root_queries(split_sign_calls, [*ODD_LARGE, 20001], [])
    checked = 0
    for n, points in queried.items():
        for x in points:
            checked += 1
            enclosures.clear()
            assert split_signs(n, x) == exact_signs(n, x), (n, x)
            # Only the exact point -1 is below the crossover.
            assert x == -1 or enclosures[-1][1], (n, x)
    assert checked > 4 * len(ODD_LARGE)


@pytest.mark.parametrize("n", [4011, 8001])
def test_large_n_signs_next_to_a_zero(enclosures, n):
    # bisect narrows gamma's bracket to 2^-200; points 2^-60 to 2^-200
    # beyond its ends need more working bits than the first try has.
    s = roots._s_sign(n)
    cert = roots.gamma(n)
    bracket = roots.Bracket(cert.lo, cert.hi, s(cert.lo), s(cert.hi))
    narrow = roots.bisect(s, bracket, tol=2.0 ** -200)
    assert 0 < narrow.hi - narrow.lo <= Fraction(1, 2 ** 200)
    for k in range(60, 201, 35):
        for x in (narrow.lo - Fraction(1, 2 ** k), narrow.hi + Fraction(1, 2 ** k)):
            assert split_signs(n, x) == exact_signs(n, x), (n, k)
    assert max(bits for bits, decided in enclosures if decided) >= 512


@pytest.mark.parametrize("n, first", [
    (4021, 128), (8191, 128), (94906263, 399), (10 ** 9 + 1, 483)])
def test_first_enclosure_width_grows_with_m(enclosures, n, first):
    # Next to -1, 128 and 256 bits lose the signs at 94906263 and at
    # 10^9 + 1; the first width, grown from the bit length of m, decides
    # at once.  Up to n = 8191, the odd_large fans included, it is 128.
    x = Fraction(-1) + Fraction(1, 2 ** 52)
    signs = split_signs(n, x)
    assert enclosures == [(first, True)]
    assert signs == chebyshev._enclosed_signs(n, x.numerator, x.denominator, 2 * first)


def test_exact_zeros_come_from_the_kernel(monkeypatch, enclosures):
    # U_50000(-1/2) = 0 because 3 divides 50001, so partial_e(100001) is 0
    # there: every enclosure holds 0, and only the exact pair decides.
    kernel_calls = []
    kernel = chebyshev.u_pair_at
    monkeypatch.setattr(chebyshev, "u_pair_at",
                        lambda *args: kernel_calls.append(args) or kernel(*args))
    half = Fraction(-1, 2)
    assert split_signs(100001, half) == exact_signs(100001, half)
    assert split_signs(100001, half)[1] == 0
    assert enclosures and not any(decided for _, decided in enclosures)
    assert kernel_calls
    assert split_signs(100001, 1)[0] == 0
    monkeypatch.setattr(chebyshev, "_ENCLOSE_ABOVE", 0)
    for n in (1, 2):
        assert split_signs(n, half)[0] == 0


def test_odd_route_builds_no_coefficients(monkeypatch):
    def no_coefficients(*args):
        raise AssertionError("coefficient vector built on the odd route")

    for builder in ("cheb_u", "cheb_t", "cheb_v", "cheb_w", "_alternating",
                    "_third_fourth"):
        monkeypatch.setattr(chebyshev, builder, no_coefficients)
    for op in ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__",
               "__rsub__"):
        monkeypatch.setattr(Poly, op, no_coefficients)
    result = qec_fan(4001)
    assert result.method.value == "root-based"
    assert result.certificate["bracket_hi"] - result.certificate["bracket_lo"] <= 1e-12


@pytest.mark.parametrize("n", [1601, 1603, 1605, 3481, 3569, 20001, 40001])
def test_odd_value_strictly_inside_proven_bounds(n):
    # The true constant sits just above the lower bound here; an endpoint
    # moved 2^-40 outward past the cosine grid point used to print a value
    # up to 2.2e-13 below it.  At 20001 and 40001 the bracket's absolute
    # width is already a sizeable part of the gap between the bounds.
    lower = -4.0 * math.sin(math.pi / (2 * (n + 1))) ** 2
    upper = -4.0 * math.sin(math.pi / (2 * (n + 2))) ** 2
    assert lower < qec_fan(n).value < upper


@pytest.mark.parametrize("n", [3479, 3481])
def test_odd_root_query_count_does_not_depend_on_rounding(split_sign_calls, n):
    # The rounded cosine grid point lies on the zero's side at n = 3481 and
    # beyond it at n = 3479; both take the exact signs at -1, at the grid
    # endpoint and at the float-refined lower endpoint, nothing more.
    cert = roots.gamma(n)
    assert len(split_sign_calls) == 3
    assert cert.hi - cert.lo <= 1e-12
