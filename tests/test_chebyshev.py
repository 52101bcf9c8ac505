"""Polynomial families: frozen small members, identities, float oracles."""

import collections
import hashlib
import json
import math
import operator
import pickle
import random
import sys
import threading
from fractions import Fraction

import pytest

from fanqec.chebyshev import (
    IdentityCheck,
    NotIntegral,
    cheb_t,
    cheb_u,
    cheb_v,
    cheb_w,
    compress,
    identity_suite,
    partial_e,
    partial_o,
    phi,
    s_poly,
    s_value,
)
from fanqec import chebyshev, identities, qec, roots
from fanqec.polynomial import Poly


def u_value(n: int, x: float) -> float:
    """U_n(x), n >= -2, by the forward recurrence from U_{-1} = 0 (float test oracle)."""
    if n == -2:
        return -1.0
    prev, cur = 0.0, 1.0
    for _ in range(n + 1):
        prev, cur = cur, 2.0 * x * cur - prev
    return prev


def partial_e_value(n: int, x: float) -> float:
    """Float even part of U_n by its formula in U_m (float test oracle)."""
    m, odd = divmod(n, 2)
    if odd:
        return u_value(m, x)
    return u_value(m, x) + u_value(m - 1, x)


def partial_o_value(n: int, x: float) -> float:
    """Float odd part of U_n by its formula in U_m (float test oracle)."""
    m, odd = divmod(n, 2)
    if odd:
        return u_value(m + 1, x) - u_value(m - 1, x)
    return u_value(m, x) - u_value(m - 1, x)


def u_value_reference(n: int, x: float) -> float:
    """U_n(x), n >= 0, by the forward recurrence started at U_0 = 1, U_1 = 2x."""
    prev, cur = 1.0, 2.0 * x
    if n == 0:
        return prev
    for _ in range(n - 1):
        prev, cur = cur, 2.0 * x * cur - prev
    return cur


class TestSecondKind:
    def test_walk_oracle_matches_reference_walk(self):
        rng = random.Random(4021)
        points = [-1.0, 0.0, 1.0] + [rng.uniform(-1.0, 1.0) for _ in range(50)]
        for m in range(0, 201):
            for x in points:
                assert u_value(m, x) == u_value_reference(m, x)

    @pytest.mark.parametrize("n, coeffs", [
        (-2, (-1,)),
        (-1, ()),
        (0, (1,)),
        (1, (0, 2)),
        (2, (-1, 0, 4)),
        (3, (0, -4, 0, 8)),
        (4, (1, 0, -12, 0, 16)),
    ])
    def test_small_members(self, n, coeffs):
        assert cheb_u(n).coeffs == coeffs

    def test_below_convention_range(self):
        with pytest.raises(ValueError):
            cheb_u(-3)

    def test_leading_coefficient_is_power_of_two(self):
        for n in range(0, 301):
            assert cheb_u(n).leading == 2 ** n

    def test_recurrence_holds(self):
        two_x = Poly([0, 2])
        for n in range(0, 80):
            assert cheb_u(n + 2) == two_x * cheb_u(n + 1) - cheb_u(n)


class TestOtherKinds:
    def test_first_kind(self):
        assert cheb_t(0) == Poly((1,))
        assert cheb_t(1) == Poly([0, 1])
        assert cheb_t(2) == Poly([-1, 0, 2])

    def test_third_kind_seed(self):
        assert cheb_v(0) == Poly((1,))
        assert cheb_v(1) == Poly([-1, 2])

    def test_fourth_kind_matches_even_part(self):
        assert cheb_w(1) == Poly([1, 2])
        assert cheb_w(1) == partial_e(2)

    def test_negative_index_rejected(self):
        for fam in (cheb_t, cheb_v, cheb_w, partial_e, partial_o, s_poly, phi):
            with pytest.raises(ValueError):
                fam(-1)


def _fresh_family(first: tuple[int, ...], second: tuple[int, ...],
                  top: int) -> list[Poly]:
    """Members 0..top of P(k+2) = 2x P(k+1) - P(k), walked once from two seeds."""
    two_x = Poly([0, 2])
    members = [Poly(first), Poly(second)]
    while len(members) <= top:
        members.append(two_x * members[-1] - members[-2])
    return members


# Seeds at index 0 and 1, written out here rather than read from chebyshev.
_FRESH_SEEDS = {
    "u": ((1,), (0, 2)),
    "t": ((1,), (0, 1)),
    "v": ((1,), (-1, 2)),
    "w": ((1,), (1, 2)),
}


def _derived_reference(family: str, n: int, u_at) -> Poly:
    """Member n of pe, po, s or phi, from U_k = u_at(k) for k >= -1."""
    m, odd = divmod(n, 2)
    if family == "pe":
        return u_at(m) if odd else u_at(m) + u_at(m - 1)
    if family == "po":
        return u_at(m + 1) - u_at(m - 1) if odd else u_at(m) - u_at(m - 1)
    if family == "s":
        if odd:
            head, tail = Poly((-2, 4 * m - 2, 4 * m + 4)), Poly((4 * m + 2, 4 * m + 6))
        else:
            head, tail = Poly((2 * m - 1, 2 * m + 1)), Poly((2 * m + 1, 2 * m + 3))
        return head * u_at(m) - tail * u_at(m - 1)
    return Poly((-n, -3, n + 1)) * u_at(n) + Poly((1, 1)) * (u_at(n - 1) + 1)


_BASE_BUILDERS = {"u": cheb_u, "t": cheb_t, "v": cheb_v, "w": cheb_w}


class TestFamilyStore:
    @pytest.mark.parametrize("family", sorted(_FRESH_SEEDS))
    def test_any_read_order_equals_a_fresh_recurrence(self, family):
        builder, top = _BASE_BUILDERS[family], 400
        ref = _fresh_family(*_FRESH_SEEDS[family], top)
        interleaved = [k for n in range(top // 2 + 1) for k in (n // 2, n, 2 * n)]
        shuffled = random.Random(11).sample(range(top + 1), top + 1)
        for order in (range(top + 1), range(top, -1, -1), interleaved, shuffled):
            cheb_u.cache_clear()  # only U keeps members
            for k in order:
                assert builder(k) == ref[k], (family, k)

    def test_public_builders_in_descending_order(self):
        # Down to the first index, where U keeps U_{-1} = 0 and U_{-2} = -1,
        # and one below it, which is refused.
        for family, builder in _BASE_BUILDERS.items():
            ref = _fresh_family(*_FRESH_SEEDS[family], 90)
            if family == "u":
                ref = [Poly((-1,)), Poly(())] + ref
            first = 90 - len(ref) + 1
            for k in range(90, first - 1, -1):
                assert builder(k) == ref[k - first], (family, k)
            with pytest.raises(ValueError):
                builder(first - 1)

    def test_concurrent_readers_agree(self):
        ref = _fresh_family(*_FRESH_SEEDS["u"], 120)
        orders = [list(range(120)), list(range(119, -1, -1)),
                  [k for n in range(1, 60) for k in (n // 2, 2 * n, n)],
                  random.Random(5).sample(range(120), 120)]
        wrong: list[int] = []

        def read(order):
            for k in order:
                if cheb_u(k) != ref[k]:
                    wrong.append(k)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read, args=(order,))
                       for order in orders]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not wrong, wrong[:5]

    def test_battery_holds_a_bounded_number_of_members(self):
        # The bound is the cache size, not max_n: the battery reads U_k up
        # to 2 * max_n + 1.  T, V and W keep no member at all.
        assert identity_suite(600).ok
        info = cheb_u.cache_info()
        assert info.maxsize == chebyshev._KEEP
        assert info.currsize <= chebyshev._KEEP
        assert [f for f, b in _BASE_BUILDERS.items() if hasattr(b, "cache_info")] == ["u"]

    def test_battery_builds_each_second_kind_member_once(self, monkeypatch):
        # The walk reads each U member once and ties it through the last
        # two it holds, so it builds U_0 to U_601 once each.
        built, walking = [], []
        real_alternating, real_walk = chebyshev._alternating, identities._walk

        def alternating(n, lead, offset):
            if walking and offset == 0:  # offset 0 builds U, offset 1 T
                built.append(n)
            return real_alternating(n, lead, offset)

        def walk(reads):
            walking.append(True)
            try:
                return real_walk(reads)
            finally:
                walking.pop()

        monkeypatch.setattr(chebyshev, "_alternating", alternating)
        monkeypatch.setattr(identities, "_walk", walk)
        cheb_u.cache_clear()
        assert identity_suite(300).ok
        assert sorted(built) == list(range(602))

    def test_derived_members_follow_a_builder_swap(self, monkeypatch):
        # No derived member outlives the builders it was made from.
        even_part, companion = partial_e(10), s_poly(10)
        real = cheb_u

        def corrupted(n):
            return real(n) + 1 if n == 5 else real(n)

        monkeypatch.setattr(chebyshev, "cheb_u", corrupted)
        # partial_e(10) = U_5 + U_4 and S_10 = (9 + 11x) U_5 - (11 + 13x) U_4.
        assert partial_e(10) == even_part + 1
        assert s_poly(10) == companion + Poly((9, 11))

    def test_battery_reads_derived_members_only_at_base_indices(self, monkeypatch):
        # The order bounds expand _Families.defined itself, so a sound
        # battery evaluates pe, po, s and phi only in its base checks, far
        # below max_n, and walks none of them.
        indices, real_defined = collections.defaultdict(set), chebyshev._Families.defined

        def defined(self, family, n):
            if self is chebyshev._STORED:
                indices[family].add(n)
            return real_defined(self, family, n)

        monkeypatch.setattr(chebyshev._Families, "defined", defined)
        assert identity_suite(300).ok
        assert set(indices) == {"pe", "po", "s", "phi"}
        assert all(0 <= n < 30 for family in indices for n in indices[family])

    @pytest.mark.parametrize("family", ["pe", "po", "s", "phi"])
    def test_public_derived_builder_is_the_proven_formula(self, family):
        # What `fanqec poly ue|uo|s|phi` prints is what the battery reads
        # and its order bounds expand, and it is the formula written out
        # here from a fresh U recurrence.
        builder = {"pe": partial_e, "po": partial_o, "s": s_poly, "phi": phi}[family]
        u = [Poly(())] + _fresh_family(*_FRESH_SEEDS["u"], 200)
        for n in range(201):
            value = builder(n)
            assert value == _derived_reference(family, n, lambda k: u[k + 1]), (family, n)
            assert value == chebyshev._STORED.defined(family, n), (family, n)
            assert value == chebyshev._STORED.member(family, n), (family, n)
        with pytest.raises(ValueError):
            builder(-1)


# Hand-expanded from the second-kind differences (exact integer arithmetic).
_SMALL_EVEN_PARTS = {
    0: (1,),
    1: (1,),
    2: (1, 2),
    3: (0, 2),
    4: (-1, 2, 4),
    5: (-1, 0, 4),
}
_SMALL_ODD_PARTS = {
    0: (1,),
    1: (0, 2),
    2: (-1, 2),
    3: (-2, 0, 4),
    4: (-1, -2, 4),
    5: (0, -6, 0, 8),
}


class TestPartialFamilies:
    @pytest.mark.parametrize("n", sorted(_SMALL_EVEN_PARTS))
    def test_even_part_small(self, n):
        assert partial_e(n).coeffs == _SMALL_EVEN_PARTS[n]

    @pytest.mark.parametrize("n", sorted(_SMALL_ODD_PARTS))
    def test_odd_part_small(self, n):
        assert partial_o(n).coeffs == _SMALL_ODD_PARTS[n]

    def test_degrees(self):
        for m in range(0, 151):
            assert partial_e(2 * m).degree == m
            assert partial_o(2 * m).degree == m
            assert partial_e(2 * m + 1).degree == m
            assert partial_o(2 * m + 1).degree == m + 1

    def test_leading_coefficients_multiply_to_power_of_two(self):
        for n in range(0, 301):
            assert partial_e(n).leading * partial_o(n).leading == 2 ** n

    def test_zero_sets_split_by_parity(self):
        # Even-k cosines are zeros of the even part, odd-k of the odd part.
        for n in range(1, 61):
            for k in range(1, n + 1):
                x = math.cos(k * math.pi / (n + 1))
                target = partial_e_value if k % 2 == 0 else partial_o_value
                other = partial_o_value if k % 2 == 0 else partial_e_value
                assert abs(target(n, x)) < 1e-9
                if n > 1:
                    assert abs(other(n, x)) > 1e-9

    @pytest.mark.parametrize("n", range(0, 41))
    def test_product_formula_rederives_parts(self, n):
        # Expand the even-k / odd-k linear-factor products in floating point
        # and compare coefficient-wise: an independent derivation of both
        # families from the zero grid.
        for part, parity in ((partial_e, 0), (partial_o, 1)):
            prod = [1.0]
            for k in range(1, n + 1):
                if k % 2 != parity:
                    continue
                root = math.cos(k * math.pi / (n + 1))
                new = [0.0] * (len(prod) + 1)
                for i, c in enumerate(prod):
                    new[i] += c * (-2.0 * root)
                    new[i + 1] += 2.0 * c
                prod = new
            got = part(n).coeffs
            assert len(prod) == len(got)
            # Expansion error scales with the largest coefficient; keep the
            # bound below 1/2 so integer coefficients stay uniquely pinned.
            scale = max(1.0, *(abs(c) for c in got))
            assert 1e-9 * scale < 0.5
            for approx, exact in zip(prod, got):
                assert abs(approx - exact) <= 1e-9 * scale


class TestCompress:
    def test_halves_second_kind(self):
        assert compress(cheb_u(2)) == Poly([-1, 0, 1])

    def test_linear(self):
        assert compress(cheb_u(1)) == Poly([0, 1])

    def test_even_part(self):
        assert compress(partial_e(2)) == Poly([1, 1])

    def test_zero_polynomial(self):
        assert compress(Poly()) == Poly()

    def test_rejects_non_integral(self):
        with pytest.raises(NotIntegral):
            compress(Poly([1, 1]))

    @staticmethod
    def _halvable(rng: random.Random, degree: int) -> list[int]:
        # Coefficient k a signed multiple of 2^k, zero about one time in five.
        coeffs = [rng.choice((0, 1, 1, 1, 1)) * rng.randint(-2**70, 2**70) << k
                  for k in range(degree + 1)]
        if coeffs and not coeffs[-1]:
            coeffs[-1] = -1 << degree
        return coeffs

    def test_matches_per_coefficient_reference(self):
        rng = random.Random(2024)
        for degree in [-1, 0, 1, 2, 300, *rng.sample(range(3, 300), 25)]:
            coeffs = self._halvable(rng, degree)
            assert compress(Poly(coeffs)) == Poly(
                [c // 2**k for k, c in enumerate(coeffs)]), degree

    def test_names_the_lowest_coefficient_that_breaks(self):
        rng = random.Random(4048)
        for degree in [1, 2, 300, *rng.sample(range(3, 300), 25)]:
            coeffs = self._halvable(rng, degree)
            k = rng.randint(1, degree)
            coeffs[k] += rng.choice((-1, 1)) << rng.randrange(k)
            # A second, higher break that must not be the one named.
            if k < degree:
                coeffs[degree] += 1
            with pytest.raises(NotIntegral) as caught:
                compress(Poly(coeffs))
            assert str(caught.value) == (
                f"coefficient {coeffs[k]} of degree {k} not divisible by 2^{k}")


def _monic_corruptions(member: Poly, step: int) -> list[Poly]:
    """member with a bit below 2^k set in coefficient k >= 1 and 2^k added
    to coefficient k (it still halves), at every step-th k and the top
    one; the top coefficient 2^deg - 1, 2^deg + 1 and 2^(deg+1); negated;
    and one degree higher."""
    c, top = list(member.coeffs), member.degree
    out = []
    for k in [*range(0, top, step), top]:
        for bit in ((1 << k - 1,) if k else ()) + (1 << k,):
            bad = list(c)
            bad[k] += bit
            out.append(Poly(bad))
    for lead in ((1 << top) - 1, (1 << top) + 1, 1 << top + 1):
        out.append(Poly(c[:-1] + [lead]))
    return out + [-member, Poly(c + [1 << top + 1]), Poly(c + [1])]


def _monic_reference(name: str, n: int, poly: Poly) -> IdentityCheck:
    """The battery's compressed-monic record, coefficient by coefficient
    (test oracle): the coefficients against () if one of degree k is not a
    multiple of 2^k, else the halved coefficients against themselves with
    a leading 1 unless they already have it."""
    coeffs = poly.coeffs
    if any(c % 2 ** k for k, c in enumerate(coeffs)):
        return IdentityCheck(name, n, False, coeffs, ())
    halved = tuple(c // 2 ** k for k, c in enumerate(coeffs))
    if halved and halved[-1] == 1:
        return IdentityCheck(name, n, True)
    return IdentityCheck(name, n, False, halved, halved[:-1] + (1,))


class TestCompressedMonic:
    """The battery's per-n monic check gives the records of a coefficient-
    by-coefficient reference."""

    @staticmethod
    def _assert_as_reference(at, poly):
        name = "compressed-u-monic"
        assert identities._compressed_monic(name, at, poly) == _monic_reference(name, at, poly)

    def test_random_polynomials(self):
        rng = random.Random(2026)
        for degree in [0, 1, 2, 300, *rng.sample(range(3, 300), 40)]:
            halvable = TestCompress._halvable(rng, degree)
            for lead in (1 << degree, -1 << degree, rng.randint(-2**80, 2**80) << degree):
                self._assert_as_reference(7, Poly(halvable[:-1] + [lead]))
            self._assert_as_reference(
                7, Poly([rng.randint(-2**40, 2**40) for _ in range(degree + 1)]))
        self._assert_as_reference(7, Poly())

    # A bad bit at every position up to degree 300, at every 25th from
    # degree 1000 on, where compress takes a millisecond a failure.  Each
    # record carries the index it is asked at, whatever the member's
    # degree: the last two ask at 30 for members of higher degree.
    @pytest.mark.parametrize("family, n, at, step", [
        ("u", 40, 40, 1), ("pe", 41, 41, 1), ("po", 40, 40, 1), ("u", 300, 300, 1),
        ("u", 1000, 1000, 25), ("pe", 2000, 2000, 25), ("po", 2001, 2001, 25),
        ("u", 60, 30, 1), ("pe", 81, 30, 1)])
    def test_corrupted_members(self, family, n, at, step):
        member = {"u": cheb_u, "pe": partial_e, "po": partial_o}[family](n)
        assert member.degree >= 1000 or n < 1000
        assert identities._compressed_monic(family, at, member) == IdentityCheck(family, at, True)
        for bad in _monic_corruptions(member, step):
            self._assert_as_reference(at, bad)
        self._assert_as_reference(at, Poly())


class TestCompanionPolynomials:
    def test_first_three(self):
        assert s_poly(0) == Poly([-1, 1])
        assert s_poly(1) == Poly([-2, -2, 4])
        assert s_poly(2) == Poly([-3, -3, 6])

    def test_factored_forms(self):
        # 2(2x+1)(x-1) and 3(2x+1)(x-1), expanded with exact arithmetic.
        x_minus_1 = Poly([-1, 1])
        assert s_poly(1) == 2 * (Poly([1, 2]) * x_minus_1)
        assert s_poly(2) == 3 * (Poly([1, 2]) * x_minus_1)

    def test_degree(self):
        for m in range(0, 101):
            assert s_poly(2 * m).degree == m + 1
            assert s_poly(2 * m + 1).degree == m + 2

    def test_vanishes_at_one_exactly(self):
        for n in range(0, 301):
            assert s_poly(n).evaluate(1) == 0

    def test_value_at_minus_one_exactly(self):
        for m in range(1, 151):
            assert s_poly(2 * m).evaluate(-1) == 2 * (-1) ** (m - 1) * (2 * m + 1)
            assert s_poly(2 * m + 1).evaluate(-1) == 4 * (-1) ** m

    def test_even_grid_values(self):
        # Values on the even cosine grid, both parities, against the
        # closed-form expressions.
        for m in range(1, 61):
            for k in range(1, m + 1):
                x = math.cos(2 * k * math.pi / (2 * m + 1))
                expected = (2 * (-1) ** k / math.cos(k * math.pi / (2 * m + 1))
                            * (m + (m + 1) * x))
                assert abs(s_value(2 * m, x) - expected) < 1e-9
                x2 = math.cos(2 * k * math.pi / (2 * m + 2))
                expected2 = 2 * (-1) ** k * (
                    2 * m + 1 + (2 * m + 3) * math.cos(k * math.pi / (m + 1)))
                assert abs(s_value(2 * m + 1, x2) - expected2) < 1e-9

    def test_odd_grid_values(self):
        for m in range(1, 61):
            for k in range(1, m + 1):
                x = math.cos((2 * k - 1) * math.pi / (2 * m + 1))
                expected = ((-1) ** k / math.sin((2 * k - 1) * math.pi / (2 * (2 * m + 1)))
                            * (1 + x))
                assert abs(s_value(2 * m, x) - expected) < 1e-9
            for k in range(1, m + 2):
                x = math.cos((2 * k - 1) * math.pi / (2 * m + 2))
                expected = (2 * (-1) ** k / math.sin((2 * k - 1) * math.pi / (2 * m + 2))
                            * (1 + x) ** 2)
                assert abs(s_value(2 * m + 1, x) - expected) < 1e-9

    def test_value_within_bound_of_exact(self):
        # The angle form against the exact value at the same double: within
        # 1e-14 (||head||_1 + ||tail||_1)(m + 1), including next to -1 and 1,
        # where 1 + x or 1 - x goes down to 1e-12.
        rng = random.Random(4021)
        points = [-1.0, 0.0, 1.0] + [rng.uniform(-1.0, 1.0) for _ in range(20)]
        for k in range(1, 13):
            points += [-1.0 + 10.0 ** -k, 1.0 - 10.0 ** -k]
        for n in range(0, 201):
            m, head, tail = chebyshev._s_factors(n)
            bound = 1e-14 * (sum(map(abs, head)) + sum(map(abs, tail))) * (m + 1)
            s = s_poly(n)
            for x in points:
                assert abs(s_value(n, x) - float(s.evaluate(Fraction(x)))) <= bound, (n, x)

    @pytest.mark.parametrize("x", [-1.5, 1.5])
    def test_value_outside_interval_rejected(self, x):
        with pytest.raises(ValueError):
            s_value(7, x)

    def test_value_at_second_even_minimal_zero(self):
        # The odd-index member evaluated at the next even member's minimal
        # zero, against its closed form.
        for m in range(1, 61):
            x = math.cos((2 * m + 2) * math.pi / (2 * m + 3))
            expected = (4 * (-1) ** m * (m + 2)
                        * math.sin(math.pi / (2 * (2 * m + 3)))
                        * (math.cos(math.pi / (2 * m + 3)) - (m + 1) / (m + 2)))
            assert abs(s_value(2 * m + 1, x) - expected) < 1e-9


class TestPhi:
    def test_smallest(self):
        assert phi(0) == Poly([1, -2, 1])

    def test_index_one_factored_form(self):
        x_minus_1 = Poly([-1, 1])
        assert phi(1) == 2 * (Poly([1, 2]) * x_minus_1 * x_minus_1)

    def test_index_three_factorization(self):
        assert phi(3) == Poly([-1, 1]) * partial_e(3) * s_poly(3)

    def test_degree(self):
        for n in range(0, 121):
            assert phi(n).degree == n + 2


class TestIdentitySuite:
    def test_tiny_run_passes(self):
        report = identity_suite(1)
        assert report.ok
        assert report.max_n == 1

    def test_moderate_run_passes(self):
        assert identity_suite(40).ok

    def test_report_sorted_and_json_shape(self):
        report = identity_suite(3)
        keys = [(c.identity, c.n) for c in report.checked]
        assert keys == sorted(keys)
        data = report.to_json_dict()
        assert data == {"max_n": 3, "failures": []}

    def test_corrupted_even_part_is_caught(self, monkeypatch):
        # The formula the builders and the proofs share, changed at n = 4
        # through a test of n that leaves it with no order bound.
        real = chebyshev._Families.defined

        def corrupted(self, family, n):
            p = real(self, family, n)
            if family == "pe" and n == 4:
                coeffs = list(p.coeffs)
                coeffs[0] += 1
                return Poly(coeffs)
            return p

        monkeypatch.setattr(chebyshev._Families, "defined", corrupted)
        report = identity_suite(6)
        failing = {(c.identity, c.n) for c in report.failures}
        assert ("u-split-product", 4) in failing
        entry = next(c for c in report.failures
                     if (c.identity, c.n) == ("u-split-product", 4))
        assert entry.lhs is not None and entry.rhs is not None
        assert entry.lhs != entry.rhs

    @pytest.mark.parametrize("n", [0, 1, 2, 11, 24, 60, 300])
    def test_checked_is_the_eager_sorted_list(self, n):
        # Every check passed, one record per (identity, n) on the parity
        # class it is checked at, sorted: the list built record by record.
        report = identity_suite(n)
        eager = sorted(
            [IdentityCheck(name, k, True) for name, parity, _ in identities._IDENTITIES
             for k in range(n + 1) if parity is None or k % 2 == parity]
            + [IdentityCheck(name, k, True) for name, *_ in identities._PROPERTIES
               for k in range(n + 1)])
        assert report.checked == eager
        assert report.count == len(report.checked)
        # A sound build decides nothing on Poly.
        assert report.decided == [] and report.ok

    def test_check_is_an_immutable_record_that_pickles(self):
        checks = [IdentityCheck("u-square-gap", 4, True),
                  IdentityCheck("compressed-u-monic", 3, False, (0, -6, 0, 8), (0, -3, 0, 1))]
        with pytest.raises(AttributeError):
            checks[0].passed = False
        assert checks[0] == ("u-square-gap", 4, True, None, None)
        copy = pickle.loads(pickle.dumps(checks))
        assert copy == checks
        assert [type(c) for c in copy] == [IdentityCheck, IdentityCheck]
        # Every plain result record is such a tuple: its fields in order, its
        # defaults kept, no attribute assignable, and a copy that pickles.
        row = qec.CrossCheckRow(3, -0.5, -0.5, -0.5, True)
        records = [
            (checks[1], ("identity", "n", "passed", "lhs", "rhs")),
            (identity_suite(2), ("max_n", "decided", "proven", "ranges")),
            (qec.QecResult(-1.0, qec.Method.KNOWN_SMALL), ("value", "method", "certificate")),
            (row, ("n", "fan_value", "oracle_value", "decomposition_value", "passed")),
            (qec.CrossCheckReport([row]), ("rows",)),
            (roots.gamma(5), ("value", "lo", "hi", "simple")),
        ]
        for record, fields in records:
            assert type(record)._fields == fields
            with pytest.raises(AttributeError):
                setattr(record, fields[0], None)
            copy = pickle.loads(pickle.dumps(record))
            assert copy == record and type(copy) is type(record)
        assert {type(r).__name__: type(r)._field_defaults for r, _ in records} == {
            "IdentityCheck": {"lhs": None, "rhs": None}, "IdentityReport": {},
            "QecResult": {"certificate": None}, "CrossCheckRow": {},
            "CrossCheckReport": {}, "ZeroCert": {}}
        assert records[2][0].certificate is None

    def test_report_failure_payload_roundtrip(self, monkeypatch):
        real = chebyshev._Families.defined
        monkeypatch.setattr(chebyshev._Families, "defined", lambda self, family, n: (
            Poly([5]) if family == "po" else real(self, family, n)))
        report = identity_suite(2)
        assert not report.ok
        data = report.to_json_dict()
        assert data["failures"]
        first = data["failures"][0]
        assert set(first) == {"identity", "n", "lhs", "rhs"}


# -- the identity battery and its order-bound proofs -------------------------

_BATTERY_NAMES = {
    "u-split-product", "u-even-as-split-product", "u-odd-as-split-product",
    "u-even-minus-one-factor", "u-odd-minus-one-factor",
    "u-even-plus-one-factor", "u-odd-plus-one-factor", "u-square-gap",
    "u-even-diff-minus-one-factor", "u-even-sum-minus-one-factor",
    "u-even-diff-plus-one-factor", "u-even-sum-plus-one-factor",
    "u-odd-diff-minus-one-factor", "u-odd-sum-plus-one-factor",
    "u-odd-diff-plus-one-factor", "u-odd-sum-minus-one-factor",
    "compressed-u-monic", "compressed-even-part-monic",
    "compressed-odd-part-monic", "phi-factorization",
    "s-divisible-by-x-minus-one", "even-part-even-index-recurrence",
    "odd-part-even-index-recurrence", "even-part-odd-index-recurrence",
    "odd-part-odd-index-recurrence",
}
_ODD_N_NAMES = {"even-part-is-second-kind", "odd-part-is-doubled-first-kind",
                "s-odd-index-from-split-factors"}
_EVEN_N_NAMES = {"even-part-is-fourth-kind", "odd-part-is-third-kind",
                 "s-even-index-from-split-factors"}


def _falling(d: int) -> tuple[int, ...]:
    p = Poly([1])
    for k in range(d):
        p = p * Poly([-k, 1])
    return p.coeffs


def _digest(report) -> str:
    data = json.dumps(report.to_json_dict(), sort_keys=True)
    return hashlib.sha256(data.encode()).hexdigest()


def _on_poly_only(monkeypatch, max_n):
    """The battery with no tie held, so nothing proven: every check decided
    on Poly."""
    with monkeypatch.context() as m:
        m.setattr(identities, "_walk", lambda reads: False)
        return identity_suite(max_n)


class _AtInteger(chebyshev._Families):
    """The families at one integer x (test oracle).

    u, t, v and w come from their recurrences from _FRESH_SEEDS, with
    U_{-1} = 0 and U_{-2} = -1; the derived families from chebyshev's
    formulas, which the battery reads the stored ones through.
    """

    def __init__(self, x: int, top: int = 170):
        self.x = x
        self._members = {}
        for family, seeds in _FRESH_SEEDS.items():
            values = [self.poly(seed) for seed in seeds]
            while len(values) <= top:
                values.append(2 * x * values[-1] - values[-2])
            self._members[family] = values

    def poly(self, coeffs):
        return sum(c * self.x ** i for i, c in enumerate(coeffs))

    def member(self, family, k):
        if family not in _FRESH_SEEDS:
            return self.defined(family, k)
        if k < 0:
            return {("u", -1): 0, ("u", -2): -1}[family, k]
        return self._members[family][k]


def _rank(rows: list[list[int]]) -> int:
    """Rank over the rationals of an integer matrix, by elimination."""
    rank = 0
    while rows := [row for row in rows if any(row)]:
        pivot, *rows = rows
        col = next(i for i, v in enumerate(pivot) if v)
        rows = [[pivot[col] * v - row[col] * p for v, p in zip(row, pivot)]
                for row in rows]
        rows = [[v // g for v in row] for row in rows if (g := math.gcd(*row))]
        rank += 1
    return rank


def _corruptions(member: Poly) -> list[Poly]:
    """member with a constant, middle or leading coefficient off by one, an
    extra leading coefficient, its leading coefficient dropped, and zero."""
    coeffs, out = member.coeffs, []
    for i in sorted({0, len(coeffs) // 2, max(len(coeffs) - 1, 0)}):
        for step in (-1, 1):
            changed = list(coeffs) or [0]
            changed[i] += step
            out.append(Poly(changed))
    return out + [Poly((*coeffs, 1)), Poly(coeffs[:-1]), Poly()]


class TestRecurrenceTie:
    @pytest.mark.parametrize("family", sorted(_FRESH_SEEDS))
    def test_agrees_with_poly_recurrence(self, family):
        builder, first = _BASE_BUILDERS[family], -2 if family == "u" else 0
        below = [builder(first), builder(first + 1)]
        for k in range(first + 2, 61):
            member = builder(k)
            for candidate in (member, *_corruptions(member)):
                for pair in (below, below[::-1]):
                    want = candidate == Poly((0, 2)) * pair[1] - pair[0]
                    assert identities._tie(family, k, candidate, pair) == want, (
                        family, k, candidate, pair)
            assert identities._tie(family, k, member, below)
            below = [below[1], member]

    @pytest.mark.parametrize("family", sorted(_FRESH_SEEDS))
    def test_seeds_are_tied_to_themselves(self, family):
        first = -2 if family == "u" else 0
        for k in (first, first + 1):
            member = _BASE_BUILDERS[family](k)
            assert identities._tie(family, k, member, [])
            for wrong in _corruptions(member):
                if wrong != member:
                    assert not identities._tie(family, k, wrong, []), (family, k, wrong)


class TestModularBattery:
    @pytest.mark.parametrize("n", [0, 1, 2, 7, 40])
    def test_shape(self, n):
        # 28 checks per index; verify --max-n 300 counts 8428 of them.
        report = identity_suite(n)
        assert len(report.checked) == 28 * (n + 1)
        names = {c.identity for c in report.checked}
        expected = _BATTERY_NAMES | _EVEN_N_NAMES | (_ODD_N_NAMES if n else set())
        assert names == expected
        assert report.ok
        # The zero localization of S_n rests on these; their base checks run
        # at n <= 7 whatever max_n is.
        assert set(roots.LOCALIZATION_IDENTITIES) <= set(report.proven)

    def test_split_factor_forms_of_s_have_order_bound_four(self):
        bounds = {name: identities._order(fn, parity)[0]
                  for name, parity, fn in identities._IDENTITIES}
        assert bounds["s-odd-index-from-split-factors"] == 4
        assert bounds["s-even-index-from-split-factors"] == 4

    def test_passes_are_proven_without_poly_above_n_11(self, monkeypatch):
        # Every passing identity is decided on Poly only at its base checks,
        # j = 0..B-1 with B <= 6, so n <= 11.
        real = identities._cmp

        def base_only(identity, n, lhs, rhs):
            assert n <= 11, (identity, n)
            return real(identity, n, lhs, rhs)

        monkeypatch.setattr(identities, "_cmp", base_only)
        assert identity_suite(60).ok

    @pytest.mark.parametrize("x", [2, 3, 5])
    def test_order_bound_covers_the_hankel_rank(self, x):
        # At an integer x each side of an identity, on one parity class, is
        # an integer sequence in j; the rank of its Hankel matrix is the
        # order of its shortest recurrence, which the bound must reach.
        at = _AtInteger(x)
        for name, parity, fn in identities._IDENTITIES:
            for r in (0, 1) if parity is None else (parity,):
                bounds = fn(identities._Orders(), identities._Index(2, r))
                sides = zip(*(fn(at, 2 * j + r) for j in range(41)))
                for bound, seq in zip(bounds, sides):
                    hankel = [list(seq[i:i + 21]) for i in range(21)]
                    assert bound.order() >= _rank(hankel), (name, r)

    def test_rank_oracle(self):
        fib = [0, 1]
        while len(fib) < 41:
            fib.append(fib[-1] + fib[-2])
        squares = [j * j for j in range(41)]
        for seq, rank in ((fib, 2), (squares, 3), ([7] * 41, 1), ([0] * 41, 0)):
            assert _rank([seq[i:i + 21] for i in range(21)]) == rank

    @pytest.mark.parametrize("use", [
        lambda n: n == 7, lambda n: n < 7, lambda n: bool(n), lambda n: {n},
        lambda n: n // 4, lambda n: divmod(n // 2, 2), lambda n: n * n,
        lambda n: n % 2, lambda n: 1 + n, lambda n: 1 - n,
    ], ids=["eq", "lt", "bool", "hash", "floordiv-4", "divmod-slope-1", "square",
            "mod", "int-plus-index", "int-minus-index"])
    def test_formula_that_is_not_affine_in_j_gets_no_bound(self, use):
        def fn(f, n):
            use(n)
            return f.u(n), f.u(n)

        assert identities._order(fn, 0) == (None, [])

    def test_falling_product_needs_its_whole_bound(self, monkeypatch):
        # prod_{i<12} (n - i) vanishes at n = 0..11, six indices of each
        # parity: two base checks would pass, but its bound asks for 13.
        def falling(f, n):
            return math.prod(f.poly((n - i,)) for i in range(12)), f.poly(())

        monkeypatch.setattr(identities, "_IDENTITIES", [("falling-12", None, falling)])
        assert identities._order(falling, 0)[0] == 13
        report = identity_suite(30)
        assert [(c.identity, c.n) for c in report.failures] == [
            ("falling-12", n) for n in range(12, 31)]
        assert report.checked == _on_poly_only(monkeypatch, 30).checked

    def test_companion_flipped_at_one_index_falls_back(self, monkeypatch):
        # _s_factors that tests its index cannot run on a*j + b, so no
        # identity reading S_n is proven, and the flip at 31 is found by
        # each of those checked at odd n.
        real = chebyshev._s_factors

        def flipped(n):
            m, head, tail = real(n)
            return (m, head, (-tail[0],) + tail[1:]) if n == 31 else (m, head, tail)

        monkeypatch.setattr(chebyshev, "_s_factors", flipped)
        report = identity_suite(40)
        assert [(c.identity, c.n) for c in report.failures] == [
            ("phi-factorization", 31), ("s-divisible-by-x-minus-one", 31),
            ("s-odd-index-from-split-factors", 31)]
        assert report.checked == _on_poly_only(monkeypatch, 40).checked

    @pytest.mark.parametrize("coeffs", [
        # x(x-1)...(x-d+1): zero at the points 0..d-1, nonzero at d.
        *(pytest.param(_falling(d), id=f"falling-{d}") for d in (0, 1, 5, 40)),
    ])
    def test_near_misses_are_refuted(self, monkeypatch, coeffs):
        table = [("near-miss", None, lambda f, n: (f.poly(coeffs), f.poly(())))]
        monkeypatch.setattr(identities, "_IDENTITIES", table)
        report = identity_suite(0)
        assert [(c.identity, c.lhs, c.rhs) for c in report.failures] == [
            ("near-miss", coeffs, ())]

    def test_agrees_with_poly_battery(self, monkeypatch):
        on_poly = _on_poly_only(monkeypatch, 30)
        assert identity_suite(30).checked == on_poly.checked
        assert on_poly.proven == ()

    # A sign flipped in one term of one right-hand side.  Failure sets and
    # digests of the JSON report were recorded from the all-Poly battery,
    # under the same mutation.
    @pytest.mark.parametrize("name, mutated, failing, digest", [
        ("u-even-as-split-product",
         lambda f, n: (f.u(2 * n), f.u(n) * f.u(n) + f.u(n - 1) * f.u(n - 1)),
         range(1, 41),
         "b7ccf54579f6b9016ead4773526713b8c21f98c95fbf9d4ddedea3cb366f3dcb"),
        ("u-odd-sum-plus-one-factor",
         lambda f, n: (f.u(2 * n + 1) + f.u(2 * n) + 1,
                       (2 * f.x + 2) * (f.u(n) * f.u(n) + f.u(n) * f.u(n - 1))),
         range(1, 41),
         "f6b17eb67c60b06ec5eb8bf1744bb9c763fb2cc8934c1ebfb7a3fcc6ac9721f0"),
        ("odd-part-odd-index-recurrence",
         lambda f, k: (f.po(2 * k + 5), 2 * f.x * f.po(2 * k + 3) + f.po(2 * k + 1)),
         range(0, 41),
         "eb38e9adb946b9e47ad281866b2e84fb3c11c08bda5e82a755990e406442a5de"),
    ], ids=["u-even-as-split-product", "u-odd-sum-plus-one-factor",
            "odd-part-odd-index-recurrence"])
    def test_mutated_identity_is_caught(self, monkeypatch, name, mutated,
                                        failing, digest):
        table = [(n_, parity, mutated if n_ == name else fn)
                 for n_, parity, fn in identities._IDENTITIES]
        monkeypatch.setattr(identities, "_IDENTITIES", table)
        report = identity_suite(40)
        assert [(c.identity, c.n) for c in report.failures] == [
            (name, n) for n in failing]
        for c in report.failures:
            lhs, rhs = mutated(identities._STORED, c.n)
            assert (c.lhs, c.rhs) == (lhs.coeffs, rhs.coeffs)
        assert report.checked == _on_poly_only(monkeypatch, 40).checked
        assert _digest(report) == digest

    # cheb_u with constant coefficient + 1 at one index k, 40 < k <= 81:
    # failures and digest recorded as above.
    @pytest.mark.parametrize("k, failing, digest", [
        (42, 16, "0eeec8ad0a39d22e07fee689e9eb35333aaffa4fd6c456bdf96f99063df037a8"),
        (61, 11, "945b25af36f32b00aea0ad440e8d39ef283e5c652d163bfd7031f419331f5a5b"),
        (81, 7, "8bb7412b71b82ac9257d179968acc51f95b7cfcc41d3915d7e07caa147b1a41d"),
    ], ids=["k42", "k61", "k81"])
    def test_corrupted_second_kind_is_caught(self, monkeypatch, k, failing, digest):
        real = cheb_u

        def corrupted(n):
            p = real(n)
            if n == k:
                return Poly((p.coeffs[0] + 1,) + p.coeffs[1:])
            return p

        monkeypatch.setattr(chebyshev, "cheb_u", corrupted)
        report = identity_suite(40)
        assert len(report.failures) == failing
        assert _digest(report) == digest

    # One wrong coefficient in member 7 of the first, third or fourth kind
    # fails its tie, and the one cross-kind identity that reads it.
    @pytest.mark.parametrize("family, failing", [
        ("t", ("odd-part-is-doubled-first-kind", 13)),
        ("v", ("odd-part-is-third-kind", 14)),
        ("w", ("even-part-is-fourth-kind", 14)),
    ])
    def test_corrupted_other_kind_is_caught(self, monkeypatch, family, failing):
        real = getattr(chebyshev, f"cheb_{family}")

        def corrupted(n):
            p = real(n)
            if n == 7:
                return Poly((p.coeffs[0] + 1,) + p.coeffs[1:])
            return p

        monkeypatch.setattr(chebyshev, f"cheb_{family}", corrupted)
        report = identity_suite(40)
        assert [(c.identity, c.n) for c in report.failures] == [failing]
        lhs, rhs = report.failures[0].lhs, report.failures[0].rhs
        assert lhs[0] != rhs[0] and lhs[1:] == rhs[1:]

    def test_corrupted_split_factors_match_poly_battery(self, monkeypatch):
        # The two corruptions of TestIdentitySuite, compared in full.  The
        # digests were re-recorded from the all-Poly battery when the two
        # s-*-index-from-split-factors identities, which read both factors,
        # joined the battery.
        real = chebyshev._Families.defined

        def corrupted(self, family, n):
            p = real(self, family, n)
            if family == "pe" and n == 4:
                return Poly((p.coeffs[0] + 1,) + p.coeffs[1:])
            return p

        with monkeypatch.context() as m:
            m.setattr(chebyshev._Families, "defined", corrupted)
            assert _digest(identity_suite(6)) == (
                "255820dc416cd68655562702f0c553350c6669803777716a468827e602202476")
        monkeypatch.setattr(chebyshev._Families, "defined", lambda self, family, n: (
            Poly([5]) if family == "po" else real(self, family, n)))
        assert _digest(identity_suite(2)) == (
            "2284f693f6144e8dc5339bb1297450edd69e1956c9056e8c100771998f16ca54")


# -- the coefficient properties, proven for every n --------------------------

_PROPERTY_NAMES = {"compressed-u-monic", "compressed-even-part-monic",
                   "compressed-odd-part-monic", "s-divisible-by-x-minus-one"}


def _count_property_checks(monkeypatch) -> collections.Counter:
    """Count the battery's per-n coefficient-property checks by name."""
    counts = collections.Counter()
    for attr in ("_compressed_monic", "_divisible_by_x_minus_one"):
        real = getattr(identities, attr)

        def counting(name, n, poly, real=real):
            counts[name] += 1
            return real(name, n, poly)

        monkeypatch.setattr(identities, attr, counting)
    return counts


def _compressed_members(first: tuple[int, ...], second: tuple[int, ...], top: int):
    """Members 0..top of P(k+1) = x P(k) - P(k-1) from two seeds, as
    ascending coefficient lists (stdlib only), holding only the last two."""
    prev, cur = list(first), list(second)
    yield prev
    for _ in range(top):
        yield cur
        following = [0, *cur]
        following[:len(prev)] = map(operator.sub, following, prev)
        prev, cur = cur, following


# U(x/2), 2T(x/2), V(x/2) and W(x/2) at indices 0 and 1, written out here,
# with the values of U, T, V and W at 1 at indices 0 and 1.
_COMPRESSED_SEEDS = {
    "u": (((1,), (0, 1)), (1, 2)),
    "2t": (((2,), (0, 1)), (1, 1)),
    "v": (((1,), (-1, 1)), (1, 1)),
    "w": (((1,), (1, 1)), (1, 3)),
}


class TestCoefficientProperties:
    """The four coefficient properties are proven for every n: compress and
    S_n(1) run per n only where a tie or an identity they rest on fails."""

    def test_sound_battery_runs_no_per_n_check(self, monkeypatch):
        counts = _count_property_checks(monkeypatch)
        report = identity_suite(300)
        assert report.ok and not counts
        assert len(report.proven) == 31 and _PROPERTY_NAMES <= set(report.proven)

    # Each identity a property rests on (the identities module docstring),
    # made unprovable by a failing base check: exactly the properties that
    # rest on it are decided per n, with the records of the all-Poly battery.
    @pytest.mark.parametrize("prerequisite, dependents", [
        ("even-part-is-second-kind",
         {"compressed-even-part-monic", "s-divisible-by-x-minus-one"}),
        ("even-part-is-fourth-kind",
         {"compressed-even-part-monic", "s-divisible-by-x-minus-one"}),
        ("odd-part-is-doubled-first-kind",
         {"compressed-odd-part-monic", "s-divisible-by-x-minus-one"}),
        ("odd-part-is-third-kind",
         {"compressed-odd-part-monic", "s-divisible-by-x-minus-one"}),
        ("s-odd-index-from-split-factors", {"s-divisible-by-x-minus-one"}),
        ("s-even-index-from-split-factors", {"s-divisible-by-x-minus-one"}),
    ])
    def test_unprovable_prerequisite(self, monkeypatch, prerequisite, dependents):
        parity, real = next((parity, fn) for name, parity, fn in identities._IDENTITIES
                            if name == prerequisite)

        def mutated(f, n):
            lhs, rhs = real(f, n)
            return (lhs, rhs + 1) if f is identities._STORED and n == parity else (lhs, rhs)

        table = [(name, p, mutated if name == prerequisite else fn)
                 for name, p, fn in identities._IDENTITIES]
        monkeypatch.setattr(identities, "_IDENTITIES", table)
        counts = _count_property_checks(monkeypatch)
        report = identity_suite(24)
        assert counts == {name: 25 for name in dependents}
        assert report.checked == _on_poly_only(monkeypatch, 24).checked
        assert [(c.identity, c.n) for c in report.failures] == [(prerequisite, parity)]
        everything = {c.identity for c in report.checked}
        assert set(report.proven) == everything - dependents - {prerequisite}

    def test_per_n_checks_pass_up_to_600(self):
        for n in range(601):
            for name, builder in (("compressed-u-monic", cheb_u),
                                  ("compressed-even-part-monic", partial_e),
                                  ("compressed-odd-part-monic", partial_o)):
                assert identities._compressed_monic(name, n, builder(n)).passed, (name, n)
            assert identities._divisible_by_x_minus_one(
                "s-divisible-by-x-minus-one", n, s_poly(n)).passed, n

    @pytest.mark.parametrize("family", sorted(_COMPRESSED_SEEDS))
    def test_compressed_recurrence_keeps_members_monic(self, family):
        # Integer seeds give integer members; from index 1 on (0 for all
        # but 2T) each is monic of its index's degree, and at x = 2 it has
        # the value at 1 of the uncompressed member.
        (first, second), _ = _COMPRESSED_SEEDS[family]
        builder = {"u": cheb_u, "2t": lambda k: 2 * cheb_t(k), "v": cheb_v,
                   "w": cheb_w}[family]
        for k, coeffs in enumerate(_compressed_members(first, second, 2000)):
            assert len(coeffs) == k + 1, (family, k)
            assert coeffs[-1] == 1 or (family, k) == ("2t", 0), (family, k)
            if k <= 40 or k % 500 == 0:
                assert tuple(coeffs) == compress(builder(k)).coeffs, (family, k)
                assert sum(c << i for i, c in enumerate(coeffs)) == builder(k).evaluate(1)

    def test_values_at_one(self):
        # P(k+1)(1) = 2 P(k)(1) - P(k-1)(1): U_k(1) = k + 1, T_k(1) =
        # V_k(1) = 1 and W_k(1) = 2k + 1.
        closed = {"u": lambda k: k + 1, "2t": lambda k: 1, "v": lambda k: 1,
                  "w": lambda k: 2 * k + 1}
        for family, (_, values) in _COMPRESSED_SEEDS.items():
            prev, cur = values
            for k in range(2001):
                assert prev == closed[family](k), (family, k)
                prev, cur = cur, 2 * cur - prev
