"""Polynomial families: frozen small members, identities, float oracles."""

import hashlib
import json
import math
import random

import numpy as np
import pytest

from fanqec.chebyshev import (
    NotIntegral,
    cheb_t,
    cheb_u,
    cheb_v,
    cheb_w,
    compress,
    identity_suite,
    partial_e,
    partial_e_value,
    partial_o,
    partial_o_value,
    phi,
    s_poly,
    s_value,
    u_value,
)
from fanqec import chebyshev, identities
from fanqec.polynomial import ONE, Poly


def u_value_reference(n: int, x: float) -> float:
    """U_n(x), n >= 0, by the forward recurrence started at U_0 = 1, U_1 = 2x."""
    prev, cur = 1.0, 2.0 * x
    if n == 0:
        return prev
    for _ in range(n - 1):
        prev, cur = cur, 2.0 * x * cur - prev
    return cur


class TestSecondKind:
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
        assert cheb_t(0) == ONE
        assert cheb_t(1) == Poly([0, 1])
        assert cheb_t(2) == Poly([-1, 0, 2])

    def test_third_kind_seed(self):
        assert cheb_v(0) == ONE
        assert cheb_v(1) == Poly([-1, 2])

    def test_fourth_kind_matches_even_part(self):
        assert cheb_w(1) == Poly([1, 2])
        assert cheb_w(1) == partial_e(2)

    def test_negative_index_rejected(self):
        for fam in (cheb_t, cheb_v, cheb_w, partial_e, partial_o, s_poly, phi):
            with pytest.raises(ValueError):
                fam(-1)


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

    def test_value_from_one_walk_equals_two_walks(self):
        # s_value takes U_m and U_{m-1} from one float walk; the same
        # operations as two u_value walks, so the values are equal, not close.
        rng = random.Random(4021)
        points = [-1.0, 0.0, 1.0] + [rng.uniform(-1.0, 1.0) for _ in range(50)]
        for m in range(0, 201):
            for x in points:
                assert u_value(m, x) == u_value_reference(m, x)
        for n in range(0, 401):
            m, odd = divmod(n, 2)
            for x in points:
                um, um1 = u_value(m, x), u_value(m - 1, x)
                if odd:
                    two_walks = (2.0 * ((2 * m + 2) * x * x + (2 * m - 1) * x - 1.0) * um
                                 - 2.0 * ((2 * m + 3) * x + 2 * m + 1) * um1)
                else:
                    two_walks = (((2 * m + 1) * x + 2 * m - 1) * um
                                 - ((2 * m + 3) * x + 2 * m + 1) * um1)
                assert s_value(n, x) == two_walks, (n, x)

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
        real = partial_e

        def corrupted(n):
            p = real(n)
            if n == 4:
                coeffs = list(p.coeffs)
                coeffs[0] += 1
                return Poly(coeffs)
            return p

        monkeypatch.setattr(chebyshev, "partial_e", corrupted)
        report = identity_suite(6)
        failing = {(c.identity, c.n) for c in report.failures}
        assert ("u-split-product", 4) in failing
        entry = next(c for c in report.failures
                     if (c.identity, c.n) == ("u-split-product", 4))
        assert entry.lhs is not None and entry.rhs is not None
        assert entry.lhs != entry.rhs

    def test_report_failure_payload_roundtrip(self, monkeypatch):
        monkeypatch.setattr(chebyshev, "partial_o", lambda n: Poly([5]))
        report = identity_suite(2)
        assert not report.ok
        data = report.to_json_dict()
        assert data["failures"]
        first = data["failures"][0]
        assert set(first) == {"identity", "n", "lhs", "rhs"}


# -- the modular identity battery ---------------------------------------------

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
_ODD_N_NAMES = {"even-part-is-second-kind", "odd-part-is-doubled-first-kind"}
_EVEN_N_NAMES = {"even-part-is-fourth-kind", "odd-part-is-third-kind"}


def _falling(d: int) -> tuple[int, ...]:
    p = Poly([1])
    for k in range(d):
        p = p * Poly([-k, 1])
    return p.coeffs


def _digest(report) -> str:
    data = json.dumps(report.to_json_dict(), sort_keys=True)
    return hashlib.sha256(data.encode()).hexdigest()


def _on_poly_only(monkeypatch, max_n):
    """The battery with every check decided on the stored Poly objects."""
    with monkeypatch.context() as m:
        m.setattr(identities._Tables, "vanishes", lambda *args: False)
        return identity_suite(max_n)


@pytest.fixture
def cold_caches():
    # A corrupted cheb_u reaches the cached derived families; start and end
    # with empty caches so that no other test sees or supplies them.
    caches = (partial_e, partial_o, s_poly, phi)
    for fn in caches:
        fn.cache_clear()
    yield
    for fn in caches:
        fn.cache_clear()


class TestModularBattery:
    @pytest.mark.parametrize("n", [0, 1, 2, 7, 40])
    def test_shape(self, n):
        # 27 checks per index; verify --max-n 300 counts 8127 of them.
        report = identity_suite(n)
        assert len(report.checked) == 27 * (n + 1)
        names = {c.identity for c in report.checked}
        expected = _BATTERY_NAMES | _EVEN_N_NAMES | (_ODD_N_NAMES if n else set())
        assert names == expected
        assert report.ok

    def test_primes_are_distinct_primes_above_every_point(self):
        # PRIMES, and the primes that extend them past its product (2**992),
        # as an index above about 380 needs.
        primes = identities._primes_above(2 ** 1200)
        assert tuple(primes[:32]) == identities.PRIMES
        assert len(set(primes)) == len(primes) > 32
        for p in primes:
            assert p < 2 ** 31
            assert p % 2 and all(p % d for d in range(3, math.isqrt(p) + 1, 2))
        # The points are 0..D with D the largest degree bound of a check.
        norms = identities._Norms()
        top_point = max((lhs - rhs).degree for lhs, rhs in
                        (fn(norms, 300) for _, _, fn in identities._IDENTITIES))
        assert min(primes) > top_point >= 601

    def test_norm_bound_covers_every_coefficient(self):
        norms = identities._Norms()
        stored = identities._STORED
        for name, parity, fn in identities._IDENTITIES:
            for n in range(61):
                if parity is not None and n % 2 != parity:
                    continue
                lhs, rhs = fn(stored, n)
                b_lhs, b_rhs = fn(norms, n)
                bound = b_lhs - b_rhs
                diff = lhs - rhs
                assert bound.norm >= max(map(abs, diff.coeffs), default=0)
                assert bound.norm >= sum(map(abs, lhs.coeffs + rhs.coeffs)), (name, n)
                assert bound.degree >= max(lhs.degree, rhs.degree), (name, n)
                primes = identities._primes_above(bound.norm)
                assert math.prod(primes) > bound.norm >= math.prod(primes[:-1])

    def test_passes_are_proven_on_the_modular_backend(self, monkeypatch):
        # Every passing identity is decided without a Poly product.
        def no_poly(*args):
            raise AssertionError("identity decided on Poly")

        monkeypatch.setattr(identities, "_cmp", no_poly)
        assert identity_suite(60).ok

    def test_reduce_is_congruent_and_small(self):
        p = np.array(identities.PRIMES, dtype=np.int64)[:, None]
        limit = identities._INT64_LIMIT - 1
        rng = np.random.default_rng(7)
        a = np.concatenate([
            rng.integers(-limit, limit, size=(len(identities.PRIMES), 500),
                         dtype=np.int64),
            np.array([[-limit, -1, 0, 1, limit]] * len(identities.PRIMES)),
        ], axis=1)
        r = identities._reduce(a, p, 1.0 / p)
        assert np.all(np.abs(r) <= identities._REDUCED_BOUND)
        for row, q in enumerate(identities.PRIMES):
            assert all((int(x) - int(y)) % q == 0 for x, y in zip(a[row], r[row]))

    @pytest.mark.parametrize("coeffs", [
        # x(x-1)...(x-d+1): zero at the points 0..d-1, nonzero at d.
        *(pytest.param(_falling(d), id=f"falling-{d}") for d in (0, 1, 5, 40)),
        # A constant that every prime but the last one needed divides.
        *(pytest.param((math.prod(identities.PRIMES[:k]),), id=f"primes-{k}")
          for k in (1, 3, 10)),
    ])
    def test_near_misses_are_refuted(self, monkeypatch, coeffs):
        table = [("near-miss", None, lambda f, n: (f.poly(coeffs), f.poly(())))]
        monkeypatch.setattr(identities, "_IDENTITIES", table)
        report = identity_suite(0)
        assert [(c.identity, c.lhs, c.rhs) for c in report.failures] == [
            ("near-miss", coeffs, ())]

    def test_agrees_with_poly_battery(self, monkeypatch):
        assert identity_suite(30).checked == _on_poly_only(monkeypatch, 30).checked

    # A sign flipped in one term of one right-hand side.  Failure sets and
    # digests of the JSON report were recorded from the all-Poly battery
    # that the modular one replaced, under the same mutation.
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
    def test_corrupted_second_kind_is_caught(self, monkeypatch, cold_caches,
                                             k, failing, digest):
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

    def test_corrupted_split_factors_match_poly_battery(self, monkeypatch):
        # The two corruptions of TestIdentitySuite, compared in full.
        real = partial_e

        def corrupted(n):
            p = real(n)
            if n == 4:
                return Poly((p.coeffs[0] + 1,) + p.coeffs[1:])
            return p

        with monkeypatch.context() as m:
            m.setattr(chebyshev, "partial_e", corrupted)
            assert _digest(identity_suite(6)) == (
                "3dae26396dc675341b8cf917963e43d8e49429477a972b8b8f7e79211c9b6e23")
        monkeypatch.setattr(chebyshev, "partial_o", lambda n: Poly([5]))
        assert _digest(identity_suite(2)) == (
            "ab3db33cb8097f36176f3cb7a63f47f3810cccb277f8c15f4063ff474ee30ab8")
