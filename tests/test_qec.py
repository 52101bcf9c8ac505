"""The three constant computations and their cross-checks."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from fanqec import qec, roots
from fanqec.graphs import Graph, fan, path, path_spectrum
from fanqec.qec import (
    Method,
    NearSingular,
    cross_validate,
    helmert_basis,
    key_identity_check,
    qec_fan,
    qec_numeric,
)
from fanqec.roots import beta, gamma


def even_closed_form(n: int) -> float:
    return -4.0 * math.sin(math.pi / (2 * (n + 1))) ** 2


class TestHelmertBasis:
    @pytest.mark.parametrize("m", [2, 3, 7, 30])
    def test_orthonormal_and_orthogonal_to_ones(self, m):
        q = helmert_basis(m)
        assert q.shape == (m - 1, m)
        assert np.abs(q @ q.T - np.eye(m - 1)).max() < 1e-12
        assert np.abs(q @ np.ones(m)).max() < 1e-12

    def test_needs_two_coordinates(self):
        with pytest.raises(ValueError):
            helmert_basis(1)


class TestNumericOracle:
    def test_complete_graphs(self):
        assert qec_numeric(fan(1)).value == pytest.approx(-1.0, abs=1e-12)
        assert qec_numeric(fan(2)).value == pytest.approx(-1.0, abs=1e-12)

    def test_smallest_noncomplete_fan(self):
        result = qec_numeric(fan(3))
        assert result.value == pytest.approx(-0.5, abs=1e-10)
        assert result.method is Method.NUMERIC_ORACLE
        assert 0 <= result.certificate["residual"] <= 1e-12

    def test_path_value_is_negative(self):
        assert qec_numeric(path(5)).value < 0

    def test_single_vertex_rejected(self):
        with pytest.raises(ValueError):
            qec_numeric(Graph(1, frozenset()))

    def test_fan_over_cap_refused_before_it_is_built(self, monkeypatch):
        def refuse(n):
            raise AssertionError("fan built above the oracle cap")

        monkeypatch.setattr(qec, "fan", refuse)
        with pytest.raises(ValueError, match=f"numeric oracle takes at most "
                                             f"{qec.MAX_ORACLE_VERTICES} vertices, got 5001"):
            qec_fan(5000, method=Method.NUMERIC_ORACLE)


class TestFanConstant:
    def test_known_small(self):
        for n in (1, 2):
            result = qec_fan(n)
            assert result.value == -1.0
            assert result.method is Method.KNOWN_SMALL

    def test_even_closed_form(self):
        result = qec_fan(4)
        assert result.method is Method.CLOSED_FORM_EVEN
        assert result.value == pytest.approx(even_closed_form(4), abs=0)
        assert result.value == pytest.approx(-0.3819660113, abs=1e-9)

    def test_even_equals_minimal_zero_route(self):
        for n in range(2, 201, 2):
            closed = qec_fan(n, method=Method.CLOSED_FORM_EVEN).value
            root = qec_fan(n, method=Method.ROOT_BASED).value
            assert abs(closed - root) <= 1e-12
            assert abs(root - (-2.0 * beta(n) - 2.0)) == 0.0

    def test_odd_inside_proven_bounds(self):
        result = qec_fan(5)
        assert result.method is Method.ROOT_BASED
        lower = -4.0 * math.sin(math.pi / 12) ** 2
        upper = -4.0 * math.sin(math.pi / 14) ** 2
        assert lower < result.value < upper

    def test_root_certificate_carries_bracket(self):
        cert = qec_fan(7).certificate
        assert cert["bracket_lo"] <= cert["minimal_zero"] <= cert["bracket_hi"]

    def test_oracle_agreement_small(self):
        for n in range(1, 21):
            assert abs(qec_fan(n).value - qec_numeric(fan(n)).value) <= 1e-8

    def test_method_restrictions(self):
        with pytest.raises(ValueError):
            qec_fan(5, method=Method.CLOSED_FORM_EVEN)
        with pytest.raises(ValueError):
            qec_fan(3, method=Method.KNOWN_SMALL)
        with pytest.raises(ValueError):
            qec_fan(0)

    # The closed form, the two known small fans, the gamma bisection, and
    # the beta route, which bisects nothing.
    @pytest.mark.parametrize("n, method, tol", [
        (4, "auto", math.nan), (1, "auto", math.inf), (100, "auto", -1.0),
        (4, "auto", 0.0), (5, "auto", math.nan), (6, Method.ROOT_BASED, math.inf)])
    def test_bad_tol_is_refused_on_every_route(self, n, method, tol):
        with pytest.raises(ValueError, match=(
                f"^tol must be a positive finite number, got {tol!r}$")):
            qec_fan(n, method=method, tol=tol)


class TestBranchValues:
    def test_sigma_orderings(self):
        # sigma = 2 gamma_n against the path spectrum.
        w4 = path_spectrum(4)
        assert w4[3] < 2 * gamma(4).value < w4[2]
        assert 2 * gamma(5).value < path_spectrum(5)[4]
        assert 2 * gamma(3).value == -1.5  # 2 * (-3/4), exact zero


class TestKeyIdentity:
    def test_tiny_path(self):
        assert key_identity_check(1, -3) < 1e-12

    def test_examples(self):
        assert key_identity_check(5, Fraction(-5, 2)) <= 1e-10
        assert key_identity_check(10, 3) <= 1e-10

    def test_random_admissible_samples(self):
        rng = random.Random(20250810)
        count = 0
        while count < 50:
            n = rng.randint(1, 60)
            num = rng.randint(201, 1000) * rng.choice((-1, 1))
            a = Fraction(num, 100)  # |a| in [2.01, 10]
            assert key_identity_check(n, a) <= 1e-9
            count += 1

    def test_near_eigenvalue_rejected(self):
        with pytest.raises(NearSingular):
            key_identity_check(2, 1)  # largest eigenvalue of the 2-path

    def test_near_two_rejected(self):
        with pytest.raises(NearSingular):
            key_identity_check(4, 2)


class TestCrossValidation:
    def test_small_range(self):
        report = cross_validate(8, 1e-8)
        assert report.ok
        first = report.rows[0]
        assert first.n == 3
        assert first.fan_value == pytest.approx(-0.5, abs=1e-10)
        assert first.decomposition_value == pytest.approx(-0.5, abs=1e-10)

    def test_decomposition_is_the_smaller_branch(self):
        # -min(sigma, tau) - 2 with sigma = 2 gamma_n and tau = 2 beta_n,
        # bit for bit; tau has no eigenvalue below -1 at n = 3 and 5, where
        # sigma alone counts.
        for row in cross_validate(60).rows:
            n = row.n
            sigma = 2 * gamma(n).value
            branch = sigma if n in (3, 5) else min(sigma, 2 * beta(n))
            assert row.decomposition_value == -branch - 2.0, f"n={n}"

    def test_each_odd_gamma_is_certified_once(self, monkeypatch):
        # At odd n the selected method is the root route: its result is the
        # decomposition too, so gamma_n is not certified a second time.
        asked = []
        real = roots.gamma

        def counting(n, *args):
            asked.append(n)
            return real(n, *args)

        monkeypatch.setattr(roots, "gamma", counting)
        rows = cross_validate(9).rows
        assert sorted(asked) == [3, 5, 7, 9]
        assert all(r.decomposition_value == r.fan_value for r in rows if r.n % 2)

    def test_absent_branch_handled(self):
        report = cross_validate(6, 1e-8)
        assert {r.n for r in report.rows} == {3, 4, 5, 6}
        assert report.ok

    def test_even_zero_is_wrong_for_odd_indices(self):
        # Substituting the even-factor zero for the companion zero at an odd
        # index must break oracle agreement: the case split is real.
        wrong = -2.0 * beta(7) - 2.0
        assert abs(wrong - qec_numeric(fan(7)).value) > 1e-8

    def test_needs_three(self):
        with pytest.raises(ValueError):
            cross_validate(2)
