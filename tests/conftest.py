"""Fixtures shared by the test modules."""

from fractions import Fraction

import pytest

from fanqec import roots


@pytest.fixture
def split_sign_calls(monkeypatch) -> list[tuple[int, Fraction]]:
    """Every (n, x) that fanqec.roots asks split_signs at, in order.

    roots takes each exact sign it uses, of S_n and of both split factors,
    from one split_signs call, so this list is every sign query it makes.
    """
    calls: list[tuple[int, Fraction]] = []
    real = roots.split_signs

    def recording(n, x):
        calls.append((n, Fraction(x)))
        return real(n, x)

    monkeypatch.setattr(roots, "split_signs", recording)
    return calls
