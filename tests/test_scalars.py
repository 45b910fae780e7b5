import gc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from echcap import scalars
from echcap.scalars import (
    exact_sqrt,
    format_rational,
    fractions_over,
    half_integer_power,
    is_integral,
    parse_rational,
)


def test_parse_and_format():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("7") == Fraction(7)
    assert parse_rational(" 10/4 ") == Fraction(5, 2)
    assert format_rational(Fraction(5, 2)) == "5/2"
    assert format_rational(Fraction(3)) == "3/1"


@given(st.fractions(min_value=-1000, max_value=1000))
def test_format_parse_roundtrip(q):
    assert parse_rational(format_rational(q)) == q


def test_is_integral():
    assert is_integral(Fraction(4))
    assert not is_integral(Fraction(1, 2))


def test_exact_sqrt():
    assert exact_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert exact_sqrt(Fraction(0)) == 0
    assert exact_sqrt(Fraction(2)) is None
    with pytest.raises(ValueError):
        exact_sqrt(Fraction(-1))


@given(st.fractions(min_value=0, max_value=100))
def test_exact_sqrt_consistent(q):
    root = exact_sqrt(q)
    if root is not None:
        assert root * root == q


def test_half_integer_power():
    # B^(-i/2) for the quasi-flat weights
    assert half_integer_power(Fraction(64), -1) == Fraction(1, 8)
    assert half_integer_power(Fraction(4096), -2) == Fraction(1, 4096)
    assert half_integer_power(Fraction(9), 3) == 27
    assert half_integer_power(Fraction(2), -1) is None  # sqrt(2) irrational
    assert half_integer_power(Fraction(2), -2) == Fraction(1, 2)


def test_fractions_over_runs_no_older_collection():
    """Building 10^5 Fractions in the int64 lane with den != 1 sets off no
    gen-1 or gen-2 collection, and at most the one gen-0 collection that
    the caller's next allocation runs; with the collector on throughout,
    the same build runs about 12 gen-1 collections."""
    values = np.arange(1, 10**5 + 1, dtype=np.int64) * 7
    generations = []

    def count(phase, info):
        if phase == "start":
            generations.append(info["generation"])

    assert gc.isenabled()
    gc.collect()  # every generation's count starts at 0
    gc.callbacks.append(count)
    try:
        out = fractions_over(values, 21)
    finally:
        gc.callbacks.remove(count)
    assert out[:3] == [Fraction(1, 3), Fraction(2, 3), Fraction(1)]
    assert len(out) == 10**5
    assert generations in ([], [0])


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize("den", [1, 21])
def test_fractions_over_keeps_the_collector_state(enabled, den):
    """A caller that paused the collector keeps it paused; one that did
    not gets it back on."""
    assert gc.isenabled()
    if not enabled:
        gc.disable()
    try:
        fractions_over(np.arange(50, dtype=np.int64), den)
        assert gc.isenabled() is enabled
    finally:
        gc.enable()


def test_fractions_over_restores_the_collector_when_the_build_raises(monkeypatch):
    # object.__new__(int) raises TypeError inside the paused passes
    monkeypatch.setattr(scalars, "Fraction", int)
    assert gc.isenabled()
    with pytest.raises(TypeError):
        fractions_over(np.arange(5, dtype=np.int64), 3)
    assert gc.isenabled()
