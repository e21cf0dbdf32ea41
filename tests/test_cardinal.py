"""Cardinal arithmetic: absorption, order laws, serialization."""

import pytest
from hypothesis import given, strategies as st

from opequiv.cardinal import (
    ALEPH0,
    Aleph,
    Finite,
    ONE,
    ZERO,
    as_cardinal,
    canonical_int,
    card_add,
    card_from_json,
    card_le,
    card_lt,
    card_max,
    card_min,
    card_scale,
    card_sum,
    card_to_json,
    is_finite,
)

cardinals = st.one_of(
    st.integers(min_value=0, max_value=50).map(Finite),
    st.integers(min_value=0, max_value=2).map(Aleph),
)


def test_aleph_level_cap():
    with pytest.raises(ValueError):
        Aleph(3)
    with pytest.raises(ValueError):
        Finite(-1)


def test_finite_addition():
    assert card_add(Finite(2), Finite(3)) == Finite(5)
    assert card_add(ZERO, ONE) == ONE


def test_infinite_absorption():
    assert card_add(Finite(7), ALEPH0) == ALEPH0
    assert card_add(ALEPH0, Finite(7)) == ALEPH0
    assert card_add(ALEPH0, Aleph(2)) == Aleph(2)
    assert card_add(Aleph(1), Aleph(1)) == Aleph(1)


def test_scale():
    assert card_scale(Finite(3), 4) == Finite(12)
    assert card_scale(ALEPH0, 4) == ALEPH0
    assert card_scale(ALEPH0, 0) == ZERO
    assert card_scale(Finite(5), 0) == ZERO


def test_sum():
    assert card_sum([Finite(1), Finite(2), Finite(3)]) == Finite(6)
    assert card_sum([Finite(1), ALEPH0, Finite(3)]) == ALEPH0
    assert card_sum([]) == ZERO


def test_order():
    assert card_lt(Finite(10**9), ALEPH0)
    assert card_lt(ALEPH0, Aleph(1))
    assert card_le(Finite(3), Finite(3))
    assert not card_lt(Finite(3), Finite(3))
    assert card_max(Finite(2), ALEPH0) == ALEPH0
    assert card_min(Finite(2), ALEPH0) == Finite(2)


def test_as_cardinal():
    assert as_cardinal(4) == Finite(4)
    assert as_cardinal(ALEPH0) is ALEPH0


@given(cardinals, cardinals)
def test_add_commutes(a, b):
    assert card_add(a, b) == card_add(b, a)


@given(cardinals, cardinals, cardinals)
def test_add_associates(a, b, c):
    assert card_add(card_add(a, b), c) == card_add(a, card_add(b, c))


@given(cardinals, cardinals)
def test_order_total(a, b):
    assert card_le(a, b) or card_le(b, a)
    assert card_le(a, b) == (card_lt(a, b) or a == b)


@given(cardinals, cardinals, cardinals)
def test_add_monotone(a, b, c):
    if card_le(a, b):
        assert card_le(card_add(a, c), card_add(b, c))


@given(cardinals)
def test_json_round_trip(c):
    assert card_from_json(card_to_json(c)) == c


def test_json_forms():
    assert card_to_json(Finite(5)) == 5
    assert card_to_json(ALEPH0) == "aleph0"
    assert card_from_json("aleph2") == Aleph(2)
    assert is_finite(card_from_json(3))
    assert not is_finite(card_from_json("aleph0"))


@pytest.mark.parametrize("text", ["aleph\u00b2", "aleph01", "aleph 0", "aleph+1", "aleph-0", "aleph1_0", "aleph"])
def test_aleph_levels_are_canonical_integers(text):
    with pytest.raises(ValueError, match="not a cardinal"):
        card_from_json(text)


@pytest.mark.parametrize(
    "text, value",
    [("0", 0), ("-7", -7), ("120", 120), ("01", None), ("-0", None), ("+1", None), (" 2", None),
     ("2 ", None), ("1_0", None), ("\u0663", None), ("", None), ("x", None)],
)
def test_canonical_int(text, value):
    assert canonical_int(text) == value
