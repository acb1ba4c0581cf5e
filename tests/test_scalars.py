from fractions import Fraction

import pytest

from colorlie.scalars import (
    GQ,
    I,
    MINUS_ONE,
    ONE,
    ZERO,
    gq_to_pair,
    pair_to_gq,
    parse_rational,
    rational_str,
)


def test_construction_and_equality():
    assert GQ(2) == GQ(Fraction(2))
    assert GQ(2) == 2
    assert GQ(Fraction(1, 2)) == Fraction(1, 2)
    assert GQ(0, 1) == I
    assert GQ(1, 1) != GQ(1)
    assert hash(GQ(3)) == hash(GQ(3, 0))


def test_arithmetic():
    a = GQ(1, 2)
    b = GQ(3, -1)
    assert a + b == GQ(4, 1)
    assert a - b == GQ(-2, 3)
    assert a * b == GQ(5, 5)  # (1+2i)(3-i) = 3 - i + 6i + 2 = 5 + 5i
    assert -a == GQ(-1, -2)
    assert a * ZERO == ZERO
    assert a * ONE == a
    assert MINUS_ONE * MINUS_ONE == ONE


def test_division_and_inverse():
    a = GQ(1, 2)
    assert a / a == ONE
    assert (a / GQ(2)) * GQ(2) == a
    assert ONE / I == -I
    with pytest.raises(ZeroDivisionError):
        _ = a / ZERO


def test_conjugate_norm():
    a = GQ(3, 4)
    assert a.conjugate() == GQ(3, -4)
    assert a.norm() == Fraction(25)
    assert (a * a.conjugate()) == GQ(25)


def test_predicates():
    assert GQ(Fraction(7, 3)).is_rational()
    assert not I.is_rational()
    assert GQ(5).is_integer()
    assert not GQ(Fraction(1, 2)).is_integer()
    assert not ZERO
    assert ONE


def test_rational_str_round_trip():
    for q in (Fraction(0), Fraction(5), Fraction(-3, 7), Fraction(22, 4)):
        assert parse_rational(rational_str(q)) == q
    assert rational_str(Fraction(3)) == "3"
    assert rational_str(Fraction(-1, 2)) == "-1/2"


@pytest.mark.parametrize("text, message", [
    *((t, "not a rational string") for t in
      ("1e3", "0.5", " 1/2", "+3", "1_0", "-1/-2", "1e1000000")),
    ("1/0", "zero denominator in '1/0'"),
])
def test_parse_rational_is_strict(text, message):
    """Only -?[0-9]+(/[0-9]+)? with a nonzero denominator parses: no decimal
    or exponent form (which would also let a short string build a huge
    integer), no whitespace, no "+" sign, no digit separator and no signed
    denominator."""
    with pytest.raises(ValueError, match=message):
        parse_rational(text)


def test_pair_round_trip():
    for z in (ZERO, ONE, I, GQ(Fraction(-2, 3), Fraction(5, 7))):
        assert pair_to_gq(gq_to_pair(z)) == z
