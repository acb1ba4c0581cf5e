"""Property tests: GQ against a reference model holding a pair of Fractions."""
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colorlie.scalars import GQ, gq_to_pair, pair_to_gq

examples = settings(max_examples=300, deadline=None)

# numerators/denominators from small to far beyond a machine word
ints = st.one_of(st.integers(-12, 12), st.integers(-(10 ** 40), 10 ** 40))
dens = st.one_of(st.integers(1, 12), st.integers(1, 10 ** 40))
rationals = st.one_of(
    st.just(Fraction(0)),
    ints.map(Fraction),
    st.builds(Fraction, ints, dens),
)
pairs = st.one_of(
    st.tuples(rationals, rationals),
    st.tuples(st.just(Fraction(0)), rationals),  # pure imaginary
    st.tuples(rationals, st.just(Fraction(0))),  # rational
)
plain = st.one_of(ints, rationals)  # int or Fraction operands


class Ref:
    """Reference model: exact re/im as a Fraction pair."""

    def __init__(self, re, im=Fraction(0)):
        self.re, self.im = Fraction(re), Fraction(im)

    def add(self, o):
        return Ref(self.re + o.re, self.im + o.im)

    def sub(self, o):
        return Ref(self.re - o.re, self.im - o.im)

    def mul(self, o):
        return Ref(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    def div(self, o):
        n = o.re * o.re + o.im * o.im
        return Ref((self.re * o.re + self.im * o.im) / n,
                   (self.im * o.re - self.re * o.im) / n)


def agrees(z, ref):
    return type(z) is GQ and (z.re, z.im) == (ref.re, ref.im)


def invariant(z):
    a, b, d = z._a, z._b, z._d
    return all(type(x) is int for x in (a, b, d)) and d > 0 and gcd(a, b, d) == 1


@examples
@given(pairs, pairs)
def test_binary_ops_match_reference(p, q):
    x, y = GQ(*p), GQ(*q)
    rx, ry = Ref(*p), Ref(*q)
    for z, ref in ((x + y, rx.add(ry)), (x - y, rx.sub(ry)), (x * y, rx.mul(ry))):
        assert agrees(z, ref) and invariant(z)
    if q == (0, 0):
        with pytest.raises(ZeroDivisionError):
            x / y
    else:
        z = x / y
        assert agrees(z, rx.div(ry)) and invariant(z)


@examples
@given(pairs)
def test_unary_ops_match_reference(p):
    x = GQ(*p)
    assert invariant(x)
    assert agrees(-x, Ref(-p[0], -p[1])) and invariant(-x)
    assert agrees(x.conjugate(), Ref(p[0], -p[1])) and invariant(x.conjugate())
    assert x.norm() == p[0] ** 2 + p[1] ** 2
    assert bool(x) == (p != (0, 0))
    assert x.is_rational() == (p[1] == 0)
    assert x.is_integer() == (p[0].denominator == 1 and p[1].denominator == 1)


@examples
@given(pairs, plain)
def test_mixed_operands_both_sides(p, c):
    x, rx, rc = GQ(*p), Ref(*p), Ref(c)
    assert agrees(x + c, rx.add(rc)) and agrees(c + x, rc.add(rx))
    assert agrees(x - c, rx.sub(rc)) and agrees(c - x, rc.sub(rx))
    assert agrees(x * c, rx.mul(rc)) and agrees(c * x, rc.mul(rx))
    if c == 0:
        with pytest.raises(ZeroDivisionError):
            x / c
    else:
        assert agrees(x / c, rx.div(rc))
    if p == (0, 0):
        with pytest.raises(ZeroDivisionError):
            c / x
    else:
        assert agrees(c / x, rc.div(rx))


@examples
@given(pairs, pairs)
def test_equality_is_value_equality(p, q):
    assert (GQ(*p) == GQ(*q)) == (p == q)
    assert GQ(*p) == GQ(p[0].numerator, 0) / p[0].denominator + GQ(0, p[1])


@examples
@given(rationals)
def test_rational_values_equal_and_hash_like_int_and_fraction(q):
    z = GQ(q)
    assert z == q and q == z
    assert hash(z) == hash(q)
    assert {q: 1}[z] == 1
    if q.denominator == 1:
        n = q.numerator
        assert z == n and n == z and hash(z) == hash(n)
    assert GQ(q, 1) != q


@examples
@given(pairs)
def test_hash_of_gaussian_values(p):
    z = GQ(*p)
    w = GQ(p[0]) + GQ(0, 1) * p[1]  # the same value by another path
    assert z == w and hash(z) == hash(w)
    if p[1]:
        assert hash(z) == hash(p)


@examples
@given(pairs)
def test_repr_and_str_text(p):
    re, im = p
    z = GQ(re, im)
    assert repr(z) == (f"GQ({re})" if not im else f"GQ({re}, {im})")
    if not im:
        expected = str(re)
    elif not re:
        expected = f"{im}*i"
    else:
        expected = f"{re}{'+' if im > 0 else '-'}{abs(im)}*i"
    assert str(z) == expected


def test_repr_and_str_examples():
    assert repr(GQ(Fraction(1, 2), -3)) == "GQ(1/2, -3)"
    assert repr(GQ(-4)) == "GQ(-4)"
    assert str(GQ(0, -1)) == "-1*i"
    assert str(GQ(1, Fraction(-2, 3))) == "1-2/3*i"
    assert str(GQ(Fraction(5, 6))) == "5/6"


@examples
@given(pairs)
def test_pair_round_trip(p):
    z = GQ(*p)
    pair = gq_to_pair(z)
    assert pair == [str(p[0]), str(p[1])]
    w = pair_to_gq(pair)
    assert w == z and (w._a, w._b, w._d) == (z._a, z._b, z._d)


def test_rejects_non_numbers():
    with pytest.raises(TypeError):
        GQ(1) + 1.5
    with pytest.raises(TypeError):
        1.5 * GQ(1)
    assert (GQ(1) == 1.0) is False  # floats are never coerced
