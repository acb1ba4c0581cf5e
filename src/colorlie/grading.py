"""Degrees: elements of Z2 x Z2 and the determinant commutation pairing."""
from __future__ import annotations

from .scalars import GQ, ONE, MINUS_ONE

# A degree is a pair of bits (a1, a2).  Addition is componentwise mod 2.
Degree = tuple

DEGREES = ((0, 0), (0, 1), (1, 0), (1, 1))
ZERO_DEGREE = (0, 0)


def degree_add(a: Degree, b: Degree) -> Degree:
    return ((a[0] + b[0]) & 1, (a[1] + b[1]) & 1)


def degree_pairing(a: Degree, b: Degree) -> int:
    """det(a; b) = a1*b2 - a2*b1 mod 2.  Symmetric in its arguments."""
    return (a[0] * b[1] - a[1] * b[0]) & 1


def sign(a: Degree, b: Degree) -> GQ:
    """The commutation factor (-1)^(a1*b2 - a2*b1) as a scalar."""
    return MINUS_ONE if degree_pairing(a, b) else ONE


def check_degree(a) -> Degree:
    # bits must be real ints: a JSON true/false is not a degree bit
    if (
        not isinstance(a, (tuple, list))
        or len(a) != 2
        or any(type(x) is not int or x not in (0, 1) for x in a)
    ):
        raise ValueError(f"not a Z2xZ2 degree: {a!r}")
    return (a[0], a[1])
