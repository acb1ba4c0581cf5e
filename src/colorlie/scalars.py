"""Exact scalars: the Gaussian rationals Q(i).

A GQ is one normalized integer triple (a, b, d) meaning (a + b*i)/d, with
d > 0 and gcd(a, b, d) == 1, so every value has exactly one representation
and equality is a comparison of triples.  When both operands have d == 1,
the common case for structure constants and representation matrices,
arithmetic needs no gcd at all.  The real and imaginary parts are exact
Fraction views (`.re`, `.im`) for reports and root coordinates.  No floating
point anywhere.
"""
from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm

_new = object.__new__


class GQ:
    """A Gaussian rational (a + b*i)/d."""

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            self._a, self._b, self._d = re, im, 1
            return
        re = re if type(re) is Fraction else Fraction(re)
        im = im if type(im) is Fraction else Fraction(im)
        p, q = re.denominator, im.denominator
        d = lcm(p, q)
        self._a = re.numerator * (d // p)
        self._b = im.numerator * (d // q)
        self._d = d

    # -- exact views -------------------------------------------------------

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    # -- predicates --------------------------------------------------------

    def __bool__(self):
        return self._a != 0 or self._b != 0

    def is_rational(self) -> bool:
        return not self._b

    def is_integer(self) -> bool:
        return self._d == 1

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if type(other) is not GQ:
            other = _coerce(other)
        d, f = self._d, other._d
        if d == f:
            if d == 1:
                z = _new(GQ)
                z._a, z._b, z._d = self._a + other._a, self._b + other._b, 1
                return z
            return _make(self._a + other._a, self._b + other._b, d)
        return _make(self._a * f + other._a * d, self._b * f + other._b * d, d * f)

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        z = _new(GQ)
        z._a, z._b, z._d = -self._a, -self._b, self._d
        return z

    def __mul__(self, other):
        if type(other) is not GQ:
            other = _coerce(other)
        a, b, c, e = self._a, self._b, other._a, other._b
        if self._d == 1 and other._d == 1:
            z = _new(GQ)
            z._a, z._b, z._d = a * c - b * e, a * e + b * c, 1
            return z
        return _make(a * c - b * e, a * e + b * c, self._d * other._d)

    def __truediv__(self, other):
        if type(other) is not GQ:
            other = _coerce(other)
        c, e, f = other._a, other._b, other._d
        n = c * c + e * e
        if not n:
            raise ZeroDivisionError("division by zero in Q(i)")
        a, b = self._a, self._b
        # (a+bi)/d / ((c+ei)/f) = f (a+bi)(c-ei) / (d (c^2+e^2))
        return _make(f * (a * c + b * e), f * (b * c - a * e), self._d * n)

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other):
        return -self + other

    def __rtruediv__(self, other):
        return _coerce(other) / self

    def conjugate(self) -> "GQ":
        z = _new(GQ)
        z._a, z._b, z._d = self._a, -self._b, self._d
        return z

    def norm(self) -> Fraction:
        """The field norm re^2 + im^2 (a nonnegative rational)."""
        return Fraction(self._a * self._a + self._b * self._b, self._d * self._d)

    # -- comparison / hashing ---------------------------------------------

    def __eq__(self, other):
        if isinstance(other, GQ):
            return self._a == other._a and self._b == other._b and self._d == other._d
        if isinstance(other, (int, Fraction)):
            return (self._b == 0 and self._a == other.numerator
                    and self._d == other.denominator)
        return NotImplemented

    def __hash__(self):
        # hash(re) for rational values, like the int or Fraction they equal;
        # hash((re, im)) otherwise
        if self._d == 1:
            return hash((self._a, self._b)) if self._b else hash(self._a)
        return hash((self.re, self.im)) if self._b else hash(self.re)

    # -- formatting --------------------------------------------------------

    def __repr__(self):
        re, im = self.re, self.im
        if not im:
            return f"GQ({re})"
        return f"GQ({re}, {im})"

    def __str__(self):
        re, im = self.re, self.im
        if not im:
            return str(re)
        if not re:
            return f"{im}*i"
        return f"{re}{'+' if im > 0 else '-'}{abs(im)}*i"


def _make(a: int, b: int, d: int) -> GQ:
    """The normalized GQ (a + b*i)/d for d > 0."""
    g = gcd(a, b, d)
    if g != 1:
        a //= g
        b //= g
        d //= g
    z = _new(GQ)
    z._a, z._b, z._d = a, b, d
    return z


ZERO = GQ(0)
ONE = GQ(1)
I = GQ(0, 1)
MINUS_ONE = GQ(-1)
TWO = GQ(2)


# -- the sparse kernel -------------------------------------------------------
# Sparse vectors are dicts {index: GQ} with no stored zeros.  These loops read
# the triples directly: with every denominator 1, a product and a sum cost a
# few integer operations and one allocation for the entry written.


def _axpy(y: dict, p: int, q: int, d: int, x: dict) -> None:
    """y += ((p + q*i)/d) * x for a nonzero normalized coefficient."""
    get = y.get
    for j, v in x.items():
        w = get(j)
        e, f, g = v._a, v._b, v._d
        re, im = p * e - q * f, p * f + q * e
        if d == 1 and g == 1 and (w is None or w._d == 1):
            if w is not None:
                re += w._a
                im += w._b
            if re or im:
                z = _new(GQ)
                z._a, z._b, z._d = re, im, 1
                y[j] = z
            elif w is not None:
                del y[j]
            continue
        z = _make(re, im, d * g)
        if w is not None:
            z = w + z
        if z:
            y[j] = z
        elif w is not None:
            del y[j]


def axpy(y: dict, a: GQ, x: dict) -> None:
    """y += a*x in place; a == 0 is a no-op and a key that cancels is
    deleted, so y never stores a zero."""
    if a._a or a._b:
        _axpy(y, a._a, a._b, a._d, x)


def addmul(y: dict, s: GQ, row: dict, rows: list) -> None:
    """y += s * sum_k row[k] * rows[k] in place: row i of s*(A @ B) added
    into y, for row = A[i] and rows = B's rows."""
    sa, sb, sd = s._a, s._b, s._d
    if not (sa or sb):
        return
    for k, c in row.items():
        if not (x := rows[k]):
            continue
        if sd == 1 and c._d == 1:
            ca, cb = c._a, c._b
            _axpy(y, sa * ca - sb * cb, sa * cb + sb * ca, 1, x)
        else:
            c = s * c
            _axpy(y, c._a, c._b, c._d, x)


def commutator_residual(rows: list, a: int, b: int, eps: int, coeffs: dict,
                        den: int, n: int, lo: int = 0):
    """The least key r*n + c, r >= lo, where the Gaussian-integer matrix
    R = f*(A_a A_b - eps A_b A_a) - den*f*sum_t coeffs[t] A_t is nonzero, or
    None.  A_t = den*pi_t, whose nonzero rows rows[t] holds by increasing
    index; den is a common denominator of all their entries, f that of
    coeffs.  R = f*den^2*(pi_a pi_b - eps pi_b pi_a - sum_t coeffs[t] pi_t),
    so a row of R vanishes exactly where the identity holds.  One fused
    accumulation: both products row by row (Gustavson), then the sum, with
    each entry's numerators read in place and scaled to den, into an int
    dict of real and one of imaginary parts; no GQ is made."""
    f = lcm(*[c._d for c in coeffs.values()])  # not *generator: it fills tuple free lists
    re, im = {}, {}
    reget, imget = re.get, im.get
    for p, arows, brows in ((f, rows[a], rows[b]), (-eps * f, rows[b], rows[a])):
        for r, row in reversed(arows.items()):
            if r < lo:
                break
            base = r * n
            for k, x in row.items():
                brow = brows.get(k)
                if brow is None:
                    continue
                pa, pb, d = p * x._a, p * x._b, x._d
                if d != den:
                    d = den // d
                    pa, pb = pa * d, pb * d
                for c, y in brow.items():
                    ya, yb, d = y._a, y._b, y._d
                    if d != den:
                        d = den // d
                        ya, yb = ya * d, yb * d
                    if v := pa * ya - pb * yb:
                        re[base + c] = reget(base + c, 0) + v
                    if v := pa * yb + pb * ya:
                        im[base + c] = imget(base + c, 0) + v
    for t, x in coeffs.items():
        d = den * (f // x._d)
        pa, pb = -d * x._a, -d * x._b
        for r, row in reversed(rows[t].items()):
            if r < lo:
                break
            base = r * n
            for c, y in row.items():
                d = den // y._d
                ya, yb = y._a * d, y._b * d
                if v := pa * ya - pb * yb:
                    re[base + c] = reget(base + c, 0) + v
                if v := pa * yb + pb * ya:
                    im[base + c] = imget(base + c, 0) + v
    if any(re.values()) or any(im.values()):
        return min(key for acc in (re, im) for key, v in acc.items() if v)
    return None


def _coerce(x) -> GQ:
    if isinstance(x, GQ):
        return x
    if isinstance(x, (int, Fraction)):
        return _make(x.numerator, 0, x.denominator)
    raise TypeError(f"cannot coerce {type(x).__name__} into Q(i)")


def clear_denominators(values) -> list:
    """[(a_k, b_k), ...] with values[k] = (a_k + b_k*i)/den, where den is the
    least common denominator of the values."""
    den = lcm(*(z._d for z in values))
    return [(z._a * (den // z._d), z._b * (den // z._d)) for z in values]


def rational_str(q: Fraction) -> str:
    """Serialize a rational as "p" or "p/q" with positive denominator."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def parse_rational(s) -> Fraction:
    """Parse a string matching -?[0-9]+(/[0-9]+)?, or an int but not a bool,
    into a Fraction; anything else, a zero denominator included, raises
    ValueError."""
    if type(s) is int:
        return Fraction(s)
    if isinstance(s, str) and _RATIONAL.fullmatch(s):
        try:
            return Fraction(s)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {s!r}") from None
    raise ValueError(f"not a rational string: {s!r}")


def gq_to_pair(z: GQ):
    return [rational_str(z.re), rational_str(z.im)]


def pair_to_gq(pair) -> GQ:
    re, im = pair
    return GQ(parse_rational(re), parse_rational(im))
