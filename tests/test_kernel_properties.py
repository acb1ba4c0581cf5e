"""Property tests: the sparse kernel (vec_axpy, SMat @, graded_commutator)
against per-entry references built from plain GQ + and *.

Values mix denominator-1 entries, which the kernel computes on integer
triples, with non-integer ones, which take the GQ path, and the vectors are
drawn so that some sums cancel exactly."""
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from colorlie.linalg import SMat, graded_commutator, vec_axpy
from colorlie.scalars import GQ, I, MINUS_ONE, ONE, ZERO

examples = settings(max_examples=100, deadline=None)

small = st.integers(-3, 3)
gaussian_integers = st.builds(GQ, small, small)
non_integers = st.builds(
    lambda a, b, d: GQ(Fraction(a, d), Fraction(b, d)),
    small, small, st.sampled_from([2, 3, 6]))
scalars = st.one_of(gaussian_integers, gaussian_integers, non_integers)
nonzero = scalars.filter(bool)
vectors = st.dictionaries(st.integers(0, 5), nonzero, max_size=6)


def triples(v: dict) -> dict:
    """The stored triples, so that equality is bit for bit."""
    return {j: (z._a, z._b, z._d) for j, z in v.items()}


def ref_axpy(y: dict, a: GQ, x: dict) -> dict:
    out = {}
    for j in set(y) | set(x):
        v = y.get(j, ZERO) + a * x.get(j, ZERO)
        if v:
            out[j] = v
    return out


@st.composite
def axpy_cases(draw):
    """(y, a, x) where x cancels y on a drawn subset of y's keys."""
    y = draw(vectors)
    a = draw(scalars)
    x = draw(vectors)
    if a:
        for j in draw(st.sets(st.sampled_from(sorted(y)))) if y else ():
            x[j] = -y[j] / a
    return y, a, x


@examples
@given(axpy_cases())
def test_vec_axpy_matches_reference(case):
    y, a, x = case
    expected = ref_axpy(y, a, x)
    x_before = triples(x)
    vec_axpy(y, a, x)
    assert triples(y) == triples(expected)
    assert all(y.values())  # no stored zero
    assert triples(x) == x_before  # x is read only


@examples
@given(vectors, vectors)
def test_vec_axpy_zero_coefficient_is_a_noop(y, x):
    before = triples(y)
    vec_axpy(y, ZERO, x)
    assert triples(y) == before


def matrices(nrows, ncols):
    return st.lists(st.dictionaries(st.integers(0, ncols - 1), nonzero, max_size=ncols),
                    min_size=nrows, max_size=nrows).map(
        lambda rows: SMat(nrows, ncols, rows))


def ref_product(x: SMat, y: SMat) -> list:
    """x @ y entry by entry, as dense lists of GQ."""
    return [[sum((x.get(i, k) * y.get(k, j) for k in range(x.ncols)), ZERO)
             for j in range(y.ncols)] for i in range(x.nrows)]


def dense(m: SMat) -> list:
    return [[m.get(i, j) for j in range(m.ncols)] for i in range(m.nrows)]


def assert_sparse(m: SMat):
    assert all(v for row in m.rows for v in row.values())


@st.composite
def square_pairs(draw):
    """(x, y) of one size, y sometimes x itself or a multiple of it, so that
    commutators cancel exactly."""
    n = draw(st.integers(1, 4))
    x = draw(matrices(n, n))
    kind = draw(st.sampled_from(["independent", "same", "multiple"]))
    if kind == "same":
        return x, x
    if kind == "multiple":
        return x, x.scaled(draw(scalars))
    return x, draw(matrices(n, n))


@examples
@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4), st.data())
def test_matmul_matches_reference(n, k, m, data):
    x = data.draw(matrices(n, k))
    y = data.draw(matrices(k, m))
    p = x @ y
    assert (p.nrows, p.ncols) == (n, m)
    assert dense(p) == ref_product(x, y)
    assert_sparse(p)


@examples
@given(square_pairs(), st.sampled_from([ONE, MINUS_ONE, I, GQ(Fraction(1, 2))]))
def test_graded_commutator_matches_reference(pair, eps):
    x, y = pair
    xy, yx = ref_product(x, y), ref_product(y, x)
    expected = [[a - eps * b for a, b in zip(r, s)] for r, s in zip(xy, yx)]
    c = graded_commutator(x, y, eps)
    assert dense(c) == expected
    assert_sparse(c)
    assert (c.nrows, c.ncols) == (x.nrows, y.ncols)
