from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colorlie.errors import CertificateFailed, IrrationalEigenvalue, SingularForm
from colorlie.linalg import (
    SMat,
    SubspaceBasis,
    eigensplit,
    gaussian_rational_roots,
    graded_commutator,
    invert,
    joint_kernel,
    kernel_basis,
    kron,
    minimal_polynomial,
    poly_gcd,
    poly_is_squarefree,
    poly_lcm,
    poly_mul,
    unit_vec,
    vec_axpy,
    vec_scale,
)
from colorlie.scalars import GQ, I, MINUS_ONE, ONE, ZERO


def test_vec_ops():
    x = {0: ONE, 2: I}
    y = dict(x)
    vec_axpy(y, GQ(2), {0: ONE, 1: MINUS_ONE})
    assert y == {0: GQ(3), 1: GQ(-2), 2: I}
    assert vec_scale(x, ZERO) == {}
    assert vec_scale({0: I}, I) == {0: GQ(-1)}
    assert unit_vec(3) == {3: ONE}


def test_smat_basics():
    m = SMat.from_dense([[ONE, I], [ZERO, GQ(2)]])
    assert m.get(0, 1) == I
    mt = m.transpose()
    assert mt.get(1, 0) == I
    assert (m @ SMat.identity(2)) == m
    assert m.matvec({1: ONE}) == {0: I, 1: GQ(2)}


def test_kron():
    a = SMat.from_dense([[ONE, GQ(2)], [ZERO, ONE]])
    b = SMat.from_dense([[I]])
    k = kron(a, b)
    assert k.nrows == 2 and k.get(0, 1) == GQ(2) * I


def test_subspace_basis_membership_and_coords():
    sb = SubspaceBasis()
    v1 = {0: ONE, 1: ONE}
    v2 = {1: ONE, 2: ONE}
    assert sb.add(v1) and sb.add(v2)
    assert not sb.add({0: ONE, 1: GQ(2), 2: ONE})  # v1 + v2
    assert sb.dim == 2
    c = sb.coords({0: GQ(3), 1: GQ(5), 2: GQ(2)})
    assert c == {0: GQ(3), 1: GQ(2)}
    assert sb.coords({3: ONE}) is None


def test_kernel_rank_invert():
    m = SMat.from_dense([[ONE, GQ(2), GQ(3)], [GQ(2), GQ(4), GQ(6)]])
    ker = kernel_basis(m)
    assert len(ker) == 2
    rows = SubspaceBasis()
    rows.extend(dict(r) for r in m.rows)
    assert rows.dim == m.ncols - len(ker) == 1
    for v in ker:
        assert not m.matvec(v)
    a = SMat.from_dense([[ONE, I], [ZERO, GQ(2)]])
    ainv = invert(a)
    assert (a @ ainv) == SMat.identity(2)
    with pytest.raises(SingularForm):
        invert(SMat.from_dense([[ONE, ONE], [ONE, ONE]]))


def test_invert_solves_gram_system():
    g = SMat.from_dense([[GQ(2), ONE], [ONE, GQ(2)]])
    x = invert(g).matvec({0: GQ(4), 1: GQ(5)})
    assert g.matvec(x) == {0: GQ(4), 1: GQ(5)}
    with pytest.raises(SingularForm):
        invert(SMat.from_dense([[ONE, ONE], [ONE, ONE]]))


def test_span_dim():
    sb = SubspaceBasis()
    sb.extend([{0: ONE}, {0: GQ(2)}, {1: ONE}])
    assert sb.dim == 2


def test_joint_kernel():
    # e0 -> e1 and e2 -> e1 under a; b kills e0, e1, e2 and sends e3 -> e0
    a = SMat.from_dense([[ZERO] * 4, [ONE, ZERO, ONE, ZERO], [ZERO] * 4, [ZERO] * 4])
    b = SMat.from_dense([[ZERO, ZERO, ZERO, ONE]] + [[ZERO] * 4] * 3)
    vectors = [{0: ONE}, {1: I}, {2: ONE, 3: ONE}, {3: GQ(2)}]
    ops = [a, b]
    ker = joint_kernel(vectors, ops)
    for v in ker:
        assert v and all(not op.matvec(v) for op in ops)
    span = SubspaceBasis()
    span.extend(ker)
    assert span.dim == len(ker)
    stacked = SubspaceBasis()  # one row per (operator, coordinate) of the images
    for op in ops:
        images = [op.matvec(v) for v in vectors]
        for c in range(4):
            stacked.add({j: im[c] for j, im in enumerate(images) if c in im})
    assert stacked.dim == 2 and len(ker) == len(vectors) - stacked.dim
    # no operators: the whole span; no vectors: nothing
    assert joint_kernel(vectors, []) == vectors
    assert joint_kernel([], ops) == []


def test_graded_commutator():
    x = SMat.from_dense([[ZERO, ONE], [ZERO, ZERO]])
    y = SMat.from_dense([[ZERO, ZERO], [ONE, ZERO]])
    h = SMat.from_dense([[ONE, ZERO], [ZERO, MINUS_ONE]])
    assert graded_commutator(x, y, ONE) == h  # [x, y] = xy - yx
    assert graded_commutator(x, y, MINUS_ONE) == SMat.identity(2)  # xy + yx
    assert graded_commutator(x, x, ONE) == SMat(2, 2)
    for eps in (ONE, MINUS_ONE, I):
        assert graded_commutator(h, y, eps) == (h @ y) - (y @ h).scaled(eps)


def test_polynomials():
    # (x - 1)(x - 2) = 2 - 3x + x^2
    p = [GQ(2), GQ(-3), ONE]
    q = [GQ(-1), ONE]  # x - 1
    assert poly_gcd(p, q) == q  # gcd is returned monic
    assert poly_is_squarefree(p)
    assert not poly_is_squarefree(poly_mul(q, q))
    assert poly_lcm(q, [GQ(-2), ONE]) == p


def test_gaussian_rational_roots():
    # (x - i)(x + 2)^2
    p = poly_mul([GQ(0, -1), ONE], poly_mul([GQ(2), ONE], [GQ(2), ONE]))
    roots, residual = gaussian_rational_roots(p)
    assert residual == 0
    assert sorted(((r.re, r.im), m) for r, m in roots) == [
        ((Fraction(-2), Fraction(0)), 2),
        ((Fraction(0), Fraction(1)), 1),
    ]
    # x^2 - 2 has no roots in Q(i)
    roots, residual = gaussian_rational_roots([GQ(-2), ZERO, ONE])
    assert roots == [] and residual == 2
    # x^2 + 1 = (x - i)(x + i)
    roots, residual = gaussian_rational_roots([ONE, ZERO, ONE])
    assert residual == 0 and sorted((r.re, r.im) for r, _ in roots) == [
        (Fraction(0), Fraction(-1)),
        (Fraction(0), Fraction(1)),
    ]


# roots of large height: numerators and denominators beyond a machine word
heights = st.one_of(st.integers(-12, 12), st.integers(-(10 ** 30), 10 ** 30))
gaussian_rationals = st.builds(
    lambda a, b, d: GQ(Fraction(a, d), Fraction(b, d)),
    heights, heights, st.one_of(st.integers(1, 12), st.integers(1, 10 ** 30)))
# factors irreducible over Q(i): x^2 - 2, x^2 + 2, x^2 - i
IRREDUCIBLE = [[GQ(-2), ZERO, ONE], [GQ(2), ZERO, ONE], [GQ(0, -1), ZERO, ONE]]


@settings(max_examples=60, deadline=None)
@given(
    st.dictionaries(st.one_of(st.just(ZERO), gaussian_rationals),
                    st.integers(1, 3), min_size=1, max_size=5),
    st.one_of(st.none(), st.sampled_from(IRREDUCIBLE)),
    st.one_of(st.just(ONE), gaussian_rationals.filter(bool)),
)
def test_gaussian_rational_roots_of_products(expected, extra, scale):
    p = [scale]
    for lam, mult in expected.items():
        for _ in range(mult):
            p = poly_mul(p, [-lam, ONE])
    if extra is not None:
        p = poly_mul(p, extra)
    roots, residual = gaussian_rational_roots(p)
    assert dict(roots) == expected and len(roots) == len(expected)
    assert residual == (0 if extra is None else 2)


def test_gaussian_rational_roots_many_divisors():
    """prod (x - k)(x - k*i) over k = 1..12: the constant term has about 1e5
    Gaussian divisors."""
    p = [ONE]
    for k in range(1, 13):
        p = poly_mul(p, poly_mul([GQ(-k), ONE], [GQ(0, -k), ONE]))
    roots, residual = gaussian_rational_roots(p)
    assert residual == 0
    assert sorted(((r.re, r.im), m) for r, m in roots) == sorted(
        [((Fraction(k), Fraction(0)), 1) for k in range(1, 13)]
        + [((Fraction(0), Fraction(k)), 1) for k in range(1, 13)])


def test_minimal_polynomial():
    m = SMat.from_dense([[GQ(2), ZERO], [ZERO, GQ(3)]])
    mp = minimal_polynomial(m)
    # (x-2)(x-3) = 6 - 5x + x^2
    assert mp == [GQ(6), GQ(-5), ONE]
    # nilpotent Jordan block: minimal polynomial x^2
    j = SMat.from_dense([[ZERO, ONE], [ZERO, ZERO]])
    assert minimal_polynomial(j) == [ZERO, ZERO, ONE]


def test_eigensplit_diagonalizable():
    m = SMat.from_dense([[ZERO, ONE], [ONE, ZERO]])  # eigenvalues +-1
    pieces = eigensplit([unit_vec(0), unit_vec(1)], [m])
    assert [p[0] for p in pieces] == [(MINUS_ONE,), (ONE,)]
    for (lam,), vecs in pieces:
        for v in vecs:
            assert m.matvec(v) == vec_scale(v, lam)


def test_eigensplit_exact_and_joint():
    """A Jordan block has one eigenvalue but a 1-dimensional eigenspace:
    eigensplit returns exact eigenspaces only, so it refuses the split."""
    j = SMat.from_dense([[ONE, ONE], [ZERO, ONE]])  # Jordan block at 1
    with pytest.raises(CertificateFailed, match="do not add up"):
        eigensplit([unit_vec(0), unit_vec(1)], [j])
    with pytest.raises(CertificateFailed, match="do not add up"):
        eigensplit([unit_vec(0), unit_vec(1)], [SMat.identity(2), j])
    a = SMat.from_dense([[ONE, ZERO], [ZERO, MINUS_ONE]])
    b = SMat.from_dense([[GQ(5), ZERO], [ZERO, GQ(5)]])
    pieces = eigensplit([unit_vec(0), unit_vec(1)], [a, b])
    assert [p[0] for p in pieces] == [(MINUS_ONE, GQ(5)), (ONE, GQ(5))]


def test_eigensplit_irrational_raises():
    m = SMat.from_dense([[ZERO, GQ(2)], [ONE, ZERO]])  # eigenvalues +-sqrt(2)
    with pytest.raises(IrrationalEigenvalue):
        eigensplit([unit_vec(0), unit_vec(1)], [m])


def test_eigensplit_blocks_agree_with_whole_split():
    """Coordinate vectors split on the operators' invariant coordinate blocks
    ({0, 2} and {1, 3} here, each carrying the swap [[0, 1], [1, 0]] under a
    and 2 under b) give the joint eigenspaces that the whole span gives when
    it is passed as other vectors, one of them dependent; a non-invariant
    coordinate span is rejected."""
    a = SMat(4, 4, [{2: ONE}, {3: ONE}, {0: ONE}, {1: ONE}])
    b = SMat(4, 4, [{i: GQ(2)} for i in range(4)])
    blocked = eigensplit([unit_vec(i) for i in range(4)], [a, b])
    whole = eigensplit([{0: ONE, 1: ONE}, {1: ONE}, {0: GQ(2), 1: GQ(2)},
                        {2: ONE}, {3: I}], [a, b])
    assert [eig for eig, _ in blocked] == [eig for eig, _ in whole] == [
        (MINUS_ONE, GQ(2)), (ONE, GQ(2))]
    for (_, vecs), (_, other) in zip(blocked, whole):
        assert len(vecs) == len(other) == 2
        span = SubspaceBasis(vecs)
        assert all(span.contains(v) for v in other)
    with pytest.raises(ValueError, match="not invariant"):
        eigensplit([unit_vec(0), unit_vec(1)], [a])
