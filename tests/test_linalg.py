from fractions import Fraction

import pytest

from colorlie.errors import IrrationalEigenvalue, SingularForm
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
    assert m.trace() == GQ(3)
    mt = m.transpose()
    assert mt.get(1, 0) == I
    assert (m @ SMat.identity(2)) == m
    assert m.matvec({1: ONE}) == {0: I, 1: GQ(2)}
    assert m.trace_mul(m) == (m @ m).trace()


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


def test_eigensplit_generalized_and_joint():
    j = SMat.from_dense([[ONE, ONE], [ZERO, ONE]])  # Jordan block at 1
    pieces = eigensplit([unit_vec(0), unit_vec(1)], [j])
    assert len(pieces) == 1 and pieces[0][0] == (ONE,)
    assert len(pieces[0][1]) == 2
    a = SMat.from_dense([[ONE, ZERO], [ZERO, MINUS_ONE]])
    b = SMat.from_dense([[GQ(5), ZERO], [ZERO, GQ(5)]])
    pieces = eigensplit([unit_vec(0), unit_vec(1)], [a, b])
    assert [p[0] for p in pieces] == [(MINUS_ONE, GQ(5)), (ONE, GQ(5))]


def test_eigensplit_irrational_raises():
    m = SMat.from_dense([[ZERO, GQ(2)], [ONE, ZERO]])  # eigenvalues +-sqrt(2)
    with pytest.raises(IrrationalEigenvalue):
        eigensplit([unit_vec(0), unit_vec(1)], [m])
