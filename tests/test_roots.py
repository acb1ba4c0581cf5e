from fractions import Fraction

import pytest

from colorlie.algebra import killing_form
from colorlie.errors import (
    DegenerateOrder,
    HintInvalid,
    NotSelfCentralizing,
    PairingDegenerate,
)
from colorlie.linalg import unit_vec
from colorlie.roots import (
    cartan_matrix,
    classify_dynkin,
    enhanced_dynkin,
    find_cartan,
    is_self_centralizing,
    killing_dual,
    positive_and_simple,
    reflect,
    root_decomposition,
    root_degree,
    root_string,
    simple_root_coordinates,
    sl2_triplet,
    validate_cartan,
    weyl_group,
)
from colorlie.scalars import GQ, TWO


def _eps(i, j=None, si=1, sj=1, rank=5):
    v = [Fraction(0)] * rank
    v[i] = Fraction(si)
    if j is not None:
        v[j] = Fraction(sj)
    return tuple(v)


# --------------------------------------------------------------------------
# Cartan validation and search
# --------------------------------------------------------------------------


def test_validate_cartan_rejects_bad_hints(g4222, fx4222):
    hint = [unit_vec(i) for i in fx4222.cartan_indices]
    with pytest.raises(HintInvalid):
        validate_cartan(g4222, hint + [unit_vec(fx4222.cartan_indices[0])])  # dependent
    with pytest.raises(HintInvalid):
        validate_cartan(g4222, [unit_vec(5)])  # a root vector: not in g^(0,0)...
    with pytest.raises(HintInvalid):
        # too small: centralizer strictly larger than the span
        validate_cartan(g4222, hint[:2])


def test_validate_cartan_requires_abelian(g4222, fx4222):
    even = g4222.degree_indices((0, 0))
    # two non-commuting even elements
    for i in even:
        for j in even:
            if g4222.bracket_basis(i, j):
                with pytest.raises(HintInvalid):
                    validate_cartan(g4222, [unit_vec(i), unit_vec(j)])
                return
    pytest.fail("no non-commuting even pair found")


def test_find_cartan_auto_search(g4222, rs4222):
    t = find_cartan(g4222, seed=0)
    assert t.rank == 5
    rs = root_decomposition(g4222, t)
    assert len(rs.roots) == 40 and not rs.zero_part


def test_find_cartan_deterministic(g4222):
    t1 = find_cartan(g4222, seed=3)
    t2 = find_cartan(g4222, seed=3)
    assert t1.basis == t2.basis


# --------------------------------------------------------------------------
# decomposition against the golden fixtures
# --------------------------------------------------------------------------


def test_root_set_so4222(rs4222):
    expected = set()
    for i in range(5):
        for j in range(i + 1, 5):
            for si in (1, -1):
                for sj in (1, -1):
                    expected.add(_eps(i, j, si, sj))
    assert {rd.alpha for rd in rs4222.roots} == expected
    assert all(rd.dim == 1 for rd in rs4222.roots)
    assert is_self_centralizing(rs4222)


def test_root_degrees_match_fixture(rs4222, fx4222):
    for alpha, by_degree in fx4222.root_table.items():
        assert set(rs4222.datum(alpha).degrees()) == set(by_degree)


def test_root_set_so4211(rs4211):
    alphas = {rd.alpha for rd in rs4211.roots}
    assert len(alphas) == 18
    short = [a for a in alphas if sum(1 for x in a if x) == 1]
    assert len(short) == 6
    for a in short:
        assert rs4211.datum(a).spaces_by_degree.keys() == {(1, 0), (1, 1)}
    assert list(rs4211.zero_part) == [(0, 1)]
    assert len(rs4211.zero_part[(0, 1)]) == 1
    assert not is_self_centralizing(rs4211)


# --------------------------------------------------------------------------
# duals, sl2, root strings
# --------------------------------------------------------------------------


def test_killing_dual_defining_property(g4222, rs4222):
    gram = killing_form(g4222)

    def k(x, y):
        acc = GQ(0)
        for a, xa in x.items():
            for b, yb in y.items():
                v = gram.rows[a].get(b)
                if v is not None:
                    acc = acc + xa * yb * v
        return acc

    alpha = rs4222.roots[0].alpha
    h = killing_dual(rs4222.cartan, rs4222.gram_inv, alpha)
    for i, basis_vec in enumerate(rs4222.cartan.basis):
        assert k(h, basis_vec) == GQ(alpha[i])


def test_sl2_triplet_relations(g4222, rs4222):
    alpha = _eps(0, 1, 1, -1)
    tr = sl2_triplet(g4222, rs4222, alpha, root_degree(rs4222, alpha))
    assert g4222.bracket(tr.h, tr.x) == {k: TWO * v for k, v in tr.x.items()}


def test_sl2_triplet_missing_degree_raises(g4222, rs4222):
    alpha = rs4222.roots[0].alpha
    with pytest.raises(PairingDegenerate):
        sl2_triplet(g4222, rs4222, alpha, (1, 1) if root_degree(rs4222, alpha) != (1, 1) else (0, 0))


def test_root_string_examples(rs4222):
    a = _eps(0, 1, 1, -1)  # e1 - e2
    b = _eps(1, 2, 1, -1)  # e2 - e3
    # string of b through a: b, b+a = e1-e3; p=0, q=1
    assert root_string(rs4222, b, a) == (0, 1)
    assert root_string(rs4222, a, a) == (2, 0)  # -a, 0, a


# --------------------------------------------------------------------------
# positivity, Weyl group, Dynkin
# --------------------------------------------------------------------------


def test_positive_and_simple_defaults(rs4222):
    assert len(rs4222.positive) == 20
    assert set(rs4222.simple) == {
        _eps(0, 1, 1, -1),
        _eps(1, 2, 1, -1),
        _eps(2, 3, 1, -1),
        _eps(3, 4, 1, -1),
        _eps(3, 4, 1, 1),
    }
    assert rs4222.rho == tuple(Fraction(x) for x in (4, 3, 2, 1, 0))


def test_explicit_order_and_degeneracy(g4222, rs4222):
    flipped = positive_and_simple(rs4222, order=[-16, -8, -4, -2, -1])
    assert set(flipped.positive) == {
        tuple(-x for x in a) for a in rs4222.positive
    }
    with pytest.raises(DegenerateOrder):
        positive_and_simple(rs4222, order=[1, 1, 0, 0, 0])


def test_simple_root_coordinates(rs4222):
    def recon(coeffs, simple):
        out = [Fraction(0)] * 5
        for c, a in zip(coeffs, simple):
            for i, x in enumerate(a):
                out[i] += c * x
        return tuple(out)

    beta = _eps(0, 2, 1, 1)  # e1 + e3
    coeffs = simple_root_coordinates(rs4222.simple, beta)
    assert all(c.denominator == 1 and c >= 0 for c in coeffs)
    assert recon(coeffs, rs4222.simple) == beta
    # a weight in the span but off the root lattice
    half = (Fraction(1, 2),) * 5
    coeffs = simple_root_coordinates(rs4222.simple, half)
    assert coeffs is not None and any(c.denominator != 1 for c in coeffs)
    assert recon(coeffs, rs4222.simple) == half
    # outside the span of two simple roots
    two = rs4222.simple[:2]
    assert simple_root_coordinates(two, rs4222.simple[2]) is None
    # dependent "simple roots" give no coordinates
    assert simple_root_coordinates([two[0], two[0]], two[0]) is None


def test_reflection_preserves_root_set(rs4222):
    roots = {rd.alpha for rd in rs4222.roots}
    a = _eps(1, 2, 1, -1)
    assert {reflect(rs4222, a, b) for b in roots} == roots


def test_weyl_group_d5(rs4222):
    w = weyl_group(rs4222)
    assert w.order == 1920
    # words recover elements by composing generators
    order = w.root_order
    gens = {}
    for gi, alpha in enumerate(order):
        gens[gi] = tuple(order.index(reflect(rs4222, alpha, b)) for b in order)
    some = w.elements[7]
    perm = tuple(range(len(order)))
    for gi in w.words[some]:
        perm = tuple(gens[gi][perm[i]] for i in range(len(perm)))
    assert perm == some


def test_weyl_group_b3(rs4211):
    assert weyl_group(rs4211).order == 48  # 2^3 * 3!


def test_cartan_matrix_and_type(rs4222, g4222):
    ed = enhanced_dynkin(rs4222, g4222)
    assert ed.dynkin_type == "D5"
    for i in range(5):
        assert ed.cartan_matrix[i][i] == 2
    assert sorted(ed.node_degrees) == [(0, 0), (0, 1), (0, 1), (0, 1), (1, 1)]


def test_enhanced_dynkin_requires_self_centralizing(rs4211, g4211):
    with pytest.raises(NotSelfCentralizing):
        enhanced_dynkin(rs4211, g4211)


def test_classify_dynkin_tables():
    a3 = [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]
    assert classify_dynkin(a3) == "A3"
    b3 = [[2, -1, 0], [-1, 2, -2], [0, -1, 2]]
    assert classify_dynkin(b3) == "B3"
    c3 = [[2, -1, 0], [-1, 2, -1], [0, -2, 2]]
    assert classify_dynkin(c3) == "C3"
    g2 = [[2, -1], [-3, 2]]
    assert classify_dynkin(g2) == "G2"
    f4 = [[2, -1, 0, 0], [-1, 2, -2, 0], [0, -1, 2, -1], [0, 0, -1, 2]]
    assert classify_dynkin(f4) == "F4"
    d4 = [[2, 0, 0, -1], [0, 2, 0, -1], [0, 0, 2, -1], [-1, -1, -1, 2]]
    assert classify_dynkin(d4) == "D4"
    e6 = [
        [2, 0, -1, 0, 0, 0],
        [0, 2, 0, -1, 0, 0],
        [-1, 0, 2, -1, 0, 0],
        [0, -1, -1, 2, -1, 0],
        [0, 0, 0, -1, 2, -1],
        [0, 0, 0, 0, -1, 2],
    ]
    assert classify_dynkin(e6) == "E6"
    assert classify_dynkin([[2]]) == "A1"
    disconnected = [[2, 0], [0, 2]]
    assert classify_dynkin(disconnected) == "unclassified"


def test_root_degree_unique(rs4222, rs4211):
    a = _eps(0, 1, 1, -1)
    assert root_degree(rs4222, a) == (0, 0)
    with pytest.raises(NotSelfCentralizing):
        root_degree(rs4211, _eps(0, rank=3))
