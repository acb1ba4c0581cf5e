from fractions import Fraction

import pytest

from colorlie.algebra import GradedAlgebra, direct_sum, from_matrices, killing_form
from colorlie.errors import (
    CertificateFailed,
    ColorLieError,
    DegenerateOrder,
    HintInvalid,
    NotSelfCentralizing,
    PairingDegenerate,
)
from colorlie.families import SoParams, so_cartan_hint, so_pqrs
from colorlie.linalg import SMat, SubspaceBasis, unit_vec
from colorlie.roots import (
    CartanSubalgebra,
    RootDatum,
    RootSystem,
    cartan_matrix,
    classify_dynkin,
    dynkin_components,
    enhanced_dynkin,
    find_cartan,
    is_self_centralizing,
    killing_dual,
    positive_and_simple,
    reflect,
    root_decomposition,
    root_degree,
    root_string,
    simplicity,
    sl2_triplet,
    validate_cartan,
    weyl_group,
    weyl_order,
)
from colorlie.scalars import GQ, ONE, TWO


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


def test_find_cartan_auto_search(g4222, fx4222):
    """The greedy search on the worked basis keeps the fixture's own H1..H5."""
    t = find_cartan(g4222)
    assert t.basis == [unit_vec(i) for i in fx4222.cartan_indices]
    rs = root_decomposition(g4222, t)
    assert len(rs.roots) == 40 and not rs.zero_part


def test_find_cartan_deterministic(g4222, fx4222):
    t1 = find_cartan(g4222)
    t2 = find_cartan(g4222)
    assert t1.basis == t2.basis == [unit_vec(i) for i in fx4222.cartan_indices]


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


def test_simple_root_coordinates(g4222, rs4222):
    def recon(coeffs, simple):
        out = [Fraction(0)] * 5
        for c, a in zip(coeffs, simple):
            for i, x in enumerate(a):
                out[i] += c * x
        return tuple(out)

    beta = _eps(0, 2, 1, 1)  # e1 + e3
    coeffs = rs4222.coordinates(beta)
    assert all(c.denominator == 1 and c >= 0 for c in coeffs)
    assert recon(coeffs, rs4222.simple) == beta
    # a weight in the span but off the root lattice
    half = (Fraction(1, 2),) * 5
    coeffs = rs4222.coordinates(half)
    assert any(c.denominator != 1 for c in coeffs)
    assert recon(coeffs, rs4222.simple) == half
    # no frame before a positive system is fixed
    bare = root_decomposition(g4222, rs4222.cartan)
    with pytest.raises(ValueError):
        bare.coordinates(beta)
    with pytest.raises(ValueError):
        bare.pairings(beta)


@pytest.mark.parametrize("pqrs", [(4, 2, 2, 2), (4, 2, 1, 1), (2, 2, 2, 2), (3, 3, 1, 1)])
def test_simple_root_frame(pqrs):
    """pairings are the Cartan numbers against the simple roots, and
    coordinates rebuild every root from them."""
    params = SoParams(*pqrs)
    g = from_matrices(so_pqrs(params))
    rs = positive_and_simple(
        root_decomposition(g, validate_cartan(g, so_cartan_hint(params))))
    for rd in rs.roots:
        beta = rd.alpha
        assert rs.pairings(beta) == tuple(rs.cartan_number(beta, a) for a in rs.simple)
        total = [Fraction(0)] * rs.rank
        for n, a in zip(rs.coordinates(beta), rs.simple):
            for i, x in enumerate(a):
                total[i] += n * x
        assert tuple(total) == beta


def _toy_root_system(roots):
    """A RootSystem on rank len(roots[0]) with the standard inner product."""
    rank = len(roots[0])
    gram = SMat.identity(rank)
    alphas = [tuple(Fraction(x) for x in a) for a in roots]
    alphas += [tuple(-x for x in a) for a in alphas]
    data = [RootDatum(a, {}) for a in sorted(alphas)]
    return RootSystem(CartanSubalgebra([unit_vec(i) for i in range(rank)], gram),
                      data, {}, gram)


def test_positive_and_simple_certificates():
    # BC1: the coroot of 2a is half the coroot of a
    with pytest.raises(DegenerateOrder, match="coroot"):
        positive_and_simple(_toy_root_system([(1,), (2,)]))
    # one simple root for rank 2: the roots do not span t*
    with pytest.raises(DegenerateOrder, match="rank"):
        positive_and_simple(_toy_root_system([(1, 0)]))
    assert positive_and_simple(_toy_root_system([(1, 0), (0, 1)])).simple == [
        (0, 1), (1, 0)]


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


def test_weyl_group_from_simple_reflections(g4211, rs4211):
    """Words use only the simple reflections, so BFS words are reduced and
    the longest has length |Delta+| (the longest element of W)."""
    w = weyl_group(rs4211)
    letters = {gi for word in w.words.values() for gi in word}
    assert letters == {w.root_order.index(a) for a in rs4211.simple}
    assert max(len(word) for word in w.words.values()) == len(rs4211.positive) == 9
    with pytest.raises(ValueError):
        weyl_group(root_decomposition(g4211, rs4211.cartan))


def _cartan(n, edges):
    """The n-node Cartan matrix with cm[i][j] = <alpha_i, alpha_j^vee>, from
    1-based edges (i, j, a, b) meaning cm[i][j] = a and cm[j][i] = b."""
    cm = [[2 * (i == j) for j in range(n)] for i in range(n)]
    for i, j, a, b in edges:
        cm[i - 1][j - 1], cm[j - 1][i - 1] = a, b
    return cm


def _laced(n, pairs):
    return _cartan(n, [(i, j, -1, -1) for i, j in pairs])


_E = [(1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (2, 4)]


@pytest.mark.parametrize("cm, order", [
    (_laced(3, [(1, 2), (2, 3)]), 24),  # A3
    (_cartan(3, [(1, 2, -1, -1), (2, 3, -2, -1)]), 48),  # B3, alpha_3 short
    (_cartan(4, [(1, 2, -1, -1), (2, 3, -1, -1), (3, 4, -1, -2)]), 384),  # C4
    (_laced(4, [(1, 2), (2, 3), (2, 4)]), 192),  # D4
    (_cartan(2, [(1, 2, -1, -3)]), 12),  # G2, alpha_1 short
    (_cartan(4, [(1, 2, -1, -1), (2, 3, -2, -1), (3, 4, -1, -1)]), 1152),  # F4
    (_laced(6, _E[:4] + _E[-1:]), 51840),  # E6
    (_laced(7, _E[:5] + _E[-1:]), 2903040),  # E7
    (_laced(8, _E), 696729600),  # E8
    (_laced(3, [(1, 3)]), 12),  # A1 x A2, the A1 node in the middle
    ([], 1),
])
def test_weyl_order_closed_forms(cm, order):
    assert weyl_order(cm) == order


def test_weyl_order_matches_enumeration(rs4222, rs4211, g4222):
    unhinted = positive_and_simple(root_decomposition(g4222, find_cartan(g4222)))
    for rs in (rs4222, rs4211, unhinted):
        assert weyl_order(cartan_matrix(rs)) == weyl_group(rs).order


def test_reflection_closure_certificate(rs4222):
    """Without the highest root and its negative the simple roots are still a
    base of what is left, but a simple reflection maps some root onto the
    highest root, so the frame refuses the set."""
    theta = max(rs4222.positive, key=lambda a: sum(rs4222.coordinates(a)))
    roots = [rd for rd in rs4222.roots
             if rd.alpha not in (theta, tuple(-x for x in theta))]
    rs = RootSystem(rs4222.cartan, roots, rs4222.zero_part, rs4222.gram_inv)
    with pytest.raises(CertificateFailed, match="outside Delta"):
        positive_and_simple(rs)


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
    assert classify_dynkin([[2, 0], [0, 2]]) == "A1+A1"
    # block-diagonal B3 and A3 with the nodes interleaved: one name per
    # component, joined in sorted order
    b3_a3 = [[2, 0, -1, 0, 0, 0],
             [0, 2, 0, -1, 0, 0],
             [-1, 0, 2, 0, -2, 0],
             [0, -1, 0, 2, 0, -1],
             [0, 0, -1, 0, 2, 0],
             [0, 0, 0, -1, 0, 2]]
    assert dynkin_components(b3_a3) == [[0, 2, 4], [1, 3, 5]]
    assert classify_dynkin(b3_a3) == "A3+B3"
    # a cycle is no finite-type diagram, alone or beside one
    cycle = [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]
    assert classify_dynkin(cycle) == "unclassified"
    assert classify_dynkin([[2, 0, 0, 0], [0, 2, -1, -1], [0, -1, 2, -1],
                            [0, -1, -1, 2]]) == "unclassified"
    # a quadruple bond (product 4, affine type) beside a double one
    assert classify_dynkin([[2, -2, 0], [-2, 2, -2], [0, -1, 2]]) == "unclassified"


def test_root_degree_unique(rs4222, rs4211):
    a = _eps(0, 1, 1, -1)
    assert root_degree(rs4222, a) == (0, 0)
    with pytest.raises(NotSelfCentralizing):
        root_degree(rs4211, _eps(0, rank=3))


def _root_system(summands, extra=None):
    """The direct sum of so(p,q,r,s) over summands, then of extra if given,
    with its root system from the concatenated standard tori."""
    g, hint = None, []
    for pqrs in summands:
        params = SoParams(*pqrs)
        part = from_matrices(so_pqrs(params))
        off = g.dim if g else 0
        hint += [{k + off: v for k, v in h.items()} for h in so_cartan_hint(params)]
        g = direct_sum(g, part) if g else part
    if extra is not None:
        g = direct_sum(g, extra)
    rs = positive_and_simple(root_decomposition(g, validate_cartan(g, hint)))
    return g, rs


def _assert_proper_ideal(g, witness):
    span = SubspaceBasis()
    span.extend(witness)
    assert 0 < span.dim == len(witness) < g.dim
    for w in witness:
        for i in range(g.dim):
            assert span.contains(g.ad(i).matvec(w))


SIMPLICITY_CASES = [  # so(p,q,r,s) summands, simple, Dynkin type
    ([(4, 2, 2, 2)], True, "D5"),
    ([(6, 2, 2, 2)], True, "D6"),
    ([(4, 4, 2, 0)], True, "D5"),
    ([(2, 2, 2, 2)], True, "D4"),
    # non-self-centralizing Cartans; so(3,1,1,1) has rank 1 and a 6-dim zero
    # part over three degrees
    ([(4, 2, 1, 1)], True, "B3"),
    ([(2, 2, 1, 1)], True, "B2"),
    ([(3, 1, 1, 1)], True, "A1"),
    ([(4, 2, 2, 2), (4, 2, 2, 2)], False, "D5+D5"),
    ([(2, 2, 2, 2), (2, 2, 2, 2)], False, "D4+D4"),
    ([(4, 2, 1, 1), (2, 2, 1, 1)], False, "B2+B3"),
]


@pytest.mark.parametrize("summands, simple, dynkin_type", SIMPLICITY_CASES, ids=[
    "+".join("so" + "".join(map(str, p)) for p in case[0]) for case in SIMPLICITY_CASES])
def test_simplicity(summands, simple, dynkin_type):
    g, rs = _root_system(summands)
    verdict = simplicity(g, rs)
    assert verdict.simple is simple
    assert verdict.dynkin_type == dynkin_type
    if simple:
        assert verdict.witness is None
    else:
        _assert_proper_ideal(g, verdict.witness)


def test_simplicity_killing_radical():
    """so(4,2,2,2) plus a central line of degree (0,1): the root data are
    those of so(4,2,2,2), and the witness is rad K, that line."""
    g, rs = _root_system([(4, 2, 2, 2)], extra=GradedAlgebra([(0, 1)], {}))
    verdict = simplicity(g, rs)
    assert verdict.simple is False and verdict.dynkin_type == "D5"
    assert verdict.witness == [{45: ONE}]
    _assert_proper_ideal(g, verdict.witness)


def test_simplicity_zero_part_not_spanned():
    """so(4,2,2,2) + so(1,1,1,0): K is nondegenerate and the diagram is D5,
    but so(1,1,1,0) (no degree-(0,0) part) is a zero part that no root
    bracket reaches; the witness is the so(4,2,2,2) summand."""
    g, rs = _root_system([(4, 2, 2, 2)], extra=from_matrices(so_pqrs(SoParams(1, 1, 1, 0))))
    verdict = simplicity(g, rs)
    assert verdict.simple is False and verdict.dynkin_type == "D5"
    assert "do not span" in verdict.reason
    _assert_proper_ideal(g, verdict.witness)
    assert all(max(w) < 45 for w in verdict.witness) and len(verdict.witness) == 45


def test_simplicity_needs_roots():
    # an abelian algebra has no Cartan with nondegenerate Killing form
    with pytest.raises(ColorLieError):
        find_cartan(GradedAlgebra([(0, 0)], {}))
    # so(1,1,1,0) has g^(0,0) = 0: rank 0, nothing to decide from
    g, rs = _root_system([(1, 1, 1, 0)])
    assert rs.rank == 0
    assert simplicity(g, rs).simple is None
