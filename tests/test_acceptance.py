"""Acceptance gate: the twelve criteria, each printing one pass/fail line in
the terminal summary (see conftest.run_criterion).  All checks are exact
(zero tolerance)."""
import math
import time

from conftest import run_criterion

from colorlie.algebra import (
    GradedAlgebra,
    check_axioms,
    direct_sum,
    from_matrices,
    is_basic,
    killing_radical,
)
from colorlie.families import fixture_so4222
from colorlie.linalg import unit_vec, vec_scale
from colorlie.reps import (
    casimir_eigenvalue_formula,
    casimir_matrix,
    decompose,
    grading_synthesis,
    weight_decomposition,
)
from colorlie.roots import (
    enhanced_dynkin,
    is_self_centralizing,
    positive_and_simple,
    root_decomposition,
    root_degree,
    sl2_triplet,
    root_string,
    simplicity,
    validate_cartan,
    weyl_group,
)
from colorlie.scalars import GQ, ONE

# per-coordinate-pair degree of the so(4,2,2,2) defining blocks:
# pairs 1,2 -> (0,0); pair 3 -> (0,1); pair 4 -> (1,0); pair 5 -> (1,1)
_PAIR_DEGREE = {0: (0, 0), 1: (0, 0), 2: (0, 1), 3: (1, 0), 4: (1, 1)}


def _expected_degree(alpha):
    pairs = [i for i, x in enumerate(alpha) if x]
    a = _PAIR_DEGREE[pairs[0]]
    b = _PAIR_DEGREE[pairs[1]]
    return ((a[0] + b[0]) % 2, (a[1] + b[1]) % 2)


def test_criterion_1_so4222_golden_run():
    def body():
        start = time.time()
        fx = fixture_so4222()
        g = from_matrices(fx.realization)
        assert check_axioms(g).ok
        assert killing_radical(g) == []
        assert is_basic(g)
        t = validate_cartan(g, [unit_vec(i) for i in fx.cartan_indices])
        rs = positive_and_simple(root_decomposition(g, t))
        assert len(rs.roots) == 40
        assert {rd.alpha for rd in rs.roots} == set(fx.root_table)
        assert all(rd.dim == 1 for rd in rs.roots)
        assert is_self_centralizing(rs)
        ed = enhanced_dynkin(rs, g)
        assert ed.dynkin_type == "D5"
        # the paper's four-bullet degree table
        for rd in rs.roots:
            assert root_degree(rs, rd.alpha) == _expected_degree(rd.alpha)
        assert time.time() - start <= 30
    run_criterion(
        1, "so(4,2,2,2) golden run: axioms, basic, 40 roots, D5, degree table",
        body)


def test_criterion_2_so4211_golden_run(rs4211):
    def body():
        alphas = {rd.alpha for rd in rs4211.roots}
        long_roots = {a for a in alphas if sum(1 for x in a if x) == 2}
        short_roots = {a for a in alphas if sum(1 for x in a if x) == 1}
        assert len(long_roots) == 12 and len(short_roots) == 6
        assert long_roots | short_roots == alphas
        for a in short_roots:
            rd = rs4211.datum(a)
            assert rd.dim == 2
            assert set(rd.degrees()) == {(1, 0), (1, 1)}
        assert list(rs4211.zero_part) == [(0, 1)]
        assert len(rs4211.zero_part[(0, 1)]) == 1
        assert not is_self_centralizing(rs4211)
    run_criterion(
        2, "so(4,2,1,1) golden run: short roots split, zero part, "
           "not self-centralizing", body)


def test_criterion_3_sl2_triplets(g4222, rs4222):
    def body():
        for rd in rs4222.roots:
            deg = root_degree(rs4222, rd.alpha)
            tr = sl2_triplet(g4222, rs4222, rd.alpha, deg)
            # sl2_triplet verifies [h,x]=2x, [h,y]=-2y, [x,y]=h internally;
            # re-assert the defining relations here explicitly
            assert g4222.bracket(tr.h, tr.x) == {
                k: GQ(2) * v for k, v in tr.x.items()}
            assert g4222.bracket(tr.h, tr.y) == {
                k: GQ(-2) * v for k, v in tr.y.items()}
            assert g4222.bracket(tr.x, tr.y) == tr.h
    run_criterion(3, "sl2 triplets for all 40 roots of so(4,2,2,2)", body)


def test_criterion_4_root_strings(rs4222):
    def body():
        count = 0
        for rd_b in rs4222.roots:
            for rd_a in rs4222.roots:
                if rd_a.alpha == rd_b.alpha:
                    continue
                p, q = root_string(rs4222, rd_b.alpha, rd_a.alpha)
                # root_string asserts p - q = 2<b,a>/<a,a> internally
                assert p - q == rs4222.cartan_number(rd_b.alpha, rd_a.alpha)
                count += 1
        assert count == 40 * 39
    run_criterion(4, "root-string identity on all 40*39 ordered pairs", body)


def test_criterion_5_weyl_group(rs4222):
    def body():
        w = weyl_group(rs4222)
        assert w.order == 1920 == 2 ** 4 * math.factorial(5)
        order = w.root_order
        n = len(order)
        gram = [[rs4222.inner(order[i], order[j]) for j in range(n)]
                for i in range(n)]
        for perm in w.elements:
            assert sorted(perm) == list(range(n))  # permutes Delta
            for i in range(n):
                row = gram[i]
                prow = gram[perm[i]]
                for j in range(n):
                    if row[j] != prow[perm[j]]:
                        raise AssertionError("inner product not preserved")
    run_criterion(
        5, "Weyl group order 1920; every element permutes Delta and "
           "preserves the inner product", body)


def test_criterion_6_degree_additivity(rs4222):
    def body():
        node_degrees = [root_degree(rs4222, a) for a in rs4222.simple]
        for beta in rs4222.positive:
            coeffs = rs4222.coordinates(beta)
            total = (0, 0)
            for c, nd in zip(coeffs, node_degrees):
                assert c.denominator == 1 and c >= 0
                if int(c) % 2:
                    total = ((total[0] + nd[0]) % 2, (total[1] + nd[1]) % 2)
            assert total == root_degree(rs4222, beta)
    run_criterion(
        6, "degree additivity |beta| = sum m_i |alpha_i| on all 20 positive "
           "roots", body)


def test_criterion_7_casimir_centrality(adj4222, defn4222):
    def body():
        for rep in (adj4222, defn4222):
            omega = casimir_matrix(rep)
            for m in rep.matrices:
                assert not ((omega @ m) - (m @ omega))
    run_criterion(
        7, "Casimir centrality on the adjoint and defining representations",
        body)


def test_criterion_8_casimir_eigenvalue(defn4222, adj4222, tensor4222, rs4222):
    def body():
        for rep in (defn4222, adj4222):
            omega = casimir_matrix(rep)
            for c in decompose(rep, rs4222):
                expected = casimir_eigenvalue_formula(rs4222, c.highest_weight)
                assert c.casimir_value == expected
                for v in c.basis:
                    assert omega.matvec(v) == vec_scale(v, GQ(expected))
        start = time.time()
        omega = casimir_matrix(tensor4222)
        comps = decompose(tensor4222, rs4222)
        for c in comps:
            expected = casimir_eigenvalue_formula(rs4222, c.highest_weight)
            assert c.casimir_value == expected
            for v in c.basis:
                assert omega.matvec(v) == vec_scale(v, GQ(expected))
        assert time.time() - start <= 180
    run_criterion(
        8, "Casimir eigenvalue <l,l+2rho> on every component of the defining, "
           "adjoint and tensor-square modules", body)


def test_criterion_9_complete_reducibility(tensor4222, rs4222):
    def body():
        comps = decompose(tensor4222, rs4222)  # raises on rank deficit
        assert sum(c.dim for c in comps) == 100
        assert sorted(c.dim for c in comps) == [1, 45, 54]
        # decompose certifies the direct sum by exact rank and asserts each
        # component's highest-weight line is 1-dimensional
    run_criterion(
        9, "complete reducibility of the 100-dim tensor square with exact "
           "direct-sum certificate", body)


def test_criterion_10_grading_round_trip(defn4222, rs4222):
    def body():
        from colorlie.reps import Representation, apply_synthesized_grading

        forgotten = Representation(
            defn4222.algebra, defn4222.dim, list(defn4222.matrices))
        synth = grading_synthesis(forgotten, rs4222)  # asserts graded-module
        wd = weight_decomposition(defn4222, rs4222)
        shifts = set()
        for mu, vecs in wd.spaces.items():
            (v,) = vecs
            original = {defn4222.grading[i] for i in v}
            assert len(original) == 1
            o = original.pop()
            s = synth[mu]
            shifts.add(((o[0] - s[0]) % 2, (o[1] - s[1]) % 2))
        assert len(shifts) == 1  # one global shift for the single coset
        regraded = apply_synthesized_grading(forgotten, rs4222)
        from colorlie.reps import is_representation

        assert is_representation(regraded).ok
    run_criterion(
        10, "grading synthesis round trip on the defining representation",
        body)


def test_criterion_11_enhanced_dynkin_contrast(rs4222, g4222, rs4420, g4420):
    def body():
        ed1 = enhanced_dynkin(rs4222, g4222)
        ed2 = enhanced_dynkin(rs4420, g4420)
        assert ed1.dynkin_type == "D5" and ed2.dynkin_type == "D5"
        # regression constants for the two label vectors
        assert sorted(ed1.node_degrees) == [
            (0, 0), (0, 1), (0, 1), (0, 1), (1, 1)]
        assert sorted(ed2.node_degrees) == [
            (0, 0), (0, 0), (0, 1), (1, 1), (1, 1)]
        assert sorted(ed1.node_degrees) != sorted(ed2.node_degrees)
    run_criterion(
        11, "so(4,2,2,2) vs so(4,4,2,0): both D5, node-degree multisets "
            "differ", body)


def test_criterion_12_negative_controls(g4222, fx4222):
    def body():
        # perturbed structure constants fail check_axioms with a witness
        structure = {k: dict(v) for k, v in g4222.structure.items()}
        (i, j) = next(iter(sorted(structure)))
        k = next(iter(structure[(i, j)]))
        structure[(i, j)][k] = structure[(i, j)][k] + ONE
        report = check_axioms(GradedAlgebra(list(g4222.degrees), structure))
        assert not report.ok
        assert report.closure is not None or report.jacobi is not None
        # a direct sum of two simple fixtures is flagged not simple with a
        # witness ideal
        n = g4222.dim
        s = direct_sum(g4222, g4222)
        hint = [unit_vec(i + off) for off in (0, n) for i in fx4222.cartan_indices]
        rs = positive_and_simple(root_decomposition(s, validate_cartan(s, hint)))
        verdict = simplicity(s, rs)
        assert verdict.simple is False and verdict.dynkin_type == "D5+D5"
        assert verdict.witness and 0 < len(verdict.witness) < 2 * n
        # a degenerate-Killing algebra reports basic = false
        heis = GradedAlgebra([(0, 0)] * 3, {(0, 1): {2: ONE}})
        assert len(killing_radical(heis)) == 3
        assert not is_basic(heis)
    run_criterion(
        12, "negative controls: perturbed axioms, non-simple direct sum, "
            "degenerate Killing form", body)
