from fractions import Fraction
from functools import lru_cache
from itertools import product

import pytest
from conftest import reference_homomorphism_failure
from hypothesis import given, settings
from hypothesis import strategies as st

from colorlie.algebra import (
    GradedAlgebra,
    check_axioms,
    direct_sum,
    from_matrices,
    generating_set,
    gl_graded,
    homomorphism_failure,
    is_basic,
    killing_form,
    killing_radical,
)
from colorlie.errors import CertificateFailed, DimensionMismatch, NotClosed
from colorlie.families import SoParams, so_pqrs
from colorlie.grading import degree_add, sign
from colorlie.linalg import SMat, SubspaceBasis, unit_vec
from colorlie.reps import adjoint_representation, is_representation
from colorlie.scalars import GQ, I, MINUS_ONE, ONE


def heisenberg():
    """[e0, e1] = e2, all even: the 3-dim Heisenberg algebra (nilpotent,
    degenerate Killing form)."""
    return GradedAlgebra(
        [(0, 0)] * 3, {(0, 1): {2: ONE}}
    )


def test_structure_canonicalization():
    # supplying the (j, i) entry must agree with the stored (i, j) half
    g = GradedAlgebra([(0, 0)] * 3, {(1, 0): {2: MINUS_ONE}})
    assert g.bracket_basis(0, 1) == {2: ONE}
    assert g.bracket_basis(1, 0) == {2: MINUS_ONE}
    with pytest.raises(ValueError):
        GradedAlgebra(
            [(0, 0)] * 3,
            {(0, 1): {2: ONE}, (1, 0): {2: ONE}},  # inconsistent pair
        )


def test_structure_index_out_of_range():
    for structure in ({(0, 3): {2: ONE}}, {(0, 1): {3: ONE}}, {(0, 1): {-1: ONE}}):
        with pytest.raises(DimensionMismatch):
            GradedAlgebra([(0, 0)] * 3, structure)


def test_diagonal_bracket_requires_anticommuting_degrees():
    # [e_i, e_i] can be nonzero only when the degree pairing is 1
    with pytest.raises(ValueError):
        GradedAlgebra([(0, 0), (0, 0)], {(0, 0): {1: ONE}})
    g = GradedAlgebra([(0, 1), (1, 0), (1, 1)], {(0, 0): {}})
    assert g.bracket_basis(0, 0) == {}


def test_bracket_bilinearity():
    g = heisenberg()
    x = {0: GQ(2), 1: I}
    y = {0: ONE, 1: GQ(3)}
    # [2e0 + ie1, e0 + 3e1] = (6 - i) e2
    assert g.bracket(x, y) == {2: GQ(6, -1)}


def test_check_axioms_pass_on_gl():
    real = gl_graded({(0, 0): 1, (0, 1): 1, (1, 0): 1})
    g = from_matrices(real)
    assert g.dim == 9
    report = check_axioms(g)
    assert report.ok
    assert all(line.endswith("PASS") for line in report.lines())


def test_check_axioms_fixture(g4222):
    report = check_axioms(g4222)
    assert report.ok


def test_perturbed_structure_fails_with_witness(g4222):
    # graded Jacobi is "ad is a color representation": both checks agree
    assert check_axioms(g4222).ok
    assert is_representation(adjoint_representation(g4222)).ok
    pairs = sorted(g4222.structure)
    for (i, j) in (pairs[0], pairs[len(pairs) // 2], pairs[-1]):
        structure = {key: dict(v) for key, v in g4222.structure.items()}
        k = next(iter(structure[(i, j)]))
        structure[(i, j)][k] = structure[(i, j)][k] + ONE
        bad = GradedAlgebra(list(g4222.degrees), structure)
        report = check_axioms(bad)
        assert not report.ok
        assert report.jacobi is not None or report.closure is not None
        # the witness names a concrete basis triple/pair with both sides
        witness = report.jacobi or report.closure
        assert isinstance(witness[0], tuple)
        # ... and the Jacobi triple is the failing homomorphism pair and its
        # least differing column
        i, j, lhs, rhs = is_representation(adjoint_representation(bad)).witness
        assert report.jacobi[0] == (i, j, _least_differing_column(lhs, rhs))


def _least_differing_column(lhs: SMat, rhs: SMat) -> int:
    return min(c for a, b in zip(lhs.rows, rhs.rows)
               for c in a.keys() | b.keys() if a.get(c) != b.get(c))


def _pair_scan_witness(g):
    """The Jacobi witness of the module check on ad, as the reference that
    compares two matrices per pair finds it: the first failing pair and its
    least differing column, or None."""
    failure = reference_homomorphism_failure(g, g.ad_matrices(), range(g.dim))
    assert homomorphism_failure(g, g.ad_matrices(), range(g.dim)) == failure
    if failure is None:
        return None
    i, j, lhs, rhs = failure
    return i, j, _least_differing_column(lhs, rhs)


@lru_cache(maxsize=None)
def _so(params):
    return from_matrices(so_pqrs(SoParams(*params)))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_jacobi_witness_matches_pair_scan(data):
    """One structure constant changed: by +-1 on its real part, by +-i, or set
    in a zero slot (i, j) at a k of the degree closure allows, or of another
    degree; before that, optionally, basis vector e_a rescaled by 1, 1/2, 3 or
    1+i as a % 4, so the constants have denominators 2 to 12 and complex
    values.  The triple scan of check_axioms reports the witness of the
    module check on ad."""
    g = _so(data.draw(st.sampled_from([(4, 2, 1, 1), (4, 2, 2, 2)])))
    kind = data.draw(st.sampled_from(["real", "imaginary", "new", "off-degree"]))
    degs = g.degrees
    scale = [(ONE, GQ(Fraction(1, 2)), GQ(3), GQ(1, 1))[a % 4] for a in range(g.dim)]
    if not data.draw(st.booleans()):
        scale = [ONE] * g.dim
    # [x_i, x_j] = sum_k c_ij^k s_i s_j / s_k x_k for x_a = s_a e_a
    structure = {(i, j): {k: c * scale[i] * scale[j] / scale[k] for k, c in v.items()}
                 for (i, j), v in g.structure.items()}
    if kind in ("real", "imaginary"):
        i, j = data.draw(st.sampled_from(sorted(structure)))
        k = data.draw(st.sampled_from(sorted(structure[(i, j)])))
        units = [ONE, MINUS_ONE] if kind == "real" else [I, -I]
        structure[(i, j)][k] = structure[(i, j)][k] + data.draw(st.sampled_from(units))
    else:
        i, j = data.draw(st.sampled_from([
            (i, j) for i in range(g.dim) for j in range(i + 1, g.dim)
            if (i, j) not in structure]))
        target = degree_add(degs[i], degs[j])
        k = data.draw(st.sampled_from([
            k for k in range(g.dim) if (degs[k] == target) == (kind == "new")]))
        structure[(i, j)] = {k: data.draw(st.sampled_from([ONE, MINUS_ONE, I, -I]))}
    bad = GradedAlgebra(list(degs), structure)
    report = check_axioms(bad)
    assert (report.closure is None) == (kind != "off-degree")
    assert (report.jacobi[0] if report.jacobi else None) == _pair_scan_witness(bad)


def test_jacobi_without_closure_scans_every_k():
    """An ungraded bracket breaks the eps-alternation of the Jacobiator: here
    the one sorted triple (0, 1, 2) holds, yet Jacobi fails at (0, 1, 1)."""
    g = GradedAlgebra([(0, 0), (1, 1), (1, 0)], {(0, 1): {2: ONE}, (1, 2): {2: ONE}})
    report = check_axioms(g)
    assert report.closure is not None
    assert report.jacobi[0] == (0, 1, 1) == _pair_scan_witness(g)


def _subalgebra_dim(g, gens):
    """Dimension of the subalgebra generated by the e_s, s in gens: brackets
    of every pair of spanned vectors until the span stops growing."""
    sb = SubspaceBasis()
    frontier = [unit_vec(s) for s in gens]
    while frontier:
        new = [v for v in frontier if sb.add(v)]
        frontier = [g.bracket(x, y) for x in new for y in sb.inserted]
    return sb.dim


# the 490 parameter tuples with 2 <= p+q+r+s <= 8, drawn directly: a filter
# over all 4-tuples in [0, 8] keeps about 7.5% of its draws
SO_PARAMS = [t for t in product(range(9), repeat=4) if 2 <= sum(t) <= 8]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SO_PARAMS))
def test_generating_set_generates_so_pqrs(params):
    g = _so(params)
    gens = generating_set(g)
    assert len(set(gens)) == len(gens)
    assert _subalgebra_dim(g, gens) == g.dim


def test_generating_set_generates_direct_sum():
    """so(2,2,2,2) + so(2,2,2,2) is not simple; the generators must reach
    both summands."""
    g = _so((2, 2, 2, 2))
    s = direct_sum(g, g)
    gens = generating_set(s)
    assert {i < g.dim for i in gens} == {True, False}
    assert _subalgebra_dim(s, gens) == s.dim


def test_generating_set_sizes(g4222):
    """Degree != (0,0) candidates come first: in index order the five Cartan
    vectors of the worked so(4,2,2,2) basis would be taken first, giving 15."""
    gens = generating_set(g4222)
    assert len(gens) == 10
    assert all(g4222.degrees[i] != (0, 0) for i in gens)
    assert len(generating_set(_so((6, 2, 2, 2)))) == 11


def test_generating_set_certifies_its_closure(g4222, monkeypatch):
    """A closure that falls short of dim g raises instead of returning."""
    class ShortBasis(SubspaceBasis):
        @property
        def dim(self):
            return len(self.rows) - 1

    monkeypatch.setattr("colorlie.algebra.SubspaceBasis", ShortBasis)
    with pytest.raises(CertificateFailed):
        generating_set(g4222)


def test_from_matrices_not_closed():
    # a single off-diagonal elementary matrix pair is not bracket-closed
    m1 = SMat(2, 2)
    m1.rows[0][1] = ONE
    m2 = SMat(2, 2)
    m2.rows[1][0] = ONE
    from colorlie.algebra import MatrixRealization

    real = MatrixRealization([2], [(0, 0)], [m1, m2])
    with pytest.raises(NotClosed) as exc:
        from_matrices(real)
    assert exc.value.pair == (0, 1) and exc.value.residual


def test_killing_form_homogeneous_and_invariant(g4222):
    gram = killing_form(g4222)
    for i in range(g4222.dim):
        for j, v in gram.rows[i].items():
            assert g4222.degrees[i] == g4222.degrees[j] and v
    # invariance: K([x,y],z) + (-1)^(|x||y|) K(y,[x,z]) = 0 on a spot check
    def k(x, y):
        acc = GQ(0)
        for a, xa in x.items():
            for b, yb in y.items():
                v = gram.rows[a].get(b)
                if v is not None:
                    acc = acc + xa * yb * v
        return acc

    for (x, y, z) in [(0, 7, 9), (5, 12, 40), (3, 3, 30)]:
        s = sign(g4222.degrees[x], g4222.degrees[y])
        lhs = k(g4222.bracket_basis(x, y), unit_vec(z))
        rhs = k(unit_vec(y), g4222.bracket_basis(x, z))
        assert lhs + s * rhs == GQ(0)


def test_killing_radical_and_basic(g4222):
    assert killing_radical(g4222) == []
    assert is_basic(g4222)
    # the Heisenberg algebra has fully degenerate Killing form
    h = heisenberg()
    assert len(killing_radical(h)) == 3
    assert not is_basic(h)


def test_grading_closure(g4222):
    for (i, j), coeffs in g4222.structure.items():
        d = degree_add(g4222.degrees[i], g4222.degrees[j])
        assert all(g4222.degrees[k] == d for k in coeffs)


def test_boolean_degree_bits_rejected():
    with pytest.raises(ValueError):
        GradedAlgebra([(True, False)], {})
    with pytest.raises(ValueError):
        GradedAlgebra([(0, 2)], {})
