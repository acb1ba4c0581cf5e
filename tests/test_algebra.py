import pytest

from colorlie.algebra import (
    GradedAlgebra,
    check_axioms,
    direct_sum,
    from_matrices,
    gl_graded,
    graded_simplicity_probe,
    is_basic,
    killing_form,
    killing_radical,
)
from colorlie.errors import DimensionMismatch, NotClosed
from colorlie.grading import degree_add, sign
from colorlie.linalg import SMat, unit_vec
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
        # ... and the Jacobi triple starts with the failing homomorphism pair
        rep_witness = is_representation(adjoint_representation(bad)).witness
        assert report.jacobi[0][:2] == rep_witness[:2]


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


def test_simplicity_probe(g4222):
    verdict = graded_simplicity_probe(g4222, trials=2, seed=0)
    assert verdict.simple
    # a direct sum is flagged with a witness ideal
    s = direct_sum(g4222, g4222)
    verdict = graded_simplicity_probe(s, trials=1, seed=0)
    assert not verdict.simple
    assert verdict.witness and 0 < len(verdict.witness) < s.dim
    # abelian algebras are not simple by convention
    ab = GradedAlgebra([(0, 0)], {})
    assert not graded_simplicity_probe(ab).simple


def test_grading_closure(g4222):
    for (i, j), coeffs in g4222.structure.items():
        d = degree_add(g4222.degrees[i], g4222.degrees[j])
        assert all(g4222.degrees[k] == d for k in coeffs)


def test_boolean_degree_bits_rejected():
    with pytest.raises(ValueError):
        GradedAlgebra([(True, False)], {})
    with pytest.raises(ValueError):
        GradedAlgebra([(0, 2)], {})
