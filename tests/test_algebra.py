from fractions import Fraction
from functools import lru_cache
from itertools import product

import pytest
from conftest import (
    reference_ad_matrices,
    reference_bracket_basis,
    reference_bracket_rows,
    reference_from_matrices,
    reference_homomorphism_failure,
    reference_killing_form,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from colorlie.algebra import (
    GradedAlgebra,
    MatrixRealization,
    _jacobi_failure,
    check_axioms,
    direct_sum,
    from_matrices,
    generating_set,
    gl_graded,
    homomorphism_failure,
    is_basic,
    killing_form,
    killing_radical,
    pair_scan,
)
from colorlie.errors import CertificateFailed, DimensionMismatch, NotClosed
from colorlie.families import SoParams, fixture_so4222, so_pqrs
from colorlie.grading import DEGREES, degree_add, sign
from colorlie.linalg import SMat, SubspaceBasis, invert, unit_vec, vec_scale
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
    scan = pair_scan(range(g.dim), g.dim)
    failure = reference_homomorphism_failure(g, g.ad_matrices(), scan)
    assert homomorphism_failure(g, g.ad_matrices(), scan) == failure
    if failure is None:
        return None
    i, j, lhs, rhs = failure
    return i, j, _least_differing_column(lhs, rhs)


def _gens(g):
    return [s for s, _ in generating_set(g)]


@lru_cache(maxsize=None)
def _so(params):
    return from_matrices(so_pqrs(SoParams(*params)))


def _subalgebra(g, gens):
    """The subalgebra generated by the e_s, s in gens: brackets of every pair
    of spanned vectors until the span stops growing."""
    sb = SubspaceBasis()
    frontier = [unit_vec(s) for s in gens]
    while frontier:
        new = [v for v in frontier if sb.add(v)]
        frontier = [g.bracket(x, y) for x in new for y in sb.inserted]
    return sb


@lru_cache(maxsize=None)
def _late_complements(g):
    """For each generator s_k of the later half of generating_set(g), the
    indices other than s_k that are no pivot of the subalgebra generated by
    s_1..s_{k-1}, computed here from brackets."""
    gens = _gens(g)
    spans = [_subalgebra(g, gens[:k]) for k in range(len(gens) // 2, len(gens))]
    return [[c for c in range(g.dim) if c != s and c not in sb.pivots]
            for s, sb in zip(gens[len(gens) // 2:], spans)]


def _perturbed(data, g, kind):
    """g with one structure constant changed: by +-1 on its real part, by +-i,
    or set in a zero slot (i, j) at a k of the degree closure allows ("new"),
    or of another degree ("off-degree"); for "late", the bracket [e_i, e_j]
    changed so (by +-1 or a new entry), for i < j in the complement C_{k-1}
    of a generator s_k of the later half of generating_set (computed from
    brackets, see _late_complements).  Before that, optionally, basis vector
    e_a rescaled by 1, 1/2, 3 or 1+i as a % 4, so the constants have
    denominators 2 to 12 and complex values (the frames do not change)."""
    degs = g.degrees
    scale = [(ONE, GQ(Fraction(1, 2)), GQ(3), GQ(1, 1))[a % 4] for a in range(g.dim)]
    if not data.draw(st.booleans()):
        scale = [ONE] * g.dim
    # [x_i, x_j] = sum_k c_ij^k s_i s_j / s_k x_k for x_a = s_a e_a
    structure = {(i, j): {k: c * scale[i] * scale[j] / scale[k] for k, c in v.items()}
                 for (i, j), v in g.structure.items()}
    if kind == "late":
        comp = data.draw(st.sampled_from(_late_complements(g)))
        i, j = sorted(data.draw(st.lists(st.sampled_from(comp), min_size=2, max_size=2,
                                         unique=True)))
        kind = "real" if (i, j) in structure else "new"
    elif kind in ("real", "imaginary"):
        i, j = data.draw(st.sampled_from(sorted(structure)))
    else:
        i, j = data.draw(st.sampled_from([
            (i, j) for i in range(g.dim) for j in range(i + 1, g.dim)
            if (i, j) not in structure]))
    if kind in ("real", "imaginary"):
        k = data.draw(st.sampled_from(sorted(structure[(i, j)])))
        units = [ONE, MINUS_ONE] if kind == "real" else [I, -I]
        structure[(i, j)][k] = structure[(i, j)][k] + data.draw(st.sampled_from(units))
    else:
        target = degree_add(degs[i], degs[j])
        k = data.draw(st.sampled_from([
            k for k in range(g.dim) if (degs[k] == target) == (kind == "new")]))
        structure[(i, j)] = {k: data.draw(st.sampled_from([ONE, MINUS_ONE, I, -I]))}
    return GradedAlgebra(list(degs), structure)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_jacobi_witness_matches_pair_scan(data):
    """Each perturbation of _perturbed but "late": the triple scan of
    check_axioms reports the witness of the module check on ad."""
    g = _so(data.draw(st.sampled_from([(4, 2, 1, 1), (4, 2, 2, 2)])))
    kind = data.draw(st.sampled_from(["real", "imaginary", "new", "off-degree"]))
    bad = _perturbed(data, g, kind)
    report = check_axioms(bad)
    assert (report.closure is None) == (kind != "off-degree")
    assert (report.jacobi[0] if report.jacobi else None) == _pair_scan_witness(bad)


def _shift_algebra(n, top, a):
    """d = e_0 of degree a and e_1..e_n, e_i of degree i*a, with
    [d, e_i] = e_(i+1) (e_(n+1) = 0) and [e_i, e_j] = c_ij e_(i+j) (zero past
    e_n), where c_ij = top[i-1] for i + j = n and c_ij = c_(i+1)j + c_i(j+1)
    below, so that ad d is a derivation.  generating_set takes d, whose
    closure is its span, then e_1, whose closure is everything; Jacobi can
    fail only on e_1..e_n, the complement of the first closure, so only the
    last frame, (e_1, C_1), can see it."""
    c = {}
    for s in range(n, 2, -1):
        for i in range(1, (s + 1) // 2):
            c[i, s - i] = top[i - 1] if s == n else c.get((i + 1, s - i), 0) + c.get((i, s - i + 1), 0)
    structure = {(0, i): {i + 1: ONE} for i in range(1, n)}
    structure.update({(i, j): {i + j: GQ(v)} for (i, j), v in c.items() if v})
    return GradedAlgebra([a] + [a if i % 2 else (0, 0) for i in range(1, n + 1)], structure)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_generator_jacobi_verdict_matches_pair_scan(data):
    """Each perturbation of _perturbed that keeps the bracket graded, and the
    algebras of _shift_algebra: Jacobi on generating_set's frames fails
    exactly when the scan of every sorted triple does, and check_axioms
    keeps the frames only then."""
    kind = data.draw(st.sampled_from(["real", "imaginary", "new", "late", "shift"]))
    if kind == "shift":
        n = data.draw(st.integers(5, 7))
        top = data.draw(st.lists(st.sampled_from([0, 1, -1]), min_size=(n - 1) // 2,
                                 max_size=(n - 1) // 2))
        bad = _shift_algebra(n, top, data.draw(st.sampled_from(DEGREES)))
    else:
        bad = _perturbed(data, _so(data.draw(st.sampled_from([(4, 2, 1, 1), (4, 2, 2, 2)]))),
                         kind)
    fast = _jacobi_failure(bad, generating_set(bad), True)
    assert (fast is None) == (_jacobi_failure(bad, pair_scan(range(bad.dim), bad.dim),
                                              True) is None)
    assert (check_axioms(bad).generators is None) == (fast is not None)


def _items(rows):
    return [list(row.items()) for row in rows]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_bracket_table_matches_reference(data):
    """On so(p,q,r,s), direct sums, _shift_algebra and the algebras of
    _perturbed, rows, ad_matrices, bracket_basis and killing_form equal
    their readings of the i < j half (conftest), key order included.  The
    same brackets, each keyed (i, j) or (j, i) at random and in a shuffled
    order, give the same rows and structure in the same order, and the
    same axiom witnesses: commutator_residual stops at the first row below
    lo in reverse order, so unsorted rows would change them."""
    kind = data.draw(st.sampled_from(["so", "sum", "shift", "perturbed"]))
    if kind == "so":
        g = _so(data.draw(st.sampled_from(SO_PARAMS)))
    elif kind == "sum":
        small = [t for t in SO_PARAMS if sum(t) <= 5]
        g = direct_sum(*(_so(data.draw(st.sampled_from(small))) for _ in "ab"))
    elif kind == "shift":
        n = data.draw(st.integers(5, 7))
        top = data.draw(st.lists(st.sampled_from([0, 1, -1]), min_size=(n - 1) // 2,
                                 max_size=(n - 1) // 2))
        g = _shift_algebra(n, top, data.draw(st.sampled_from(DEGREES)))
    else:
        g = _perturbed(data, _so(data.draw(st.sampled_from([(4, 2, 1, 1), (4, 2, 2, 2)]))),
                       data.draw(st.sampled_from(["real", "imaginary", "new", "off-degree",
                                                  "late"])))
    n = g.dim
    assert _items(g.rows) == _items(reference_bracket_rows(g))
    assert _items(r for m in g.ad_matrices() for r in m.rows) == _items(
        r for m in reference_ad_matrices(g) for r in m.rows)
    assert all(g.bracket_basis(i, j) == reference_bracket_basis(g, i, j)
               for i in range(n) for j in range(n))
    assert _items(killing_form(g).rows) == _items(reference_killing_form(g).rows)

    rnd = data.draw(st.randoms(use_true_random=False))
    items = [((j, i), vec_scale(c, -sign(g.degrees[i], g.degrees[j]))) if rnd.random() < 0.5
             else ((i, j), dict(c)) for (i, j), c in g.structure.items()]
    rnd.shuffle(items)
    h = GradedAlgebra(list(g.degrees), dict(items))
    assert _items(h.rows) == _items(g.rows)
    assert list(h.structure.items()) == list(g.structure.items())
    a, b = check_axioms(g), check_axioms(h)
    assert (a.closure, a.jacobi, a.generators) == (b.closure, b.jacobi, b.generators)


def test_jacobi_without_closure_scans_every_k():
    """An ungraded bracket breaks the eps-alternation of the Jacobiator: here
    the one sorted triple (0, 1, 2) holds, yet Jacobi fails at (0, 1, 1)."""
    g = GradedAlgebra([(0, 0), (1, 1), (1, 0)], {(0, 1): {2: ONE}, (1, 2): {2: ONE}})
    report = check_axioms(g)
    assert report.closure is not None
    assert report.jacobi[0] == (0, 1, 1) == _pair_scan_witness(g)


# the 490 parameter tuples with 2 <= p+q+r+s <= 8, drawn directly: a filter
# over all 4-tuples in [0, 8] keeps about 7.5% of its draws
SO_PARAMS = [t for t in product(range(9), repeat=4) if 2 <= sum(t) <= 8]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SO_PARAMS))
def test_generating_set_generates_so_pqrs(params):
    g = _so(params)
    gens = _gens(g)
    assert len(set(gens)) == len(gens)
    assert _subalgebra(g, gens).dim == g.dim


def test_generating_set_generates_direct_sum():
    """so(2,2,2,2) + so(2,2,2,2) is not simple; the generators must reach
    both summands."""
    g = _so((2, 2, 2, 2))
    s = direct_sum(g, g)
    gens = _gens(s)
    assert {i < g.dim for i in gens} == {True, False}
    assert _subalgebra(s, gens).dim == s.dim


def test_generating_set_sizes(g4222):
    """Degree != (0,0) candidates come first: in index order the five Cartan
    vectors of the worked so(4,2,2,2) basis would be taken first, giving 15."""
    gens = _gens(g4222)
    assert len(gens) == 10
    assert all(g4222.degrees[i] != (0, 0) for i in gens)
    assert len(_gens(_so((6, 2, 2, 2)))) == 11


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


@st.composite
def conjugated_gl(draw):
    """gl_graded of a graded space of dimension 2 to 4, conjugated by an
    invertible P = LU with L and U unitriangular and nonzero only inside the
    degree blocks: dense homogeneous matrices whose rows lie in one block
    and columns in another, so row and column supports differ."""
    sizes = draw(st.sampled_from([t for t in product(range(3), repeat=4) if 2 <= sum(t) <= 4]))
    gl = gl_graded(dict(zip(DEGREES, sizes)))
    n, block = gl.ambient_dim, gl.block_of
    entries = st.sampled_from([GQ(0), ONE, MINUS_ONE, GQ(2), I, GQ(Fraction(1, 2))])

    def unitriangular(below):
        return SMat.from_dense([[ONE if r == c else draw(entries)
                                 if block[r] == block[c] and (c < r) == below else GQ(0)
                                 for c in range(n)] for r in range(n)])

    p = unitriangular(True) @ unitriangular(False)
    p_inv = invert(p)
    mats = [p @ x @ p_inv for x in gl.matrices]
    return MatrixRealization(gl.block_sizes, gl.block_degrees, mats, labels=gl.labels)


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.sampled_from(SO_PARAMS).map(lambda t: so_pqrs(SoParams(*t))),
                 st.just(fixture_so4222().realization), conjugated_gl()))
def test_from_matrices_matches_all_pairs(real):
    """Bracketing only the pairs whose supports meet gives the structure
    constants of bracketing every pair, in the same order."""
    g, ref = from_matrices(real), reference_from_matrices(real)
    assert g.degrees == ref.degrees and g.labels == ref.labels
    assert list(g.structure.items()) == list(ref.structure.items())


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
