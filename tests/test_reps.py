from fractions import Fraction

import pytest
from conftest import (
    reference_grading,
    reference_grading_checks,
    reference_highest_weight_kernel,
    reference_homomorphism_failure,
    reference_targets,
    reference_weights,
    rescaled,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from colorlie.algebra import GradedAlgebra, check_axioms, homomorphism_failure, pair_scan
from colorlie.errors import (
    CertificateFailed,
    DimensionMismatch,
    NonIntegralWeight,
    NotSelfCentralizing,
    SingularForm,
    UngradedFirstFactor,
)
from colorlie.grading import degree_add, sign
from colorlie import reps
from colorlie.linalg import SMat, vec_scale
from colorlie.reps import (
    Representation,
    adjoint_representation,
    apply_synthesized_grading,
    casimir_eigenvalue_formula,
    casimir_matrix,
    decompose,
    defining_representation,
    direct_sum_rep,
    grading_synthesis,
    highest_weight_vectors,
    is_representation,
    tensor_product,
    trivial_representation,
    weight_decomposition,
)
from colorlie.roots import positive_and_simple, reflect, root_decomposition, validate_cartan
from colorlie.scalars import GQ, I, MINUS_ONE, ONE, commutator_residual


def _eps(i, rank=5, s=1):
    v = [Fraction(0)] * rank
    v[i] = Fraction(s)
    return tuple(v)


def test_rejects_bad_shapes(g4222):
    with pytest.raises(DimensionMismatch):
        Representation(g4222, 0, [])
    with pytest.raises(DimensionMismatch):
        Representation(g4222, 2, [SMat(2, 2)])  # wrong matrix count


def test_adjoint_is_representation(adj4222):
    report = is_representation(adj4222)
    assert report.ok


def test_defining_is_representation(defn4222):
    assert is_representation(defn4222).ok


def test_zeroed_matrix_fails_with_witness(defn4222, g4222):
    mats = list(defn4222.matrices)
    mats[7] = SMat(10, 10)
    broken = Representation(g4222, 10, mats)
    report = is_representation(broken)
    assert not report.ok
    assert report.witness is not None
    i, j, lhs, rhs = report.witness
    assert 7 in (i, j) or lhs != rhs


def test_graded_module_condition_checked(defn4222, g4222):
    # permuting the grading breaks the graded-module condition
    bad = Representation(
        g4222, 10, list(defn4222.matrices),
        grading=list(reversed(defn4222.grading)),
    )
    report = is_representation(bad)
    assert report.grading_witness is not None


def _pair_fails(g, mats, s, j, lhs, rhs) -> bool:
    """Recompute pi([e_s,e_j]) and pi(e_s)pi(e_j) - eps pi(e_j)pi(e_s) column
    by column with matvec, check the witness's lhs and rhs against them, and
    say whether the two sides differ."""
    eps = sign(g.degrees[s], g.degrees[j])
    differ = False
    for c in range(mats[s].ncols):
        col = {c: ONE}
        want_lhs = {}
        for k, v in g.bracket_basis(s, j).items():
            for r, x in mats[k].matvec(col).items():
                want_lhs[r] = want_lhs.get(r, GQ(0)) + v * x
        want_rhs = dict(mats[s].matvec(mats[j].matvec(col)))
        for r, x in mats[j].matvec(mats[s].matvec(col)).items():
            want_rhs[r] = want_rhs.get(r, GQ(0)) - eps * x
        want_lhs = {r: x for r, x in want_lhs.items() if x}
        want_rhs = {r: x for r, x in want_rhs.items() if x}
        assert lhs.matvec(col) == want_lhs and rhs.matvec(col) == want_rhs
        differ = differ or want_lhs != want_rhs
    return differ


def _changed(data, rep, k, kinds):
    """The matrices of rep with pi(e_k) changed: an entry by +-1 ("real"),
    +-i ("imaginary") or +-1/2 ("half"), a new +-1 entry ("new"), or not at
    all ("none")."""
    mats = list(rep.matrices)
    m = mats[k] = mats[k].copy()
    kind = data.draw(st.sampled_from(kinds))
    if kind == "new":
        r = data.draw(st.integers(0, rep.dim - 1))
        c = data.draw(st.sampled_from([c for c in range(rep.dim) if c not in m.rows[r]]))
        m.rows[r][c] = data.draw(st.sampled_from([ONE, MINUS_ONE]))
    elif kind != "none":
        r, c = data.draw(st.sampled_from(
            [(r, c) for r, row in enumerate(m.rows) for c in sorted(row)]))
        units = {"real": [ONE, MINUS_ONE], "imaginary": [I, -I],
                 "half": [GQ(Fraction(1, 2)), GQ(Fraction(-1, 2))]}[kind]
        m.rows[r][c] = m.rows[r][c] + data.draw(st.sampled_from(units))
        if not m.rows[r][c]:
            del m.rows[r][c]
    return mats


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_generator_scan_verdict_matches_full_scan(defn4222, tensor4222, g4211,
                                                  fx4211, data):
    """One matrix entry changed by +-1 or +-i, or a new +-1 entry: the
    verdict of is_representation (generator pairs on a valid algebra) is the
    one of the scan over every pair, and its witness really fails."""
    rep = data.draw(st.sampled_from([
        defn4222, tensor4222, defining_representation(g4211, fx4211.realization)]))
    g = rep.algebra
    mats = _changed(data, rep, data.draw(st.integers(0, g.dim - 1)),
                    ["real", "imaginary", "new"])
    bad = Representation(g, rep.dim, mats, grading=rep.grading)
    report = is_representation(bad)
    full = homomorphism_failure(g, mats, pair_scan(range(g.dim), g.dim))
    assert (report.witness is None) == (full is None)
    if report.witness is not None:
        assert _pair_fails(g, mats, *report.witness)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_homomorphism_failure_matches_reference(defn4222, tensor4222, rescaled4222,
                                                g4211, fx4211, data):
    """The perturbations of test_generator_scan_verdict_matches_full_scan, also
    by 1/2, on modules with integer entries and on the rescaled defining
    module, whose entries have denominators up to 15, or no perturbation:
    homomorphism_failure returns the verdict and witness of the reference
    that compares the two matrices of each pair, on the frames of
    check_axioms, on the scan over every j but the generators before s, and
    on the full scan."""
    rep = data.draw(st.sampled_from([
        defn4222, tensor4222, rescaled4222,
        defining_representation(g4211, fx4211.realization)]))
    g = rep.algebra
    mats = _changed(data, rep, data.draw(st.integers(0, g.dim - 1)),
                    ["none", "real", "imaginary", "half", "new"])
    frames = check_axioms(g).generators
    for scan in (frames, pair_scan([s for s, _ in frames], g.dim),
                 pair_scan(range(g.dim), g.dim)):
        assert homomorphism_failure(g, mats, scan) == reference_homomorphism_failure(
            g, mats, scan)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_frames_witness_matches_reference(defn4222, tensor4222, rescaled4222,
                                          g4211, fx4211, data):
    """pi(e_j) changed as in test_homomorphism_failure_matches_reference, for a
    j that is a pivot of the closure L_(k-1) of a generator s_k, k > 1, so
    the frame (s_k, C_(k-1)) skips the pair (s_k, e_j) and only the
    linear-combination argument covers it; j = s_(k-1) is drawn more often:
    a changed generator can fail first at a partner outside its own frame.
    is_representation reports the verdict and witness of the reference on
    the scan over every j but the generators before s."""
    rep = data.draw(st.sampled_from([
        defn4222, tensor4222, rescaled4222,
        defining_representation(g4211, fx4211.realization)]))
    g = rep.algebra
    frames = check_axioms(g).generators
    k = data.draw(st.integers(1, len(frames) - 1))
    s, comp = frames[k]
    j = data.draw(st.sampled_from(
        [frames[k - 1][0]] + [j for j in range(g.dim) if j != s and j not in comp]))
    mats = _changed(data, rep, j, ["none", "real", "imaginary", "half", "new"])
    report = is_representation(Representation(g, rep.dim, mats))
    assert report.witness == reference_homomorphism_failure(
        g, mats, pair_scan([s for s, _ in frames], g.dim))


def test_frames_witness_is_the_generator_scan_witness(defn4222):
    """pi(e_11), the third generator, plus 1 at (2,2): the first two
    generators pass and e_11 fails, first at e_1 among its frame's partners
    but at e_0, a pivot of the closure of the first two, in the scan over
    every partner; the witness is the latter."""
    g = defn4222.algebra
    mats = list(defn4222.matrices)
    m = mats[11] = mats[11].copy()
    m.rows[2][2] = m.rows[2].get(2, GQ(0)) + ONE
    frames = check_axioms(g).generators
    assert [s for s, _ in frames[:3]] == [9, 10, 11]
    assert homomorphism_failure(g, mats, frames)[:2] == (11, 1)
    witness = is_representation(Representation(g, 10, mats)).witness
    assert witness[:2] == (11, 0)
    assert witness == reference_homomorphism_failure(g, mats, pair_scan([9, 10, 11], g.dim))


def test_frames_bound_the_pair_tests(g4222, defn4222, monkeypatch):
    """On the worked so(4,2,2,2) basis the frames have 44, 43, 41, 40, 38,
    34, 29, 23, 16 and 8 partners: at most 316 pair tests decide Jacobi
    (990 sorted pairs) and 316 more the module (395 generator pairs)."""
    calls = []

    def counted(*args):
        calls.append(args)
        return commutator_residual(*args)

    monkeypatch.setattr("colorlie.algebra.commutator_residual", counted)
    assert check_axioms(g4222).ok and len(calls) <= 316
    calls.clear()
    assert is_representation(defn4222).ok and len(calls) <= 632


def test_trivial_rep(g4222, rs4222):
    triv = trivial_representation(g4222)
    assert is_representation(triv).ok
    assert not casimir_matrix(triv)  # zero matrix
    wd = weight_decomposition(triv, rs4222)
    assert wd.weights == [tuple(Fraction(0) for _ in range(5))]
    hw = highest_weight_vectors(triv, rs4222)
    assert len(hw) == 1 and len(hw[0][1]) == 1
    assert casimir_eigenvalue_formula(rs4222, [0] * 5) == 0


def test_weight_decomposition_defining(defn4222, rs4222):
    wd = weight_decomposition(defn4222, rs4222)
    expected = {_eps(i, s=s) for i in range(5) for s in (1, -1)}
    assert set(wd.weights) == expected
    assert all(len(v) == 1 for v in wd.spaces.values())


def test_weight_decomposition_adjoint(adj4222, rs4222):
    wd = weight_decomposition(adj4222, rs4222)
    zero = tuple(Fraction(0) for _ in range(5))
    assert wd.multiplicity(zero) == 5
    roots = {rd.alpha for rd in rs4222.roots}
    assert set(wd.weights) - {zero} == roots
    assert all(wd.multiplicity(a) == 1 for a in roots)
    assert sum(len(v) for v in wd.spaces.values()) == 45


def test_non_integral_weight_raises(defn4222, rs4222):
    """Halving the defining module gives the weight -e1/2, which no module
    of the algebra carries."""
    half = Representation(defn4222.algebra, defn4222.dim,
                          [m.scaled(GQ(Fraction(1, 2))) for m in defn4222.matrices])
    with pytest.raises(NonIntegralWeight):
        weight_decomposition(half, rs4222)
    with pytest.raises(NonIntegralWeight):
        decompose(half, rs4222)


def test_weyl_group_permutes_weights(defn4222, rs4222):
    wd = weight_decomposition(defn4222, rs4222)
    weights = set(wd.weights)
    for alpha in rs4222.simple:
        assert {reflect(rs4222, alpha, mu) for mu in weights} == weights


def test_highest_weight_vectors(defn4222, rs4222):
    hw = highest_weight_vectors(defn4222, rs4222)
    assert len(hw) == 1
    mu, vecs = hw[0]
    assert mu == _eps(0) and len(vecs) == 1


def test_highest_weight_multiplicity_two(defn4222, rs4222):
    double = direct_sum_rep(defn4222, defn4222)
    hw = highest_weight_vectors(double, rs4222)
    assert len(hw) == 1
    assert hw[0][0] == _eps(0) and len(hw[0][1]) == 2


def test_decompose_defining(defn4222, rs4222):
    comps = decompose(defn4222, rs4222)
    assert len(comps) == 1
    c = comps[0]
    assert c.highest_weight == _eps(0)
    assert c.dim == 10
    assert c.casimir_value == casimir_eigenvalue_formula(rs4222, _eps(0))


def test_decompose_trivial_sum(g4222, rs4222):
    triv = trivial_representation(g4222)
    comps = decompose(direct_sum_rep(triv, triv), rs4222)
    assert [c.dim for c in comps] == [1, 1]
    assert all(c.highest_weight == tuple(Fraction(0) for _ in range(5)) for c in comps)
    assert all(c.casimir_value == 0 for c in comps)


def test_decompose_rejects_non_invariant_sum(g4222, defn4222, rs4222):
    """V+V for the defining module V, with a rank-1 map added to
    pi(x_{e1-e2}): copy 2's e2 weight vector e3 + i e2 (dual functional
    (e3* - i e2*)/2) goes onto copy 1's e1 weight vector e1 + i e0.  Weights
    and highest-weight vectors are those of V+V, but U(g) of copy 2's
    highest-weight vector reaches copy 1's, so no component is certified."""
    double = direct_sum_rep(defn4222, defn4222)
    x = g4222.labels.index("E[+1e1-1e2]")
    m = double.matrices[x].copy()
    half = GQ(Fraction(1, 2))
    for r, u in ((1, ONE), (0, I)):
        for c, f in ((13, half), (12, -half * I)):
            m.rows[r][c] = u * f
    mats = list(double.matrices)
    mats[x] = m
    rep = Representation(g4222, 20, mats)
    assert not is_representation(rep).ok
    with pytest.raises(CertificateFailed):
        decompose(rep, rs4222)


def _cartan_not_semisimple(g, defn, rs):
    """V+V for the defining module V, with the matrix unit that sends copy 2's
    basis vector e_1 onto copy 1's e_1 added to pi(H_1).  e_1 lies in
    V_{e1} + V_{-e1}, and every pi(H_k) still commutes with the others, but
    pi(H_1) is no longer semisimple: on the generalized eigenspaces it has a
    nilpotent part."""
    double = direct_sum_rep(defn, defn)
    (h,) = rs.cartan.basis[0]
    m = double.matrices[h].copy()
    m.rows[1][11] = m.rows[1].get(11, GQ(0)) + ONE
    mats = list(double.matrices)
    mats[h] = m
    return Representation(g, 20, mats)


def _cartan_not_semisimple_on_a_weight(g, defn, rs):
    """V+V with the rank-1 map that sends copy 2's weight vector e1 + i e0
    of weight e1 (dual functional (e1* - i e0*)/2) onto copy 1's added to
    pi(H_1): the generalized weight spaces are those of V+V and every root
    vector maps them correctly, so only the Cartan action is wrong."""
    double = direct_sum_rep(defn, defn)
    (h,) = rs.cartan.basis[0]
    m = double.matrices[h].copy()
    half = GQ(Fraction(1, 2))
    for r, u in ((1, ONE), (0, I)):
        for c, f in ((11, half), (10, -half * I)):
            m.rows[r][c] = m.rows[r].get(c, GQ(0)) + u * f
    mats = list(double.matrices)
    mats[h] = m
    return Representation(g, 20, mats)


@pytest.mark.parametrize("build", [_cartan_not_semisimple, _cartan_not_semisimple_on_a_weight])
def test_cartan_action_not_semisimple_rejected(g4222, defn4222, rs4222, build):
    """Each module is rejected where its weights are computed: eigensplit
    splits on exact eigenspaces, which do not fill it."""
    rep = build(g4222, defn4222, rs4222)
    assert not is_representation(rep).ok
    for f in (weight_decomposition, decompose, grading_synthesis):
        with pytest.raises(CertificateFailed, match="eigenspace dimensions do not add up"):
            f(rep, rs4222)


def test_weight_frame_applies_no_cartan_operator(tensor4222, rs4222, monkeypatch):
    """weight_decomposition certifies that the Cartan acts by the weights, so
    _weight_frame applies no Cartan operator again; it used to apply each of
    the 5 to each of the 100 weight vectors of the tensor square."""
    assert all(len(h) == 1 for h in rs4222.cartan.basis)  # apply(h) is a stored matrix
    cartan = {id(tensor4222.apply(h)) for h in rs4222.cartan.basis}
    wd = weight_decomposition(tensor4222, rs4222)
    calls = []
    matvec = SMat.matvec

    def counted(op, v):
        calls.append(id(op) in cartan)
        return matvec(op, v)

    monkeypatch.setattr(reps, "weight_decomposition", lambda rep, rs: wd)
    monkeypatch.setattr(SMat, "matvec", counted)
    reps._weight_frame(tensor4222, rs4222)
    assert len(calls) == 4000 and not any(calls)  # 40 root vectors on 100 weight vectors


@pytest.fixture(scope="module")
def reference_modules():
    """The seven modules of decompose_so4222.json, the rescaled defining
    module, and the generated defining and tensor-square modules over the
    Cartan basis halved, whose weights and roots have denominator 2."""
    from test_golden import golden_modules

    mods = golden_modules()
    defining, rs = mods["so4222 defining"]
    mods["so4222 defining rescaled"] = rescaled(defining), rs
    g = defining.algebra
    t = validate_cartan(g, [vec_scale(h, GQ(Fraction(1, 2))) for h in rs.cartan.basis])
    halved = positive_and_simple(root_decomposition(g, t))
    for name in ("defining", "tensor"):
        mods[f"so4222 {name} halved"] = mods[f"so4222 {name}"][0], halved
    return mods


@pytest.mark.parametrize("name", [
    f"{a} {m}" for a in ("so4222", "fx4222") for m in ("defining", "adjoint", "tensor")] + [
    "so4222 defining rebased", "so4222 defining rescaled", "so4222 defining halved",
    "so4222 tensor halved"])
def test_weight_keys_match_fraction_reference(reference_modules, name, monkeypatch):
    """The integer-keyed bookkeeping against the Fraction-keyed reference of
    conftest: the weights and their spaces; the weight mu + alpha where each
    root vector sends V_mu; <mu, mu>; the synthesized grading, by coset and
    parity; the (alpha, mu) whose images the graded-module check computes;
    and the highest-weight kernel, solved weight by weight, against one
    kernel of all raising rows, vector for vector."""
    rep, rs = reference_modules[name]
    weights, spaces = reference_weights(rep, rs)
    wd, _, weight_of, roots, ops, hw = reps._weight_frame(rep, rs)
    assert wd.weights == weights and wd.spaces == spaces
    targets = reference_targets(weights, rs)
    alphas = [rd.alpha for rd in rs.roots for a in rd.degrees() for _ in rd.spaces_by_degree[a]]
    for alpha, op in zip(alphas, ops):
        assert all(weights[weight_of[r]] == targets[(alpha, weights[weight_of[c]])]
                   for r, row in enumerate(op.rows) for c in row)
    d, norms = reps._norms(wd, rs)
    assert [Fraction(q, d) for q in norms] == [rs.inner(mu, mu) for mu in weights]
    assert hw == reference_highest_weight_kernel(
        rep.dim, weight_of, [op for (*_, up), op in zip(roots, ops) if up])
    grading = reference_grading(weights, rs)
    assert grading_synthesis(rep, rs) == grading
    # the pairs the graded-module check applies a root vector to
    root_of = {id(rd.spaces_by_degree[a][0]): rd.alpha for rd in rs.roots for a in rd.degrees()}
    weight_of_vector = {id(v): mu for mu, vecs in wd.spaces.items() for v in vecs}
    applied, checked = {}, set()
    matvec = SMat.matvec

    def apply(x):
        op = Representation.apply(rep, x)
        applied[id(op)] = root_of[id(x)]
        return op

    def counted(op, v):
        checked.add((applied[id(op)], weight_of_vector[id(v)]))
        return matvec(op, v)

    monkeypatch.setattr(reps, "weight_decomposition", lambda rep, rs: wd)
    monkeypatch.setattr(rep, "apply", apply)
    monkeypatch.setattr(SMat, "matvec", counted)
    reps.grading_synthesis(rep, rs)
    assert checked == reference_grading_checks(weights, rs, grading)


def test_non_integral_weight_matches_reference(defn4222, rs4222):
    """The half-weight module of test_non_integral_weight_raises: the
    integer test on the keys and the Fraction test of the reference both
    reject it."""
    half = Representation(defn4222.algebra, defn4222.dim,
                          [m.scaled(GQ(Fraction(1, 2))) for m in defn4222.matrices])
    with pytest.raises(NonIntegralWeight):
        reference_weights(half, rs4222)
    with pytest.raises(NonIntegralWeight, match="is not integral"):
        weight_decomposition(half, rs4222)


def test_decompose_requires_self_centralizing(g4211, rs4211):
    triv = trivial_representation(g4211)
    with pytest.raises(NotSelfCentralizing):
        decompose(triv, rs4211)


def test_casimir_value_on_adjoint(adj4222, rs4222):
    comps = decompose(adj4222, rs4222)
    assert len(comps) == 1 and comps[0].dim == 45
    highest_root = max(rd.alpha for rd in rs4222.roots)
    assert comps[0].highest_weight == highest_root


def test_tensor_requires_graded_first_factor(defn4222, g4222):
    ungraded = Representation(g4222, 10, list(defn4222.matrices))
    with pytest.raises(UngradedFirstFactor):
        tensor_product(ungraded, defn4222)


def test_tensor_with_trivial_is_identity(defn4222, g4222):
    triv = trivial_representation(g4222)
    t = tensor_product(triv, defn4222)
    assert t.dim == 10
    assert t.matrices == defn4222.matrices
    assert t.grading == defn4222.grading


def test_tensor_grading_is_degree_sum(defn4222):
    t = tensor_product(defn4222, defn4222)
    g1 = defn4222.grading
    for p in range(10):
        for q in range(10):
            assert t.grading[p * 10 + q] == degree_add(g1[p], g1[q])


def test_tensor_square_is_representation(tensor4222):
    assert tensor4222.dim == 100
    assert is_representation(tensor4222).ok


def test_grading_synthesis_adjoint_matches_algebra(adj4222, rs4222, g4222):
    synth = grading_synthesis(adj4222, rs4222)
    for rd in rs4222.roots:
        (deg,) = rd.degrees()
        assert synth[rd.alpha] == deg
    zero = tuple(Fraction(0) for _ in range(5))
    assert synth[zero] == (0, 0)


def test_grading_round_trip_defining(defn4222, rs4222):
    forgotten = Representation(defn4222.algebra, 10, list(defn4222.matrices))
    regraded = apply_synthesized_grading(forgotten, rs4222)
    assert is_representation(regraded).ok
    assert regraded.grading is not None
    wd = weight_decomposition(defn4222, rs4222)
    synth = grading_synthesis(forgotten, rs4222)
    # original block degree of each weight vector vs synthesized: the
    # difference must be one global shift (here (0,0), the base choice)
    shifts = set()
    for mu, vecs in wd.spaces.items():
        (v,) = vecs
        original = {defn4222.grading[i] for i in v}
        assert len(original) == 1
        o = original.pop()
        shifts.add((o[0] ^ synth[mu][0], o[1] ^ synth[mu][1]))
    assert len(shifts) == 1


def test_casimir_needs_nondegenerate_killing_form():
    heisenberg = GradedAlgebra([(0, 0)] * 3, {(0, 1): {2: ONE}})
    with pytest.raises(SingularForm, match="no Casimir element"):
        casimir_matrix(trivial_representation(heisenberg))
