from fractions import Fraction

import pytest

from colorlie.algebra import GradedAlgebra, from_matrices
from colorlie.families import (
    SoParams,
    fixture_so4211,
    fixture_so4222,
    so_cartan_hint,
    so_pqrs,
)
from colorlie.grading import degree_pairing, sign
from colorlie.linalg import (
    SMat,
    SubspaceBasis,
    graded_commutator,
    lincomb,
    unit_vec,
    vec_scale,
)
from colorlie.roots import positive_and_simple, root_decomposition, validate_cartan
from colorlie.scalars import GQ, I, MINUS_ONE, ONE, ZERO

# ---------------------------------------------------------------------------
# acceptance-criterion reporting: one line per criterion in the terminal
# summary (pytest captures stdout, so plain prints would be swallowed)
# ---------------------------------------------------------------------------

_criterion_lines = {}


def record_criterion(num: int, desc: str, ok: bool) -> None:
    verdict = "PASS" if ok else "FAIL"
    _criterion_lines[num] = f"criterion {num:2d} [{verdict}] {desc}"


def run_criterion(num: int, desc: str, body) -> None:
    """Run one acceptance check, recording PASS/FAIL before re-raising."""
    try:
        body()
    except BaseException:
        record_criterion(num, desc, False)
        raise
    record_criterion(num, desc, True)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _criterion_lines:
        terminalreporter.section("acceptance criteria")
        for num in sorted(_criterion_lines):
            terminalreporter.write_line(_criterion_lines[num])


# ---------------------------------------------------------------------------
# shared expensive objects
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def fx4222():
    return fixture_so4222()


@pytest.fixture(scope="session")
def g4222(fx4222):
    return from_matrices(fx4222.realization)


@pytest.fixture(scope="session")
def rs4222(fx4222, g4222):
    hint = [unit_vec(i) for i in fx4222.cartan_indices]
    t = validate_cartan(g4222, hint)
    return positive_and_simple(root_decomposition(g4222, t))


@pytest.fixture(scope="session")
def fx4211():
    return fixture_so4211()


@pytest.fixture(scope="session")
def g4211(fx4211):
    return from_matrices(fx4211.realization)


@pytest.fixture(scope="session")
def rs4211(fx4211, g4211):
    hint = [unit_vec(i) for i in fx4211.cartan_indices]
    t = validate_cartan(g4211, hint)
    return positive_and_simple(root_decomposition(g4211, t))


@pytest.fixture(scope="session")
def real4420():
    return so_pqrs(SoParams(4, 4, 2, 0))


@pytest.fixture(scope="session")
def g4420(real4420):
    return from_matrices(real4420)


@pytest.fixture(scope="session")
def defn4222(g4222, fx4222):
    from colorlie.reps import defining_representation

    return defining_representation(g4222, fx4222.realization)


@pytest.fixture(scope="session")
def adj4222(g4222):
    from colorlie.reps import adjoint_representation

    return adjoint_representation(g4222)


@pytest.fixture(scope="session")
def tensor4222(defn4222):
    from colorlie.reps import tensor_product

    return tensor_product(defn4222, defn4222)


# a diagonal change of basis D of a 10-dimensional module
RESCALE = [GQ(2), GQ(Fraction(1, 3)), GQ(1, 1), GQ(Fraction(-1, 2)), GQ(3),
           ONE, GQ(1, -1), GQ(Fraction(2, 5)), MINUS_ONE, I]


def rescaled(rep):
    """D^-1 pi(x) D for the module pi: entries with denominators other than
    1, and the same grading, since D is diagonal."""
    from colorlie.reps import Representation

    mats = [SMat(m.nrows, m.ncols, [{c: v * RESCALE[c] / RESCALE[r] for c, v in row.items()}
                                    for r, row in enumerate(m.rows)])
            for m in rep.matrices]
    return Representation(rep.algebra, rep.dim, mats, grading=rep.grading)


@pytest.fixture(scope="session")
def rescaled4222(defn4222):
    return rescaled(defn4222)


def reference_homomorphism_failure(g, mats, scan):
    """homomorphism_failure as two matrices compared: for each pair (s, j) of
    scan, a list of (s, partners), pi([e_s,e_j]) by lincomb against the
    eps-commutator by graded_commutator; the first pair where they differ,
    with both."""
    for s, partners in scan:
        for j in partners:
            rhs = graded_commutator(mats[s], mats[j], sign(g.degrees[s], g.degrees[j]))
            lhs = lincomb(mats, g.bracket_basis(s, j), rhs.nrows)
            if lhs != rhs:
                return s, j, lhs, rhs
    return None


def reference_from_matrices(m):
    """from_matrices without the support test: every pair i < j bracketed,
    each graded commutator solved over the basis matrices."""
    amb, mats = m.ambient_dim, m.matrices

    def flat(x):
        return {r * amb + c: v for r, row in enumerate(x.rows) for c, v in row.items()}

    sb = SubspaceBasis(map(flat, mats))
    assert sb.dim == len(mats)
    structure = {}
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            comm = graded_commutator(mats[i], mats[j],
                                     sign(m.basis_degrees[i], m.basis_degrees[j]))
            coords = sb.coords(flat(comm))
            assert coords is not None, (i, j)
            if coords:
                structure[(i, j)] = coords
    return GradedAlgebra(m.basis_degrees, structure, labels=m.labels)


# ---------------------------------------------------------------------------
# the bracket read off the i < j half g.structure, as before the rows
# ---------------------------------------------------------------------------


def reference_bracket_basis(g, i, j):
    """[e_i, e_j] from g.structure: for i > j, the stored (j, i) entry
    scaled by -eps(|e_i|,|e_j|), a new dict on every read."""
    if i <= j:
        return g.structure.get((i, j), {})
    base = g.structure.get((j, i))
    if not base:
        return {}
    return vec_scale(base, -sign(g.degrees[i], g.degrees[j]))


def reference_bracket_rows(g):
    """rows[a][k] = [e_a, e_k], nonzero ones only, in increasing k, built
    from g.structure in sorted order; [e_b, e_a] is the stored [e_a, e_b]
    if -eps = 1."""
    rows, degs = [{} for _ in range(g.dim)], g.degrees
    for (a, b), c in sorted(g.structure.items()):
        rows[a][b] = c
        rows[b][a] = c if degree_pairing(degs[a], degs[b]) else {k: -v for k, v in c.items()}
    return rows


def reference_ad_matrices(g):
    """ad(e_i), entry (k, j) = [e_i, e_j]_k, one reference_bracket_basis
    per (i, j)."""
    mats = []
    for i in range(g.dim):
        m = SMat(g.dim, g.dim)
        for j in range(g.dim):
            for k, v in reference_bracket_basis(g, i, j).items():
                m.rows[k][j] = v
        mats.append(m)
    return mats


def _trace_mul(a, b):
    """tr(a @ b) without forming the product."""
    s = ZERO
    for i, row in enumerate(a.rows):
        for j, x in row.items():
            y = b.rows[j].get(i)
            if y is not None:
                s = s + x * y
    return s


def reference_killing_form(g):
    """K(e_i, e_j) = tr(ad e_i . ad e_j) on reference_ad_matrices, for
    e_i and e_j of one degree."""
    ads, n = reference_ad_matrices(g), g.dim
    gram = SMat(n, n)
    for i in range(n):
        for j in range(i, n):
            if g.degrees[i] != g.degrees[j]:
                continue
            v = _trace_mul(ads[i], ads[j])
            if v:
                gram.rows[i][j] = v
                if i != j:
                    gram.rows[j][i] = v
    return gram


@pytest.fixture(scope="session")
def rs4420(g4420):
    t = validate_cartan(g4420, so_cartan_hint(SoParams(4, 4, 2, 0)))
    return positive_and_simple(root_decomposition(g4420, t))


# ---------------------------------------------------------------------------
# the Fraction-keyed weight bookkeeping that the integer weight keys replaced
# ---------------------------------------------------------------------------


def reference_weights(rep, rs):
    """(sorted weights, {weight: space}) from the joint eigenspaces of the
    Cartan operators, each weight a tuple of Fractions; NonIntegralWeight
    unless every weight pairs integrally with every simple coroot, read off
    rs.pairings."""
    from colorlie.errors import NonIntegralWeight
    from colorlie.linalg import eigensplit

    ops = [rep.apply(h) for h in rs.cartan.basis]
    spaces = {}
    for eig, vecs in eigensplit([unit_vec(i) for i in range(rep.dim)], ops):
        mu = tuple(v.re for v in eig)
        if any(v.im for v in eig) or any(c.denominator != 1 for c in rs.pairings(mu)):
            raise NonIntegralWeight(f"weight {mu} is not integral")
        spaces[mu] = vecs
    return sorted(spaces), spaces


def reference_targets(weights, rs):
    """{(alpha, mu): mu + alpha if that is a weight, else None} over the
    roots alpha of rs and the weights mu, added as Fractions."""
    present = set(weights)
    return {(rd.alpha, mu): nu if nu in present else None
            for rd in rs.roots for mu in weights
            for nu in [tuple(a + b for a, b in zip(mu, rd.alpha))]}


def reference_grading(weights, rs):
    """{weight: degree} from the simple-root coordinates rs.coordinates(mu):
    weights whose coordinates have equal fractional parts share a
    root-lattice coset, the largest weight of a coset has degree (0,0), and
    an odd difference in coordinate i adds the degree of simple root i."""
    from colorlie.grading import degree_add
    from colorlie.roots import root_degree

    cosets = {}
    for mu in weights:
        coords = rs.coordinates(mu)
        cosets.setdefault(tuple(c % 1 for c in coords), []).append((mu, coords))
    node_degrees = [root_degree(rs, a) for a in rs.simple]
    grading = {}
    for members in cosets.values():
        top = max(members)[1]
        for mu, coords in members:
            deg = (0, 0)
            for c, t, nd in zip(coords, top, node_degrees):
                if (c - t) % 2:
                    deg = degree_add(deg, nd)
            grading[mu] = deg
    return grading


def reference_grading_checks(weights, rs, grading):
    """The (alpha, mu) where the graded-module check must apply the root
    vector of alpha to V_mu: mu + alpha is no weight, or its degree is not
    deg(alpha) + deg(mu)."""
    from colorlie.grading import degree_add
    from colorlie.roots import root_degree

    return {(alpha, mu) for (alpha, mu), nu in reference_targets(weights, rs).items()
            if nu is None or grading[nu] != degree_add(root_degree(rs, alpha), grading[mu])}


def reference_highest_weight_kernel(dim, weight_of, raising_ops):
    """{weight index: vectors}: one kernel_basis of every nonzero row of the
    raising operators, written over the weight basis, each kernel vector
    filed under the weight of its first coordinate."""
    from colorlie.linalg import kernel_basis

    rows = [row for op in raising_ops for row in op.rows if row]
    hw = {}
    for v in kernel_basis(SMat(len(rows), dim, rows)):
        hw.setdefault(weight_of[next(iter(v))], []).append(v)
    return hw
