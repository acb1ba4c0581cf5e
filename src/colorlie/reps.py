"""Finite-dimensional modules: homomorphism checks, Casimir operator, weight
theory, highest weights, complete-reducibility decomposition, grading
synthesis, and the color tensor product.

The tensor-product convention x(v⊗w) = xv⊗w + (-1)^pairing(|x|,|v|) v⊗xw is
standard for color algebras but is an artifact convention, not taken from any
single source; outputs that depend on it are flagged with `tensorConvention`.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import (
    GradedAlgebra,
    MatrixRealization,
    check_axioms,
    generating_set,
    homomorphism_failure,
    killing_form,
)
from .errors import (
    CertificateFailed,
    DecompositionIncomplete,
    DimensionMismatch,
    NonIntegralWeight,
    NotSelfCentralizing,
    SingularForm,
    UngradedFirstFactor,
)
from .grading import check_degree, degree_add, sign
from .linalg import (
    SMat,
    SubspaceBasis,
    closure,
    eigensplit,
    invert,
    joint_kernel,
    kron,
    lincomb,
    unit_vec,
    vec_axpy,
    vec_scale,
)
from .roots import RootSystem, is_self_centralizing, root_degree
from .scalars import GQ, ONE


@dataclass
class Representation:
    algebra: GradedAlgebra
    dim: int
    matrices: list  # one dim x dim SMat per algebra basis element
    grading: list | None = None  # optional Degree per module basis vector

    def __post_init__(self):
        if self.dim <= 0:
            raise DimensionMismatch("module dimension must be positive")
        if len(self.matrices) != self.algebra.dim:
            raise DimensionMismatch(
                f"expected {self.algebra.dim} matrices, got {len(self.matrices)}"
            )
        for m in self.matrices:
            if m.nrows != self.dim or m.ncols != self.dim:
                raise DimensionMismatch("matrix size does not match module dimension")
        if self.grading is not None:
            if len(self.grading) != self.dim:
                raise DimensionMismatch("grading length does not match module dimension")
            self.grading = [check_degree(a) for a in self.grading]

    def apply(self, x: dict) -> SMat:
        """pi(x) for x given by coefficients on the algebra basis."""
        return lincomb(self.matrices, x, self.dim)


@dataclass
class RepReport:
    ok: bool
    witness: tuple | None  # (i, j, lhs, rhs) of the first violated pair
    grading_witness: tuple | None  # (i, coord, degree seen, degree expected)

    def lines(self):
        out = []
        if self.witness is None:
            out.append("color homomorphism: PASS")
        else:
            i, j, lhs, rhs = self.witness
            out.append(
                f"color homomorphism: FAIL at pair ({i},{j}); "
                f"pi([ei,ej]) != pi(ei)pi(ej) -/+ pi(ej)pi(ei)"
            )
        if self.grading_witness is None:
            out.append("graded module: PASS")
        else:
            i, r, c = self.grading_witness
            out.append(
                f"graded module: FAIL, pi(e{i}) entry ({r},{c}) violates degree additivity"
            )
        return out


def is_representation(rep: Representation) -> RepReport:
    """Verify the color-homomorphism identity, and the graded-module
    condition when a grading is present.

    When check_axioms(g) passes, the identity is checked on the pairs
    (s, e_j) for s in generating_set(g) only: the elements where it holds
    for every x form a graded subalgebra (see homomorphism_failure), so
    generators decide it.  generating_set takes the basis vectors of degree
    != (0,0) in index order, then those of degree (0,0), and certifies that
    their bracket closure is g.  The witness is then the first failing
    (s, j) of that generator scan.  On an algebra that fails its axioms every
    pair i < j is checked and the witness is the lexicographically first."""
    g = rep.algebra
    gens = generating_set(g) if check_axioms(g).ok else range(g.dim)
    witness = homomorphism_failure(g, rep.matrices, gens)
    grading_witness = None
    if rep.grading is not None:
        grading_witness = next(
            ((i, r, c) for i in range(g.dim)
             for r, row in enumerate(rep.matrices[i].rows) for c in row
             if rep.grading[r] != degree_add(g.degrees[i], rep.grading[c])),
            None)
    return RepReport(witness is None and grading_witness is None, witness, grading_witness)


def adjoint_representation(g: GradedAlgebra) -> Representation:
    return Representation(g, g.dim, [g.ad_matrices()[i] for i in range(g.dim)],
                          grading=list(g.degrees))


def trivial_representation(g: GradedAlgebra) -> Representation:
    return Representation(g, 1, [SMat(1, 1) for _ in range(g.dim)], grading=[(0, 0)])


def defining_representation(g: GradedAlgebra, real: MatrixRealization) -> Representation:
    """The realization matrices acting on the graded column space."""
    if len(real.matrices) != g.dim:
        raise DimensionMismatch("realization size does not match the algebra")
    n = real.matrices[0].nrows
    grading = [real.block_degrees[real.block_of[i]] for i in range(n)]
    return Representation(g, n, list(real.matrices), grading=grading)


def direct_sum_rep(r1: Representation, r2: Representation) -> Representation:
    if r1.algebra is not r2.algebra:
        raise DimensionMismatch("direct sum requires the same algebra")
    n = r1.dim + r2.dim
    mats = []
    for a, b in zip(r1.matrices, r2.matrices):
        m = SMat(n, n)
        for i, row in enumerate(a.rows):
            m.rows[i] = dict(row)
        for i, row in enumerate(b.rows):
            m.rows[r1.dim + i] = {r1.dim + j: v for j, v in row.items()}
        mats.append(m)
    grading = None
    if r1.grading is not None and r2.grading is not None:
        grading = list(r1.grading) + list(r2.grading)
    return Representation(r1.algebra, n, mats, grading=grading)


def casimir_matrix(rep: Representation) -> SMat:
    """Omega = sum_i pi(Z_i) pi(Z^i) over Killing-dual bases; avoids the
    square roots an orthonormal basis would need."""
    g = rep.algebra
    gram = killing_form(g)
    try:
        ginv = invert(gram)
    except SingularForm:
        raise SingularForm("Killing form is singular; no Casimir element")
    omega = SMat(rep.dim, rep.dim)
    for i in range(g.dim):
        dual = rep.apply(ginv.cols[i])  # pi(Z^i)
        prod = rep.matrices[i] @ dual
        for r, row in enumerate(prod.rows):
            vec_axpy(omega.rows[r], ONE, row)
    return omega


def casimir_eigenvalue_formula(rs: RootSystem, lam) -> Fraction:
    """<lambda, lambda + 2 rho> through the Killing-induced inner product."""
    if rs.rho is None:
        raise ValueError("positive system not fixed; call positive_and_simple first")
    lam = tuple(Fraction(x) for x in lam)
    shifted = tuple(l + 2 * r for l, r in zip(lam, rs.rho))
    return rs.inner(lam, shifted)


@dataclass
class WeightDecomposition:
    weights: list  # sorted rational vectors
    spaces: dict  # weight -> list of vectors in V

    def multiplicity(self, mu) -> int:
        return len(self.spaces.get(tuple(mu), ()))


def weight_decomposition(rep: Representation, rs: RootSystem) -> WeightDecomposition:
    """Joint exact eigenspaces of {pi(H)} over the Cartan basis; raises
    NonIntegralWeight unless every weight is integral against the simple
    coroots (and so against every root)."""
    ops = [rep.apply(h) for h in rs.cartan.basis]
    pieces = eigensplit([unit_vec(i) for i in range(rep.dim)], ops)
    spaces = {}
    total = 0
    for eig, vecs in pieces:
        if any(not v.is_rational() for v in eig):
            raise NonIntegralWeight("weight takes a non-rational value on the Cartan")
        mu = tuple(v.re for v in eig)
        if any(c.denominator != 1 for c in rs.pairings(mu)):
            raise NonIntegralWeight(f"weight {mu} is not integral")
        spaces[mu] = vecs
        total += len(vecs)
    if total != rep.dim:
        raise CertificateFailed("weight spaces do not fill the module")
    return WeightDecomposition(sorted(spaces), spaces)


def _root_operators(rep: Representation, rs: RootSystem) -> list:
    """The raising operators: pi of the root vectors over Delta+."""
    ops = []
    for alpha in rs.positive:
        rd = rs.datum(alpha)
        for a in rd.degrees():
            ops.extend(rep.apply(v) for v in rd.spaces_by_degree[a])
    return ops


def highest_weight_vectors(rep: Representation, rs: RootSystem):
    """(weight, kernel basis) pairs; NonIntegralWeight unless every highest
    weight is dominant integral."""
    return _highest_weights_and_raising(rep, rs)[0]


def _highest_weights_and_raising(rep: Representation, rs: RootSystem):
    wd = weight_decomposition(rep, rs)
    ops = _root_operators(rep, rs)
    out = []
    for mu in wd.weights:
        ker = joint_kernel(wd.spaces[mu], ops)
        if not ker:
            continue
        if any(c < 0 for c in rs.pairings(mu)):
            raise NonIntegralWeight(f"highest weight {mu} is not dominant")
        out.append((mu, ker))
    return out, ops


@dataclass
class IrreducibleComponent:
    highest_weight: tuple
    basis: list  # vectors spanning the component
    casimir_value: Fraction
    degree_of_hw_space: tuple | None = None  # when the module is graded

    @property
    def dim(self) -> int:
        return len(self.basis)


def decompose(rep: Representation, rs: RootSystem) -> list:
    """Complete-reducibility decomposition: one component per vector v of a
    basis of each highest-weight space, the cyclic submodule U(g)v built as
    the closure of v under every basis matrix (Humphreys, Introduction to
    Lie Algebras and Representation Theory, 20-21), so invariant by
    construction.  Certified per component: its highest-weight space is the
    line through v, and Omega acts on every basis vector by
    <lambda, lambda + 2 rho>; then the components are in direct sum and
    fill V.  So Omega commutes with every pi(e_i).

    It does not certify that rep is a color representation: on matrices
    that are not one it can still return components.  Call
    is_representation first, as the `rep-decompose` and `casimir` verbs do."""
    if not is_self_centralizing(rs):
        raise NotSelfCentralizing("decompose requires a self-centralizing Cartan")
    hw, raising = _highest_weights_and_raising(rep, rs)
    omega = casimir_matrix(rep)
    components = []
    cert = SubspaceBasis()
    for mu, kernel in sorted(hw):
        expected = casimir_eigenvalue_formula(rs, mu)
        scalar = GQ(expected)
        for v in kernel:
            basis = [dict(r) for r in closure(v, rep.matrices).rows]
            hw_line = joint_kernel(basis, raising)
            if len(hw_line) != 1:
                raise CertificateFailed(
                    f"highest-weight space of the lambda={mu} component has "
                    f"dimension {len(hw_line)}"
                )
            # v lies in the span of the basis, so this covers Omega v too
            if any(omega.matvec(w) != vec_scale(w, scalar) for w in basis):
                raise CertificateFailed("Casimir does not act by <l,l+2rho>")
            deg = None
            if rep.grading is not None:
                degs = {rep.grading[i] for i in v}
                deg = degs.pop() if len(degs) == 1 else None
            components.append(IrreducibleComponent(mu, basis, expected, deg))
            if not all(map(cert.add, basis)):
                raise DecompositionIncomplete(
                    "components are not in direct sum (rank certificate failed)"
                )
    if cert.dim != rep.dim:
        raise DecompositionIncomplete(
            f"components span {cert.dim} of {rep.dim} dimensions"
        )
    return components


def tensor_product(r1: Representation, r2: Representation) -> Representation:
    """Color tensor product; requires the first factor to be graded."""
    if r1.algebra is not r2.algebra:
        raise DimensionMismatch("tensor product requires the same algebra")
    if r1.grading is None:
        raise UngradedFirstFactor(
            "first tensor factor has no grading; run grading_synthesis first"
        )
    g = r1.algebra
    n1, n2 = r1.dim, r2.dim
    id1 = SMat.identity(n1)
    id2 = SMat.identity(n2)
    mats = []
    for k in range(g.dim):
        a = g.degrees[k]
        signed = SMat(n1, n1)
        for p in range(n1):
            signed.rows[p][p] = sign(a, r1.grading[p])
        mats.append(kron(r1.matrices[k], id2) + kron(signed, r2.matrices[k]))
    grading = None
    if r2.grading is not None:
        grading = [
            degree_add(r1.grading[p], r2.grading[q])
            for p in range(n1)
            for q in range(n2)
        ]
    return Representation(g, n1 * n2, mats, grading=grading)


def grading_synthesis(rep: Representation, rs: RootSystem) -> dict:
    """Degree per weight, via |V_mu| = sum n_i |alpha_i| inside each
    root-lattice coset, base weight at degree (0,0).

    Returns {weight: Degree}; certifies the graded-module condition."""
    return _synthesize_grading(rep, rs)[1]


def _synthesize_grading(rep: Representation, rs: RootSystem):
    """(weight decomposition, grading_synthesis result)."""
    if not is_self_centralizing(rs):
        raise NotSelfCentralizing("grading synthesis needs per-root degrees")
    wd = weight_decomposition(rep, rs)
    # mu and nu share a root-lattice coset iff their simple-root coordinates
    # have equal fractional parts
    cosets = {}
    for mu in wd.weights:
        coords = rs.coordinates(mu)
        cosets.setdefault(tuple(c % 1 for c in coords), []).append((mu, coords))
    node_degrees = [root_degree(rs, a) for a in rs.simple]
    grading = {}
    for members in cosets.values():
        top = max(members)[1]  # maximal under the fixed lexicographic order
        for mu, coords in members:
            deg = (0, 0)
            for c, t, nd in zip(coords, top, node_degrees):
                if (c - t) % 2:
                    deg = degree_add(deg, nd)
            grading[mu] = deg
    # graded-module condition: pi(g_beta^a) V_mu subseteq V_{mu+beta} with
    # degree additivity wherever the action is nonzero
    for rd in rs.roots:
        a = root_degree(rs, rd.alpha)
        op = rep.apply(rd.spaces_by_degree[a][0])
        for mu in wd.weights:
            target = tuple(m + x for m, x in zip(mu, rd.alpha))
            if any(op.matvec(v) for v in wd.spaces[mu]):
                if target not in grading:
                    raise CertificateFailed("action leaves the weight set")
                if grading[target] != degree_add(a, grading[mu]):
                    raise CertificateFailed(
                        "synthesized grading violates the graded-module condition"
                    )
    return wd, grading


def apply_synthesized_grading(rep: Representation, rs: RootSystem) -> Representation:
    """The same module rewritten on the weight basis, carrying the synthesized
    grading."""
    wd, grading_by_weight = _synthesize_grading(rep, rs)
    basis = []
    grading = []
    for mu in wd.weights:
        for v in wd.spaces[mu]:
            basis.append(v)
            grading.append(grading_by_weight[mu])
    p = SMat(rep.dim, rep.dim)
    for j, v in enumerate(basis):
        for i, c in v.items():
            p.rows[i][j] = c
    pinv = invert(p)
    mats = [pinv @ m @ p for m in rep.matrices]
    return Representation(rep.algebra, rep.dim, mats, grading=grading)
