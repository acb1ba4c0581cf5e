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
    homomorphism_failure,
    killing_form,
)
from .errors import (
    DecompositionIncomplete,
    DimensionMismatch,
    LatticeSolveFailed,
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
from .roots import RootSystem, is_self_centralizing, root_degree, simple_root_coordinates
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
    """Verify the color-homomorphism identity on all basis pairs, and the
    graded-module condition when a grading is present."""
    g = rep.algebra
    witness = homomorphism_failure(g, rep.matrices)
    grading_witness = None
    if rep.grading is not None:
        for i in range(g.dim):
            a = g.degrees[i]
            for r, row in enumerate(rep.matrices[i].rows):
                for c in row:
                    if rep.grading[r] != degree_add(a, rep.grading[c]):
                        grading_witness = (i, r, c)
                        break
                if grading_witness:
                    break
            if grading_witness:
                break
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
    """Joint exact eigenspaces of {pi(H)} over the Cartan basis; asserts every
    weight is integral against the root system."""
    ops = [rep.apply(h) for h in rs.cartan.basis]
    pieces = eigensplit([unit_vec(i) for i in range(rep.dim)], ops)
    spaces = {}
    total = 0
    for eig, vecs in pieces:
        if any(not v.is_rational() for v in eig):
            raise NonIntegralWeight("weight takes a non-rational value on the Cartan")
        mu = tuple(v.re for v in eig)
        for rd in rs.roots:
            c = rs.cartan_number(mu, rd.alpha)
            if c.denominator != 1:
                raise NonIntegralWeight(
                    f"weight {mu} is not integral against root {rd.alpha}"
                )
        spaces[mu] = vecs
        total += len(vecs)
    assert total == rep.dim, "weight spaces do not fill the module"
    return WeightDecomposition(sorted(spaces), spaces)


def _positive_root_operators(rep: Representation, rs: RootSystem) -> list:
    ops = []
    for alpha in rs.positive:
        rd = rs.datum(alpha)
        for a in rd.degrees():
            for v in rd.spaces_by_degree[a]:
                ops.append(rep.apply(v))
    return ops


def _negative_root_operators(rep: Representation, rs: RootSystem) -> list:
    ops = []
    for alpha in rs.positive:
        rd = rs.datum(tuple(-x for x in alpha))
        for a in rd.degrees():
            for v in rd.spaces_by_degree[a]:
                ops.append(rep.apply(v))
    return ops


def highest_weight_vectors(rep: Representation, rs: RootSystem):
    """(weight, kernel basis) pairs; weights asserted dominant integral."""
    if rs.positive is None:
        raise ValueError("positive system not fixed; call positive_and_simple first")
    wd = weight_decomposition(rep, rs)
    ops = _positive_root_operators(rep, rs)
    out = []
    for mu in wd.weights:
        ker = joint_kernel(wd.spaces[mu], ops)
        if not ker:
            continue
        for alpha in rs.simple:
            c = rs.cartan_number(mu, alpha)
            if c.denominator != 1 or c < 0:
                raise NonIntegralWeight(
                    f"highest weight {mu} is not dominant integral at {alpha}"
                )
        out.append((mu, ker))
    return out


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
    """Complete-reducibility decomposition with an exact direct-sum rank
    certificate."""
    if not is_self_centralizing(rs):
        raise NotSelfCentralizing("decompose requires a self-centralizing Cartan")
    lowering = _negative_root_operators(rep, rs)
    raising = _positive_root_operators(rep, rs)
    hw = highest_weight_vectors(rep, rs)
    omega = casimir_matrix(rep)
    components = []
    cert = SubspaceBasis()
    for mu, kernel in sorted(hw):
        for v in kernel:
            sb = closure(v, lowering)
            basis = [dict(r) for r in sb.rows]
            # invariance under every generator
            for m in rep.matrices:
                for w in basis:
                    assert sb.contains(m.matvec(w)), "component is not invariant"
            # 1-dimensional highest-weight line inside the component
            hw_line = joint_kernel(basis, raising)
            assert len(hw_line) == 1, (
                f"highest-weight space of the lambda={mu} component has "
                f"dimension {len(hw_line)}"
            )
            # Casimir acts by the formula scalar
            expected = casimir_eigenvalue_formula(rs, mu)
            target = vec_scale(v, GQ(expected))
            assert omega.matvec(v) == target, "Casimir does not act by <l,l+2rho>"
            for w in basis:
                assert omega.matvec(w) == vec_scale(w, GQ(expected)), (
                    "Casimir is not scalar on the component"
                )
            deg = None
            if rep.grading is not None:
                degs = {rep.grading[i] for i in v}
                deg = degs.pop() if len(degs) == 1 else None
            components.append(IrreducibleComponent(mu, basis, expected, deg))
            for w in basis:
                if not cert.add(w):
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

    Returns {weight: Degree}; asserts the graded-module condition."""
    if not is_self_centralizing(rs):
        raise NotSelfCentralizing("grading synthesis needs per-root degrees")
    if rs.simple is None:
        raise ValueError("positive system not fixed; call positive_and_simple first")
    wd = weight_decomposition(rep, rs)
    simple = rs.simple
    cosets = []  # list of [weights]
    reps_of = []  # representative weight per coset
    coords_cache = {}
    for mu in wd.weights:
        placed = False
        for ci, base in enumerate(reps_of):
            diff = tuple(m - b for m, b in zip(mu, base))
            coeffs = simple_root_coordinates(simple, diff)
            if coeffs is not None and all(c.denominator == 1 for c in coeffs):
                cosets[ci].append(mu)
                placed = True
                break
        if not placed:
            reps_of.append(mu)
            cosets.append([mu])
    node_degrees = [root_degree(rs, a) for a in simple]
    grading = {}
    for weights in cosets:
        lam = max(weights)  # maximal under the fixed lexicographic order
        for mu in weights:
            diff = tuple(m - l for m, l in zip(mu, lam))
            coeffs = simple_root_coordinates(simple, diff)
            if coeffs is None or any(c.denominator != 1 for c in coeffs):
                raise LatticeSolveFailed(
                    f"weight {mu} is not in the root lattice over {lam}"
                )
            deg = (0, 0)
            for c, nd in zip(coeffs, node_degrees):
                if int(c) % 2:
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
                assert target in grading, "action leaves the weight set"
                assert grading[target] == degree_add(a, grading[mu]), (
                    "synthesized grading violates the graded-module condition"
                )
    return grading


def apply_synthesized_grading(rep: Representation, rs: RootSystem) -> Representation:
    """The same module rewritten on the weight basis, carrying the synthesized
    grading."""
    wd = weight_decomposition(rep, rs)
    grading_by_weight = grading_synthesis(rep, rs)
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
