"""Finite-dimensional modules: homomorphism checks, Casimir operator, weight
theory, highest weights, complete-reducibility decomposition, grading
synthesis, and the color tensor product.

The tensor-product convention x(v⊗w) = xv⊗w + (-1)^pairing(|x|,|v|) v⊗xw is
standard for color algebras but is an artifact convention, not taken from any
single source; outputs that depend on it are flagged with `tensorConvention`.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from operator import add, mul

from .algebra import (
    GradedAlgebra,
    MatrixRealization,
    check_axioms,
    homomorphism_failure,
    killing_form,
    pair_scan,
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
    add_product,
    closure,
    combine,
    eigensplit,
    invert,
    kernel_basis,
    kron,
    lincomb,
    unit_vec,
    vec_scale,
)
from .roots import RootSystem, _lattice, is_self_centralizing, killing_value, root_degree
from .scalars import GQ, ONE


class Representation:
    def __init__(self, algebra: GradedAlgebra, dim: int, matrices: list,
                 grading: list | None = None):
        self.algebra = algebra
        self.dim = dim
        self.matrices = matrices  # one dim x dim SMat per algebra basis element
        self.grading = grading  # optional Degree per module basis vector
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
        """pi(x) for x given by coefficients on the algebra basis; for a
        basis vector, its matrix itself rather than a copy."""
        if len(x) == 1 and ONE in x.values():
            return self.matrices[next(iter(x))]
        return lincomb(self.matrices, x, self.dim)


class RepReport:
    def __init__(self, ok: bool, witness: tuple | None, grading_witness: tuple | None):
        self.ok = ok
        self.witness = witness  # (i, j, lhs, rhs) of the first violated pair
        self.grading_witness = grading_witness  # (i, r, c): pi(e_i)[r][c] breaks degree additivity

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

    When check_axioms(g) passes, the identity is checked on the frames
    (s_k, C_{k-1}) it returns from generating_set, which takes the basis
    vectors of degree != (0,0) in index order, then those of degree (0,0),
    and certifies that their bracket closure is g: the pairs (s_k, e_j) with
    j no pivot of the closure of s_1..s_{k-1} (see homomorphism_failure).
    A failing generator is scanned again over its partners in pair_scan, so
    the witness is the first failing (s, j) of the scan over every j but the
    generators before s.  On an algebra that fails its axioms every pair
    i < j is checked and the witness is the first."""
    g, mats = rep.algebra, rep.matrices
    frames = check_axioms(g).generators
    if frames is None:
        witness = homomorphism_failure(g, mats, pair_scan(range(g.dim), g.dim))
    elif witness := homomorphism_failure(g, mats, frames):
        scan = pair_scan([s for s, _ in frames], g.dim)
        witness = homomorphism_failure(g, mats, [p for p in scan if p[0] == witness[0]])
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
    try:
        ginv = invert(killing_form(rep.algebra))
    except SingularForm:
        raise SingularForm("Killing form is singular; no Casimir element")
    omega = SMat(rep.dim, rep.dim)
    for i, m in enumerate(rep.matrices):
        add_product(omega, ONE, m, rep.apply(ginv.cols[i]))  # pi(e_i) pi(Z^i)
    return omega


def casimir_eigenvalue_formula(rs: RootSystem, lam) -> Fraction:
    """<lambda, lambda + 2 rho> through the Killing-induced inner product."""
    if rs.rho is None:
        raise ValueError("positive system not fixed; call positive_and_simple first")
    lam = tuple(Fraction(x) for x in lam)
    shifted = tuple(l + 2 * r for l, r in zip(lam, rs.rho))
    return rs.inner(lam, shifted)


class WeightDecomposition:
    def __init__(self, weights: list, spaces: dict, keys: list, scale: int):
        self.weights = weights  # sorted rational vectors
        self.spaces = spaces  # weight -> list of vectors in V, in weights order
        self.keys, self.scale = keys, scale  # scale * v for each weight, then each root

    def multiplicity(self, mu) -> int:
        return len(self.spaces.get(tuple(mu), ()))


def weight_decomposition(rep: Representation, rs: RootSystem) -> WeightDecomposition:
    """Joint exact eigenspaces of {pi(H)} over the Cartan basis, split by
    eigensplit from the coordinate vectors, so on the Cartan operators'
    invariant coordinate blocks: CertificateFailed unless the Cartan acts
    semisimply, by the weights.  Each weight, then each root of rs.roots,
    gets an integer key (`_lattice`).  NonIntegralWeight unless every weight
    is integral against the simple coroots (so against every root), tested
    on its key against the coroot frame scaled to integers."""
    ops = [rep.apply(h) for h in rs.cartan.basis]
    pieces = eigensplit([unit_vec(i) for i in range(rep.dim)], ops)
    # one Fraction per distinct coordinate; the weights are sorted, as eigensplit sorts
    values = {v: v.re for v in dict.fromkeys(v for eig, _ in pieces for v in eig)}
    if not all(map(GQ.is_rational, values)):
        raise NonIntegralWeight("weight takes a non-rational value on the Cartan")
    weights = [tuple(map(values.get, eig)) for eig, _ in pieces]
    scale, keys = _lattice(weights + [rd.alpha for rd in rs.roots])
    den, coroots, _ = rs.integer_frames()
    for mu, key in zip(weights, keys):
        if any(sum(map(mul, key, c)) % (scale * den) for c in coroots):
            raise NonIntegralWeight(f"weight {mu} is not integral")
    if sum(len(vecs) for _, vecs in pieces) != rep.dim:
        raise CertificateFailed("weight spaces do not fill the module")
    return WeightDecomposition(weights, dict(zip(weights, (v for _, v in pieces))), keys, scale)


def _weight_frame(rep: Representation, rs: RootSystem):
    """(wd, basis, weight_of, roots, ops, hw): the weight decomposition, the
    weight basis (the weight spaces' bases in wd.weights order), each basis
    vector's weight index, (key, degree, x, raising) per root vector x, each
    pi(x) over the weight basis, applied once to each weight vector, and
    {weight index: basis of the nonzero highest-weight space there}.
    Certifies that pi(x) maps V_mu into V_{mu+alpha} (weight_decomposition
    certified that the Cartan acts by the weights); NonIntegralWeight
    unless every highest weight is dominant."""
    wd = weight_decomposition(rep, rs)
    spaces = list(wd.spaces.values())
    basis = [v for vecs in spaces for v in vecs]
    weight_of = [i for i, vecs in enumerate(spaces) for _ in vecs]
    first = list(accumulate(map(len, spaces), initial=0))
    spans = [SubspaceBasis(vecs) for vecs in spaces]
    positive = set(rs.positive)
    roots = [(shift, a, x, rd.alpha in positive)
             for rd, shift in zip(rs.roots, wd.keys[len(spaces):])
             for a in rd.degrees() for x in rd.spaces_by_degree[a]]
    index = {key: i for i, key in enumerate(wd.keys[:len(spaces)])}
    ops = []
    for shift, _, x, _ in roots:
        op, cols = rep.apply(x), []
        for v, i in zip(basis, weight_of):
            image = op.matvec(v)
            j = image and index.get(tuple(map(add, wd.keys[i], shift)))
            coords = {} if not image else None if j is None else spans[j].coords(image)
            if coords is None:
                alpha = tuple(Fraction(c, wd.scale) for c in shift)
                raise CertificateFailed(f"pi(x) for the root {alpha} maps "
                                        f"V_{wd.weights[i]} outside V_(mu+alpha)")
            cols.append({first[j] + c: value for c, value in coords.items()})
        ops.append(SMat(rep.dim, rep.dim, cols).transpose())
    # a raising operator's row over the weight basis lies in one weight's
    # block of columns: the joint kernel is solved weight by weight
    blocks = [[] for _ in spaces]
    for row in (row for (*_, up), op in zip(roots, ops) if up for row in op.rows if row):
        blocks[weight_of[next(iter(row))]].append(row)
    hw: dict = {}
    for i, rows in enumerate(blocks):
        f = first[i]
        local = [{c - f: value for c, value in row.items()} for row in rows]
        if kernel := kernel_basis(SMat(len(rows), len(spaces[i]), local)):
            if any(c < 0 for c in rs.pairings(wd.weights[i])):
                raise NonIntegralWeight(f"highest weight {wd.weights[i]} is not dominant")
            hw[i] = [{f + c: value for c, value in u.items()} for u in kernel]
    return wd, basis, weight_of, roots, ops, hw


def highest_weight_vectors(rep: Representation, rs: RootSystem):
    """(weight, kernel basis) pairs; NonIntegralWeight unless every highest
    weight is dominant integral."""
    wd, basis, _, _, _, hw = _weight_frame(rep, rs)
    return [(wd.weights[i], [combine(basis, u) for u in ker]) for i, ker in hw.items()]


def _norms(wd: WeightDecomposition, rs: RootSystem) -> tuple:
    """(d, q): <mu, mu> = q[i] / d = k G k / (scale^2 e), k the key of weight i, G = e gram_inv."""
    e, g = _lattice([[rs.gram_inv.get(i, j).re for j in range(rs.rank)] for i in range(rs.rank)])
    return wd.scale ** 2 * e, [sum(map(mul, k, (sum(map(mul, k, row)) for row in g)))
                               for k in wd.keys[:len(wd.weights)]]


class IrreducibleComponent:
    def __init__(self, highest_weight: tuple, basis: list, casimir_value: Fraction,
                 degree_of_hw_space: tuple | None = None):
        self.highest_weight = highest_weight
        self.basis = basis  # vectors spanning the component
        self.casimir_value = casimir_value
        self.degree_of_hw_space = degree_of_hw_space  # when the module is graded

    @property
    def dim(self) -> int:
        return len(self.basis)


def decompose(rep: Representation, rs: RootSystem) -> list:
    """Complete-reducibility decomposition in weight coordinates (de Graaf,
    Lie Algebras: Theory and Algorithms, 2000), on `_weight_frame`.  One
    component per vector v of a basis of each highest-weight space: the
    cyclic submodule U(g)v, the closure of v under the root vectors
    (Humphreys, Introduction to Lie Algebras and Representation Theory,
    20-21).  They and the Cartan basis, which acts by scalars on weight
    spaces, are a basis of g (root_decomposition certified it), so each
    component is invariant under every pi(e_i).  Certified per component:
    its highest-weight space is the line through v, and Omega acts by
    <lambda, lambda + 2 rho> on its basis; then the components are in
    direct sum and fill V.  So Omega commutes with every pi(e_i).  Omega is
    sum_i pi(Z_i) pi(Z^i), K(Z_k, Z^i) = delta, as in casimir_matrix, over
    the Cartan basis, acting on V_mu by <mu, mu>, and the root vectors: the
    dual of x is y / K(x, y), y the root vector of -alpha in x's degree,
    certified to pair with no other basis vector.

    It does not certify that rep is a color representation: on matrices
    that are not one it can still return components.  Call
    is_representation first, as the `rep-decompose` and `casimir` verbs do."""
    if not is_self_centralizing(rs):
        raise NotSelfCentralizing("decompose requires a self-centralizing Cartan")
    wd, basis, weight_of, roots, ops, hw = _weight_frame(rep, rs)
    gram = killing_form(rep.algebra)
    div, norms = _norms(wd, rs)  # terms: {d: T} for Omega = sum T / d
    terms = {GQ(div): SMat(rep.dim, rep.dim, [{r: GQ(norms[i])} if norms[i] else {}
                                              for r, i in enumerate(weight_of)])}
    partner = {(key, a): k for k, (key, a, _, _) in enumerate(roots)}
    for op, (key, a, x, _) in zip(ops, roots):
        p = partner.get((tuple(-c for c in key), a))
        y = {} if p is None else roots[p][2]
        others = [z for _, d, z, _ in roots if d == a and z is not x] + rs.cartan.basis
        if not killing_value(gram, x, y) or any(killing_value(gram, z, y) for z in others):
            raise SingularForm("the Killing form does not pair each root vector with its"
                               " negative alone; no Casimir element")
        term = terms.setdefault(killing_value(gram, x, y), SMat(rep.dim, rep.dim))
        add_product(term, ONE, op, ops[p])  # integer products, scaled once per 1/K
    omega = sum((term.scaled(ONE / d) for d, term in terms.items()), SMat(rep.dim, rep.dim))
    hw_space = SubspaceBasis(v for kernel in hw.values() for v in kernel)
    cert, components = SubspaceBasis(), []
    for i, kernel in hw.items():
        mu = wd.weights[i]
        expected = casimir_eigenvalue_formula(rs, mu)
        for v in kernel:
            span = closure(v, ops)  # its highest-weight space: where it meets hw_space
            line = span.dim + hw_space.dim - SubspaceBasis(span.rows + hw_space.rows).dim
            if line != 1:
                raise CertificateFailed(
                    f"highest-weight space of the lambda={mu} component has dimension {line}")
            if any(omega.matvec(w) != vec_scale(w, GQ(expected)) for w in span.rows):
                raise CertificateFailed("Casimir does not act by <l,l+2rho>")
            degs = {rep.grading[c] for c in combine(basis, v)} if rep.grading else ()
            components.append(IrreducibleComponent(
                mu, [combine(basis, w) for w in span.rows], expected,
                degs.pop() if len(degs) == 1 else None))
            if not all(map(cert.add, span.rows)):
                raise DecompositionIncomplete(
                    "components are not in direct sum (rank certificate failed)")
    if cert.dim != rep.dim:
        raise DecompositionIncomplete(f"components span {cert.dim} of {rep.dim} dimensions")
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
    root-lattice coset, base weight at degree (0,0).  Returns {weight:
    Degree}; certifies the graded-module condition, applying a root vector
    to V_mu only where V_mu+alpha is no weight space or has another degree
    than deg(alpha) + deg(mu): no other pair can fail."""
    return _synthesize_grading(rep, rs)[1]


def _synthesize_grading(rep: Representation, rs: RootSystem):
    """(weight decomposition, grading_synthesis result)."""
    if not is_self_centralizing(rs):
        raise NotSelfCentralizing("grading synthesis needs per-root degrees")
    wd = weight_decomposition(rep, rs)
    keys = wd.keys[:len(wd.weights)]
    # mu has the simple-root coordinates n / unit for the integers n below;
    # mu and nu share a root-lattice coset iff n = n' mod unit
    den, _, frame = rs.integer_frames()
    coords, unit = [[sum(map(mul, key, v)) for v in frame] for key in keys], wd.scale * den
    cosets = {}
    for i, n in enumerate(coords):
        cosets.setdefault(tuple(c % unit for c in n), []).append(i)
    node_degrees = [root_degree(rs, a) for a in rs.simple]
    grading, shared = [None] * len(keys), {}  # shared: one tuple per distinct degree
    for members in cosets.values():
        top = coords[members[-1]]  # maximal under the fixed lexicographic order
        for i in members:
            deg = (0, 0)
            for c, t, nd in zip(coords[i], top, node_degrees):
                if (c - t) // unit % 2:
                    deg = degree_add(deg, nd)
            grading[i] = shared.setdefault(deg, deg)
    # graded-module condition: pi(g_beta^a) V_mu subseteq V_{mu+beta} with
    # degree additivity wherever the action is nonzero.  Only a pair whose
    # target is no weight or has another degree can fail, so only there is
    # the image computed, and pi of a root vector only when some pair needs it
    index = {key: i for i, key in enumerate(keys)}
    for rd, shift in zip(rs.roots, wd.keys[len(keys):]):
        a, op = root_degree(rs, rd.alpha), None
        for i, (key, vecs) in enumerate(zip(keys, wd.spaces.values())):
            j = index.get(tuple(map(add, key, shift)))
            if j is not None and grading[j] == degree_add(a, grading[i]):
                continue
            op = rep.apply(rd.spaces_by_degree[a][0]) if op is None else op
            if any(op.matvec(v) for v in vecs):
                raise CertificateFailed("action leaves the weight set" if j is None else
                                        "synthesized grading violates the graded-module condition")
    return wd, dict(zip(wd.weights, grading))


def apply_synthesized_grading(rep: Representation, rs: RootSystem) -> Representation:
    """The same module rewritten on the weight basis, carrying the synthesized
    grading."""
    wd, grading_by_weight = _synthesize_grading(rep, rs)
    grading = [grading_by_weight[mu] for mu in wd.weights for _ in wd.spaces[mu]]
    p = SMat(rep.dim, rep.dim, [v for mu in wd.weights for v in wd.spaces[mu]]).transpose()
    pinv = invert(p)
    mats = [pinv @ m @ p for m in rep.matrices]
    return Representation(rep.algebra, rep.dim, mats, grading=grading)
