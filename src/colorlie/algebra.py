"""Graded-algebra data model: structure constants, axiom checks, Killing form.

A GradedAlgebra stores its bracket table sparsely, keyed by ordered basis
pairs (i, j) with i < j; the (j, i) entry is recovered through the graded
antisymmetry sign.  No diagonal entry is stored: eps(a, a) = 1 for every
degree, so graded antisymmetry forces [e_i, e_i] = 0.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .errors import CertificateFailed, DimensionMismatch, NotClosed
from .grading import (
    ZERO_DEGREE,
    check_degree,
    degree_add,
    sign,
)
from .linalg import (
    SMat,
    SubspaceBasis,
    graded_commutator,
    kernel_basis,
    lincomb,
    unit_vec,
    vec_axpy,
    vec_scale,
)
from .scalars import ONE, commutator_residual


class GradedAlgebra:
    """Finite-dimensional Z2xZ2-graded algebra given by structure constants.

    [e_i, e_j] = sum_k structure[(i, j)][k] e_k with all basis vectors
    homogeneous of degree degrees[i].
    """

    def __init__(self, degrees, structure, labels=None):
        self.dim = len(degrees)
        self.degrees = [check_degree(d) for d in degrees]
        self.labels = list(labels) if labels else None
        self.structure = {}
        for (i, j), coeffs in structure.items():
            if not (0 <= i < self.dim and 0 <= j < self.dim):
                raise DimensionMismatch(f"structure index ({i},{j}) out of range")
            coeffs = {k: v for k, v in coeffs.items() if v}
            for k in coeffs:
                if not 0 <= k < self.dim:
                    raise DimensionMismatch(f"structure index k={k} out of range")
            if not coeffs:
                continue
            if i < j:
                prev = self.structure.get((i, j))
                if prev is not None and prev != coeffs:
                    raise ValueError(
                        f"inconsistent structure constants for ({i},{j})/({j},{i})"
                    )
                self.structure[(i, j)] = coeffs
            elif i == j:
                raise ValueError(
                    f"[e_{i},e_{i}] must vanish for commuting degree pairing"
                )
            else:
                # canonicalize through the antisymmetry sign
                s = sign(self.degrees[i], self.degrees[j])
                flipped = vec_scale(coeffs, -s)
                prev = self.structure.get((j, i))
                if prev is not None and prev != flipped:
                    raise ValueError(
                        f"inconsistent structure constants for ({i},{j})/({j},{i})"
                    )
                self.structure[(j, i)] = flipped
        self._ad_cache = None
        self._killing_cache = None

    # -- bracket -----------------------------------------------------------

    def bracket_basis(self, i: int, j: int) -> dict:
        """[e_i, e_j] as a sparse coefficient vector."""
        if i <= j:
            return self.structure.get((i, j), {})
        base = self.structure.get((j, i))
        if not base:
            return {}
        return vec_scale(base, -sign(self.degrees[i], self.degrees[j]))

    def bracket(self, x: dict, y: dict) -> dict:
        """Bilinear extension of the structure constants to coefficient vectors."""
        for v in (x, y):
            for idx in v:
                if not 0 <= idx < self.dim:
                    raise DimensionMismatch(f"coefficient index {idx} out of range")
        out: dict = {}
        for i, xi in x.items():
            for j, yj in y.items():
                c = self.bracket_basis(i, j)
                if c:
                    vec_axpy(out, xi * yj, c)
        return out

    def ad(self, x) -> SMat:
        """Adjoint operator of a basis index or coefficient vector."""
        if isinstance(x, int):
            return self.ad_matrices()[x]
        return lincomb(self.ad_matrices(), x, self.dim)

    def ad_matrices(self) -> list:
        if self._ad_cache is None:
            mats = []
            for i in range(self.dim):
                m = SMat(self.dim, self.dim)
                for j in range(self.dim):
                    for k, v in self.bracket_basis(i, j).items():
                        m.rows[k][j] = v
                mats.append(m)
            self._ad_cache = mats
        return self._ad_cache

    def degree_indices(self, a) -> list:
        return [i for i, d in enumerate(self.degrees) if d == a]

    def label(self, i: int) -> str:
        if self.labels:
            return self.labels[i]
        return f"e{i}"

    def __repr__(self):
        return f"GradedAlgebra(dim={self.dim})"


@dataclass
class AxiomReport:
    """Per-axiom verdicts; a None witness means PASS.  Graded antisymmetry
    always passes: GradedAlgebra.__init__ rejects brackets that break it, and
    bracket_basis derives each (j, i) with j > i from the stored (i, j)."""

    closure: tuple | None = None
    jacobi: tuple | None = None

    @property
    def ok(self) -> bool:
        return self.closure is None and self.jacobi is None

    def lines(self):
        for name, witness in (
            ("grading closure", self.closure),
            ("graded antisymmetry", None),
            ("graded Jacobi", self.jacobi),
        ):
            if witness is None:
                yield f"{name}: PASS"
            else:
                yield f"{name}: FAIL at {witness[0]} lhs={witness[1]} rhs={witness[2]}"


class MatrixRealization:
    """A list of homogeneous matrices on a block-graded space."""

    def __init__(self, block_sizes, block_degrees_of_blocks, matrices, labels=None):
        self.block_sizes = list(block_sizes)
        self.block_degrees = [check_degree(d) for d in block_degrees_of_blocks]
        if len(self.block_sizes) != len(self.block_degrees):
            raise DimensionMismatch("one degree per block required")
        self.ambient_dim = sum(self.block_sizes)
        if self.ambient_dim < 1:
            raise DimensionMismatch("empty ambient space")
        self.matrices = list(matrices)
        self.labels = list(labels) if labels else None
        # index -> block
        self.block_of = []
        for b, size in enumerate(self.block_sizes):
            self.block_of.extend([b] * size)
        self.basis_degrees = [self._degree_of(m) for m in self.matrices]

    def _degree_of(self, m: SMat):
        # entry (r, c) has the sum of the degrees of the blocks of r and c
        bdeg = [self.block_degrees[b] for b in self.block_of]
        degs = {degree_add(bdeg[r], bdeg[c]) for r, row in enumerate(m.rows) for c in row}
        if len(degs) > 1:
            raise ValueError(f"matrix is not homogeneous: degrees {sorted(degs)}")
        return next(iter(degs)) if degs else ZERO_DEGREE


def homomorphism_failure(g: GradedAlgebra, mats: list, gens):
    """First basis pair (s, j), s in gens, where
    pi([e_s,e_j]) != pi(e_s)pi(e_j) - eps(|e_s|,|e_j|) pi(e_j)pi(e_s),
    as (s, j, lhs, rhs), or None when every such pair holds.

    The scan takes s in the order of gens and, for each, every j != s, but
    skips j when j is in gens before s: graded antisymmetry, which
    GradedAlgebra enforces, makes (s, j) and (j, s) the same identity, and
    the pair s = j holds for any matrices, since [e_s,e_s] = 0 and
    eps(a,a) = 1.  With gens = range(g.dim) this is every pair i < j in
    lexicographic order, and a None proves mats a color homomorphism.

    When g satisfies its axioms (check_axioms), generators suffice.  The
    homogeneous y with pi[y,x] = [pi y, pi x]_eps for every x form a graded
    subalgebra L: by Jacobi in g and the eps-Jacobi identity of
    eps-commutators of matrices, y, z in L give
    pi[[y,z],x] = [pi y, pi[z,x]]_eps - eps(y,z) [pi z, pi[y,x]]_eps
    = [[pi y, pi z]_eps, pi x]_eps = [pi[y,z], pi x]_eps.  So gens =
    generating_set(g) proves the identity on all of g, and the witness is
    the first failing (s, j) of that scan, not the lexicographically first
    pair.  The shortcut cannot decide Jacobi itself, whose proof it uses;
    check_axioms, where pi = ad, decides it on sorted triples instead
    (_jacobi_failure) and reports the witness of the full scan.

    A pair is decided by commutator_residual, an exact integer test of the
    identity; only the first failing pair has its sides built, by lincomb
    and graded_commutator, so verdict and witness are those of comparing
    the two matrices of each pair in scan order."""
    rows = [{r: row for r, row in enumerate(m.rows) if row} for m in mats]
    den = lcm(*{v._d for m in rows for row in m.values() for v in row.values()})
    before = set()
    for s in gens:
        for j in range(g.dim):
            if j == s or j in before:
                continue
            eps = sign(g.degrees[s], g.degrees[j])
            coeffs = g.bracket_basis(s, j)
            if commutator_residual(rows, s, j, eps._a, coeffs, den, mats[s].nrows) is not None:
                rhs = graded_commutator(mats[s], mats[j], eps)
                return s, j, lincomb(mats, coeffs, rhs.nrows), rhs
        before.add(s)
    return None


def generating_set(g: GradedAlgebra) -> list:
    """Basis indices S whose bracket closure is all of g, chosen greedily.

    The candidates are the basis vectors of degree != (0,0) in index order,
    then those of degree (0,0); e_i is taken when it lies outside the
    closure of the indices taken so far.  The closure is kept incrementally:
    a new ad(s) is applied to the vectors already spanned, and every ad(s),
    s in S, to each new vector.  Raises CertificateFailed unless the closure
    of S reaches dim g."""
    ads = g.ad_matrices()
    order = sorted(range(g.dim), key=lambda i: g.degrees[i] == ZERO_DEGREE)
    gens, span = [], SubspaceBasis()
    for i in order:
        if span.contains(unit_vec(i)):
            continue
        gens.append(i)
        frontier = [unit_vec(i)] + [ads[i].matvec(v) for v in span.inserted]
        while frontier:
            new = [v for v in frontier if span.add(v)]
            frontier = [ads[s].matvec(v) for v in new for s in gens]
    if span.dim != g.dim:
        raise CertificateFailed(
            f"generators {gens} close up to dimension {span.dim}, not {g.dim}")
    return gens


def _jacobi_failure(g: GradedAlgebra, sorted_triples: bool):
    """First (i, j, k) with i < j, in lexicographic order, where
    [e_i,[e_j,e_k]] - eps(|e_i|,|e_j|) [e_j,[e_i,e_k]] != [[e_i,e_j],e_k],
    or None.  Column k of homomorphism_failure for pi = ad is this identity,
    so over all k the first hit is the full scan's (gens = range(g.dim))
    first failing pair and its least differing column.

    With sorted_triples, only k > j is visited.  Once the bracket is graded
    (closure), the Jacobiator is eps-alternating and vanishes on a repeated
    index (eps(a,a) = 1, [x,x] = 0), so the sorted triples decide it and the
    first failing one is the same witness.

    Each pair is the module check's test (commutator_residual) on the
    transposes R_a = ad(e_a)^T, whose row k is [e_a,e_k]: row k of
    R_j R_i - eps R_i R_j - sum_m [e_i,e_j]_m R_m is the Jacobiator at k,
    so its least nonzero key k*n + l gives the least failing k."""
    n, degs = g.dim, g.degrees
    rows = [{} for _ in range(n)]  # rows[a][k] = [e_a, e_k], nonzero, k increasing
    for a, b in sorted(g.structure):
        rows[a][b] = g.bracket_basis(a, b)
        rows[b][a] = g.bracket_basis(b, a)
    den = lcm(*{v._d for c in g.structure.values() for v in c.values()})
    for i in range(n):
        for j in range(i + 1, n):
            key = commutator_residual(rows, j, i, sign(degs[i], degs[j])._a, g.bracket_basis(i, j),
                                      den, n, j + 1 if sorted_triples else 0)
            if key is not None:
                return i, j, key // n
    return None


def check_axioms(g: GradedAlgebra) -> AxiomReport:
    """Verify grading closure on all basis pairs (graded antisymmetry holds by
    construction, see AxiomReport), and graded Jacobi
    [e_i,[e_j,e_k]] = [[e_i,e_j],e_k] + eps(|e_i|,|e_j|) [e_j,[e_i,e_k]]
    on basis triples, straight from the structure constants
    (_jacobi_failure): on the sorted triples i < j < k when closure holds,
    on all k otherwise.  This is "ad is a color representation"
    (homomorphism_failure on g.ad_matrices(), gens = range(g.dim)), decided
    by the same per-pair test on the transposed matrices, with the same
    witness.
    Report the first witness per axiom; the Jacobi witness (i, j, k) is the
    first failing pair and its least failing k."""
    report = AxiomReport()
    degs = g.degrees
    # closure
    for (i, j), coeffs in sorted(g.structure.items()):
        target = degree_add(degs[i], degs[j])
        for k in coeffs:
            if degs[k] != target:
                report.closure = ((i, j, k), degs[k], target)
                break
        if report.closure:
            break
    # Jacobi: [e_i,[e_j,e_k]] = [[e_i,e_j],e_k] + (-1)^(di.dj) [e_j,[e_i,e_k]]
    failure = _jacobi_failure(g, sorted_triples=report.closure is None)
    if failure:
        i, j, k = failure
        lhs = g.bracket(unit_vec(i), g.bracket_basis(j, k))
        rhs = g.bracket(g.bracket_basis(i, j), unit_vec(k))
        vec_axpy(rhs, sign(degs[i], degs[j]),
                 g.bracket(unit_vec(j), g.bracket_basis(i, k)))
        report.jacobi = ((i, j, k), lhs, rhs)
    return report


def from_matrices(m: MatrixRealization) -> GradedAlgebra:
    """Structure constants of a matrix realization, by exact linear solves.

    Raises NotClosed when some graded commutator leaves the span of the basis
    matrices.
    """
    n = len(m.matrices)
    amb = m.ambient_dim

    def flat(mat: SMat) -> dict:
        return {r * amb + c: v for r, row in enumerate(mat.rows) for c, v in row.items()}

    sb = SubspaceBasis()
    for mat in m.matrices:
        if not sb.add(flat(mat)):
            raise ValueError("basis matrices are not linearly independent")
    structure = {}
    for i in range(n):
        for j in range(i + 1, n):  # [x, x] = 0 for homogeneous x: eps(a, a) = 1
            comm = flat(graded_commutator(m.matrices[i], m.matrices[j],
                                          sign(m.basis_degrees[i], m.basis_degrees[j])))
            coords = sb.coords(comm)
            if coords is None:
                raise NotClosed(i, j, sb.residual(comm))
            if coords:
                structure[(i, j)] = coords
    return GradedAlgebra(m.basis_degrees, structure, labels=m.labels)


def gl_graded(dims: dict) -> MatrixRealization:
    """The general linear graded algebra of a graded space: all elementary
    matrices, labeled by the sum of their row- and column-block degrees."""
    blocks = [(check_degree(a), size) for a, size in dims.items() if size]
    blocks.sort()
    sizes = [s for _, s in blocks]
    degs = [a for a, _ in blocks]
    total = sum(sizes)
    if total < 1:
        raise DimensionMismatch("empty graded space")
    mats = []
    labels = []
    for p in range(total):
        for q in range(total):
            e = SMat(total, total)
            e.rows[p][q] = ONE
            mats.append(e)
            labels.append(f"E[{p},{q}]")
    return MatrixRealization(sizes, degs, mats, labels=labels)


def killing_form(g: GradedAlgebra) -> SMat:
    """Gram matrix K(e_i, e_j) = tr(ad e_i . ad e_j)."""
    if g._killing_cache is not None:
        return g._killing_cache
    ads = g.ad_matrices()
    n = g.dim
    gram = SMat(n, n)
    for i in range(n):
        for j in range(i, n):
            if g.degrees[i] != g.degrees[j]:
                continue  # homogeneity of K: zero across distinct degrees
            v = ads[i].trace_mul(ads[j])
            if v:
                gram.rows[i][j] = v
                if i != j:
                    gram.rows[j][i] = v
    g._killing_cache = gram
    return gram


def killing_radical(g: GradedAlgebra) -> list:
    """Basis of rad(K) = {x : K(x, .) = 0}; empty means nondegenerate."""
    return kernel_basis(killing_form(g))


def is_basic(g: GradedAlgebra) -> bool:
    """Nondegenerate Killing form and reductive degree-(0,0) part.

    The first implies the second.  K is zero across distinct degrees, so a
    nondegenerate K stays nondegenerate on g^(0,0), where it is the trace form
    of the representation ad of the Lie algebra g^(0,0) on g; a Lie algebra
    with a finite-dimensional representation whose trace form is
    nondegenerate is reductive (Bourbaki, Lie Groups and Lie Algebras,
    Ch. I, 6.4, Prop. 5)."""
    return not killing_radical(g)


def direct_sum(g1: GradedAlgebra, g2: GradedAlgebra) -> GradedAlgebra:
    """Direct sum of algebras on the concatenated basis."""
    degrees = list(g1.degrees) + list(g2.degrees)
    structure = {}
    for (i, j), c in g1.structure.items():
        structure[(i, j)] = dict(c)
    off = g1.dim
    for (i, j), c in g2.structure.items():
        structure[(i + off, j + off)] = {k + off: v for k, v in c.items()}
    labels = None
    if g1.labels or g2.labels:
        labels = [g1.label(i) for i in range(g1.dim)] + [
            g2.label(i) for i in range(g2.dim)
        ]
    return GradedAlgebra(degrees, structure, labels=labels)
