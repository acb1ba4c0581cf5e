"""Graded-algebra data model: structure constants, axiom checks, Killing form.

A GradedAlgebra stores its bracket table once, as sparse rows:
rows[i][j] = [e_i, e_j] for every ordered pair, nonzero entries only, in
increasing j; structure is its i < j half.  The constructor is the one
place that applies the graded antisymmetry sign.  No diagonal entry is
stored: eps(a, a) = 1 for every degree, so graded antisymmetry forces
[e_i, e_i] = 0.  The bracket, ad, Jacobi and the Killing form read the rows.
"""
from __future__ import annotations

from math import lcm

from .errors import CertificateFailed, DimensionMismatch, NotClosed
from .grading import (
    ZERO_DEGREE,
    check_degree,
    degree_add,
    degree_pairing,
    sign,
)
from .linalg import (
    SMat,
    SubspaceBasis,
    combine,
    graded_commutator,
    kernel_basis,
    lincomb,
    unit_vec,
    vec_axpy,
)
from .scalars import ONE, ZERO, commutator_residual


class GradedAlgebra:
    """Finite-dimensional Z2xZ2-graded algebra given by structure constants.

    [e_i, e_j] = sum_k rows[i][j][k] e_k with all basis vectors
    homogeneous of degree degrees[i].  structure[(i, j)], i < j, is the same
    coefficient dict as rows[i][j]; both are read only.
    """

    def __init__(self, degrees, structure, labels=None):
        self.dim = len(degrees)
        self.degrees = [check_degree(d) for d in degrees]
        self.labels = list(labels) if labels else None
        rows = [{} for _ in range(self.dim)]
        for (i, j), coeffs in structure.items():
            if not (0 <= i < self.dim and 0 <= j < self.dim):
                raise DimensionMismatch(f"structure index ({i},{j}) out of range")
            coeffs = {k: v for k, v in coeffs.items() if v}
            for k in coeffs:
                if not 0 <= k < self.dim:
                    raise DimensionMismatch(f"structure index k={k} out of range")
            if not coeffs:
                continue
            if i == j:
                raise ValueError(
                    f"[e_{i},e_{i}] must vanish for commuting degree pairing"
                )
            # [e_j, e_i] = -eps(|e_i|,|e_j|) [e_i, e_j]; -eps = 1 iff the pairing is 1
            flipped = (coeffs if degree_pairing(self.degrees[i], self.degrees[j])
                       else {k: -v for k, v in coeffs.items()})
            if (rows[i].setdefault(j, coeffs) != coeffs
                    or rows[j].setdefault(i, flipped) != flipped):
                raise ValueError(f"inconsistent structure constants for ({i},{j})/({j},{i})")
        self.rows = [dict(sorted(row.items())) for row in rows]
        self.structure = {(i, j): c for i, row in enumerate(self.rows)
                          for j, c in row.items() if i < j}
        self._ad_cache = None
        self._killing_cache = None

    # -- bracket -----------------------------------------------------------

    def bracket_basis(self, i: int, j: int) -> dict:
        """[e_i, e_j] as a sparse coefficient vector, read only: it is the
        table's own entry."""
        return self.rows[i].get(j, {})

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
        """ad(e_i) for every i: the transposes of the rows, column j of
        ad(e_i) being [e_i, e_j]."""
        if self._ad_cache is None:
            mats = [SMat(self.dim, self.dim) for _ in range(self.dim)]
            for m, row in zip(mats, self.rows):
                for j, c in row.items():
                    for k, v in c.items():
                        m.rows[k][j] = v
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


class AxiomReport:
    """Per-axiom verdicts; a None witness means PASS.  Graded antisymmetry
    always passes: GradedAlgebra.__init__ rejects brackets that break it and
    writes each [e_j, e_i] from [e_i, e_j] through the antisymmetry sign."""

    def __init__(self, closure: tuple | None = None, jacobi: tuple | None = None,
                 generators: list | None = None):
        self.closure = closure
        self.jacobi = jacobi
        self.generators = generators  # generating_set's frames, when ok

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


def pair_scan(gens, n: int) -> list:
    """The scan over gens as [(s, partners)]: every j < n but s and the gens
    before s.  Graded antisymmetry, which GradedAlgebra enforces, makes
    (s, j) and (j, s) one identity in both checks below, and s = j holds in
    both (eps(a,a) = 1, [e_s,e_s] = 0).  pair_scan(range(n), n) is every pair
    i < j in lexicographic order."""
    return [(s, [j for j in range(n) if j != s and j not in gens[:k]])
            for k, s in enumerate(gens)]


def homomorphism_failure(g: GradedAlgebra, mats: list, scan):
    """First pair (s, j) of scan, a list of (s, partners) taken in order,
    where pi([e_s,e_j]) != pi(e_s)pi(e_j) - eps(|e_s|,|e_j|) pi(e_j)pi(e_s),
    as (s, j, lhs, rhs), or None when every listed pair holds.  On
    pair_scan(range(g.dim), g.dim) a None proves mats a color homomorphism.

    When g satisfies its axioms, the frames (s_k, C_{k-1}) of generating_set
    suffice.  The homogeneous y with pi[y,x] = [pi y, pi x]_eps for every x
    form a graded subalgebra L: by Jacobi in g and the eps-Jacobi identity of
    eps-commutators of matrices, y, z in L give
    pi[[y,z],x] = [pi y, pi[z,x]]_eps - eps(y,z) [pi z, pi[y,x]]_eps
    = [[pi y, pi z]_eps, pi x]_eps = [pi[y,z], pi x]_eps.  Once s_1..s_{k-1}
    pass, L contains their closure L_{k-1}, so (s_k, y) holds for y in
    L_{k-1} by antisymmetry; x -> pi[s_k,x] - [pi s_k, pi x]_eps is linear,
    so it vanishes once it does on the e_c, c in C_{k-1}, which span a
    complement of L_{k-1}.  The same argument decides Jacobi itself, for
    pi = ad, without Jacobi in g (see check_axioms).

    A pair is decided by commutator_residual, an exact integer test of the
    identity; only the first failing pair has its sides built, by lincomb
    and graded_commutator, so verdict and witness are those of comparing
    the two matrices of each pair in scan order."""
    rows = [{r: row for r, row in enumerate(m.rows) if row} for m in mats]
    den = lcm(*{v._d for m in rows for row in m.values() for v in row.values()})
    for s, partners in scan:
        for j in partners:
            eps = sign(g.degrees[s], g.degrees[j])
            coeffs = g.bracket_basis(s, j)
            if commutator_residual(rows, s, j, eps._a, coeffs, den, mats[s].nrows) is not None:
                rhs = graded_commutator(mats[s], mats[j], eps)
                return s, j, lincomb(mats, coeffs, rhs.nrows), rhs
    return None


def generating_set(g: GradedAlgebra) -> list:
    """Frames [(s_k, C_{k-1})]: basis indices s_1..s_m whose bracket closure
    is g, chosen greedily, each with C_{k-1}, the indices but s_k that are no
    pivot of the reduced echelon basis of the closure L_{k-1} of s_1..s_{k-1}.
    The candidates are the basis vectors of degree != (0,0) in index order,
    then those of degree (0,0); e_i is taken when it lies outside the closure
    so far, kept incrementally: a new ad(s) is applied to the vectors already
    spanned, and every ad(s), s in S, to each new vector.  The closure lies in the subalgebra S generates, Jacobi or
    not, so reaching dim g (else CertificateFailed) proves that S generates
    g.  For a graded bracket the echelon rows are homogeneous, so the e_c,
    c in C_{k-1}, span a graded complement of L_{k-1}."""

    rows = g.rows

    def ad(s, v):  # [e_s, v]
        return combine(rows[s], {k: c for k, c in v.items() if k in rows[s]})

    order = sorted(range(g.dim), key=lambda i: g.degrees[i] == ZERO_DEGREE)
    frames, span = [], SubspaceBasis()
    for i in order:
        if span.contains(unit_vec(i)):
            continue
        frames.append((i, [c for c in range(g.dim) if c != i and c not in span.pivots]))
        frontier = [unit_vec(i)] + [ad(i, v) for v in span.inserted]
        while frontier:
            new = [v for v in frontier if span.add(v)]
            frontier = [ad(s, v) for v in new for s, _ in frames]
    if span.dim != g.dim:
        raise CertificateFailed(f"generators {[s for s, _ in frames]} close up to "
                                f"dimension {span.dim}, not {g.dim}")
    return frames


def _jacobi_failure(g: GradedAlgebra, scan, sorted_triples: bool):
    """First (i, j, k), (i, j) a pair of scan (see homomorphism_failure) and
    k its least failing row, where
    [e_i,[e_j,e_k]] - eps(|e_i|,|e_j|) [e_j,[e_i,e_k]] != [[e_i,e_j],e_k],
    or None.  This is column k of homomorphism_failure for pi = ad, so on
    pair_scan(range(g.dim), g.dim) the hit is that scan's first failing pair and its least differing column.
    With sorted_triples, only k > j is visited: once the bracket is graded
    (closure), the Jacobiator is eps-alternating and vanishes on a repeated
    index (eps(a,a) = 1, [x,x] = 0), so the sorted triples decide it and the
    first failing one is the same witness.

    Each pair is commutator_residual on the rows R_a = ad(e_a)^T of g, whose
    row k is [e_a,e_k]: row k of R_j R_i - eps R_i R_j - sum_m [e_i,e_j]_m R_m
    is the Jacobiator at k, so its least nonzero key k*n + l gives k."""
    n, degs, rows = g.dim, g.degrees, g.rows
    den = lcm(*{v._d for c in g.structure.values() for v in c.values()})
    for i, partners in scan:
        for j in partners:
            key = commutator_residual(rows, j, i, sign(degs[i], degs[j])._a, rows[i].get(j, {}),
                                      den, n, j + 1 if sorted_triples else 0)
            if key is not None:
                return i, j, key // n
    return None


def check_axioms(g: GradedAlgebra) -> AxiomReport:
    """Verify grading closure on all basis pairs (graded antisymmetry holds by
    construction, see AxiomReport), and graded Jacobi
    [e_i,[e_j,e_k]] = [[e_i,e_j],e_k] + eps(|e_i|,|e_j|) [e_j,[e_i,e_k]],
    which is "ad is a color representation" (_jacobi_failure).

    With closure, Jacobi is decided on generating_set's frames, rows k > j
    of each (s_k, j), and the frames go on the report.  The x with
    J(x,.,.) = 0, ad x an eps-derivation, form a graded subalgebra before
    Jacobi is known: J(x,y,.) = 0 says ad[x,y] = [ad x, ad y]_eps, and the
    eps-commutator of two eps-derivations is one (Scheunert, J. Math. Phys.
    20 (1979) 712).  J is eps-alternating, so once s_1..s_{k-1} pass,
    J(s_k,y,z) = 0 for y or z in their closure, and C_{k-1} spans a
    complement.  A failure is named by the scan of every pair, on the sorted
    triples with closure and on all k without: the first witness per axiom,
    for Jacobi (i, j, k) the first failing pair and its least failing k."""
    report = AxiomReport()
    degs = g.degrees
    # closure
    for (i, j), coeffs in g.structure.items():
        target = degree_add(degs[i], degs[j])
        for k in coeffs:
            if degs[k] != target:
                report.closure = ((i, j, k), degs[k], target)
                break
        if report.closure:
            break
    # Jacobi: [e_i,[e_j,e_k]] = [[e_i,e_j],e_k] + (-1)^(di.dj) [e_j,[e_i,e_k]]
    if report.closure is None:
        frames = generating_set(g)
        if _jacobi_failure(g, frames, True) is None:
            report.generators = frames
            return report
    failure = _jacobi_failure(g, pair_scan(range(g.dim), g.dim), report.closure is None)
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
    rowm = [sum(1 << r for r, row in enumerate(mat.rows) if row) for mat in m.matrices]
    colm = [sum(1 << c for c in set().union(*mat.rows)) for mat in m.matrices]
    structure = {}
    for i in range(n):
        for j in range(i + 1, n):  # [x, x] = 0 for homogeneous x: eps(a, a) = 1
            if not (colm[i] & rowm[j] or colm[j] & rowm[i]):
                continue  # x_i x_j = x_j x_i = 0 (Gustavson, ACM TOMS 4 (1978) 250)
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
    """Gram matrix K(e_i, e_j) = tr(ad e_i . ad e_j)
    = sum_l sum_k [e_i,e_l]_k [e_j,e_k]_l, read off the rows."""
    if g._killing_cache is not None:
        return g._killing_cache
    n, rows = g.dim, g.rows
    gram = SMat(n, n)
    for i in range(n):
        for j in range(i, n):
            if g.degrees[i] != g.degrees[j]:
                continue  # homogeneity of K: zero across distinct degrees
            v, rj = ZERO, rows[j]
            for l, c in rows[i].items():
                for k, a in c.items():
                    b = rj.get(k)
                    if b and l in b:
                        v = v + a * b[l]
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
