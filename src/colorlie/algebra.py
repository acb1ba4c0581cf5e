"""Graded-algebra data model: structure constants, axiom checks, Killing form.

A GradedAlgebra stores its bracket table sparsely, keyed by ordered basis
pairs (i, j) with i < j; the (j, i) entry is recovered through the graded
antisymmetry sign, and a diagonal entry (i, i) is stored only when the degree
pairing allows [e_i, e_i] to be nonzero.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import DimensionMismatch, NotClosed
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
    closure,
    kernel_basis,
    lincomb,
    unit_vec,
    vec_axpy,
    vec_scale,
)
from .scalars import GQ, ONE


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
                if degree_pairing(self.degrees[i], self.degrees[i]):
                    self.structure[(i, i)] = coeffs
                elif coeffs:
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
        if i < j or i == j:
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
    """Per-axiom verdicts; a None witness means PASS."""

    closure: tuple | None = None
    antisymmetry: tuple | None = None
    jacobi: tuple | None = None

    @property
    def ok(self) -> bool:
        return self.closure is None and self.antisymmetry is None and self.jacobi is None

    def lines(self):
        for name, witness in (
            ("grading closure", self.closure),
            ("graded antisymmetry", self.antisymmetry),
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

    def block_pair_degree(self, bi: int, bj: int):
        return degree_add(self.block_degrees[bi], self.block_degrees[bj])

    def _degree_of(self, m: SMat):
        degs = m.degree_support(self.block_of, self.block_pair_degree)
        if len(degs) > 1:
            raise ValueError(f"matrix is not homogeneous: degrees {sorted(degs)}")
        return next(iter(degs)) if degs else ZERO_DEGREE

    def graded_commutator(self, a: int, b: int) -> SMat:
        x, y = self.matrices[a], self.matrices[b]
        s = sign(self.basis_degrees[a], self.basis_degrees[b])
        return (x @ y) - (y @ x).scaled(s)


def homomorphism_failure(g: GradedAlgebra, mats: list):
    """First basis pair (i <= j) where
    pi([e_i,e_j]) != pi(e_i)pi(e_j) - eps(|e_i|,|e_j|) pi(e_j)pi(e_i),
    as (i, j, lhs, rhs), or None when mats is a color homomorphism.

    Pairs i > j follow from graded antisymmetry, which GradedAlgebra enforces.
    """
    for i in range(g.dim):
        mi = mats[i]
        for j in range(i, g.dim):
            mj = mats[j]
            rhs = mi @ mj
            eps = sign(g.degrees[i], g.degrees[j])
            for row, other in zip(rhs.rows, (mj @ mi).rows):
                vec_axpy(row, -eps, other)
            lhs = lincomb(mats, g.bracket_basis(i, j), mi.nrows)
            if lhs != rhs:
                return i, j, lhs, rhs
    return None


def check_axioms(g: GradedAlgebra) -> AxiomReport:
    """Verify grading closure and graded antisymmetry on all basis pairs, and
    graded Jacobi as "ad is a color representation": for all z,
    [x,[y,z]] = [[x,y],z] + eps(|x|,|y|) [y,[x,z]] says exactly
    ad[x,y] = ad x ad y - eps(|x|,|y|) ad y ad x (homomorphism_failure).
    Report the first witness per axiom; the Jacobi witness (i, j, k) is the
    first failing pair and its first differing column."""
    report = AxiomReport()
    degs = g.degrees
    n = g.dim
    # closure
    for (i, j), coeffs in sorted(g.structure.items()):
        target = degree_add(degs[i], degs[j])
        for k in coeffs:
            if degs[k] != target:
                report.closure = ((i, j, k), degs[k], target)
                break
        if report.closure:
            break
    # antisymmetry (including the [e_i, e_i] = 0 requirement when the
    # pairing vanishes; stored-half consistency is enforced on top)
    for i in range(n):
        if report.antisymmetry:
            break
        for j in range(i, n):
            lhs = g.bracket_basis(i, j)
            rhs = vec_scale(g.bracket_basis(j, i), -sign(degs[i], degs[j]))
            if lhs != rhs:
                report.antisymmetry = ((i, j), lhs, rhs)
                break
    # Jacobi: [e_i,[e_j,e_k]] = [[e_i,e_j],e_k] + (-1)^(di.dj) [e_j,[e_i,e_k]]
    failure = homomorphism_failure(g, g.ad_matrices())
    if failure:
        i, j, ad_lhs, ad_rhs = failure
        k = min(c for a, b in zip(ad_lhs.rows, ad_rhs.rows)
                for c in a.keys() | b.keys() if a.get(c) != b.get(c))
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
    sb = SubspaceBasis()
    for mat in m.matrices:
        flat = {}
        for r, row in enumerate(mat.rows):
            for c, v in row.items():
                flat[r * amb + c] = v
        if not sb.add(flat):
            raise ValueError("basis matrices are not linearly independent")
    structure = {}
    for i in range(n):
        start = i if degree_pairing(m.basis_degrees[i], m.basis_degrees[i]) else i + 1
        for j in range(start, n):
            comm = m.graded_commutator(i, j)
            flat = {}
            for r, row in enumerate(comm.rows):
                for c, v in row.items():
                    flat[r * amb + c] = v
            coords = sb.coords(flat)
            if coords is None:
                raise NotClosed(i, j, sb.residual(flat))
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


def subalgebra_on_indices(g: GradedAlgebra, indices) -> GradedAlgebra:
    """The (assumed closed) subalgebra spanned by the given basis indices,
    re-expressed on its own basis."""
    indices = list(indices)
    pos = {idx: k for k, idx in enumerate(indices)}
    structure = {}
    for a, i in enumerate(indices):
        for b, j in enumerate(indices):
            if a > b:
                continue
            coeffs = g.bracket_basis(i, j)
            if coeffs:
                if any(k not in pos for k in coeffs):
                    raise ValueError("index set does not span a subalgebra")
                structure[(a, b)] = {pos[k]: v for k, v in coeffs.items()}
    labels = [g.label(i) for i in indices] if g.labels else None
    return GradedAlgebra([g.degrees[i] for i in indices], structure, labels=labels)


def subalgebra_on_span(g: GradedAlgebra, vectors) -> GradedAlgebra:
    """Subalgebra on an explicit basis of coefficient vectors (must be closed
    under the bracket); degrees must be determinate per basis vector."""
    sb = SubspaceBasis()
    for v in vectors:
        if not sb.add(v):
            raise ValueError("spanning vectors are dependent")
    degs = []
    for v in sb.inserted:
        vdegs = {g.degrees[i] for i in v}
        if len(vdegs) != 1:
            raise ValueError("spanning vector is not homogeneous")
        degs.append(vdegs.pop())
    structure = {}
    for a in range(sb.dim):
        for b in range(a, sb.dim):
            br = g.bracket(sb.inserted[a], sb.inserted[b])
            if br:
                coords = sb.coords(br)
                if coords is None:
                    raise ValueError("span is not closed under the bracket")
                if coords:
                    structure[(a, b)] = coords
    return GradedAlgebra(degs, structure)


def _derived_and_center(g: GradedAlgebra):
    derived = SubspaceBasis()
    for (i, j) in g.structure:
        derived.add(dict(g.bracket_basis(i, j)))
    # center: joint kernel of all ad(e_i)
    stacked = SMat(g.dim * g.dim, g.dim)
    r = 0
    for m in g.ad_matrices():
        for row in m.rows:
            stacked.rows[r] = dict(row)
            r += 1
    center = kernel_basis(stacked)
    return derived, center


def is_reductive_even_part(g: GradedAlgebra):
    """Check that the degree-(0,0) part is reductive: it must decompose as
    center + derived subalgebra with the derived part's own Killing form
    nondegenerate (Cartan's criterion in characteristic zero)."""
    even = subalgebra_on_indices(g, g.degree_indices(ZERO_DEGREE))
    derived, center = _derived_and_center(even)
    joint = SubspaceBasis()
    joint.extend(dict(r) for r in derived.rows)
    cdim = 0
    for v in center:
        if joint.add(v):
            cdim += 1
    if cdim != len(center) or joint.dim != even.dim:
        return False
    if derived.dim:
        try:
            dsub = subalgebra_on_span(even, [dict(r) for r in derived.rows])
        except ValueError:
            return False
        if killing_radical(dsub):
            return False
    return True


def is_basic(g: GradedAlgebra) -> bool:
    """Nondegenerate Killing form and reductive degree-(0,0) part."""
    if killing_radical(g):
        return False
    return is_reductive_even_part(g)


@dataclass
class SimplicityVerdict:
    simple: bool
    witness: list | None = None  # basis of a proper nonzero graded ideal
    reason: str = ""

    def __bool__(self):
        return self.simple


def graded_simplicity_probe(g: GradedAlgebra, trials: int = 4, seed: int = 0) -> SimplicityVerdict:
    """Probe for proper nonzero graded ideals.

    Every homogeneous basis vector, plus `trials` pseudorandom homogeneous
    elements per degree, is closed up under ad.  A proper nonzero closure is a
    genuine witness; the positive verdict is only probabilistic.
    """
    if not g.structure:
        return SimplicityVerdict(False, None, "abelian (no nontrivial bracket)")
    rng = random.Random(seed)
    candidates = [unit_vec(i) for i in range(g.dim)]
    for a in set(g.degrees):
        idxs = g.degree_indices(a)
        for _ in range(trials):
            v = {}
            for i in idxs:
                c = rng.randint(-3, 3)
                if c:
                    v[i] = GQ(c)
            if v:
                candidates.append(v)
    for v in candidates:
        sb = closure(v, g.ad_matrices())
        if 0 < sb.dim < g.dim:
            return SimplicityVerdict(
                False, [dict(r) for r in sb.rows], "proper nonzero graded ideal found"
            )
    return SimplicityVerdict(True, None, "no proper ideal found (probabilistic)")


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
