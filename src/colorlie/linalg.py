"""Exact sparse linear algebra over Q(i).

Vectors are dicts {index: GQ} with no stored zeros.  Matrices are lists of
sparse rows.  Everything is exact; there is no floating point and no
tolerance anywhere.
"""
from __future__ import annotations

from itertools import count
from math import isqrt

from .errors import CertificateFailed, IrrationalEigenvalue, SingularForm
from .scalars import GQ, MINUS_ONE, ONE, ZERO, addmul, clear_denominators
from .scalars import axpy as vec_axpy  # reads GQ triples, so lives in scalars

# ---------------------------------------------------------------------------
# sparse vectors
# ---------------------------------------------------------------------------


def vec_scale(x: dict, a: GQ) -> dict:
    if not a:
        return {}
    return {j: a * xj for j, xj in x.items()}


def unit_vec(j: int) -> dict:
    return {j: ONE}


# ---------------------------------------------------------------------------
# sparse matrices
# ---------------------------------------------------------------------------


class SMat:
    """Sparse matrix: list of sparse rows over Q(i).  Rows are filled before
    the column view `cols`, cached on first read, is first read."""

    __slots__ = ("nrows", "ncols", "rows", "_cols")

    def __init__(self, nrows: int, ncols: int, rows=None):
        self.nrows = nrows
        self.ncols = ncols
        self.rows = rows if rows is not None else [dict() for _ in range(nrows)]
        self._cols = None

    @staticmethod
    def from_dense(entries) -> "SMat":
        nrows = len(entries)
        ncols = len(entries[0]) if nrows else 0
        rows = [{j: v for j, v in enumerate(r) if v} for r in entries]
        return SMat(nrows, ncols, rows)

    @staticmethod
    def identity(n: int) -> "SMat":
        return SMat(n, n, [{i: ONE} for i in range(n)])

    def copy(self) -> "SMat":
        return SMat(self.nrows, self.ncols, [dict(r) for r in self.rows])

    def get(self, i: int, j: int) -> GQ:
        return self.rows[i].get(j, ZERO)

    @property
    def cols(self):
        if self._cols is None:
            cols = [dict() for _ in range(self.ncols)]
            for i, row in enumerate(self.rows):
                for j, v in row.items():
                    cols[j][i] = v
            self._cols = cols
        return self._cols

    def __eq__(self, other):
        if not isinstance(other, SMat):
            return NotImplemented
        return (
            self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __bool__(self):
        return any(self.rows)

    def __add__(self, other):
        out = self.copy()
        for i, row in enumerate(other.rows):
            vec_axpy(out.rows[i], ONE, row)
        return out

    def __sub__(self, other):
        out = self.copy()
        for i, row in enumerate(other.rows):
            vec_axpy(out.rows[i], MINUS_ONE, row)
        return out

    def scaled(self, a: GQ) -> "SMat":
        return SMat(self.nrows, self.ncols, [vec_scale(r, a) for r in self.rows])

    def matvec(self, x: dict) -> dict:
        """M @ x for a sparse column vector x."""
        return combine(self.cols, x)

    def __matmul__(self, other: "SMat") -> "SMat":
        out = SMat(self.nrows, other.ncols)
        add_product(out, ONE, self, other)
        return out

    def transpose(self) -> "SMat":
        return SMat(self.ncols, self.nrows, [dict(c) for c in self.cols])


def lincomb(mats: list, x: dict, n: int) -> SMat:
    """sum_i x[i] * mats[i] for a coefficient vector x over n x n matrices."""
    rows = [dict() for _ in range(n)]
    for i, c in x.items():
        for row, other in zip(rows, mats[i].rows):
            if other:
                vec_axpy(row, c, other)
    return SMat(n, n, rows)


def add_product(out: SMat, s: GQ, a: SMat, b: SMat) -> None:
    """out += s * (a @ b), one row accumulator per nonempty row of a."""
    brows = b.rows
    for acc, row in zip(out.rows, a.rows):
        if row:
            addmul(acc, s, row, brows)


def graded_commutator(x: SMat, y: SMat, eps: GQ) -> SMat:
    """x @ y - eps * (y @ x), both products accumulated into one result."""
    out = SMat(x.nrows, y.ncols)
    add_product(out, ONE, x, y)
    add_product(out, -eps, y, x)
    return out


def kron(a: SMat, b: SMat) -> SMat:
    """Kronecker product; index (p, q) -> p * b.nrows + q."""
    nb = b.nrows
    mb = b.ncols
    rows = [dict() for _ in range(a.nrows * nb)]
    for p, arow in enumerate(a.rows):
        for q, brow in enumerate(b.rows):
            tgt = rows[p * nb + q]
            for pj, av in arow.items():
                base = pj * mb
                for qj, bv in brow.items():
                    tgt[base + qj] = av * bv
    return SMat(a.nrows * nb, a.ncols * mb, rows)


# ---------------------------------------------------------------------------
# row reduction / subspaces
# ---------------------------------------------------------------------------


class SubspaceBasis:
    """Incrementally built subspace with exact membership and coordinates.

    Maintains fully reduced echelon rows together with the expression of each
    echelon row in terms of the vectors actually inserted.
    """

    __slots__ = ("rows", "pivots", "track", "inserted")

    def __init__(self, vectors=()):
        self.rows: list = []  # echelon rows (sparse dicts), pivot entry == 1
        self.pivots: dict = {}  # pivot column -> index of its echelon row
        self.track: list = []  # row i of echelon = sum track[i][k] * inserted[k]
        self.inserted: list = []
        self.extend(vectors)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def _reduce(self, v: dict):
        """Return (residual, coeffs) with v = residual + sum coeffs[i]*rows[i].
        Row i is zero at the other pivots, so its coefficient is v[pivot i]."""
        pivots = self.pivots
        coeffs = {i: v[p] for i, p in sorted((pivots[p], p) for p in v if p in pivots)}
        w = dict(v)
        addmul(w, MINUS_ONE, coeffs, self.rows)
        return w, coeffs

    def residual(self, v: dict) -> dict:
        return self._reduce(v)[0]

    def contains(self, v: dict) -> bool:
        return not self._reduce(v)[0]

    def coords(self, v: dict):
        """Coordinates of v over the inserted vectors, or None if not in span."""
        w, coeffs = self._reduce(v)
        return None if w else combine(self.track, coeffs)

    def add(self, v: dict) -> bool:
        """Insert v; return True if it enlarged the subspace."""
        w, coeffs = self._reduce(v)
        if not w:
            return False
        k = len(self.inserted)
        self.inserted.append(v)
        t = {k: ONE}
        addmul(t, MINUS_ONE, coeffs, self.track)
        # normalize pivot to 1
        piv = min(w)
        inv = ONE / w[piv]
        w = vec_scale(w, inv)
        t = vec_scale(t, inv)
        # reduce existing rows against the new one
        for i, row in enumerate(self.rows):
            c = row.get(piv)
            if c is not None:
                vec_axpy(row, -c, w)
                vec_axpy(self.track[i], -c, t)
        self.pivots[piv] = len(self.rows)
        self.rows.append(w)
        self.track.append(t)
        return True

    def extend(self, vectors) -> None:
        for v in vectors:
            self.add(v)


def closure(v: dict, ops: list) -> SubspaceBasis:
    """Smallest subspace containing v and invariant under every operator:
    breadth-first images, with exact rank checks for termination."""
    sb, frontier = SubspaceBasis([v]), [v]
    while frontier:
        new = []
        for w in frontier:
            for op in ops:
                img = op.matvec(w)
                if img and sb.add(img):
                    new.append(img)
        frontier = new
    return sb


def kernel_basis(m: SMat) -> list:
    """Basis of {x : m @ x = 0} as sparse vectors."""
    sb = SubspaceBasis(dict(row) for row in m.rows if row)
    basis = []
    for j in range(m.ncols):
        if j in sb.pivots:
            continue
        v = {j: ONE}
        for p, i in sb.pivots.items():
            c = sb.rows[i].get(j)
            if c is not None:
                v[p] = -c
        basis.append(v)
    return basis


def combine(vectors: list, coeffs: dict) -> dict:
    """sum_j coeffs[j] * vectors[j]."""
    out: dict = {}
    addmul(out, ONE, coeffs, vectors)
    return out


def joint_kernel(vectors: list, ops: list) -> list:
    """Vectors in span(vectors) killed by every operator: the kernel of the
    images stacked coordinate by coordinate, mapped back to the ambient space."""
    rows = []
    for op in ops:
        stacked: dict = {}
        for j, v in enumerate(vectors):
            for coord, x in op.matvec(v).items():
                stacked.setdefault(coord, {})[j] = x
        rows += [stacked[coord] for coord in sorted(stacked)]
    return [combine(vectors, c) for c in kernel_basis(SMat(len(rows), len(vectors), rows))]


def invert(m: SMat) -> SMat:
    """Exact inverse of a nonsingular matrix."""
    n = m.nrows
    sb = SubspaceBasis(dict(c) for c in m.cols)  # coords give the inverse action
    if sb.dim < n:
        raise SingularForm("matrix is singular")
    return SMat(n, n, [sb.coords(unit_vec(j)) for j in range(n)]).transpose()


# ---------------------------------------------------------------------------
# polynomials over Q(i)  (coefficient lists, low degree first)
# ---------------------------------------------------------------------------


def poly_trim(p: list) -> list:
    while p and not p[-1]:
        p.pop()
    return p


def poly_deg(p: list) -> int:
    return len(p) - 1


def poly_mul(p: list, q: list) -> list:
    if not p or not q:
        return []
    out = [ZERO] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if not a:
            continue
        for j, b in enumerate(q):
            if b:
                out[i + j] = out[i + j] + a * b
    return poly_trim(out)


def poly_divmod(p: list, q: list):
    p = list(p)
    q = poly_trim(list(q))
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    dq = len(q) - 1
    lead = q[-1]
    quot = [ZERO] * max(0, len(p) - dq)
    while len(p) - 1 >= dq and poly_trim(p):
        d = len(p) - 1 - dq
        c = p[-1] / lead
        quot[d] = c
        for i, b in enumerate(q):
            p[d + i] = p[d + i] - c * b
        poly_trim(p)
    return poly_trim(quot), poly_trim(p)


def poly_gcd(p: list, q: list) -> list:
    p = poly_trim(list(p))
    q = poly_trim(list(q))
    while q:
        _, r = poly_divmod(p, q)
        p, q = q, r
    if p:
        lead = p[-1]
        p = [c / lead for c in p]
    return p


def poly_lcm(p: list, q: list) -> list:
    if not p:
        return list(q)
    if not q:
        return list(p)
    g = poly_gcd(p, q)
    quot, rem = poly_divmod(poly_mul(p, q), g)
    if rem:
        raise CertificateFailed("gcd does not divide the product")
    lead = quot[-1]
    return [c / lead for c in quot]


def poly_deriv(p: list) -> list:
    return poly_trim([p[i] * GQ(i) for i in range(1, len(p))])


def poly_eval(p: list, x: GQ) -> GQ:
    acc = ZERO
    for c in reversed(p):
        acc = acc * x + c
    return acc


def poly_is_squarefree(p: list) -> bool:
    return poly_deg(poly_gcd(p, poly_deriv(p))) == 0


def poly_deflate(p: list, root: GQ):
    """Divide p by (x - root); remainder must vanish."""
    q, r = poly_divmod(p, [-root, ONE])
    if r:
        raise CertificateFailed(f"{root} is not a root")
    return q


# ---------------------------------------------------------------------------
# roots in Q(i): modular root finding with Hensel lifting
# ---------------------------------------------------------------------------


def _gi_norm(z) -> int:
    return z[0] * z[0] + z[1] * z[1]


def _gi_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _gi_divmod(a, b):
    """Rounded Euclidean division in Z[i]."""
    n = _gi_norm(b)
    xr = a[0] * b[0] + a[1] * b[1]
    xi = a[1] * b[0] - a[0] * b[1]
    q = ((2 * xr + n) // (2 * n), (2 * xi + n) // (2 * n))
    r = (a[0] - (q[0] * b[0] - q[1] * b[1]), a[1] - (q[0] * b[1] + q[1] * b[0]))
    return q, r


def _gi_gcd(a, b):
    while b != (0, 0):
        _, r = _gi_divmod(a, b)
        a, b = b, r
    return a


def _eval_mod(coeffs: list, x: int, mod: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % mod
    return acc


def _gaussian_integer_roots(q: list) -> list:
    """Candidates containing every root in Z[i] of a monic square-free q in
    Z[i][y] (coefficient pairs, low degree first).

    Walks the primes l = 1 (mod 4) upward, mapping Z[i] onto F_l by i -> s
    with s^2 = -1, to the first l where every root of q mod l is simple.
    Hensel-lifts s and those roots until l^k > 8 B^2 for the Cauchy bound B
    on the roots, and reads each off as its rounded remainder modulo pi^k,
    pi = gcd(l, i - s): a root y of q, |y| <= B, is that remainder.  Returns
    the remainders inside the bound."""

    def image(mod):  # q and q' mod l^k, where i -> s
        c = [(a + b * s) % mod for a, b in q]
        return c, [k * x for k, x in enumerate(c)][1:]

    for ell in count(5, 4):
        if any(ell % d == 0 for d in range(3, isqrt(ell) + 1, 2)):
            continue
        s = next(x for x in range(ell) if x * x % ell == ell - 1)
        c, dc = image(ell)
        roots = [r for r in range(ell) if not _eval_mod(c, r, ell)]
        if all(_eval_mod(dc, r, ell) for r in roots):
            break
    bound = 2 + isqrt(max(map(_gi_norm, q[:-1])))
    pi, mod = _gi_gcd((ell, 0), (-s, 1)), ell
    while mod <= 8 * bound * bound:
        mod *= mod
        pi = _gi_mul(pi, pi)
        s = (s - (s * s + 1) * pow(2 * s, -1, mod)) % mod
        c, dc = image(mod)
        roots = [(r - _eval_mod(c, r, mod) * pow(_eval_mod(dc, r, mod), -1, mod)) % mod
                 for r in roots]
    ys = [_gi_divmod((r, 0), pi)[1] for r in roots]
    return [y for y in ys if _gi_norm(y) <= bound * bound]


def gaussian_rational_roots(p: list):
    """All roots of p in Q(i) with multiplicities.

    Returns (roots, residual_degree): roots is a list of (GQ, multiplicity);
    residual_degree > 0 means an irreducible factor of degree >= 2 remains.
    The candidates come from the square-free part f of p: its root when f is
    linear, else the roots y = c*x in Z[i] of the monic c^(n-1) f(y/c), c the
    leading coefficient of f over Z[i].  Exact evaluation and deflation of p
    certify every root and multiplicity.
    """
    p = poly_trim(list(p))
    if len(p) <= 1:
        return [], 0
    k = next(j for j, c in enumerate(p) if c)  # factor out x^k
    roots, p = [(ZERO, k)] if k else [], p[k:]
    if len(p) <= 1:
        return roots, 0
    f, _ = poly_divmod(p, poly_gcd(p, poly_deriv(p)))
    if len(f) == 2:
        candidates = [-f[0] / f[1]]
    else:
        *zi, lead = clear_denominators(f)
        q, power = [(1, 0)], (1, 0)
        for a in reversed(zi):
            q.insert(0, _gi_mul(a, power))
            power = _gi_mul(power, lead)
        candidates = [GQ(*y) / GQ(*lead) for y in _gaussian_integer_roots(q)]
    for lam in candidates:
        mult = 0
        while len(p) > 1 and not poly_eval(p, lam):
            p = poly_deflate(p, lam)
            mult += 1
        if mult:
            roots.append((lam, mult))
    return roots, poly_deg(p) if len(p) > 1 else 0


# ---------------------------------------------------------------------------
# minimal polynomials and exact simultaneous eigen-splitting
# ---------------------------------------------------------------------------


def minimal_polynomial(m: SMat) -> list:
    """Minimal polynomial (monic) of a square sparse matrix."""
    n = m.nrows
    mp: list = []
    for seed in range(n):
        v = unit_vec(seed)
        if mp:
            # skip seeds already annihilated by the current lcm
            w: dict = {}
            cur = dict(v)
            for c in mp:
                vec_axpy(w, c, cur)
                cur = m.matvec(cur)
            if not w:
                continue
        sb = SubspaceBasis()
        powers = []
        cur = v
        while sb.add(cur):
            powers.append(cur)
            cur = m.matvec(cur)
        coords = sb.coords(cur)
        d = len(powers)
        p = [ZERO] * (d + 1)
        p[d] = ONE
        if coords:
            for i, c in coords.items():
                p[i] = -c
        mp = poly_lcm(mp, p) if mp else p
        if len(mp) == n + 1:
            break
    return mp


def _coordinate_blocks(vectors: list, operators: list) -> list:
    """Distinct coordinate vectors split into the connected components of the
    operators' joint sparsity pattern, each an invariant subspace (e_i in
    index order); any other vectors form one block, a basis of their span."""
    block = {i: [i] for v in vectors for i, c in v.items() if len(v) == 1 and c == ONE}
    if len(block) != len(vectors):
        return [SubspaceBasis(vectors).inserted]
    for op in operators:
        for r, row in enumerate(op.rows):
            for c in row:
                if c in block and block[c] is not block.get(r):
                    if r not in block:
                        raise ValueError("subspace is not invariant under the operator")
                    merged = block[r] + block[c]
                    for i in merged:
                        block[i] = merged
    blocks = {id(block[i]): block[i] for i in sorted(block)}
    return [[unit_vec(i) for i in sorted(b)] for b in blocks.values()]


def eigensplit(vectors: list, operators: list):
    """Split span(vectors) into exact joint eigenspaces.

    vectors: sparse ambient vectors spanning an invariant subspace of every
    operator.  The blocks of `_coordinate_blocks` isolate invariant
    subspaces, as in Parlett and Reinsch, Numer. Math. 13 (1969) 293: each
    is split on its own and the pieces are merged by eigentuple, block by
    block.  A piece on which an operator acts as a scalar stays whole; any
    other splits into the kernels of r - lambda over the roots lambda of the
    minimal polynomial of the restriction r, and CertificateFailed unless
    they fill it: every operator acts by its eigenvalue on every piece.
    Returns a list of (eigentuple, [ambient vectors]) sorted by the
    eigenvalue tuples; raises IrrationalEigenvalue when a minimal polynomial
    does not split over Q(i)."""
    merged, local = {}, {}  # local: per call, the split of each restriction met
    for block in _coordinate_blocks(vectors, operators):
        pieces = [((), block)]
        for op in operators:
            new_pieces = []
            for prefix, vecs in pieces:  # vecs are independent
                if not vecs:
                    continue
                images = [op.matvec(v) for v in vecs]
                k = next(iter(vecs[0]))
                lam = images[0].get(k, ZERO) / vecs[0][k]
                if all(im == vec_scale(v, lam) for v, im in zip(vecs, images)):
                    new_pieces.append((prefix + (lam,), vecs))  # op is lam here
                    continue
                sb = SubspaceBasis(vecs)
                cols = [sb.coords(w) for w in images]
                if None in cols:
                    raise ValueError("subspace is not invariant under the operator")
                r = SMat(sb.dim, sb.dim, cols).transpose()
                key = tuple(tuple(row.items()) for row in r.rows)
                if key not in local:  # the same restriction recurs across blocks
                    roots, residual = gaussian_rational_roots(minimal_polynomial(r))
                    if residual:
                        raise IrrationalEigenvalue(
                            f"minimal polynomial has an irreducible factor of degree {residual}"
                        )
                    local[key] = [(lam, kernel_basis(r - SMat.identity(r.nrows).scaled(lam)))
                                  for lam, _ in roots]
                    if sum(len(kernel) for _, kernel in local[key]) != sb.dim:
                        raise CertificateFailed("eigenspace dimensions do not add up")
                for lam, kernel in local[key]:
                    new_pieces.append((prefix + (lam,), [combine(vecs, kv) for kv in kernel]))
            pieces = new_pieces
        for eig, vecs in pieces:
            merged.setdefault(eig, []).extend(vecs)
    return sorted(merged.items(), key=lambda p: tuple((v.re, v.im) for v in p[0]))
