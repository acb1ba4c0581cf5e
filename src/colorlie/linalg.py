"""Exact sparse linear algebra over Q(i).

Vectors are dicts {index: GQ} with no stored zeros.  Matrices are lists of
sparse rows.  Everything is exact; there is no floating point and no
tolerance anywhere.
"""
from __future__ import annotations

from .errors import IrrationalEigenvalue, SingularForm
from .scalars import GQ, MINUS_ONE, ONE, ZERO, clear_denominators

# ---------------------------------------------------------------------------
# sparse vectors
# ---------------------------------------------------------------------------


def vec_axpy(y: dict, a: GQ, x: dict) -> None:
    """y += a*x in place (a may be zero: no-op)."""
    if not a:
        return
    for j, xj in x.items():
        v = y.get(j)
        if v is None:
            y[j] = a * xj
        else:
            v = v + a * xj
            if v:
                y[j] = v
            else:
                del y[j]


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

    def __neg__(self):
        return self.scaled(MINUS_ONE)

    def scaled(self, a: GQ) -> "SMat":
        return SMat(self.nrows, self.ncols, [vec_scale(r, a) for r in self.rows])

    def matvec(self, x: dict) -> dict:
        """M @ x for a sparse column vector x."""
        y: dict = {}
        cols = self.cols
        for j, xj in x.items():
            vec_axpy(y, xj, cols[j])
        return y

    def __matmul__(self, other: "SMat") -> "SMat":
        out = [dict() for _ in range(self.nrows)]
        brows = other.rows
        for i, row in enumerate(self.rows):
            acc = out[i]
            for k, a in row.items():
                vec_axpy(acc, a, brows[k])
        return SMat(self.nrows, other.ncols, out)

    def transpose(self) -> "SMat":
        return SMat(self.ncols, self.nrows, [dict(c) for c in self.cols])

    def trace(self) -> GQ:
        s = ZERO
        for i, row in enumerate(self.rows):
            v = row.get(i)
            if v is not None:
                s = s + v
        return s

    def trace_mul(self, other: "SMat") -> GQ:
        """tr(self @ other) without forming the product."""
        s = ZERO
        orows = other.rows
        for i, row in enumerate(self.rows):
            for j, a in row.items():
                b = orows[j].get(i)
                if b is not None:
                    s = s + a * b
        return s

    def degree_support(self, block_of: list, block_degree) -> set:
        """Degrees block_degree(block_of[i], block_of[j]) present among nonzeros."""
        degs = set()
        for i, row in enumerate(self.rows):
            bi = block_of[i]
            for j in row:
                degs.add(block_degree(bi, block_of[j]))
        return degs


def lincomb(mats: list, x: dict, n: int) -> SMat:
    """sum_i x[i] * mats[i] for a coefficient vector x over n x n matrices."""
    rows = [dict() for _ in range(n)]
    for i, c in x.items():
        for row, other in zip(rows, mats[i].rows):
            vec_axpy(row, c, other)
    return SMat(n, n, rows)


def graded_commutator(x: SMat, y: SMat, eps: GQ) -> SMat:
    """x @ y - eps * (y @ x), subtracted row by row into x @ y."""
    out = x @ y
    for row, other in zip(out.rows, (y @ x).rows):
        vec_axpy(row, -eps, other)
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

    def __init__(self):
        self.rows: list = []  # echelon rows (sparse dicts), pivot entry == 1
        self.pivots: list = []  # pivot column of each echelon row
        self.track: list = []  # row i of echelon = sum track[i][k] * inserted[k]
        self.inserted: list = []

    @property
    def dim(self) -> int:
        return len(self.rows)

    def _reduce(self, v: dict):
        """Return (residual, coeffs) with v = residual + sum coeffs[i]*rows[i]."""
        w = dict(v)
        coeffs: dict = {}
        for i, p in enumerate(self.pivots):
            c = w.get(p)
            if c is not None:
                coeffs[i] = c
                vec_axpy(w, -c, self.rows[i])
        return w, coeffs

    def residual(self, v: dict) -> dict:
        return self._reduce(v)[0]

    def contains(self, v: dict) -> bool:
        return not self._reduce(v)[0]

    def coords(self, v: dict):
        """Coordinates of v over the inserted vectors, or None if not in span."""
        w, coeffs = self._reduce(v)
        if w:
            return None
        out: dict = {}
        for i, c in coeffs.items():
            vec_axpy(out, c, self.track[i])
        return out

    def add(self, v: dict) -> bool:
        """Insert v; return True if it enlarged the subspace."""
        w, coeffs = self._reduce(v)
        if not w:
            return False
        k = len(self.inserted)
        self.inserted.append(v)
        t = {k: ONE}
        for i, c in coeffs.items():
            vec_axpy(t, -c, self.track[i])
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
        self.rows.append(w)
        self.pivots.append(piv)
        self.track.append(t)
        return True

    def extend(self, vectors) -> None:
        for v in vectors:
            self.add(v)


def closure(v: dict, ops: list) -> SubspaceBasis:
    """Smallest subspace containing v and invariant under every operator:
    breadth-first images, with exact rank checks for termination."""
    sb = SubspaceBasis()
    sb.add(v)
    frontier = [v]
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
    sb = SubspaceBasis()
    for row in m.rows:
        if row:
            sb.add(dict(row))
    pivset = set(sb.pivots)
    basis = []
    for j in range(m.ncols):
        if j in pivset:
            continue
        v = {j: ONE}
        for i, p in enumerate(sb.pivots):
            c = sb.rows[i].get(j)
            if c is not None:
                v[p] = -c
        basis.append(v)
    return basis


def joint_kernel(vectors: list, ops: list) -> list:
    """Vectors in span(vectors) killed by every operator: the kernel of the
    images stacked coordinate by coordinate, mapped back to the ambient space."""
    rows = []
    for op in ops:
        images = [op.matvec(v) for v in vectors]
        for coord in sorted(set().union(*images)):
            rows.append({j: im[coord] for j, im in enumerate(images) if coord in im})
    out = []
    for combo in kernel_basis(SMat(len(rows), len(vectors), rows)):
        v: dict = {}
        for j, c in combo.items():
            vec_axpy(v, c, vectors[j])
        out.append(v)
    return out


def invert(m: SMat) -> SMat:
    """Exact inverse of a nonsingular matrix."""
    n = m.nrows
    sb = SubspaceBasis()
    for i in range(n):
        sb.add(dict(m.cols[i]))  # columns as vectors; coords give inverse action
    if sb.dim < n:
        raise SingularForm("matrix is singular")
    out = SMat(n, n)
    for j in range(n):
        c = sb.coords(unit_vec(j))
        if c is None:
            raise SingularForm("matrix is singular")
        for i, v in c.items():
            out.rows[i][j] = v
    return out


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
    assert not rem
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
    assert not r
    return q


# ---------------------------------------------------------------------------
# Gaussian integers: gcd, factorization, divisors (for rational-root search)
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


def _gi_exact_div(a, b):
    """a / b when b | a in Z[i], else None."""
    n = _gi_norm(b)
    xr = a[0] * b[0] + a[1] * b[1]
    xi = a[1] * b[0] - a[0] * b[1]
    if xr % n or xi % n:
        return None
    return (xr // n, xi // n)


def _int_factor(n: int) -> dict:
    out: dict = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 5
    while f * f <= n:
        for p in (f, f + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        f += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _sqrt_minus_one_mod(p: int) -> int:
    """x with x^2 = -1 mod p, for prime p = 1 mod 4."""
    for a in range(2, p):
        x = pow(a, (p - 1) // 4, p)
        if (x * x) % p == p - 1:
            return x
    raise ArithmeticError(f"no sqrt(-1) mod {p}")


def gaussian_divisors(z) -> list:
    """All divisors of z in Z[i] up to associates (z nonzero)."""
    assert z != (0, 0)
    primes = []  # (gaussian prime, multiplicity)
    rest = z
    n = _gi_norm(z)
    for p, _ in sorted(_int_factor(n).items()):
        if p == 2:
            pi = (1, 1)
            cands = [pi]
        elif p % 4 == 3:
            cands = [(p, 0)]
        else:
            x = _sqrt_minus_one_mod(p)
            pi = _gi_gcd((p, 0), (x, 1))
            cands = [pi, (pi[0], -pi[1])]
        for pi in cands:
            mult = 0
            while True:
                q = _gi_exact_div(rest, pi)
                if q is None:
                    break
                rest = q
                mult += 1
            if mult:
                primes.append((pi, mult))
    divisors = [(1, 0)]
    for pi, mult in primes:
        new = []
        for d in divisors:
            cur = d
            for _ in range(mult + 1):
                new.append(cur)
                cur = _gi_mul(cur, pi)
        divisors = new
    # dedupe associates
    seen = set()
    out = []
    for d in divisors:
        assoc = min(
            (d[0], d[1]), (-d[1], d[0]), (-d[0], -d[1]), (d[1], -d[0])
        )
        if assoc not in seen:
            seen.add(assoc)
            out.append(d)
    return out


def gaussian_rational_roots(p: list):
    """All roots of p in Q(i) with multiplicities.

    Returns (roots, residual_degree): roots is a list of (GQ, multiplicity);
    residual_degree > 0 means an irreducible factor of degree >= 2 remains.
    """
    p = poly_trim(list(p))
    if len(p) <= 1:
        return [], 0
    roots = []
    # factor out x^k
    k = 0
    while not p[0]:
        p = p[1:]
        k += 1
    if k:
        roots.append((ZERO, k))
    if len(p) <= 1:
        return roots, 0
    # clear denominators -> Z[i] coefficients
    zi = clear_denominators(p)
    c0, cn = zi[0], zi[-1]
    units = [ONE, GQ(-1), GQ(0, 1), GQ(0, -1)]
    candidates = []
    seen = set()
    for d0 in gaussian_divisors(c0):
        num = GQ(d0[0], d0[1])
        for dn in gaussian_divisors(cn):
            base = num / GQ(dn[0], dn[1])
            for u in units:
                lam = base * u
                if lam not in seen:
                    seen.add(lam)
                    candidates.append(lam)
    for lam in candidates:
        if not poly_eval(p, lam):
            mult = 0
            while len(p) > 1 and not poly_eval(p, lam):
                p = poly_deflate(p, lam)
                mult += 1
            roots.append((lam, mult))
            if len(p) <= 1:
                break
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


def restriction_matrix(basis: SubspaceBasis, op: SMat) -> SMat:
    """Matrix of op restricted to the (invariant) subspace, in basis coords."""
    d = basis.dim
    out = SMat(d, d)
    for k, v in enumerate(basis.inserted):
        w = op.matvec(v)
        c = basis.coords(w)
        if c is None:
            raise ValueError("subspace is not invariant under the operator")
        for i, val in c.items():
            out.rows[i][k] = val
    return out


def eigensplit(vectors: list, operators: list):
    """Split span(vectors) into joint (generalized) eigenspaces.

    vectors: sparse ambient vectors spanning an invariant subspace of every
    operator.  Returns a list of (eigentuple, [ambient vectors]) sorted by the
    eigenvalue tuples; raises IrrationalEigenvalue when a minimal polynomial
    does not split over Q(i).
    """
    pieces = [((), list(vectors))]
    for op in operators:
        new_pieces = []
        for prefix, vecs in pieces:
            sb = SubspaceBasis()
            sb.extend(vecs)
            vecs = sb.inserted if sb.dim == len(vecs) else list(sb.inserted)
            if sb.dim == 0:
                continue
            r = restriction_matrix(sb, op)
            mp = minimal_polynomial(r)
            roots, residual = gaussian_rational_roots(mp)
            if residual:
                raise IrrationalEigenvalue(
                    f"minimal polynomial has an irreducible factor of degree {residual}"
                )
            total = 0
            for lam, mult in roots:
                shifted = r.copy()
                for i in range(shifted.nrows):
                    v = shifted.rows[i].get(i, ZERO) - lam
                    if v:
                        shifted.rows[i][i] = v
                    else:
                        shifted.rows[i].pop(i, None)
                power = shifted
                for _ in range(mult - 1):
                    power = power @ shifted
                ker = kernel_basis(power)
                amb = []
                for kv in ker:
                    w: dict = {}
                    for j, c in kv.items():
                        vec_axpy(w, c, vecs[j])
                    amb.append(w)
                total += len(amb)
                new_pieces.append((prefix + (lam,), amb))
            assert total == sb.dim, "eigenspace dimensions do not add up"
        pieces = new_pieces
    pieces.sort(key=lambda p: tuple((v.re, v.im) for v in p[0]))
    return pieces
