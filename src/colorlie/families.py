"""Constructors for the graded orthogonal family so(p,q,r,s) and the two
worked golden fixtures so(4,2,2,2) and so(4,2,1,1).

Block pattern on C^(p+q+r+s), blocks B1..B4 of sizes p,q,r,s carrying the
space degrees (0,0),(0,1),(1,0),(1,1):

    [ a00   a01   a10   a11 ]      lower parts:  -a01^t, -a10^t, -a11^t
    [ .     b00   b11   b10 ]                    +b11^t, +b10^t
    [ .     .     c00   c01 ]                    +c01^t
    [ .     .     .     d00 ]

with antisymmetric diagonal blocks.  The off-diagonal transpose signs differ
from plain so(n) exactly in the b11, b10, c01 blocks.
"""
from __future__ import annotations

from fractions import Fraction

from .algebra import MatrixRealization
from .errors import DimensionMismatch
from .linalg import SMat
from .scalars import GQ, I, MINUS_ONE, ONE

BLOCK_DEGREES = ((0, 0), (0, 1), (1, 0), (1, 1))

# transpose sign of the lower partner for each off-diagonal block pair
_LOWER_SIGN = {
    (0, 1): MINUS_ONE,
    (0, 2): MINUS_ONE,
    (0, 3): MINUS_ONE,
    (1, 2): ONE,
    (1, 3): ONE,
    (2, 3): ONE,
}


class SoParams(tuple):
    """Block sizes (p, q, r, s) as an immutable tuple: SoParams(4, 2, 2, 2) == (4, 2, 2, 2)."""

    __slots__ = ()

    def __new__(cls, p: int, q: int, r: int, s: int):
        if min(p, q, r, s) < 0:
            raise DimensionMismatch("block sizes must be nonnegative")
        if p + q + r + s < 2:
            raise DimensionMismatch("total dimension must be at least 2")
        return super().__new__(cls, (p, q, r, s))

    def __getnewargs__(self):  # copy and pickle call __new__ with these
        return tuple(self)

    p = property(lambda self: self[0])
    q = property(lambda self: self[1])
    r = property(lambda self: self[2])
    s = property(lambda self: self[3])

    @property
    def sizes(self):
        return tuple(self)

    @property
    def total(self):
        return sum(self)


def so_pqrs(params: SoParams) -> MatrixRealization:
    """Basis of so(p,q,r,s): one matrix per free block entry.

    Enumeration order: diagonal blocks first (row-major antisymmetric pairs),
    then off-diagonal blocks left-to-right, top-to-bottom.
    """
    sizes = params.sizes
    n = params.total
    offsets = []
    acc = 0
    for sz in sizes:
        offsets.append(acc)
        acc += sz
    mats = []
    labels = []
    for b, sz in enumerate(sizes):
        off = offsets[b]
        for a in range(sz):
            for c in range(a + 1, sz):
                m = SMat(n, n)
                m.rows[off + a][off + c] = ONE
                m.rows[off + c][off + a] = MINUS_ONE
                mats.append(m)
                labels.append(f"D{b + 1}[{a},{c}]")
    for bi in range(4):
        for bj in range(bi + 1, 4):
            s = _LOWER_SIGN[(bi, bj)]
            for a in range(sizes[bi]):
                for c in range(sizes[bj]):
                    m = SMat(n, n)
                    row = offsets[bi] + a
                    col = offsets[bj] + c
                    m.rows[row][col] = ONE
                    m.rows[col][row] = s
                    mats.append(m)
                    labels.append(f"O{bi + 1}{bj + 1}[{a},{c}]")
    return MatrixRealization(sizes, BLOCK_DEGREES, mats, labels=labels)


def so_cartan_hint(params: SoParams) -> list:
    """Coefficient vectors (on the so_pqrs basis) of the standard torus:
    i * (E_{a,a+1} - E_{a+1,a}) on consecutive pairs inside each diagonal
    block."""
    hint = []
    idx = 0
    for size in params.sizes:
        pair_index = {}
        for a in range(size):
            for c in range(a + 1, size):
                pair_index[(a, c)] = idx
                idx += 1
        for a in range(0, size - 1, 2):
            hint.append({pair_index[(a, a + 1)]: I})
    return hint


# ---------------------------------------------------------------------------
# golden fixtures
# ---------------------------------------------------------------------------

# 2x2 building blocks X_{±eps_i ± eps_j}; key = (sign_i, sign_j)
_X_BLOCKS = {
    (1, -1): ((ONE, I), (-I, ONE)),
    (1, 1): ((ONE, -I), (-I, -ONE)),
    (-1, 1): ((ONE, -I), (I, ONE)),
    (-1, -1): ((ONE, I), (I, -ONE)),
}


def _h_matrix(n: int, pair: int) -> SMat:
    """[[0, i], [-i, 0]] on coordinate pair `pair` (0-based) of C^n."""
    m = SMat(n, n)
    a = 2 * pair
    m.rows[a][a + 1] = I
    m.rows[a + 1][a] = -I
    return m


def _root_vector(n: int, i: int, j: int, si: int, sj: int, lower_sign: GQ) -> SMat:
    """E_{si*eps_i + sj*eps_j}: X block on (pair i, pair j) plus its signed
    transpose partner (pairs 0-based, i < j)."""
    x = _X_BLOCKS[(si, sj)]
    m = SMat(n, n)
    r0, c0 = 2 * i, 2 * j
    for a in range(2):
        for b in range(2):
            v = x[a][b]
            if v:
                m.rows[r0 + a][c0 + b] = v
                m.rows[c0 + b][r0 + a] = lower_sign * v
    return m


class Fixture:
    def __init__(self, realization: MatrixRealization, cartan_indices: list,
                 root_table: dict, zero_part: dict):
        self.realization = realization
        self.cartan_indices = cartan_indices  # indices of the H basis elements in the realization
        self.root_table = root_table  # root vector (tuple of Fraction) -> {degree: basis index}
        self.zero_part = zero_part  # degree -> list of basis indices annihilated by the Cartan


def _eps(rank: int, entries: dict):
    v = [Fraction(0)] * rank
    for i, c in entries.items():
        v[i] = Fraction(c)
    return tuple(v)


def fixture_so4222() -> Fixture:
    """The worked so(4,2,2,2) basis: H1..H5 plus the 40 root vectors
    E_{±eps_i ± eps_j} with the documented placement sign (negative transpose
    partner for i in the first two pairs, positive for pairs three and four)."""
    n = 10
    mats = [_h_matrix(n, k) for k in range(5)]
    labels = [f"H{k + 1}" for k in range(5)]
    root_order = []
    for i in range(5):
        for j in range(i + 1, 5):
            lower = MINUS_ONE if i < 2 else ONE
            for si, sj in ((1, -1), (-1, 1), (1, 1), (-1, -1)):
                mats.append(_root_vector(n, i, j, si, sj, lower))
                labels.append(f"E[{si:+d}e{i + 1}{sj:+d}e{j + 1}]")
                root_order.append((i, j, si, sj))
    real = MatrixRealization((4, 2, 2, 2), BLOCK_DEGREES, mats, labels=labels)
    table = {}
    for idx, (i, j, si, sj) in enumerate(root_order):
        alpha = _eps(5, {i: si, j: sj})
        table.setdefault(alpha, {})[real.basis_degrees[5 + idx]] = 5 + idx
    return Fixture(real, list(range(5)), table, {})


def fixture_so4211() -> Fixture:
    """The worked so(4,2,1,1) basis: H1..H3, the twelve long-root vectors,
    the eight short-root vectors (2-dimensional root spaces split across two
    degrees), and the Cartan-annihilated vector spanning the zero part."""
    n = 8
    mats = [_h_matrix(n, k) for k in range(3)]
    labels = [f"H{k + 1}" for k in range(3)]
    root_order = []
    # long roots ±eps_i ± eps_j: pairs (0,1) in B1 (lower -X^t),
    # (0,2) and (1,2) across B1-B2 (lower -X^t)
    for i, j in ((0, 1), (0, 2), (1, 2)):
        for si, sj in ((1, -1), (-1, 1), (1, 1), (-1, -1)):
            mats.append(_root_vector(n, i, j, si, sj, MINUS_ONE))
            labels.append(f"E[{si:+d}e{i + 1}{sj:+d}e{j + 1}]")
            root_order.append(_eps(3, {i: si, j: sj}))
    # short roots ±eps_i: column 7 hits block B3 (degree of the vector is the
    # block-pair degree), column 8 hits B4; the transpose partner carries the
    # block sign (-col^t from B1 rows, +col^t from B2 rows)
    for i in range(3):
        lower = -1 if i < 2 else 1
        for col in (6, 7):
            for s in (1, -1):
                m = SMat(n, n)
                r0 = 2 * i
                m.rows[r0][col] = ONE
                m.rows[r0 + 1][col] = GQ(0, -s)  # ∓ i
                m.rows[col][r0] = GQ(lower)
                m.rows[col][r0 + 1] = GQ(0, -lower * s)
                mats.append(m)
                labels.append(f"E[{s:+d}e{i + 1};col{col + 1}]")
                root_order.append(_eps(3, {i: s}))
    # the Cartan-annihilated element E0 in degree (0,1)
    e0 = SMat(n, n)
    e0.rows[6][7] = ONE
    e0.rows[7][6] = ONE
    mats.append(e0)
    labels.append("E0")
    real = MatrixRealization((4, 2, 1, 1), BLOCK_DEGREES, mats, labels=labels)
    table = {}
    for idx, alpha in enumerate(root_order):
        table.setdefault(alpha, {})[real.basis_degrees[3 + idx]] = 3 + idx
    zero_part = {real.basis_degrees[-1]: [len(mats) - 1]}
    return Fixture(real, list(range(3)), table, zero_part)
