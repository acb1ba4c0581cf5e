"""Cartan subalgebras, root-space decomposition with degree splitting,
sl2-triplets, root strings, Weyl group (`weyl_order` counts it by
fundamental-weight orbits, `weyl_group` lists it), and enhanced Dynkin data.
A failed certificate raises CertificateFailed."""
from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import lcm
from operator import add

from .algebra import GradedAlgebra, killing_form, killing_radical
from .errors import (
    AutoSearchFailed,
    CertificateFailed,
    DegenerateOrder,
    HintInvalid,
    IrrationalEigenvalue,
    NotSelfCentralizing,
    PairingDegenerate,
    SingularForm,
)
from .grading import ZERO_DEGREE, degree_add
from .linalg import (
    SMat,
    SubspaceBasis,
    closure,
    combine,
    eigensplit,
    gaussian_rational_roots,
    invert,
    joint_kernel,
    minimal_polynomial,
    poly_is_squarefree,
    unit_vec,
    vec_scale,
)
from .scalars import GQ, I, MINUS_ONE, ONE, TWO, ZERO


class CartanSubalgebra:
    def __init__(self, basis: list, gram: SMat):
        self.basis = basis  # coefficient vectors inside g^(0,0)
        self.gram = gram  # Killing form restricted to this basis (rational entries)

    @property
    def rank(self) -> int:
        return len(self.basis)


def killing_value(gram: SMat, x: dict, y: dict) -> GQ:
    s = ZERO
    for i, xi in x.items():
        row = gram.rows[i]
        for j, yj in y.items():
            v = row.get(j)
            if v is not None:
                s = s + xi * v * yj
    return s


def validate_cartan(g: GradedAlgebra, basis) -> CartanSubalgebra:
    """Check the CartanSubalgebra invariants; raise HintInvalid on failure.

    Validation order: membership in g^(0,0), linear independence, abelianness,
    diagonalizable adjoints (squarefree minimal polynomial), nondegenerate
    Killing restriction, self-centralizing inside g^(0,0).
    """
    basis = [dict(v) for v in basis]
    even = set(g.degree_indices(ZERO_DEGREE))
    for v in basis:
        if not v or any(i not in even for i in v):
            raise HintInvalid("hint vector is not inside the degree-(0,0) part")
    sb = SubspaceBasis()
    for v in basis:
        if not sb.add(v):
            raise HintInvalid("hint vectors are linearly dependent")
    for a in range(len(basis)):
        for b in range(a + 1, len(basis)):
            if g.bracket(basis[a], basis[b]):
                raise HintInvalid("hint is not abelian")
    for v in basis:
        if not poly_is_squarefree(minimal_polynomial(g.ad(v))):
            raise HintInvalid("ad of a hint vector is not diagonalizable")
    gram_full = killing_form(g)
    r = len(basis)
    gram = SMat(r, r)
    for a in range(r):
        for b in range(a, r):
            v = killing_value(gram_full, basis[a], basis[b])
            if v:
                gram.rows[a][b] = v
                if a != b:
                    gram.rows[b][a] = v
    try:
        invert(gram)
    except SingularForm:
        raise HintInvalid("Killing restriction to the hint is degenerate")
    # centralizer of the hint inside g^(0,0) must equal the hint
    cent = _centralizer_in_even(g, basis)
    if len(cent) != r:
        raise HintInvalid(
            f"centralizer in g^(0,0) has dimension {len(cent)}, hint has {r}"
        )
    return CartanSubalgebra(basis, gram)


def _centralizer_in_even(g: GradedAlgebra, basis) -> list:
    """Basis of {x in g^(0,0) : [h, x] = 0 for every h in basis}; each h lies
    in g^(0,0), so ad(h) maps g^(0,0) into itself."""
    even = g.degree_indices(ZERO_DEGREE)
    return joint_kernel([unit_vec(i) for i in even], [g.ad(h) for h in basis])


def find_cartan(g: GradedAlgebra, hint=None) -> CartanSubalgebra:
    """Validate a user hint, or build a split torus of g^(0,0) greedily.

    The candidates are the degree-(0,0) basis vectors in index order, then
    e_i + e_j and e_i - e_j for i < j, and, only if those run out first, the
    basis of the kept vectors' centralizer in g^(0,0), taken afresh each
    time this stage keeps a vector (on a re-based g^(0,0) no basis vector
    or pair may be left that commutes with what was kept).  A candidate is
    kept when it commutes with the vectors already kept, lies outside their
    span, and its ad has a square-free minimal polynomial with all roots in
    Q, or all in iQ (then it is kept times i).  The search stops once the kept vectors are their own
    centralizer in g^(0,0); `validate_cartan` certifies the result."""
    if hint is not None:
        return validate_cartan(g, hint)
    even = g.degree_indices(ZERO_DEGREE)
    if not even:
        raise AutoSearchFailed("degree-(0,0) part is zero")
    pairs = ({i: ONE, j: s} for a, i in enumerate(even) for j in even[a + 1:]
             for s in (ONE, MINUS_ONE))
    kept, span = [], SubspaceBasis()

    def centralizer():  # a last stage, reached only when the others run out
        while True:  # recomputed after each vector it keeps
            n = len(kept)
            for h in _centralizer_in_even(g, kept):
                yield h
                if len(kept) > n:
                    break
            else:
                return

    for h in chain(map(unit_vec, even), pairs, centralizer()):
        if span.contains(h) or any(g.bracket(h, k) for k in kept):
            continue
        roots, residual = gaussian_rational_roots(minimal_polynomial(g.ad(h)))
        if residual or any(m > 1 for _, m in roots):
            continue
        if not all(lam.is_rational() for lam, _ in roots):
            if any(lam.re for lam, _ in roots):
                continue
            h = vec_scale(h, I)
        kept.append(h)
        span.add(h)
        if len(_centralizer_in_even(g, kept)) == len(kept):
            break
    try:
        return validate_cartan(g, kept)
    except HintInvalid as e:
        raise AutoSearchFailed(
            f"the split-torus search found no Cartan subalgebra ({e}); "
            "pass one as cartanHint") from None


class RootDatum:
    def __init__(self, alpha: tuple, spaces_by_degree: dict):
        self.alpha = alpha  # rational values on the Cartan basis
        self.spaces_by_degree = spaces_by_degree  # Degree -> list of coefficient vectors

    @property
    def dim(self) -> int:
        return sum(len(v) for v in self.spaces_by_degree.values())

    def degrees(self):
        return sorted(self.spaces_by_degree)


class RootSystem:
    def __init__(self, cartan: CartanSubalgebra, roots: list, zero_part: dict,
                 gram_inv: SMat, positive: list | None = None, simple: list | None = None,
                 rho: tuple | None = None, _coroots: list | None = None,
                 _simple_inv: list | None = None):
        self.cartan = cartan
        self.roots = roots  # list of RootDatum, sorted by root vector
        self.zero_part = zero_part  # Degree -> list of vectors in g_0^a, a != (0,0)
        self.gram_inv = gram_inv  # inverse of the Cartan Gram matrix (rational)
        self.positive = positive  # root vectors (tuples) in Delta+
        self.simple = simple  # simple root vectors
        self.rho = rho
        # the simple-root frame, set with `simple`: per simple root, the rational
        # vector c_i with <mu, alpha_i^vee> = mu . c_i, and column i of the
        # inverse simple-root matrix
        self._coroots, self._simple_inv = _coroots, _simple_inv
        self._index = {rd.alpha: rd for rd in roots}

    @property
    def rank(self) -> int:
        return self.cartan.rank

    def datum(self, alpha) -> RootDatum:
        return self._index[tuple(alpha)]

    def is_root(self, alpha) -> bool:
        return tuple(alpha) in self._index

    def inner(self, alpha, beta) -> Fraction:
        """<alpha, beta> = K(H_alpha, H_beta), computed through the inverse
        Gram matrix of the Cartan restriction."""
        acc = Fraction(0)
        for i, ai in enumerate(alpha):
            if not ai:
                continue
            row = self.gram_inv.rows[i]
            for j, v in row.items():
                bj = beta[j]
                if bj:
                    acc += ai * v.re * bj
        return acc

    def cartan_number(self, beta, alpha) -> Fraction:
        return 2 * self.inner(beta, alpha) / self.inner(alpha, alpha)

    def pairings(self, mu) -> tuple:
        """(<mu, alpha_i^vee>) over the simple roots."""
        return self._dots(mu, self._coroots)

    def coordinates(self, beta) -> tuple:
        """The n with beta = sum n_i alpha_i over the simple roots."""
        return self._dots(beta, self._simple_inv)

    def integer_frames(self) -> tuple:
        """(den, coroots, simple_inv): den times the `pairings` and `coordinates` frames."""
        if self._coroots is None:
            raise ValueError("positive system not fixed; call positive_and_simple first")
        den, frames = _lattice(self._coroots + self._simple_inv)
        return den, frames[:self.rank], frames[self.rank:]

    def _dots(self, x, frame) -> tuple:
        if frame is None:
            raise ValueError("positive system not fixed; call positive_and_simple first")
        return tuple(sum((a * b for a, b in zip(x, v) if a), Fraction(0)) for v in frame)


def killing_dual(cartan: CartanSubalgebra, gram_inv: SMat, alpha) -> dict:
    """The unique H_alpha in t with K(H_alpha, H) = alpha(H) for all H in t;
    gram_inv is the inverse of cartan.gram."""
    return combine(cartan.basis, gram_inv.matvec({i: GQ(a) for i, a in enumerate(alpha) if a}))


def root_decomposition(g: GradedAlgebra, t: CartanSubalgebra) -> RootSystem:
    """Simultaneous exact eigen-splitting of g under ad of the Cartan basis.

    Splits each degree component separately (ad(H) preserves degrees), groups
    the nonzero joint eigenvalues into roots with per-degree spaces, collects
    g_0^a for a != (0,0), and verifies the dimension bookkeeping."""
    ops = [g.ad(h) for h in t.basis]
    gram_inv = invert(t.gram)
    by_alpha: dict = {}
    zero_part: dict = {}
    total = 0
    for a in sorted(set(g.degrees)):
        idxs = g.degree_indices(a)
        if not idxs:
            continue
        pieces = eigensplit([unit_vec(i) for i in idxs], ops)
        for eigtuple, vecs in pieces:
            total += len(vecs)
            if any(not v.is_rational() for v in eigtuple):
                raise IrrationalEigenvalue(
                    "root functional takes a non-rational value on the Cartan basis"
                )
            alpha = tuple(v.re for v in eigtuple)
            if any(alpha):
                by_alpha.setdefault(alpha, {})[a] = vecs
            elif a != ZERO_DEGREE:
                zero_part[a] = vecs
            else:
                # the zero-weight even part must be exactly the Cartan
                sb = SubspaceBasis(t.basis)
                extra = [v for v in vecs if not sb.contains(v)]
                if extra or len(vecs) != t.rank:
                    raise HintInvalid(
                        "generalized centralizer in g^(0,0) exceeds the Cartan"
                    )
    if total != g.dim:
        raise CertificateFailed("triangular decomposition does not fill the algebra")
    roots = []
    for alpha in sorted(by_alpha):
        spaces = by_alpha[alpha]
        for a, vecs in spaces.items():
            if len(vecs) > 1:
                raise CertificateFailed(f"dim g_alpha^a > 1 for alpha={alpha}, a={a}")
        roots.append(RootDatum(alpha, spaces))
    rs = RootSystem(t, roots, zero_part, gram_inv)
    # closed under negation
    for rd in roots:
        neg = tuple(-x for x in rd.alpha)
        if not rs.is_root(neg):
            raise CertificateFailed(f"root system not symmetric at {rd.alpha}")
    return rs


def is_self_centralizing(rs: RootSystem) -> bool:
    return not rs.zero_part


class Sl2Triplet:
    def __init__(self, h: dict, x: dict, y: dict, alpha: tuple, degree: tuple):
        self.h, self.x, self.y, self.alpha, self.degree = h, x, y, alpha, degree


def sl2_triplet(g: GradedAlgebra, rs: RootSystem, alpha, degree) -> Sl2Triplet:
    """Normalized sl2 triplet spanning g_alpha^a + [.,.] + g_{-alpha}^a."""
    alpha = tuple(alpha)
    neg = tuple(-x for x in alpha)
    rd = rs.datum(alpha)
    rd_neg = rs.datum(neg)
    if degree not in rd.spaces_by_degree or degree not in rd_neg.spaces_by_degree:
        raise PairingDegenerate(
            f"root spaces for alpha={alpha} in degree {degree} are not both nonzero"
        )
    e = rd.spaces_by_degree[degree][0]
    f = rd_neg.spaces_by_degree[degree][0]
    gram = killing_form(g)
    pairing = killing_value(gram, e, f)
    if not pairing:
        raise PairingDegenerate(
            f"K(E_alpha, E_-alpha) = 0 for alpha={alpha}, degree={degree}"
        )
    y = vec_scale(f, ONE / pairing)
    norm = GQ(rs.inner(alpha, alpha))
    scale = TWO / norm
    x = vec_scale(e, scale)
    h = vec_scale(killing_dual(rs.cartan, rs.gram_inv, alpha), scale)
    for lhs, rhs, text in ((g.bracket(h, x), vec_scale(x, TWO), "[h,x] != 2x"),
                           (g.bracket(h, y), vec_scale(y, GQ(-2)), "[h,y] != -2y"),
                           (g.bracket(x, y), h, "[x,y] != h")):
        if lhs != rhs:
            raise CertificateFailed(text)
    return Sl2Triplet(h, x, y, alpha, degree)


def root_string(rs: RootSystem, beta, alpha):
    """(p, q) with beta - p*alpha .. beta + q*alpha inside Delta ∪ {0};
    certifies p - q = 2<beta,alpha>/<alpha,alpha>."""
    beta = tuple(beta)
    alpha = tuple(alpha)
    zero = tuple(Fraction(0) for _ in alpha)

    def member(k):
        v = tuple(b + k * a for b, a in zip(beta, alpha))
        return v == zero or rs.is_root(v)

    p = 0
    while member(-(p + 1)):
        p += 1
    q = 0
    while member(q + 1):
        q += 1
    expected = rs.cartan_number(beta, alpha)
    if p - q != expected:
        raise CertificateFailed(
            f"root string identity fails: p={p} q={q} 2<b,a>/<a,a>={expected}"
        )
    return p, q


def reflect(rs: RootSystem, alpha, beta) -> tuple:
    """s_alpha(beta) = beta - 2<beta,alpha>/<alpha,alpha> alpha."""
    c = rs.cartan_number(beta, alpha)
    return tuple(b - c * a for b, a in zip(beta, alpha))


class WeylGroup:
    def __init__(self, root_order: list, elements: list, words: dict):
        self.root_order = root_order  # fixed ordering of root vectors
        self.elements = elements  # permutations of the root list, as tuples
        self.words = words  # permutation -> list of generating root indices

    @property
    def order(self) -> int:
        return len(self.elements)


def weyl_group(rs: RootSystem) -> WeylGroup:
    """Closure of the simple reflections s_i as permutations of Delta; each
    word lists the root_order indices of its simple roots."""
    order = [rd.alpha for rd in rs.roots]
    index = {a: i for i, a in enumerate(order)}
    pairings = [rs.pairings(beta) for beta in order]
    gens = [(index[alpha], tuple(
        index[tuple(b - p[i] * a for b, a in zip(beta, alpha))]
        for beta, p in zip(order, pairings))) for i, alpha in enumerate(rs.simple)]
    identity = tuple(range(len(order)))
    words = {identity: []}
    frontier = [identity]
    while frontier:
        new = []
        for w in frontier:
            for gi, gperm in gens:
                nw = tuple(map(gperm.__getitem__, w))
                if nw not in words:
                    words[nw] = words[w] + [gi]
                    new.append(nw)
        frontier = new
    return WeylGroup(order, sorted(words), words)


def weyl_order(cm) -> int:
    """|W| for the Cartan matrix cm[i][k] = <alpha_i, alpha_k^vee> of a finite
    root system: over the leading k nodes S_k, the stabilizer of omega_k in
    W(S_k) is W(S_{k-1}) (Humphreys, Reflection Groups and Coxeter Groups,
    1.12), so |W| is the product of the orbit sizes. Snow's walk (ACM TOMS 16,
    1990) visits each orbit point mu once: s_i mu (mu_i > 0) is its child when
    the fundamental-weight coordinates of s_i mu before i are nonnegative."""
    total = 1
    for k in range(1, len(cm) + 1):
        stack, size = [(0,) * (k - 1) + (1,)], 0
        while stack:
            mu = stack.pop()
            size += 1
            for i, m in enumerate(mu):
                if m > 0 and all(mu[j] - m * cm[i][j] >= 0 for j in range(i)):
                    stack.append(tuple(x - m * c for x, c in zip(mu, cm[i])))
        total *= size
    return total


def default_order_key(alpha) -> int:
    """Lexicographic positivity: sign of the first nonzero coordinate."""
    for x in alpha:
        if x:
            return 1 if x > 0 else -1
    return 0


def _lattice(vectors: list) -> tuple:
    """(scale, [scale * v]) for the least common denominator scale of the vectors v."""
    scale = lcm(*(x.denominator for v in vectors for x in v))
    return scale, [tuple(x.numerator * (scale // x.denominator) for x in v) for v in vectors]


def positive_and_simple(rs: RootSystem, order=None) -> RootSystem:
    """Choose Delta+, the simple roots, rho and the simple-root frame read by
    `RootSystem.pairings` and `RootSystem.coordinates`.

    `order` is None for the dual-basis lexicographic rule, or an explicit
    rational functional vector; DegenerateOrder if some root evaluates to 0,
    or if the simple roots are not a base of Delta whose coroots generate
    every coroot; CertificateFailed unless the simple reflections permute Delta.
    """
    if order is None:
        keyf = default_order_key
    else:
        w = [Fraction(x) for x in order]

        def keyf(alpha):
            v = sum(wi * ai for wi, ai in zip(w, alpha))
            return 1 if v > 0 else (-1 if v < 0 else 0)

    positive = []
    for rd in rs.roots:
        k = keyf(rd.alpha)
        if k == 0:
            raise DegenerateOrder(f"ordering functional vanishes on root {rd.alpha}")
        if k > 0:
            positive.append(rd.alpha)
    positive.sort()
    # the positive roots that are no sum of two, sorted since positive is
    _, keys = _lattice(positive)
    sums = {tuple(map(add, a, b)) for a in keys for b in keys}
    simple = [a for a, key in zip(positive, keys) if key not in sums]
    rank = len(rs.cartan.basis)
    if len(simple) != rank:
        raise DegenerateOrder(f"{len(simple)} simple roots for rank {rank}")
    try:
        inv = invert(SMat.from_dense([[GQ(x) for x in a] for a in simple]))
    except SingularForm:
        raise DegenerateOrder("the simple roots are linearly dependent")
    rs = RootSystem(
        rs.cartan, rs.roots, rs.zero_part, rs.gram_inv, positive, simple,
        rho=tuple(sum((a[i] for a in positive), Fraction(0)) / 2 for i in range(rank)),
        _simple_inv=[tuple(inv.rows[j].get(i, ZERO).re for j in range(rank))
                     for i in range(rank)],
    )
    # Delta+ lies in the cone of the simple roots, and every coroot in the
    # lattice of the simple coroots: beta^vee = sum n_i |alpha_i|^2/|beta|^2
    # alpha_i^vee, so integrality against the simple coroots is integrality
    # against every root
    norms = [rs.inner(a, a) for a in simple]
    coords = {}  # integer simple-root coordinates of each positive root
    for beta in positive:
        n = rs.coordinates(beta)
        if any(c.denominator != 1 or c < 0 for c in n):
            raise DegenerateOrder(
                f"positive root {beta} is not a nonnegative integer "
                "combination of the simple roots"
            )
        nb = rs.inner(beta, beta)
        if not nb or any((c * m / nb).denominator != 1 for c, m in zip(n, norms)):
            raise DegenerateOrder(
                f"root {beta} has no coroot in the lattice of the simple coroots"
            )
        coords[beta] = tuple(map(int, n))
    units = [tuple(Fraction(int(i == j)) for j in range(rank)) for i in range(rank)]
    rs._coroots = [tuple(2 * rs.inner(e, a) / m for e in units)
                   for a, m in zip(simple, norms)]
    # s_i changes only coordinate i, by -sum_j n_j <alpha_j, alpha_i^vee>;
    # Delta = -Delta (root_decomposition certifies it) and s_i is linear, so
    # Delta+ suffices
    cm = [rs.pairings(a) for a in simple]
    found = set(coords.values()) | {tuple(-c for c in n) for n in coords.values()}
    for beta, n in coords.items():
        for i, alpha in enumerate(simple):
            image = list(n)
            image[i] -= sum(c * row[i] for c, row in zip(n, cm) if c)
            if tuple(image) not in found:
                raise CertificateFailed(f"reflection s_{alpha} maps {beta} outside Delta")
    return rs


def root_degree(rs: RootSystem, beta) -> tuple:
    """The unique degree carrying g_beta; requires a self-centralizing Cartan
    (then every root space is 1-dimensional)."""
    rd = rs.datum(beta)
    degs = rd.degrees()
    if len(degs) != 1:
        raise NotSelfCentralizing(
            f"root {tuple(beta)} is supported in several degrees {degs}"
        )
    return degs[0]


class EnhancedDynkin:
    def __init__(self, simple: list, cartan_matrix: list, dynkin_type: str, node_degrees: list):
        self.simple = simple  # simple roots, in canonical node order
        self.cartan_matrix = cartan_matrix  # integer matrix on simple roots
        self.dynkin_type = dynkin_type  # "A5", "D5", ..., or "unclassified"
        self.node_degrees = node_degrees  # Degree per simple root


def cartan_matrix(rs: RootSystem, simple=None) -> list:
    """cm[i][k] = <alpha_i, alpha_k^vee> over `simple`, an ordering of
    rs.simple (rs.simple itself by default), read off the simple-root frame.
    The entries are integers: positive_and_simple certified that each s_k
    maps the simple root alpha_i to a root, which has integer coordinates."""
    simple = simple if simple is not None else rs.simple
    cols = [rs.simple.index(b) for b in simple]
    return [[int(p[k]) for k in cols] for p in map(rs.pairings, simple)]


def dynkin_components(cm: list) -> list:
    """Connected components of the Dynkin diagram of cm, nodes i != j joined
    when cm[i][j] or cm[j][i] is nonzero: sorted node lists, in order of
    their least node.  Node i merges the components among 0..i-1 it joins."""
    comps = []
    for i in range(len(cm)):
        joined = [c for c in comps if any(cm[i][j] or cm[j][i] for j in c)]
        comps = [c for c in comps if c not in joined] + [sorted(sum(joined, [i]))]
    return sorted(comps)


def classify_dynkin(cm: list) -> str:
    """Name each component of a Cartan matrix after the finite-type connected
    diagrams and join the names in sorted order, e.g. "D4+D4"; "unclassified"
    when some component matches none."""
    n = len(cm)
    if not n or any(cm[i][i] != 2 for i in range(n)) or any(
            i != j and (cm[i][j] > 0 or (cm[i][j] == 0) != (cm[j][i] == 0))
            for i in range(n) for j in range(n)):
        return "unclassified"
    names = [_classify_connected([[cm[i][j] for j in comp] for i in comp])
             for comp in dynkin_components(cm)]
    return "unclassified" if "unclassified" in names else "+".join(sorted(names))


def _classify_connected(cm: list) -> str:
    n = len(cm)
    adj = [[j for j in range(n) if j != i and cm[i][j]] for i in range(n)]
    bonds = {(i, j): cm[i][j] * cm[j][i] for i in range(n) for j in adj[i] if i < j}
    branch = [i for i in range(n) if len(adj[i]) > 2]
    multiple = [(e, m) for e, m in bonds.items() if m > 1]
    if len(bonds) != n - 1:
        return "unclassified"  # diagrams are trees
    if n == 1:
        return "A1"
    if not multiple:  # simply laced: A, D, E
        if not branch:
            return f"A{n}"
        if len(branch) > 1 or len(adj[branch[0]]) != 3:
            return "unclassified"
        arms = tuple(sorted(_arm_lengths(adj, branch[0])))
        return {(1, 1, n - 3): f"D{n}", (1, 2, 2): "E6", (1, 2, 3): "E7",
                (1, 2, 4): "E8"}.get(arms, "unclassified")
    if branch or len(multiple) > 1:
        return "unclassified"
    [((i, j), m)] = multiple
    if n == 2:
        return {2: "B2", 3: "G2"}.get(m, "unclassified")
    if m != 2:
        return "unclassified"
    if len(adj[i]) == 2 and len(adj[j]) == 2:  # a double bond inside a path
        return "F4" if n == 4 else "unclassified"
    end, other = (i, j) if len(adj[i]) == 1 else (j, i)
    # cm[other][end] = -2 means the end root is short (B); -1 means long (C)
    return f"B{n}" if cm[other][end] == -2 else f"C{n}"


def _arm_lengths(adj, center):
    arms = []
    for cur in adj[center]:
        prev, length = center, 1
        while len(adj[cur]) == 2:
            prev, cur = cur, next(x for x in adj[cur] if x != prev)
            length += 1
        arms.append(length)
    return arms


def enhanced_dynkin(rs: RootSystem, g: GradedAlgebra) -> EnhancedDynkin:
    """Cartan matrix + type + per-node degree labels.

    Requires a self-centralizing Cartan (otherwise node degrees are not well
    defined) and a fixed positive system."""
    if not is_self_centralizing(rs):
        raise NotSelfCentralizing(
            "node degrees are undefined: the Cartan is not self-centralizing"
        )
    if rs.simple is None:
        raise ValueError("positive system not fixed; call positive_and_simple first")
    nodes = sorted(rs.simple, key=lambda a: (root_degree(rs, a), a))
    cm = cartan_matrix(rs, nodes)
    return EnhancedDynkin(
        simple=nodes,
        cartan_matrix=cm,
        dynkin_type=classify_dynkin(cm),
        node_degrees=[root_degree(rs, a) for a in nodes],
    )


class SimplicityVerdict:
    def __init__(self, simple: bool | None, dynkin_type: str, witness: list | None, reason: str):
        self.simple = simple  # None at rank 0: no root to decide from
        self.dynkin_type = dynkin_type  # classify_dynkin of the simple-root Cartan matrix
        self.witness = witness  # basis of a proper nonzero graded ideal
        self.reason = reason


def simplicity(g: GradedAlgebra, rs: RootSystem) -> SimplicityVerdict:
    """Decide graded simplicity exactly from a root system with a fixed
    positive system.  A nonzero Killing radical is a proper graded ideal (K
    is nondegenerate on the Cartan).  Else g is simple iff the Dynkin diagram
    is connected and the brackets [g_alpha^c, g_-alpha^(b+c)] span each zero
    part g_0^b: an ideal meeting a (1-dimensional) g_alpha^a contains
    [x, y] = K(x, y) h_alpha != 0, so every g_beta with <beta, alpha^vee> != 0,
    and along a connected diagram all root spaces and the Cartan; one meeting
    none commutes with the root vectors, so is central once their brackets
    span g_0, and the center lies in rad K = 0.  Failing that, the ad-closure
    of a root vector of the first component is a proper ideal.  Witnesses are
    certified nonzero and proper."""
    if rs.simple is None:
        raise ValueError("positive system not fixed; call positive_and_simple first")
    cm = cartan_matrix(rs)
    dynkin_type, components = classify_dynkin(cm), dynkin_components(cm)
    if not components:
        return SimplicityVerdict(None, dynkin_type, None, "rank 0: no root to decide from")
    witness, reason = killing_radical(g), "the Killing radical is a proper ideal"
    if not witness:
        spans = {b: SubspaceBasis() for b in rs.zero_part}
        for alpha in rs.positive:
            down = rs.datum(tuple(-x for x in alpha)).spaces_by_degree
            for c, (x,) in rs.datum(alpha).spaces_by_degree.items():
                for d, (y,) in down.items():
                    if degree_add(c, d) in spans:
                        spans[degree_add(c, d)].add(g.bracket(x, y))
        short = sorted(b for b, sb in spans.items() if sb.dim < len(rs.zero_part[b]))
        if len(components) == 1 and not short:
            return SimplicityVerdict(True, dynkin_type, None,
                                     "connected Dynkin diagram; root brackets span g_0")
        reason = (f"the Dynkin diagram has {len(components)} components"
                  if len(components) > 1 else f"root brackets do not span g_0^b, b in {short}")
        first = rs.datum(rs.simple[components[0][0]])
        ideal = closure(first.spaces_by_degree[first.degrees()[0]][0], g.ad_matrices())
        witness = [dict(r) for r in ideal.rows]
    if not 0 < len(witness) < g.dim:
        raise CertificateFailed(f"the witness ideal has dimension {len(witness)} of {g.dim}")
    return SimplicityVerdict(False, dynkin_type, witness, reason)
