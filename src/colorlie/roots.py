"""Cartan subalgebras, root-space decomposition with degree splitting,
sl2-triplets, root strings, Weyl group, and enhanced Dynkin data."""
from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from fractions import Fraction

from .algebra import GradedAlgebra, killing_form
from .errors import (
    AutoSearchFailed,
    DegenerateOrder,
    HintInvalid,
    IrrationalEigenvalue,
    NotSelfCentralizing,
    PairingDegenerate,
    SingularForm,
)
from .grading import ZERO_DEGREE
from .linalg import (
    SMat,
    SubspaceBasis,
    eigensplit,
    invert,
    joint_kernel,
    minimal_polynomial,
    poly_is_squarefree,
    unit_vec,
    vec_axpy,
    vec_scale,
)
from .scalars import GQ, ONE, TWO, ZERO


@dataclass
class CartanSubalgebra:
    basis: list  # coefficient vectors inside g^(0,0)
    gram: SMat  # Killing form restricted to this basis (rational entries)

    @property
    def rank(self) -> int:
        return len(self.basis)


def _killing_value(gram: SMat, x: dict, y: dict) -> GQ:
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
            v = _killing_value(gram_full, basis[a], basis[b])
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


def find_cartan(g: GradedAlgebra, hint=None, seed: int = 0, retries: int = 12) -> CartanSubalgebra:
    """Validate a user hint, or search for a Cartan subalgebra of g^(0,0) by
    taking the centralizer of a pseudorandom element."""
    if hint is not None:
        return validate_cartan(g, hint)
    even = g.degree_indices(ZERO_DEGREE)
    if not even:
        raise AutoSearchFailed("degree-(0,0) part is zero")
    rng = random.Random(seed)
    last = None
    for _ in range(retries):
        h = {}
        for i in even:
            c = rng.randint(-5, 5)
            if c:
                h[i] = GQ(c)
        if not h:
            continue
        cent = _centralizer_in_even(g, [h])
        cent = _normalize_real_spectrum(g, cent)
        if cent is None:
            last = HintInvalid("centralizer basis has mixed real/imaginary spectrum")
            continue
        try:
            return validate_cartan(g, cent)
        except HintInvalid as e:
            last = e
            continue
    raise AutoSearchFailed(f"no generic element found within retry budget ({last})")


def _normalize_real_spectrum(g: GradedAlgebra, basis):
    """Rescale basis vectors so every ad spectrum is rational.

    A vector whose ad eigenvalues are all purely imaginary rationals is
    rotated by i (ad(i*h) = i*ad(h)); a mixed or non-split spectrum cannot be
    fixed by a scalar and yields None (caller retries with a new seed)."""
    from .linalg import gaussian_rational_roots

    out = []
    for v in basis:
        mp = minimal_polynomial(g.ad(v))
        roots, residual = gaussian_rational_roots(mp)
        if residual:
            return None
        if all(lam.is_rational() for lam, _ in roots):
            out.append(v)
        elif all(not lam.re for lam, _ in roots):
            out.append(vec_scale(v, GQ(0, 1)))
        else:
            return None
    return out


@dataclass
class RootDatum:
    alpha: tuple  # rational values on the Cartan basis
    spaces_by_degree: dict  # Degree -> list of coefficient vectors
    h_alpha: dict  # Killing-dual coefficient vector

    @property
    def dim(self) -> int:
        return sum(len(v) for v in self.spaces_by_degree.values())

    def degrees(self):
        return sorted(self.spaces_by_degree)


@dataclass
class RootSystem:
    cartan: CartanSubalgebra
    roots: list  # list of RootDatum, sorted by root vector
    zero_part: dict  # Degree -> list of vectors in g_0^a, a != (0,0)
    gram_inv: SMat  # inverse of the Cartan Gram matrix (rational)
    positive: list | None = None  # root vectors (tuples) in Delta+
    simple: list | None = None  # simple root vectors
    rho: tuple | None = None
    _index: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self._index = {rd.alpha: rd for rd in self.roots}

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


def killing_dual(cartan: CartanSubalgebra, gram_inv: SMat, alpha) -> dict:
    """The unique H_alpha in t with K(H_alpha, H) = alpha(H) for all H in t;
    gram_inv is the inverse of cartan.gram."""
    coeffs = gram_inv.matvec({i: GQ(a) for i, a in enumerate(alpha) if a})
    h: dict = {}
    for i, c in coeffs.items():
        vec_axpy(h, c, cartan.basis[i])
    return h


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
                sb = SubspaceBasis()
                sb.extend(t.basis)
                extra = [v for v in vecs if not sb.contains(v)]
                if extra or len(vecs) != t.rank:
                    raise HintInvalid(
                        "generalized centralizer in g^(0,0) exceeds the Cartan"
                    )
    assert total == g.dim, "triangular decomposition does not fill the algebra"
    roots = []
    for alpha in sorted(by_alpha):
        spaces = by_alpha[alpha]
        for a, vecs in spaces.items():
            if len(vecs) > 1:
                raise AssertionError(
                    f"dim g_alpha^a > 1 for alpha={alpha}, a={a}"
                )
        h_alpha = killing_dual(t, gram_inv, alpha)
        roots.append(RootDatum(alpha, spaces, h_alpha))
    rs = RootSystem(t, roots, zero_part, gram_inv)
    # closed under negation
    for rd in roots:
        neg = tuple(-x for x in rd.alpha)
        assert rs.is_root(neg), f"root system not symmetric at {rd.alpha}"
    return rs


def is_self_centralizing(rs: RootSystem) -> bool:
    return not rs.zero_part


@dataclass
class Sl2Triplet:
    h: dict
    x: dict
    y: dict
    alpha: tuple
    degree: tuple


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
    pairing = _killing_value(gram, e, f)
    if not pairing:
        raise PairingDegenerate(
            f"K(E_alpha, E_-alpha) = 0 for alpha={alpha}, degree={degree}"
        )
    y = vec_scale(f, ONE / pairing)
    norm = GQ(rs.inner(alpha, alpha))
    scale = TWO / norm
    x = vec_scale(e, scale)
    h = vec_scale(rs.datum(alpha).h_alpha, scale)
    # verify the three relations exactly
    assert g.bracket(h, x) == vec_scale(x, TWO), "[h,x] != 2x"
    assert g.bracket(h, y) == vec_scale(y, GQ(-2)), "[h,y] != -2y"
    assert g.bracket(x, y) == h, "[x,y] != h"
    return Sl2Triplet(h, x, y, alpha, degree)


def root_string(rs: RootSystem, beta, alpha):
    """(p, q) with beta - p*alpha .. beta + q*alpha inside Delta ∪ {0};
    asserts p - q = 2<beta,alpha>/<alpha,alpha>."""
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
    assert p - q == expected, (
        f"root string identity fails: p={p} q={q} 2<b,a>/<a,a>={expected}"
    )
    return p, q


def reflect(rs: RootSystem, alpha, beta) -> tuple:
    """s_alpha(beta) = beta - 2<beta,alpha>/<alpha,alpha> alpha."""
    c = rs.cartan_number(beta, alpha)
    return tuple(b - c * a for b, a in zip(beta, alpha))


@dataclass
class WeylGroup:
    root_order: list  # fixed ordering of root vectors
    elements: list  # permutations of the root list, as tuples
    words: dict  # permutation -> list of generating root indices

    @property
    def order(self) -> int:
        return len(self.elements)


def weyl_group(rs: RootSystem) -> WeylGroup:
    """Closure of the reflections s_alpha as permutations of Delta."""
    order = [rd.alpha for rd in rs.roots]
    index = {a: i for i, a in enumerate(order)}
    gens = []
    for gi, alpha in enumerate(order):
        perm = []
        for beta in order:
            img = reflect(rs, alpha, beta)
            j = index.get(img)
            if j is None:
                raise AssertionError(
                    f"reflection s_{alpha} maps {beta} outside Delta"
                )
            perm.append(j)
        gens.append(tuple(perm))
    identity = tuple(range(len(order)))
    words = {identity: []}
    frontier = [identity]
    while frontier:
        new = []
        for w in frontier:
            for gi, gperm in enumerate(gens):
                nw = tuple(gperm[w[i]] for i in range(len(w)))
                if nw not in words:
                    words[nw] = words[w] + [gi]
                    new.append(nw)
        frontier = new
    return WeylGroup(order, sorted(words), words)


def default_order_key(alpha) -> int:
    """Lexicographic positivity: sign of the first nonzero coordinate."""
    for x in alpha:
        if x:
            return 1 if x > 0 else -1
    return 0


def positive_and_simple(rs: RootSystem, order=None) -> RootSystem:
    """Choose Delta+, the simple roots and rho.

    `order` is None for the dual-basis lexicographic rule, or an explicit
    rational functional vector; DegenerateOrder if some root evaluates to 0.
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
    posset = set(positive)
    simple = []
    for a in positive:
        decomposable = any(
            tuple(x - y for x, y in zip(a, b)) in posset for b in positive if b != a
        )
        if not decomposable:
            simple.append(a)
    simple.sort()
    # every positive root must be a nonnegative integer combination of simple
    for a in positive:
        coeffs = simple_root_coordinates(simple, a)
        assert coeffs is not None and all(
            c.denominator == 1 and c >= 0 for c in coeffs
        ), f"positive root {a} is not a nonnegative integer combination of simple roots"
    rank = len(rs.cartan.basis)
    rho = tuple(
        sum((a[i] for a in positive), Fraction(0)) / 2 for i in range(rank)
    )
    return replace(rs, positive=positive, simple=simple, rho=rho)


def simple_root_coordinates(simple, beta):
    """Coordinates of beta over the simple roots (exact solve), or None when
    beta is outside their rational span or the simple roots are dependent."""
    sb = SubspaceBasis()
    sb.extend({i: GQ(x) for i, x in enumerate(a) if x} for a in simple)
    coords = sb.coords({i: GQ(x) for i, x in enumerate(beta) if x})
    if coords is None or sb.dim < len(simple):
        return None
    return [coords.get(k, ZERO).re for k in range(len(simple))]


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


@dataclass
class EnhancedDynkin:
    simple: list  # simple roots, in canonical node order
    cartan_matrix: list  # integer matrix on simple roots
    dynkin_type: str  # "A5", "D5", ..., or "unclassified"
    node_degrees: list  # Degree per simple root


def cartan_matrix(rs: RootSystem, simple=None) -> list:
    simple = simple if simple is not None else rs.simple
    out = []
    for a in simple:
        row = []
        for b in simple:
            c = rs.cartan_number(a, b)
            assert c.denominator == 1, "Cartan number is not an integer"
            row.append(int(c))
        out.append(row)
    return out


def classify_dynkin(cm: list) -> str:
    """Match a Cartan matrix against the standard connected diagrams."""
    n = len(cm)
    if n == 0:
        return "unclassified"
    # sanity: diagonal 2, off-diagonal nonpositive, zero symmetry
    for i in range(n):
        if cm[i][i] != 2:
            return "unclassified"
        for j in range(n):
            if i != j and (cm[i][j] > 0 or (cm[i][j] == 0) != (cm[j][i] == 0)):
                return "unclassified"
    edges = {}
    for i in range(n):
        for j in range(i + 1, n):
            m = cm[i][j] * cm[j][i]
            if m:
                edges[(i, j)] = m
    # connectivity
    seen = {0}
    frontier = [0]
    adj = {i: [] for i in range(n)}
    for (i, j) in edges:
        adj[i].append(j)
        adj[j].append(i)
    while frontier:
        new = []
        for i in frontier:
            for j in adj[i]:
                if j not in seen:
                    seen.add(j)
                    new.append(j)
        frontier = new
    if len(seen) != n:
        return "unclassified"
    if len(edges) != n - 1:
        return "unclassified"  # diagrams are trees
    if n == 1:
        return "A1"
    mults = sorted(edges.values())
    degseq = sorted(len(adj[i]) for i in range(n))
    if mults[-1] == 1:
        # simply laced: A, D, E
        branch = [i for i in range(n) if len(adj[i]) > 2]
        if not branch:
            return f"A{n}"
        if len(branch) > 1 or len(adj[branch[0]]) != 3:
            return "unclassified"
        arms = sorted(_arm_lengths(adj, branch[0]))
        if n >= 4 and arms == [1, 1, n - 3]:
            return f"D{n}"
        if arms == [1, 2, 2] and n == 6:
            return "E6"
        if arms == [1, 2, 3] and n == 7:
            return "E7"
        if arms == [1, 2, 4] and n == 8:
            return "E8"
        return "unclassified"
    if mults[-1] == 3:
        return "G2" if n == 2 else "unclassified"
    if mults.count(2) != 1 or any(m > 2 for m in mults[:-1]):
        return "unclassified"
    if any(len(adj[i]) > 2 for i in range(n)):
        return "unclassified"
    # path with a single double edge: B, C or F4
    (di, dj) = next(k for k, m in edges.items() if m == 2)
    ends = [i for i in range(n) if len(adj[i]) == 1]
    if n == 2:
        return "B2"
    double_at_end = len(adj[di]) == 1 or len(adj[dj]) == 1
    if not double_at_end:
        return "F4" if n == 4 else "unclassified"
    # short root at the end -> B; long root at the end -> C
    end = di if len(adj[di]) == 1 else dj
    other = dj if end == di else di
    # cm[end][other] = -2 means the end root is short (B); -1 means long (C)
    return f"B{n}" if cm[other][end] == -2 else f"C{n}"


def _arm_lengths(adj, center):
    arms = []
    for start in adj[center]:
        length = 1
        prev, cur = center, start
        while len(adj[cur]) == 2:
            nxt = next(x for x in adj[cur] if x != prev)
            prev, cur = cur, nxt
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
