"""Output checks for the benchmark, computed apart from colorlie.

Every expected value here comes from a closed form for the graded orthogonal
algebras so(p,q,r,s) with the standard torus, or from a property the method
must have (rho is half the sum of the positive roots, a Cartan matrix is
2<a,b>/<b,b>, Weyl's dimension formula, ...).  Nothing is compared against a
stored copy of the program's output.  Each check raises CheckFailed with the
reason; the self-test (selftest.py) shows that each one can fail.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction

# Z2 x Z2 degree of the space blocks B1..B4 of C^(p+q+r+s).
BLOCK_DEGREES = ((0, 0), (0, 1), (1, 0), (1, 1))


class CheckFailed(Exception):
    pass


def require(cond, msg):
    if not cond:
        raise CheckFailed(msg)


def dadd(a, b):
    return ((a[0] + b[0]) % 2, (a[1] + b[1]) % 2)


def frac_vec(strings):
    return tuple(Fraction(s) for s in strings)


def dot(x, y):
    return sum((a * b for a, b in zip(x, y)), Fraction(0))


def half_sum(roots, rank):
    return tuple(sum((a[i] for a in roots), Fraction(0)) / 2 for i in range(rank))


# --------------------------------------------------------------------------
# closed forms for so(p,q,r,s) with the standard torus
# --------------------------------------------------------------------------

class SoModel:
    """so(p,q,r,s) with the torus spanned by consecutive coordinate pairs in
    each block.  Coordinates are the pairs; m = sum(size // 2) of them; the
    k = #(odd blocks) unpaired coordinates give short roots +-e_i of
    multiplicity k (type B_m when k > 0, D_m otherwise) and a zero part
    so(k) of dimension k(k-1)/2."""

    def __init__(self, sizes):
        self.sizes = tuple(sizes)
        self.n = sum(sizes)
        self.pair_degree = [BLOCK_DEGREES[b] for b, s in enumerate(sizes)
                            for _ in range(s // 2)]
        self.m = len(self.pair_degree)
        self.odd_degrees = [BLOCK_DEGREES[b] for b, s in enumerate(sizes) if s % 2]
        self.k = len(self.odd_degrees)

    @property
    def dim(self):
        return self.n * (self.n - 1) // 2

    @property
    def type(self):
        return f"{'B' if self.k else 'D'}{self.m}"

    @property
    def weyl_order(self):
        m = self.m
        return 2 ** m * math.factorial(m) if self.k else 2 ** (m - 1) * math.factorial(m)

    def unit(self, entries):
        v = [Fraction(0)] * self.m
        for i, c in entries.items():
            v[i] = Fraction(c)
        return tuple(v)

    def roots(self):
        """{root: sorted list of the degrees of its root space}."""
        out = {}
        for i, j in itertools.combinations(range(self.m), 2):
            deg = dadd(self.pair_degree[i], self.pair_degree[j])
            for si, sj in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                out[self.unit({i: si, j: sj})] = [deg]
        if self.k:
            for i in range(self.m):
                degs = sorted(dadd(self.pair_degree[i], d) for d in self.odd_degrees)
                for s in (1, -1):
                    out[self.unit({i: s})] = degs
        return out

    def zero_part_dim(self):
        return self.k * (self.k - 1) // 2

    def degree_of(self, alpha):
        """Degree of the root space of +-e_i +- e_j (long roots only)."""
        deg = (0, 0)
        for i, c in enumerate(alpha):
            if c.denominator != 1:
                return None
            if int(c) % 2:
                deg = dadd(deg, self.pair_degree[i])
        return deg


def cartan_number(a, b):
    """2<a,b>/<b,b> in the Euclidean form."""
    return 2 * dot(a, b) / dot(b, b)


def classify(cm):
    """Type of a connected simply-laced Cartan matrix (A, D, E), else None."""
    n = len(cm)
    adj = [[j for j in range(n) if j != i and cm[i][j]] for i in range(n)]
    for i in range(n):
        if cm[i][i] != 2:
            return None
        for j in adj[i]:
            if cm[i][j] != -1 or cm[j][i] != -1:
                return None
    if sum(len(a) for a in adj) != 2 * (n - 1):
        return None
    seen, todo = {0}, [0]
    while todo:
        for j in adj[todo.pop()]:
            if j not in seen:
                seen.add(j)
                todo.append(j)
    if len(seen) != n:
        return None
    branch = [i for i in range(n) if len(adj[i]) >= 3]
    if not branch:
        return f"A{n}"
    if len(branch) != 1 or len(adj[branch[0]]) != 3:
        return None
    arms = []
    for start in adj[branch[0]]:
        length, prev, cur = 1, branch[0], start
        while len(adj[cur]) == 2:
            prev, cur = cur, next(x for x in adj[cur] if x != prev)
            length += 1
        arms.append(length)
    arms.sort()
    if arms[:2] == [1, 1]:
        return f"D{n}"
    if arms[:2] == [1, 2] and arms[2] in (2, 3, 4):
        return f"E{n}"
    return None


# --------------------------------------------------------------------------
# validate
# --------------------------------------------------------------------------

def check_validate(report, input_doc, sizes):
    n = sum(sizes)
    require(input_doc["dim"] == n * (n - 1) // 2,
            f"input dim {input_doc['dim']} != n(n-1)/2 = {n * (n - 1) // 2}")
    require(len(input_doc["degrees"]) == input_doc["dim"], "degrees do not match dim")
    require(report.get("ok") is True, "validate report is not ok")
    lines = report.get("axioms", [])
    require(len(lines) == 3 and all(line.endswith(": PASS") for line in lines),
            f"expected three PASS axiom lines, got {lines}")
    require(report.get("killingRadicalDim") == 0, "Killing radical is not zero")
    require(report.get("basic") is True, "algebra is not reported basic")


# --------------------------------------------------------------------------
# roots
# --------------------------------------------------------------------------

def _check_positive_system(report):
    roots = {frac_vec(r["alpha"]) for r in report["roots"]}
    positive = [frac_vec(a) for a in report["positive"]]
    pos = set(positive)
    require(len(pos) == len(positive) and 2 * len(pos) == len(roots),
            "positive roots are not half of the roots")
    for a in pos:
        require(a in roots and tuple(-x for x in a) in roots and
                tuple(-x for x in a) not in pos,
                f"positive root {a} has no negative partner")
    simple = [frac_vec(a) for a in report["simple"]]
    require(len(simple) == report["rank"] and set(simple) <= pos,
            "simple roots are not rank many positive roots")
    require(frac_vec(report["rho"]) == half_sum(positive, report["rank"]),
            "rho is not half the sum of the positive roots")
    return simple


def _match_nodes(report, simple, form, degree_of):
    """Find an order of the printed simple roots under which the printed
    cartanMatrix and nodeDegrees are recomputed exactly."""
    cm = report["cartanMatrix"]
    degs = [tuple(d) for d in report["nodeDegrees"]]
    n = len(simple)
    require(len(cm) == n and len(degs) == n, "Dynkin data has the wrong size")
    for perm in itertools.permutations(range(n)):
        nodes = [simple[p] for p in perm]
        if all(degree_of(a) == d for a, d in zip(nodes, degs)) and all(
            form(nodes[i], nodes[j]) == cm[i][j] for i in range(n) for j in range(n)
        ):
            return
    raise CheckFailed("cartanMatrix/nodeDegrees do not match the printed simple roots")


def check_roots(report, sizes):
    """A hinted `roots` report of so(sizes) against the closed forms."""
    model = SoModel(sizes)
    require(report["rank"] == model.m, f"rank {report['rank']} != {model.m}")
    expected = model.roots()
    printed = {}
    for r in report["roots"]:
        degs = sorted(tuple(d["degree"]) for d in r["dims"])
        require(r["dim"] == sum(d["dim"] for d in r["dims"]), "root dim != sum over degrees")
        require(all(d["dim"] == 1 for d in r["dims"]), "a degree piece is not 1-dim")
        printed[frac_vec(r["alpha"])] = degs
    require(len(printed) == len(expected),
            f"{len(printed)} roots, expected {len(expected)} for {model.type}")
    require(printed == expected, "roots or their degrees differ from the closed form")
    zero = sum(z["dim"] for z in report["zeroPart"])
    require(zero == model.zero_part_dim(), f"zero part dim {zero}")
    total = sum(r["dim"] for r in report["roots"]) + report["rank"] + zero
    require(total == model.dim, f"root dims + rank + zero part = {total} != {model.dim}")
    require(report["selfCentralizing"] == (zero == 0), "selfCentralizing flag is wrong")
    require(report["weylOrder"] == model.weyl_order,
            f"weylOrder {report['weylOrder']} != {model.weyl_order} for {model.type}")
    simple = _check_positive_system(report)
    if zero == 0:
        require(report["dynkinType"] == model.type,
                f"dynkinType {report['dynkinType']} != {model.type}")
        _match_nodes(report, simple, cartan_number, model.degree_of)
        require(classify(report["cartanMatrix"]) == model.type,
                "cartanMatrix is not of the expected type")
    else:
        require("cartanMatrix" not in report, "Dynkin data printed without a "
                "self-centralizing Cartan")


def root_degree_counts(report):
    counts = {}
    for r in report["roots"]:
        for d in r["dims"]:
            key = tuple(d["degree"])
            counts[key] = counts.get(key, 0) + d["dim"]
    return counts


def check_roots_hint_free(report, hinted_report, sizes):
    """so(sizes) in another basis with a searched Cartan: the coordinates
    are not Euclidean, so check what does not depend on them."""
    model = SoModel(sizes)
    require(report["rank"] == model.m, "wrong rank")
    require(len(report["roots"]) == len(model.roots()), "wrong number of roots")
    require(all(r["dim"] == 1 for r in report["roots"]), "a root space is not 1-dim")
    require(not report["zeroPart"], "zero part is not empty")
    require(report["dynkinType"] == model.type, f"dynkinType {report['dynkinType']}")
    require(classify(report["cartanMatrix"]) == model.type, "cartanMatrix type")
    require(report["weylOrder"] == model.weyl_order, f"weylOrder {report['weylOrder']}")
    # the number of root vectors in each degree is intrinsic to g
    require(root_degree_counts(report) == root_degree_counts(hinted_report),
            "root-space degrees differ from the hinted run")
    simple = _check_positive_system(report)
    degree = {frac_vec(r["alpha"]): tuple(r["dims"][0]["degree"]) for r in report["roots"]}
    # the node degrees are those of the simple root spaces; which node is
    # which simple root the report does not say, so compare as multisets
    require(sorted(map(tuple, report["nodeDegrees"])) == sorted(degree[a] for a in simple),
            "nodeDegrees are not the degrees of the simple roots")


# --------------------------------------------------------------------------
# modules
# --------------------------------------------------------------------------

def check_module_report(lines, ok):
    require(ok is True, "is_representation report is not ok")
    require(list(lines) == ["color homomorphism: PASS", "graded module: PASS"],
            f"unexpected report lines {list(lines)}")


# --------------------------------------------------------------------------
# decompose: D_m weight theory in the Euclidean form
# --------------------------------------------------------------------------

def d_positive_roots(m):
    out = []
    for i, j in itertools.combinations(range(m), 2):
        for s in (1, -1):
            v = [Fraction(0)] * m
            v[i], v[j] = Fraction(1), Fraction(s)
            out.append(tuple(v))
    return out


def weyl_dimension(lam, positive):
    rho = half_sum(positive, len(lam))
    shifted = tuple(x + r for x, r in zip(lam, rho))
    num = den = Fraction(1)
    for a in positive:
        num *= dot(shifted, a)
        den *= dot(rho, a)
    return num / den


def normalized_casimir(lam, positive):
    """<l, l+2rho> / <theta, theta+2rho> with theta the highest root."""
    rho = half_sum(positive, len(lam))
    theta = max(positive, key=lambda a: dot(a, rho))

    def c(x):
        return dot(x, tuple(a + 2 * r for a, r in zip(x, rho)))

    return c(lam) / c(theta)


def check_components(report, module_dim, expected_dims, m):
    """A decomposition report of a module of so(2m) (type D_m)."""
    positive = d_positive_roots(m)
    comps = report["components"]
    dims = sorted(c["dim"] for c in comps)
    require(dims == sorted(expected_dims), f"component dims {dims} != {sorted(expected_dims)}")
    require(report["totalDim"] == module_dim, f"totalDim {report['totalDim']} != {module_dim}")
    for c in comps:
        lam = frac_vec(c["highestWeight"])
        require(all(dot(lam, a) >= 0 and dot(lam, a).denominator == 1 for a in positive),
                f"highest weight {lam} is not dominant integral")
        require(weyl_dimension(lam, positive) == c["dim"],
                f"Weyl dimension of {lam} is {weyl_dimension(lam, positive)}, printed {c['dim']}")
        require(Fraction(c["casimirValue"]) == normalized_casimir(lam, positive),
                f"Casimir value {c['casimirValue']} != "
                f"{normalized_casimir(lam, positive)} for {lam}")


# --------------------------------------------------------------------------
# decompose: the synthesized grading, with Gaussian rationals as pairs
# --------------------------------------------------------------------------

def pair_rows(mat):
    """A colorlie SMat as sparse rows of (re, im) Fractions."""
    return [{c: (v.re, v.im) for c, v in row.items()} for row in mat.rows]


def _gmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _apply(mat, vec):
    """mat: list of sparse rows {col: (re, im)}; vec: {index: (re, im)}."""
    out = {}
    for r, row in enumerate(mat):
        acc_re = acc_im = Fraction(0)
        for c, v in row.items():
            x = vec.get(c)
            if x is not None:
                p = _gmul(v, x)
                acc_re += p[0]
                acc_im += p[1]
        if acc_re or acc_im:
            out[r] = (acc_re, acc_im)
    return out


def _eigenvalue(mat, vec):
    """lam with mat vec = lam vec and lam rational, else None."""
    img = _apply(mat, vec)
    c = next(iter(vec))
    x, y = vec[c], img.get(c, (Fraction(0), Fraction(0)))
    n = x[0] * x[0] + x[1] * x[1]
    lam = ((y[0] * x[0] + y[1] * x[1]) / n, (y[1] * x[0] - y[0] * x[1]) / n)
    if lam[1]:
        return None
    scaled = {i: _gmul(lam, v) for i, v in vec.items() if lam[0]}
    return lam[0] if img == scaled else None


def defining_weight_basis(m):
    """Weight vectors of C^(2m) under H_k = [[0, i], [-i, 0]] on pair k:
    e_2k - i e_2k+1 has weight +e_k, e_2k + i e_2k+1 has weight -e_k."""
    one = Fraction(1)
    out = []
    for k in range(m):
        for s in (1, -1):
            vec = {2 * k: (one, Fraction(0)), 2 * k + 1: (Fraction(0), Fraction(-s))}
            out.append(vec)
    return out


def tensor_weight_basis(basis, n):
    """v (x) w on the index p * n + q."""
    out = []
    for v in basis:
        for w in basis:
            out.append({p * n + q: _gmul(x, y) for p, x in v.items() for q, y in w.items()})
    return out


def check_grading(grading, matrices, algebra_degrees, cartan, weight_basis):
    """The graded-module condition for a synthesized {weight: degree}:
    pi(e_j) maps a weight vector of weight mu to one of weight nu, and then
    grading[nu] = deg(e_j) + grading[mu]."""

    def weight(vec):
        mu = tuple(_eigenvalue(matrices[h], vec) for h in cartan)
        require(all(x is not None for x in mu), "a vector is not a weight vector")
        return mu

    require(len(weight_basis) == len(matrices[0]), "weight basis does not span the module")
    weights = [weight(v) for v in weight_basis]
    require(set(weights) == set(grading), "graded weights differ from the module's weights")
    for v, mu in zip(weight_basis, weights):
        for j, mat in enumerate(matrices):
            w = _apply(mat, v)
            if not w:
                continue
            nu = weight(w)
            require(grading[nu] == dadd(tuple(algebra_degrees[j]), grading[mu]),
                    f"pi(e{j}) maps weight {mu} to {nu} against the grading")
