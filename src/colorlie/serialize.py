"""JSON interchange formats and the DOT emitter.

All scalars serialize as exact rational strings "p/q"; Gaussian values as
pairs [re, im].  The algebra document optionally carries a `cartanHint`
extension (list of sparse vectors) so that generated files drive the root
pipeline deterministically.
"""
from __future__ import annotations

from fractions import Fraction

from .algebra import GradedAlgebra
from .linalg import SMat
from .scalars import gq_to_pair, pair_to_gq, rational_str


def _record(c, **index) -> dict:
    re, im = gq_to_pair(c)
    return {**index, "re": re, "im": im}


def _vec_to_records(v: dict):
    return [_record(c, k=k) for k, c in sorted(v.items())]


def _records_to_vec(records) -> dict:
    return {r["k"]: pair_to_gq((r["re"], r["im"])) for r in records}


def _check_index(what: str, record: dict, key: str, dim: int) -> None:
    x = record[key]
    if type(x) is not int or not 0 <= x < dim:
        raise ValueError(f"{what} index {key}={x!r} outside [0, {dim})")


# --------------------------------------------------------------------------
# algebras
# --------------------------------------------------------------------------

def algebra_to_json(g: GradedAlgebra, cartan_hint=None) -> dict:
    doc = {
        "dim": g.dim,
        "degrees": [list(d) for d in g.degrees],
        "structure": [_record(c, i=i, j=j, k=k) for (i, j) in sorted(g.structure)
                      for k, c in sorted(g.structure[(i, j)].items())],
    }
    if g.labels:
        doc["labels"] = list(g.labels)
    if cartan_hint is not None:
        doc["cartanHint"] = [_vec_to_records(v) for v in cartan_hint]
    return doc


def algebra_from_json(doc: dict) -> GradedAlgebra:
    dim = doc["dim"]
    degrees = [tuple(d) for d in doc["degrees"]]
    if len(degrees) != dim:
        raise ValueError("dim does not match the degrees array")
    structure: dict = {}
    for r in doc["structure"]:
        for key in "ijk":
            _check_index("structure", r, key, dim)
        structure.setdefault((r["i"], r["j"]), {})[r["k"]] = pair_to_gq(
            (r["re"], r["im"]))
    return GradedAlgebra(degrees, structure, labels=doc.get("labels"))


def cartan_hint_from_json(doc: dict, dim: int):
    hint = doc.get("cartanHint")
    if hint is None:
        return None
    for v in hint:
        for r in v:
            _check_index("cartanHint", r, "k", dim)
    return [_records_to_vec(v) for v in hint]


# --------------------------------------------------------------------------
# representations
# --------------------------------------------------------------------------

def _dense_matrix(m: SMat):
    return [[gq_to_pair(m.get(i, j)) for j in range(m.ncols)] for i in range(m.nrows)]


def _matrix_from_dense(rows) -> SMat:
    m = SMat(len(rows), len(rows[0]) if rows else 0)
    if any(len(row) != m.ncols for row in rows):
        raise ValueError("matrix rows differ in length")
    for i, row in enumerate(rows):
        for j, pair in enumerate(row):
            v = pair_to_gq(pair)
            if v:
                m.rows[i][j] = v
    return m


def representation_to_json(rep, algebra_ref: str = "") -> dict:
    doc = {
        "algebraRef": algebra_ref,
        "dim": rep.dim,
        "matrices": [_dense_matrix(m) for m in rep.matrices],
    }
    if rep.grading is not None:
        doc["grading"] = [list(d) for d in rep.grading]
    return doc


def representation_from_json(doc: dict, g: GradedAlgebra):
    from .reps import Representation

    if not isinstance(doc, dict):
        raise ValueError("module document is not a JSON object")
    grading = doc.get("grading")
    return Representation(
        g,
        doc["dim"],
        [_matrix_from_dense(rows) for rows in doc["matrices"]],
        grading=[tuple(d) for d in grading] if grading is not None else None,
    )


# --------------------------------------------------------------------------
# reports
# --------------------------------------------------------------------------

def _frac_vec(v):
    return [rational_str(Fraction(x)) for x in v]


def root_system_report(rs, enhanced=None, weyl_order=None, verdict=None) -> dict:
    """`simple` lists the simple roots in the node order of `enhanced` when
    it is given, the order of its `cartanMatrix` and `nodeDegrees`."""
    doc = {
        "rank": rs.rank,
        "roots": [
            {
                "alpha": _frac_vec(rd.alpha),
                "dims": [
                    {"degree": list(a), "dim": len(rd.spaces_by_degree[a])}
                    for a in rd.degrees()
                ],
                "dim": rd.dim,
            }
            for rd in rs.roots
        ],
        "zeroPart": [
            {"degree": list(a), "dim": len(v)} for a, v in sorted(rs.zero_part.items())
        ],
        "selfCentralizing": not rs.zero_part,
    }
    if rs.positive is not None:
        doc["positive"] = [_frac_vec(a) for a in rs.positive]
        nodes = rs.simple if enhanced is None else enhanced.simple
        doc["simple"] = [_frac_vec(a) for a in nodes]
        doc["rho"] = _frac_vec(rs.rho)
    if enhanced is not None:
        doc["cartanMatrix"] = [list(row) for row in enhanced.cartan_matrix]
        doc["dynkinType"] = enhanced.dynkin_type
        doc["nodeDegrees"] = [list(d) for d in enhanced.node_degrees]
    if weyl_order is not None:
        doc["weylOrder"] = weyl_order
    if verdict is not None:
        doc["isSimple"] = verdict.simple
    return doc


def enhanced_dynkin_report(ed) -> dict:
    return {
        "simple": [_frac_vec(a) for a in ed.simple],
        "cartanMatrix": [list(row) for row in ed.cartan_matrix],
        "dynkinType": ed.dynkin_type,
        "nodeDegrees": [list(d) for d in ed.node_degrees],
    }


def decomposition_report(components, tensor_convention: bool = False) -> dict:
    doc = {
        "components": [
            {
                "highestWeight": _frac_vec(c.highest_weight),
                "dim": c.dim,
                "casimirValue": rational_str(c.casimir_value),
                "degreeOfHighestWeightSpace": (
                    list(c.degree_of_hw_space)
                    if c.degree_of_hw_space is not None
                    else None
                ),
            }
            for c in components
        ],
        "totalDim": sum(c.dim for c in components),
    }
    if tensor_convention:
        doc["tensorConvention"] = (
            "x(v@w) = xv@w + (-1)^pairing(|x|,|v|) v@xw (artifact convention)"
        )
    return doc


def dynkin_dot(ed) -> str:
    """DOT graph: nodes "a<i> [a1a2]", edge multiplicity per the Cartan
    matrix convention (number of lines = c_ij * c_ji)."""
    lines = ["graph dynkin {"]
    n = len(ed.simple)
    for i in range(n):
        d = ed.node_degrees[i]
        lines.append(f'  n{i} [label="a{i + 1} [{d[0]}{d[1]}]"];')
    for i in range(n):
        for j in range(i + 1, n):
            m = ed.cartan_matrix[i][j] * ed.cartan_matrix[j][i]
            if m == 1:
                lines.append(f"  n{i} -- n{j};")
            elif m > 1:
                lines.append(f'  n{i} -- n{j} [label="{m}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
