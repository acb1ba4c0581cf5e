"""CLI outputs stay byte-identical on the golden inputs.

tests/golden/ holds the exact stdout of `colorlie generate` for so(4,2,1,1)
and so(4,2,2,2), of the verbs below run on those files, of hint-free
`roots` on the worked so(4,2,2,2) basis, and of `roots` on
so(2,2,2,2) + so(2,2,2,2).  Any change to
these bytes is a change of the CLI contract and must be made on purpose,
by regenerating the files and saying why.

It also holds four module inputs: the defining representation of
so(4,2,2,2) (module_so4222_defining.json, as representation_to_json writes
it), the same file with matrices 5 and 6 swapped, which is not a
representation, the defining module re-based by a dense unit-triangular
matrix with its grading dropped (module_so4222_defining_rebased.json), and
the defining module conjugated by a diagonal matrix with Gaussian-rational
entries, its grading kept (module_so4222_defining_rescaled.json), so that
its matrices have entries with denominators other than 1.

decompose_so4222.json pins the library's decomposition reports and
synthesized gradings on the modules of so(4,2,2,2), generated and on the
worked basis, and on the re-based defining module.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import rescaled

from colorlie import serialize
from colorlie.algebra import MatrixRealization, direct_sum, from_matrices
from colorlie.cli import main
from colorlie.families import SoParams, so_cartan_hint, so_pqrs
from colorlie.linalg import lincomb
from colorlie.scalars import MINUS_ONE, ONE

GOLDEN = Path(__file__).parent / "golden"


def stdout_of(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr().out
    assert code == 0
    return out.encode()


@pytest.mark.parametrize("name, pqrs", [
    ("so4211", (4, 2, 1, 1)),
    ("so4222", (4, 2, 2, 2)),
])
def test_generate(capsys, name, pqrs):
    p, q, r, s = pqrs
    out = stdout_of(capsys, "generate", "--family", "so",
                    "--p", p, "--q", q, "--r", r, "--s", s)
    assert out == (GOLDEN / f"generate_{name}.json").read_bytes()


@pytest.mark.parametrize("verb, name", [
    ("validate", "so4211"),
    ("validate", "so4222"),
    ("roots", "so4211"),
    ("roots", "so4222"),
])
def test_algebra_verb(capsys, verb, name):
    out = stdout_of(capsys, verb, GOLDEN / f"generate_{name}.json")
    assert out == (GOLDEN / f"{verb}_{name}.json").read_bytes()


def test_dynkin(capsys):
    alg = GOLDEN / "generate_so4222.json"
    assert stdout_of(capsys, "dynkin", alg) == (
        GOLDEN / "dynkin_so4222.json").read_bytes()
    assert stdout_of(capsys, "dynkin", alg, "--dot") == (
        GOLDEN / "dynkin_so4222.dot").read_bytes()


DEFINING = GOLDEN / "module_so4222_defining.json"
SWAPPED = GOLDEN / "module_so4222_defining_swap56.json"
REBASED = GOLDEN / "module_so4222_defining_rebased.json"
RESCALED = GOLDEN / "module_so4222_defining_rescaled.json"
# The change of basis P = 1 + L of the rebased module: the 45 entries of L
# below the diagonal, row by row.  The module is P^-1 pi(x) P with no grading;
# its Cartan operators leave no proper coordinate block invariant.
REBASE_DEFINING = "+-0+-+0-++-+0-+-+-0++-+-0+-+-+0-++-0+--+0+-+-"


def rebased_defining(rep):
    from colorlie.linalg import SMat, invert
    from colorlie.reps import Representation

    p = SMat.identity(rep.dim)
    entries = iter(REBASE_DEFINING)
    for r in range(rep.dim):
        for c in range(r):
            e = next(entries)
            if e != "0":
                p.rows[r][c] = {"+": ONE, "-": MINUS_ONE}[e]
    pinv = invert(p)
    return Representation(rep.algebra, rep.dim, [pinv @ m @ p for m in rep.matrices])


def test_module_inputs():
    """The committed module inputs are what the library writes for the
    defining representation, that file with matrices 5 and 6 swapped, the
    re-based defining representation and the rescaled one."""
    from colorlie.reps import defining_representation

    real = so_pqrs(SoParams(4, 2, 2, 2))
    defining = defining_representation(from_matrices(real), real)
    doc = serialize.representation_to_json(defining, "so4222")
    assert (json.dumps(doc) + "\n").encode() == DEFINING.read_bytes()
    m = doc["matrices"]
    m[5], m[6] = m[6], m[5]
    assert (json.dumps(doc) + "\n").encode() == SWAPPED.read_bytes()
    doc = serialize.representation_to_json(rebased_defining(defining), "so4222")
    assert (json.dumps(doc) + "\n").encode() == REBASED.read_bytes()
    doc = serialize.representation_to_json(rescaled(defining), "so4222")
    assert (json.dumps(doc) + "\n").encode() == RESCALED.read_bytes()


@pytest.mark.parametrize("verb", ["rep-decompose", "casimir"])
def test_module_verb(capsys, verb):
    out = stdout_of(capsys, verb, DEFINING, "--algebra", GOLDEN / "generate_so4222.json")
    golden = GOLDEN / f"{verb.replace('-', '_')}_so4222_defining.json"
    assert out == golden.read_bytes()


def test_rebased_module_verb(capsys):
    out = stdout_of(capsys, "rep-decompose", REBASED,
                    "--algebra", GOLDEN / "generate_so4222.json")
    assert out == (GOLDEN / "rep_decompose_so4222_defining_rebased.json").read_bytes()


@pytest.mark.parametrize("verb", ["rep-decompose", "casimir"])
def test_rescaled_module_verb(capsys, verb):
    """Both verbs certify the rescaled module, whose entries have
    denominators up to 15, and print their pinned reports."""
    out = stdout_of(capsys, verb, RESCALED, "--algebra", GOLDEN / "generate_so4222.json")
    golden = GOLDEN / f"{verb.replace('-', '_')}_so4222_defining_rescaled.json"
    assert out == golden.read_bytes()


def golden_modules():
    """{case: (module, root system)}: the defining, adjoint and tensor-square
    modules of so(4,2,2,2), generated with its Cartan hint ("so4222") and on
    the worked basis with its Cartan indices ("fx4222"), and the re-based
    defining module."""
    from colorlie.families import fixture_so4222
    from colorlie.linalg import unit_vec
    from colorlie.reps import adjoint_representation, defining_representation, tensor_product
    from colorlie.roots import positive_and_simple, root_decomposition, validate_cartan

    fx = fixture_so4222()
    params = SoParams(4, 2, 2, 2)
    algebras = {
        "so4222": (so_pqrs(params), so_cartan_hint(params)),
        "fx4222": (fx.realization, [unit_vec(i) for i in fx.cartan_indices]),
    }
    reps = {}
    for name, (real, hint) in algebras.items():
        g = from_matrices(real)
        rs = positive_and_simple(root_decomposition(g, validate_cartan(g, hint)))
        defining = defining_representation(g, real)
        reps[f"{name} defining"] = defining, rs
        reps[f"{name} adjoint"] = adjoint_representation(g), rs
        reps[f"{name} tensor"] = tensor_product(defining, defining), rs
    defining, rs = reps["so4222 defining"]
    reps["so4222 defining rebased"] = rebased_defining(defining), rs
    return reps


def library_reports():
    """{case: {"decomposition": decomposition_report, "grading": the
    grading_synthesis result as "weight : degree" lines in weight order}}
    on the modules of golden_modules."""
    from colorlie.reps import decompose, grading_synthesis

    return {
        name: {
            "decomposition": serialize.decomposition_report(decompose(rep, rs)),
            "grading": [" ".join(serialize._frac_vec(mu)) + " : %d %d" % d
                        for mu, d in sorted(grading_synthesis(rep, rs).items())],
        }
        for name, (rep, rs) in golden_modules().items()
    }


def test_library_reports():
    """Highest weights, dims, Casimir values, degreeOfHighestWeightSpace and
    synthesized gradings are those pinned in decompose_so4222.json."""
    got = json.dumps(library_reports(), indent=1, sort_keys=True) + "\n"
    assert got == (GOLDEN / "decompose_so4222.json").read_text()


@pytest.mark.parametrize("verb", ["rep-decompose", "casimir"])
def test_module_verb_rejects_non_representation(capsys, verb):
    """With matrices 5 and 6 swapped the module is no representation, yet
    decompose alone still finds one 10-dim component and a central Casimir.
    Both verbs certify the module first: exit 1, the failing pair on stderr,
    nothing on stdout."""
    code = main([verb, str(SWAPPED), "--algebra", str(GOLDEN / "generate_so4222.json")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == (
        f"{verb}: color homomorphism: FAIL at pair (9,5); "
        "pi([ei,ej]) != pi(ei)pi(ej) -/+ pi(ej)pi(ei)\n")


def test_library_decompose_rejects_non_representation():
    """decompose does not certify a representation, but on the swapped
    module some root vector maps a weight space outside the weight space
    it must land in, so no decomposition is returned."""
    from colorlie.errors import CertificateFailed
    from colorlie.reps import decompose
    from colorlie.roots import positive_and_simple, root_decomposition, validate_cartan

    doc = json.loads((GOLDEN / "generate_so4222.json").read_text())
    g = serialize.algebra_from_json(doc)
    t = validate_cartan(g, serialize.cartan_hint_from_json(doc, g.dim))
    rep = serialize.representation_from_json(json.loads(SWAPPED.read_text()), g)
    with pytest.raises(CertificateFailed, match="outside"):
        decompose(rep, positive_and_simple(root_decomposition(g, t)))


def test_roots_direct_sum(capsys, tmp_path):
    """`roots` on so(2,2,2,2) + so(2,2,2,2), with the two standard tori as
    cartanHint, reports a D4+D4 diagram and that the sum is not simple."""
    params = SoParams(2, 2, 2, 2)
    g = from_matrices(so_pqrs(params))
    hint = so_cartan_hint(params)
    hint += [{k + g.dim: v for k, v in h.items()} for h in hint]
    path = tmp_path / "so2222x2.json"
    path.write_text(json.dumps(serialize.algebra_to_json(direct_sum(g, g), cartan_hint=hint)))
    out = stdout_of(capsys, "roots", path)
    assert out == (GOLDEN / "roots_so2222x2.json").read_bytes()
    report = json.loads(out)
    assert (report["isSimple"], report["dynkinType"], report["weylOrder"]) == (
        False, "D4+D4", 36864)


@pytest.mark.parametrize("where, stderr", [
    ("first", "validate: graded Jacobi: FAIL at (0, 1, 4) lhs={} rhs={5: GQ(-1)}\n"),
    ("middle", "validate: graded Jacobi: FAIL at (1, 9, 29) lhs={} rhs={37: GQ(-1)}\n"),
    ("last", "validate: graded Jacobi: FAIL at (7, 41, 44) lhs={} rhs={8: GQ(-1)}\n"),
], ids=["first", "middle", "last"])
def test_validate_perturbed(capsys, tmp_path, where, stderr):
    """so(4,2,2,2) with 1 added to the real part of one structure record
    fails `validate` with a fixed report and witness."""
    doc = json.loads((GOLDEN / "generate_so4222.json").read_text())
    records = doc["structure"]
    record = records[{"first": 0, "middle": len(records) // 2, "last": -1}[where]]
    record["re"] = str(int(record["re"]) + 1)
    path = tmp_path / "perturbed.json"
    path.write_text(json.dumps(doc))
    code = main(["validate", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out.encode() == (
        GOLDEN / f"validate_so4222_perturbed_{where}.json").read_bytes()
    assert captured.err == stderr


@pytest.mark.parametrize("hashseed", ["0", "1", "2"])
def test_roots_unhinted(tmp_path, hashseed):
    """`roots` on the worked so(4,2,2,2) basis with no cartanHint goes through
    the greedy split-torus search, which keeps the basis vectors H1..H5; its
    stdout does not depend on string hashing."""
    from colorlie.algebra import from_matrices
    from colorlie.families import fixture_so4222

    path = tmp_path / "fx4222.json"
    path.write_text(json.dumps(
        serialize.algebra_to_json(from_matrices(fixture_so4222().realization))))
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONHASHSEED=hashseed,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-m", "colorlie.cli", "roots", str(path)],
                         capture_output=True, env=env)
    assert run.returncode == 0, run.stderr
    assert run.stdout == (GOLDEN / "roots_fx4222_unhinted.json").read_bytes()


# Invertible {-1, 0, 1} changes of the degree-(0,0) basis of so(4,2,1,1):
# row a (7 symbols, row-major) writes the new a-th even basis matrix in the
# old ones.  On each, the hint-free search runs out of basis vectors and
# e_i +- e_j with one vector kept, while the Cartan subalgebra (its
# centralizer in g^(0,0)) has dimension 3.
REBASES_SO4211 = [
    "-+-0-00" "0+0--0-" "00+-+00" "+-+-0--" "-++-0+-" "0+-+-00" "+-0-+-0",
    "0-0++--" "++0-+0+" "++0++-0" "0+0+0+-" "0-+00+-" "0++++0-" "0++--+0",
    "00+-0-0" "++++0+-" "-+---++" "-0+0+00" "0++++-0" "++-++-0" "-00++-+",
]
# The same encoding.  Here the search keeps i(e_1 - e_2), then a vector of
# the centralizer stage; no other basis vector of that first centralizer
# qualifies, so the third vector comes only from the centralizer recomputed
# after the second is kept.
REBASE_SO4211_RECOMPUTED = (
    "0-+00-+" "0--0+00" "+--0+-0" "00-0+0-" "---000-" "++--0-+" "0++-0-+"
)


@pytest.mark.parametrize("rebase", REBASES_SO4211 + [REBASE_SO4211_RECOMPUTED],
                         ids=["a", "b", "c", "recomputed"])
def test_roots_unhinted_rebased(capsys, tmp_path, rebase):
    """Hint-free `roots` on a re-based so(4,2,1,1) completes the torus from
    the kept vectors' centralizer and agrees with the hinted run."""
    real = so_pqrs(SoParams(4, 2, 1, 1))
    even = [i for i, d in enumerate(real.basis_degrees) if d == (0, 0)]
    assert len(rebase) == len(even) ** 2
    mats = list(real.matrices)
    for row, a in enumerate(even):
        coeffs = {b: {"+": ONE, "-": MINUS_ONE}[c]
                  for b, c in zip(even, rebase[row * len(even):]) if c != "0"}
        mats[a] = lincomb(real.matrices, coeffs, real.ambient_dim)
    g = from_matrices(MatrixRealization(real.block_sizes, real.block_degrees, mats))
    path = tmp_path / "rebased.json"
    path.write_text(json.dumps(serialize.algebra_to_json(g)))
    got = json.loads(stdout_of(capsys, "roots", path))
    hinted = json.loads((GOLDEN / "roots_so4211.json").read_bytes())
    for key in ("dynkinType", "weylOrder", "rank", "selfCentralizing", "zeroPart"):
        assert got.get(key) == hinted.get(key), key
    assert sorted(r["dim"] for r in got["roots"]) == sorted(
        r["dim"] for r in hinted["roots"])
