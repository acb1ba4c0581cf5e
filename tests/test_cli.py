import io
import json

import pytest

from colorlie import serialize
from colorlie.algebra import GradedAlgebra
from colorlie.cli import main
from colorlie.scalars import GQ, ONE


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def alg_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "so4222.json"
    code = main(["generate", "--family", "so",
                 "--p", "4", "--q", "2", "--r", "2", "--s", "2",
                 "-o", str(path)])
    assert code == 0
    return path


@pytest.fixture(scope="module")
def rep_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "defining.json"
    # the CLI-generated algebra basis coincides with so_pqrs; express the
    # defining rep against it
    from colorlie.families import SoParams, so_pqrs
    from colorlie.reps import defining_representation
    from colorlie.algebra import from_matrices

    real = so_pqrs(SoParams(4, 2, 2, 2))
    g = from_matrices(real)
    rep = defining_representation(g, real)
    path.write_text(json.dumps(serialize.representation_to_json(rep, "so4222")))
    return path


def test_generate_and_validate(capsys, alg_file):
    code, out, err = run(capsys, "validate", str(alg_file))
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["basic"] is True
    assert doc["killingRadicalDim"] == 0


def test_generate_determinism(capsys, tmp_path):
    args = ["generate", "--family", "so", "--p", "4", "--q", "2", "--r", "1", "--s", "1"]
    code1 = main(args + ["-o", str(tmp_path / "a.json")])
    code2 = main(args + ["-o", str(tmp_path / "b.json")])
    assert code1 == code2 == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_roots_report(capsys, alg_file):
    code, out, err = run(capsys, "roots", str(alg_file))
    assert code == 0
    doc = json.loads(out)
    assert len(doc["roots"]) == 40
    assert doc["selfCentralizing"] is True
    assert doc["dynkinType"] == "D5"
    assert doc["weylOrder"] == 1920


def test_roots_so8222(capsys, tmp_path):
    """D7, |W| = 2^6 * 7!, without enumerating W."""
    path = tmp_path / "so8222.json"
    assert main(["generate", "--family", "so", "--p", "8", "--q", "2",
                 "--r", "2", "--s", "2", "-o", str(path)]) == 0
    code, out, err = run(capsys, "roots", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["dynkinType"] == "D7"
    assert doc["weylOrder"] == 322560


@pytest.mark.parametrize("sizes", [(4, 2, 2, 2), (4, 2, 1, 1), (6, 2, 2, 2)])
def test_roots_hint_free_matches_hinted(capsys, tmp_path, sizes):
    """Without cartanHint the split-torus search keeps i times the standard
    torus vectors, so stdout is the hinted run's, byte for byte."""
    path = tmp_path / "so.json"
    flags = [f"--{k}={v}" for k, v in zip("pqrs", sizes)]
    assert main(["generate", "--family", "so", *flags, "-o", str(path)]) == 0
    hinted = run(capsys, "roots", str(path))
    assert hinted[0] == 0
    doc = json.loads(path.read_text())
    del doc["cartanHint"]
    path.write_text(json.dumps(doc))
    assert run(capsys, "roots", str(path)) == hinted


def _write_algebra(tmp_path, g):
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(serialize.algebra_to_json(g)))
    return path


def test_roots_hint_free_needs_pairs(capsys, tmp_path):
    """sl2 on the basis {e + 2f, e, h + e + 2f}: no basis vector has a split
    ad, but the sum of the first two, 2e + 2f, does."""
    sl2 = GradedAlgebra([(0, 0)] * 3, {(0, 1): {0: GQ(2), 2: GQ(-2)},
                                       (0, 2): {0: GQ(2), 1: GQ(-4)},
                                       (1, 2): {0: GQ(-2), 1: GQ(-2), 2: GQ(2)}})
    code, out, err = run(capsys, "roots", str(_write_algebra(tmp_path, sl2)))
    assert code == 0, err
    doc = json.loads(out)
    assert doc["dynkinType"] == "A1"
    assert doc["weylOrder"] == 2


def test_roots_hint_free_fails_loudly(capsys, tmp_path):
    """The 3-dim Heisenberg algebra [e0, e1] = e2 has no Cartan subalgebra
    with nondegenerate Killing restriction: exit 1 with one line asking for a
    cartanHint."""
    heisenberg = GradedAlgebra([(0, 0)] * 3, {(0, 1): {2: ONE}})
    code, out, err = run(capsys, "roots", str(_write_algebra(tmp_path, heisenberg)))
    assert code == 1 and not out
    assert err.count("\n") == 1 and "Traceback" not in err
    assert "cartanHint" in err


def test_dynkin_json_and_dot(capsys, alg_file):
    code, out, _ = run(capsys, "dynkin", str(alg_file), "--enhanced")
    assert code == 0
    doc = json.loads(out)
    assert doc["dynkinType"] == "D5"
    assert sorted(map(tuple, doc["nodeDegrees"])) == [
        (0, 0), (0, 1), (0, 1), (0, 1), (1, 1)]
    code, out, _ = run(capsys, "dynkin", str(alg_file), "--dot")
    assert code == 0
    assert out.startswith("graph dynkin {")


def test_rep_decompose(capsys, alg_file, rep_file):
    code, out, _ = run(capsys, "rep-decompose", str(rep_file),
                       "--algebra", str(alg_file))
    assert code == 0
    doc = json.loads(out)
    assert doc["totalDim"] == 10
    assert doc["components"][0]["highestWeight"] == ["1", "0", "0", "0", "0"]


def test_casimir(capsys, alg_file, rep_file):
    code, out, _ = run(capsys, "casimir", str(rep_file),
                       "--algebra", str(alg_file))
    assert code == 0
    doc = json.loads(out)
    assert doc["central"] is True
    assert doc["components"][0]["casimirValue"] == "9/16"


def test_corrupted_structure_exits_1(capsys, alg_file, tmp_path):
    doc = json.loads(alg_file.read_text())
    doc["structure"][0]["re"] = "17/3"  # corrupt one structure constant
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, "validate", str(bad))
    assert code == 1
    assert "FAIL" in err


def test_parse_error_exits_2(capsys, tmp_path):
    bad = tmp_path / "notjson.json"
    bad.write_text("{nope")
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 2
    assert err


def test_missing_file_exits_2(capsys, tmp_path):
    code, _, err = run(capsys, "roots", str(tmp_path / "absent.json"))
    assert code == 2


def test_degenerate_order_exits_1(capsys, alg_file):
    code, _, err = run(capsys, "roots", str(alg_file),
                       "--order", "1,1,0,0,0")
    assert code == 1
    assert "vanishes" in err


@pytest.mark.parametrize("order", ["1/0,1,1,1,1", "1.5,1,1,1,1", "1e0,1,1,1,1",
                                   " 2 ,1,1,1,1", "1_0,1,1,1,1", "1,,1,1,1"])
def test_malformed_order_exits_2(capsys, alg_file, order):
    """Each --order part is read by the strict grammar of the JSON loaders,
    -?[0-9]+(/[0-9]+)?: a zero denominator, a decimal point, an exponent,
    spaces, an underscore or an empty part exit 2 with one stderr line."""
    code, out, err = run(capsys, "roots", str(alg_file), "--order", order)
    assert (code, out) == (2, "")
    assert err.startswith("roots: input error: ") and err.count("\n") == 1


def test_rational_order_accepted(capsys, alg_file):
    """Every root here has at most two nonzero coordinates, each +-1, so a
    strictly decreasing positive functional orders them lexicographically:
    given with a fraction, it prints the default report; negated, it picks
    the opposite positive system."""
    code, default, _ = run(capsys, "roots", str(alg_file))
    assert code == 0
    code, out, _ = run(capsys, "roots", str(alg_file), "--order", "16,8,4,2,2/3")
    assert code == 0 and out == default
    code, out, _ = run(capsys, "roots", str(alg_file), "--order=-16,-8,-4,-2,-2/3")
    assert code == 0 and out != default


@pytest.mark.parametrize("argv", [
    ["validate", "--seed", "1", "FILE"],
    ["generate", "--family", "so", "--p", "4", "--q", "2", "--r", "2", "--s", "2",
     "--order", "1"],
    ["roots", "--seed", "0", "FILE"],
])
def test_pipeline_flags_only_on_pipeline_verbs(capsys, alg_file, argv):
    """Only --order belongs to the verbs that build a root system; no verb
    takes --seed."""
    with pytest.raises(SystemExit) as e:
        main([str(alg_file) if a == "FILE" else a for a in argv])
    assert e.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("doc", [
    # structure index k out of range
    {"dim": 2, "degrees": [[0, 0], [0, 0]],
     "structure": [{"i": 0, "j": 1, "k": 7, "re": "1", "im": "0"}]},
    # JSON booleans as degree bits
    {"dim": 1, "degrees": [[True, False]], "structure": []},
    # a JSON boolean as a structure constant
    {"dim": 2, "degrees": [[0, 0], [0, 0]],
     "structure": [{"i": 0, "j": 1, "k": 1, "re": True, "im": "0"}]},
    # cartanHint index k out of range, and a JSON boolean as that index
    {"dim": 2, "degrees": [[0, 0], [0, 0]], "structure": [],
     "cartanHint": [[{"k": 7, "re": "1", "im": "0"}]]},
    {"dim": 2, "degrees": [[0, 0], [0, 0]], "structure": [],
     "cartanHint": [[{"k": True, "re": "1", "im": "0"}]]},
])
def test_malformed_algebra_exits_2(capsys, tmp_path, doc):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, "validate", str(bad))
    assert code == 2
    assert out == ""
    assert "input error" in err and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


def _long_row(doc):
    doc["matrices"][0][1].append(["1", "0"])  # row 1 one entry longer than row 0
    return doc


@pytest.mark.parametrize("verb", ["rep-decompose", "casimir"])
@pytest.mark.parametrize("edit, message", [
    (lambda doc: [1, 2], "module document is not a JSON object"),
    (_long_row, "matrix rows differ in length"),
], ids=["not-an-object", "long-row"])
def test_malformed_module_exits_2(capsys, alg_file, rep_file, tmp_path, edit, message, verb):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(edit(json.loads(rep_file.read_text()))))
    code, out, err = run(capsys, verb, str(bad), "--algebra", str(alg_file))
    assert code == 2
    assert out == ""
    assert err == f"{verb}: input error: {message}\n"


@pytest.mark.parametrize("where", ["structure", "cartanHint", "matrices"])
def test_zero_denominator_exits_2(capsys, alg_file, rep_file, tmp_path, where):
    """A rational "1/0" in an algebra structure record, a cartanHint record
    or a representation matrix entry is an input error, not a traceback."""
    bad = tmp_path / "bad.json"
    if where == "matrices":
        doc = json.loads(rep_file.read_text())
        doc["matrices"][0][0][0] = ["1/0", "0"]
        argv = ["rep-decompose", str(bad), "--algebra", str(alg_file)]
    else:
        doc = json.loads(alg_file.read_text())
        record = doc["structure"][0] if where == "structure" else doc["cartanHint"][0][0]
        record["re"] = "1/0"
        argv = ["roots", str(bad)]
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"{argv[0]}: input error: zero denominator in '1/0'\n"


@pytest.mark.parametrize("stdin", [False, True], ids=["file", "stdin"])
def test_deep_nesting_exits_2(capsys, monkeypatch, tmp_path, stdin):
    """JSON nested past the parser's recursion limit is an input error."""
    text = "[" * 100000 + "]" * 100000
    path = tmp_path / "deep.json"
    path.write_text(text)
    if stdin:
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, err = run(capsys, "validate", "-" if stdin else str(path))
    assert code == 2
    assert out == ""
    assert err == "validate: input error: JSON nested too deeply\n"
