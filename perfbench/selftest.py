"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Builds genuine outputs with colorlie on the smaller inputs, shows that each
check in checks.py accepts them, then doctors them one way at a time and
shows that the check rejects every doctored copy.  Exits 1 if any genuine
output is rejected or any doctored one accepted.  Takes about 10 s.
"""
from __future__ import annotations

import contextlib
import copy
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORK = HERE.parent / ".bench_work" / "selftest"
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402

failures = []


def accepts(label, fn, *args):
    try:
        fn(*args)
    except checks.CheckFailed as e:
        failures.append(label)
        print(f"FAIL  genuine {label} rejected: {e}")
    else:
        print(f"ok    genuine {label} accepted")


def rejects(label, fn, *args):
    try:
        fn(*args)
    except checks.CheckFailed as e:
        print(f"ok    doctored {label} rejected: {e}")
    else:
        failures.append(label)
        print(f"FAIL  doctored {label} accepted")


def doctor(doc, edit):
    out = copy.deepcopy(doc)
    edit(out)
    return out


def cli(verb, stem):
    from colorlie import cli as colorlie_cli

    out = WORK / f"{verb}-{stem}.json"
    with contextlib.redirect_stderr(io.StringIO()):
        code = colorlie_cli.main([verb, str(WORK / f"{stem}.json"), "-o", str(out)])
    if code != 0:
        raise SystemExit(f"colorlie {verb} {stem} exited with {code}")
    return json.loads(out.read_text())


def test_validate():
    sizes = inputs.SO_INPUTS["so4211"]
    doc = json.loads((WORK / "so4211.json").read_text())
    rep = cli("validate", "so4211")
    accepts("validate so4211", checks.check_validate, rep, doc, sizes)

    def fail_line(r):
        r["axioms"][2] = "graded Jacobi: FAIL at (0,1,2)"

    for label, edit in [
        ("FAIL axiom line", fail_line),
        ("ok false", lambda r: r.update(ok=False)),
        ("killingRadicalDim 1", lambda r: r.update(killingRadicalDim=1)),
        ("basic false", lambda r: r.update(basic=False)),
        ("axiom line dropped", lambda r: r["axioms"].pop()),
    ]:
        rejects(f"validate: {label}", checks.check_validate, doctor(rep, edit), doc, sizes)
    small = doctor(doc, lambda d: d.update(dim=d["dim"] - 1))
    rejects("validate: input dim off by one", checks.check_validate, rep, small, sizes)


def test_roots():
    d5 = inputs.SO_INPUTS["so4222"]
    b3 = inputs.SO_INPUTS["so4211"]
    hinted = cli("roots", "so4222")
    short = cli("roots", "so4211")
    free = cli("roots", inputs.HINT_FREE)
    accepts("roots so4222", checks.check_roots, hinted, d5)
    accepts("roots so4211", checks.check_roots, short, b3)
    accepts("roots hint-free", checks.check_roots_hint_free, free, hinted, d5)

    def first_positive_scaled(r):
        r["positive"][0] = [str(2 * Fraction(x)) for x in r["positive"][0]]

    def add_edge(r):
        cm = r["cartanMatrix"]
        i, j = next((i, j) for i in range(len(cm)) for j in range(i + 1, len(cm))
                    if cm[i][j] == 0)
        cm[i][j] = cm[j][i] = -1

    def wrong_node_degree(r):
        r["nodeDegrees"][0] = [1 - r["nodeDegrees"][0][0], r["nodeDegrees"][0][1]]

    def wrong_root_degree(r):
        r["roots"][0]["dims"][0]["degree"] = [1 - x for x in r["roots"][0]["dims"][0]["degree"]]

    def cm_entry(r):
        r["cartanMatrix"][0][0] = 1

    for label, edit in [
        ("weylOrder off by one", lambda r: r.update(weylOrder=r["weylOrder"] + 1)),
        ("root dropped", lambda r: r["roots"].pop()),
        ("root degree changed", wrong_root_degree),
        ("rho changed", lambda r: r["rho"].__setitem__(0, "5")),
        ("positive root changed", first_positive_scaled),
        ("dynkinType D4", lambda r: r.update(dynkinType="D4")),
        ("cartanMatrix edge added", add_edge),
        ("cartanMatrix diagonal", cm_entry),
        ("node degree changed", wrong_node_degree),
        ("rank changed", lambda r: r.update(rank=4)),
    ]:
        rejects(f"roots so4222: {label}", checks.check_roots, doctor(hinted, edit), d5)

    def short_root_1dim(r):
        for root in r["roots"]:
            if root["dim"] == 2:
                root["dim"] = 1
                root["dims"].pop()
                return

    for label, edit in [
        ("weylOrder off by one", lambda r: r.update(weylOrder=47)),
        ("short root space 1-dim", short_root_1dim),
        ("zero part dropped", lambda r: r.update(zeroPart=[], selfCentralizing=True)),
    ]:
        rejects(f"roots so4211: {label}", checks.check_roots, doctor(short, edit), b3)

    for label, edit in [
        ("weylOrder off by one", lambda r: r.update(weylOrder=1921)),
        ("dynkinType A5", lambda r: r.update(dynkinType="A5")),
        ("root degree changed", wrong_root_degree),
        ("node degree changed", wrong_node_degree),
        ("rho changed", lambda r: r["rho"].__setitem__(0, "5")),
    ]:
        rejects(f"roots hint-free: {label}", checks.check_roots_hint_free,
                doctor(free, edit), hinted, d5)


def test_modules_and_decompose():
    from colorlie import decompose, grading_synthesis, is_representation, serialize

    mods = inputs.Modules()
    defining, tensor = mods.reps["defining"], mods.reps["tensor"]
    report = is_representation(defining)
    accepts("is_representation defining", checks.check_module_report, report.lines(), report.ok)
    bad = ["color homomorphism: FAIL at pair (0,1); pi([ei,ej]) != ...",
           "graded module: PASS"]
    rejects("is_representation: FAIL line", checks.check_module_report, bad, report.ok)
    rejects("is_representation: ok false", checks.check_module_report, report.lines(), False)

    m = len(mods.fixture.cartan_indices)
    comps = serialize.decomposition_report(decompose(tensor, mods.rs))
    accepts("decompose tensor", checks.check_components, comps, 100, [1, 45, 54], m)

    def casimir(r):
        r["components"][0]["casimirValue"] = "1/2"

    def drop(r):
        r["components"].pop()

    def weight(r):
        r["components"][-1]["highestWeight"][1] = "1"

    for label, edit in [
        ("one Casimir value changed", casimir),
        ("one component dropped", drop),
        ("highest weight changed", weight),
        ("totalDim changed", lambda r: r.update(totalDim=99)),
    ]:
        rejects(f"decompose tensor: {label}", checks.check_components,
                doctor(comps, edit), 100, [1, 45, 54], m)

    grading = grading_synthesis(defining, mods.rs)
    matrices = [checks.pair_rows(mat) for mat in defining.matrices]
    basis = checks.defining_weight_basis(m)
    args = (matrices, mods.algebra.degrees, mods.fixture.cartan_indices, basis)
    accepts("grading_synthesis defining", checks.check_grading, grading, *args)
    flipped = dict(grading)
    mu = max(flipped)
    flipped[mu] = checks.dadd(flipped[mu], (1, 0))
    rejects("grading_synthesis: one degree flipped", checks.check_grading, flipped, *args)
    shifted = {w: checks.dadd(d, (0, 1)) if w == min(grading) else d
               for w, d in grading.items()}
    rejects("grading_synthesis: another degree flipped", checks.check_grading, shifted, *args)


def main():
    inputs.write_algebras(WORK, with_fixture=True)
    test_validate()
    test_roots()
    test_modules_and_decompose()
    print(f"{len(failures)} failure(s)" if failures else "all checks accept genuine "
          "outputs and reject every doctored one")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
