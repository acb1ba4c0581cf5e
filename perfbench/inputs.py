"""Benchmark inputs, built through colorlie's own constructors.

    python3 perfbench/inputs.py <workload> <workdir>

imports colorlie, builds the workload's inputs and, for the CLI workloads,
writes the algebra files into <workdir>.  run.py times this as the set-up.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# generated so(p,q,r,s) files with their cartanHint, by file stem
SO_INPUTS = {"so6222": (6, 2, 2, 2), "so4222": (4, 2, 2, 2), "so4211": (4, 2, 1, 1)}
# the worked so(4,2,2,2) basis, written without a hint
HINT_FREE = "fx4222"


def write_algebras(workdir, with_fixture):
    from colorlie import fixture_so4222, from_matrices, serialize, so_pqrs, SoParams
    from colorlie.families import so_cartan_hint

    docs = {}
    for stem, sizes in SO_INPUTS.items():
        params = SoParams(*sizes)
        g = from_matrices(so_pqrs(params))
        docs[stem] = serialize.algebra_to_json(g, cartan_hint=so_cartan_hint(params))
    if with_fixture:
        docs[HINT_FREE] = serialize.algebra_to_json(from_matrices(fixture_so4222().realization))
    workdir.mkdir(parents=True, exist_ok=True)
    for stem, doc in docs.items():
        (workdir / f"{stem}.json").write_text(json.dumps(doc, sort_keys=True))


class Modules:
    """so(4,2,2,2) on the worked basis, its root system with the fixture's
    Cartan, and the defining (10), adjoint (45) and tensor-square (100)
    modules."""

    def __init__(self):
        from colorlie import (
            adjoint_representation,
            defining_representation,
            fixture_so4222,
            from_matrices,
            positive_and_simple,
            root_decomposition,
            tensor_product,
            validate_cartan,
        )
        from colorlie.linalg import unit_vec

        self.fixture = fixture_so4222()
        self.algebra = from_matrices(self.fixture.realization)
        t = validate_cartan(self.algebra, [unit_vec(i) for i in self.fixture.cartan_indices])
        self.rs = positive_and_simple(root_decomposition(self.algebra, t))
        defining = defining_representation(self.algebra, self.fixture.realization)
        self.reps = {
            "defining": defining,
            "adjoint": adjoint_representation(self.algebra),
            "tensor": tensor_product(defining, defining),
        }


def build(workload, workdir):
    if workload in ("validate", "roots"):
        write_algebras(workdir, with_fixture=workload == "roots")
        return None
    return Modules()


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    build(sys.argv[1], Path(sys.argv[2]))
