"""The record classes: constructors, SoParams as a tuple, and the imports
that `colorlie` and `colorlie.cli` leave out."""
import copy
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from colorlie.algebra import AxiomReport, GradedAlgebra
from colorlie.families import Fixture, SoParams
from colorlie.linalg import SMat, unit_vec
from colorlie.reps import IrreducibleComponent, Representation, RepReport, WeightDecomposition
from colorlie.roots import (
    CartanSubalgebra,
    EnhancedDynkin,
    RootDatum,
    RootSystem,
    SimplicityVerdict,
    Sl2Triplet,
    WeylGroup,
    positive_and_simple,
    root_decomposition,
    validate_cartan,
)

SRC = Path(__file__).resolve().parent.parent / "src"


def _values(k):
    """k distinct stand-in field values."""
    return [object() for _ in range(k)]


# (class, field names in positional order, the defaults of the trailing
# fields that have one, a value per field)
RECORDS = [
    (AxiomReport, ("closure", "jacobi", "generators"), (None, None, None), _values(3)),
    (SoParams, ("p", "q", "r", "s"), (), [4, 2, 1, 1]),
    (Fixture, ("realization", "cartan_indices", "root_table", "zero_part"), (), _values(4)),
    (Representation, ("algebra", "dim", "matrices", "grading"), (None,),
     [GradedAlgebra([(0, 0)], {}), 2, [SMat(2, 2)], [(0, 1), (1, 0)]]),
    (RepReport, ("ok", "witness", "grading_witness"), (), _values(3)),
    (WeightDecomposition, ("weights", "spaces", "keys", "scale"), (), _values(4)),
    (IrreducibleComponent, ("highest_weight", "basis", "casimir_value", "degree_of_hw_space"),
     (None,), _values(4)),
    (CartanSubalgebra, ("basis", "gram"), (), _values(2)),
    (RootDatum, ("alpha", "spaces_by_degree"), (), _values(2)),
    (RootSystem, ("cartan", "roots", "zero_part", "gram_inv", "positive", "simple", "rho",
                  "_coroots", "_simple_inv"), (None,) * 5,
     [object(), [RootDatum((1,), {})], *_values(7)]),
    (Sl2Triplet, ("h", "x", "y", "alpha", "degree"), (), _values(5)),
    (WeylGroup, ("root_order", "elements", "words"), (), _values(3)),
    (EnhancedDynkin, ("simple", "cartan_matrix", "dynkin_type", "node_degrees"), (), _values(4)),
    (SimplicityVerdict, ("simple", "dynkin_type", "witness", "reason"), (), _values(4)),
]


@pytest.mark.parametrize("cls, names, defaults, values", RECORDS,
                         ids=[r[0].__name__ for r in RECORDS])
def test_record_constructors(cls, names, defaults, values):
    """Each record is built positionally, by keyword, and with its trailing
    fields left to their defaults, and reads back what it was given."""
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(names, values)))
    for record in (by_position, by_keyword):
        for name, value in zip(names, values):
            assert getattr(record, name) == value
    required = len(names) - len(defaults)
    short = cls(*values[:required])
    for name, value in zip(names, values[:required] + list(defaults)):
        assert getattr(short, name) == value


def test_so_params_is_an_immutable_tuple():
    params = SoParams(4, 2, 2, 2)
    assert params == (4, 2, 2, 2) and hash(params) == hash((4, 2, 2, 2))
    assert params.sizes == (4, 2, 2, 2) and params.total == 10
    for attr in ("p", "sizes", "other"):
        with pytest.raises(AttributeError):
            setattr(params, attr, 1)
    for clone in (copy.copy(params), pickle.loads(pickle.dumps(params))):
        assert type(clone) is SoParams and clone == params


def test_positive_and_simple_leaves_its_input(fx4222, g4222):
    t = validate_cartan(g4222, [unit_vec(i) for i in fx4222.cartan_indices])
    rs = root_decomposition(g4222, t)
    before = {k: (v, copy.copy(v) if isinstance(v, (list, dict)) else v)
              for k, v in vars(rs).items()}
    fixed = positive_and_simple(rs)
    assert fixed is not rs and fixed.simple and fixed.rho
    for k, (obj, shallow) in before.items():
        assert getattr(rs, k) is obj and getattr(rs, k) == shallow
    assert rs.positive is rs.simple is rs.rho is None
    with pytest.raises(ValueError):
        rs.pairings(fixed.simple[0])
    assert fixed.cartan is rs.cartan and fixed.roots is rs.roots
    assert all(fixed.datum(rd.alpha) is rd for rd in rs.roots)


HEAVY = ("dataclasses", "inspect", "ast", "dis", "tokenize")


@pytest.mark.parametrize("module", ["colorlie", "colorlie.cli"])
def test_import_leaves_heavy_modules_out(module):
    """Importing the package or the CLI loads none of HEAVY; -S keeps the
    interpreter's site start-up out of the count."""
    code = f"import sys, {module}; print([m for m in {HEAVY!r} if m in sys.modules])"
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         check=True, env={"PYTHONPATH": str(SRC)})
    assert out.stdout.strip() == "[]"
