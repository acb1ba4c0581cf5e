import json

import pytest

from colorlie import serialize
from colorlie.families import SoParams, so_cartan_hint
from colorlie.reps import is_representation
from colorlie.roots import cartan_matrix, enhanced_dynkin, weyl_order


def test_algebra_round_trip(g4222):
    hint = so_cartan_hint(SoParams(4, 2, 2, 2))
    doc = serialize.algebra_to_json(g4222, cartan_hint=hint)
    text = json.dumps(doc)  # must be pure-JSON serializable
    back = serialize.algebra_from_json(json.loads(text))
    assert back.dim == g4222.dim
    assert back.degrees == g4222.degrees
    assert back.structure == g4222.structure
    assert back.labels == g4222.labels
    assert serialize.cartan_hint_from_json(json.loads(text), g4222.dim) == hint


def test_structure_records_are_rational_strings(g4222):
    doc = serialize.algebra_to_json(g4222)
    rec = doc["structure"][0]
    assert set(rec) == {"i", "j", "k", "re", "im"}
    assert isinstance(rec["re"], str) and isinstance(rec["im"], str)


def test_representation_round_trip(g4222, defn4222):
    doc = serialize.representation_to_json(defn4222, algebra_ref="so4222")
    back = serialize.representation_from_json(json.loads(json.dumps(doc)), g4222)
    assert back.dim == defn4222.dim
    assert back.matrices == defn4222.matrices
    assert back.grading == defn4222.grading
    assert is_representation(back).ok


def test_root_system_report(rs4222, g4222):
    ed = enhanced_dynkin(rs4222, g4222)
    doc = serialize.root_system_report(
        rs4222, enhanced=ed, weyl_order=weyl_order(cartan_matrix(rs4222)))
    json.dumps(doc)
    assert doc["rank"] == 5
    assert len(doc["roots"]) == 40
    assert doc["selfCentralizing"] is True
    assert doc["dynkinType"] == "D5"
    assert doc["weylOrder"] == 1920
    assert len(doc["positive"]) == 20 and len(doc["simple"]) == 5
    assert doc["rho"] == ["4", "3", "2", "1", "0"]


def test_root_system_report_zero_part(rs4211):
    doc = serialize.root_system_report(rs4211)
    assert doc["selfCentralizing"] is False
    assert doc["zeroPart"] == [{"degree": [0, 1], "dim": 1}]
    assert "dynkinType" not in doc


def test_decomposition_report(defn4222, rs4222):
    from colorlie.reps import decompose

    comps = decompose(defn4222, rs4222)
    doc = serialize.decomposition_report(comps)
    json.dumps(doc)
    assert doc["totalDim"] == 10
    c = doc["components"][0]
    assert c["highestWeight"] == ["1", "0", "0", "0", "0"]
    assert c["casimirValue"] == "9/16"


def test_dynkin_dot(rs4222, g4222):
    ed = enhanced_dynkin(rs4222, g4222)
    dot = serialize.dynkin_dot(ed)
    assert dot.startswith("graph dynkin {")
    assert dot.count(" -- ") == 4  # D5 tree has 4 edges
    for i, d in enumerate(ed.node_degrees):
        assert f'a{i + 1} [{d[0]}{d[1]}]' in dot


@pytest.mark.parametrize("key, value", [
    ("i", 2), ("j", -1), ("k", 7), ("k", True), ("k", "0")])
def test_algebra_from_json_rejects_bad_structure_index(key, value):
    rec = {"i": 0, "j": 1, "k": 0, "re": "1", "im": "0"}
    rec[key] = value
    doc = {"dim": 2, "degrees": [[0, 0], [0, 0]], "structure": [rec]}
    with pytest.raises(ValueError, match=f"structure index {key}="):
        serialize.algebra_from_json(doc)
