"""JSON input formats and output formatting."""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import pytest

from genrank.errors import BadScalar, InputError, UnknownField, ZeroSubspace
from genrank.fields import FieldSpec
from genrank.jsonio import (
    format_value,
    load_family,
    load_graph,
    load_json,
    load_r2,
    load_rk,
    parse_field,
    partition_to_json,
)
from genrank.partitions import Partition


def test_parse_field():
    assert parse_field("q") == FieldSpec.rationals()
    assert parse_field({"fp": 10007}) == FieldSpec.prime(10007)
    for bad in ("Q", "fp", {"fp": "7"}, {"fp": 7, "extra": 1}, 7, None):
        with pytest.raises(UnknownField):
            parse_field(bad)


def test_load_json_errors(tmp_path):
    with pytest.raises(InputError):
        load_json(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(InputError):
        load_json(str(bad))


def test_load_family():
    doc = {"field": "q", "ambient_dim": 3,
           "subspaces": [[[1, 0, 0], ["1/2", 1, 0]], [[0, 0, "5"]]]}
    family = load_family(doc)
    assert len(family) == 2
    assert family.field == FieldSpec.rationals()
    assert family[0].dim == 2 and family[1].dim == 1
    assert family[0].contains((Fraction(1, 2), Fraction(1), Fraction(0)))


def test_load_family_field_override():
    doc = {"field": "q", "ambient_dim": 2, "subspaces": [[[1, 1]]]}
    family = load_family(doc, FieldSpec.prime(7))
    assert family.field.p == 7


def test_load_family_errors():
    with pytest.raises(InputError):
        load_family({"field": "q", "subspaces": []})
    with pytest.raises(InputError):
        load_family({"field": "q", "ambient_dim": 0, "subspaces": []})
    with pytest.raises(InputError):
        load_family({"field": "q", "ambient_dim": 2, "subspaces": [[]]})
    with pytest.raises(InputError):
        load_family({"field": "q", "ambient_dim": 2, "subspaces": [[[1]]]})
    with pytest.raises(ZeroSubspace):
        load_family({"field": "q", "ambient_dim": 2, "subspaces": [[[0, 0]]]})
    with pytest.raises(BadScalar):
        load_family({"field": {"fp": 7}, "ambient_dim": 2, "subspaces": [[["1/2", 0]]]})


def test_load_r2():
    doc = {"field": {"fp": 10007}, "ambient_dim": 2,
           "rows": [{"u": [1, 0], "v": [0, 1]}]}
    inst = load_r2(doc)
    assert inst.field.p == 10007
    assert inst.order == 2 and inst.tensors == (((1, 0), (0, 1)),)
    with pytest.raises(InputError):
        load_r2({"field": "q", "ambient_dim": 2, "rows": [{"u": [1, 0]}]})


def test_load_rk():
    doc = {"field": "q", "ambient_dim": 3, "k": 2,
           "tensors": [[[1, 0, 0], [0, 1, 0]]]}
    inst = load_rk(doc)
    assert inst.order == 2 and len(inst.tensors) == 1
    with pytest.raises(InputError):
        load_rk({"field": "q", "ambient_dim": 3, "k": 2, "tensors": [[[1, 0, 0]]]})
    with pytest.raises(InputError):
        load_rk({"field": "q", "ambient_dim": 3, "k": "2", "tensors": []})


def test_load_graph():
    graph = load_graph({"n": 3, "edges": [[0, 1], [1, 2]]})
    assert graph.n == 3 and graph.edges == ((0, 1), (1, 2))
    with pytest.raises(InputError):
        load_graph({"n": 3, "edges": [[0]]})
    with pytest.raises(InputError):
        load_graph({"n": -1, "edges": []})
    with pytest.raises(InputError):
        load_graph({"edges": []})


def test_format_value():
    assert format_value(Fraction(3)) == "3"
    assert format_value(Fraction(-7, 2)) == "-7/2"
    assert format_value(Fraction(0)) == "0"


def test_partition_to_json():
    pi = Partition.from_blocks([[2], [0, 1]])
    assert partition_to_json(pi) == [[0, 1], [2]]
    assert json.dumps(partition_to_json(pi)) == "[[0, 1], [2]]"


def readme_input_documents():
    """The documents of the README's "Input documents" block, one per // comment."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("Input documents", 1)[1].split("```jsonc", 1)[1].split("```", 1)[0]
    docs, lines = [], []
    for line in block.strip().splitlines() + ["//"]:
        if line.startswith("//"):
            if lines:
                docs.append(json.loads(" ".join(lines)))
            lines = []
        elif line.strip():
            lines.append(line)
    return docs


def test_readme_input_documents_load():
    docs = readme_input_documents()
    loaders = {"subspaces": load_family, "rows": load_r2, "tensors": load_rk, "edges": load_graph}
    fields = set()
    for doc in docs:
        (key,) = [k for k in loaders if k in doc]
        loaded = loaders[key](doc)
        if "field" in doc:
            fields.add(loaded.field)
    assert len(docs) == 5
    assert fields == {FieldSpec.rationals(), FieldSpec.prime(10007)}
