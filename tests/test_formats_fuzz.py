"""Property tests: malformed documents never escape as a traceback, every
document is read as the frozen readers in ``tests/reference`` read it, and
every document is written as the frozen writer there wrote it.

Each case is a valid document edited at one to three random places (a value
replaced by random JSON, or a field or list item dropped), or random text.
Every ``parse_*`` function must return its object or raise an error that
``cli.main`` reports with exit code 2, and ``cli.main`` on a command reading
the document must return 0, 1 or 2.  The examples are derandomized (see the
``tier1`` profile in ``conftest.py``), so the suite is deterministic.
"""

from __future__ import annotations

import copy
import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hyperwalk import (
    BlockState,
    Hypergroup,
    HyperwalkError,
    KrausFamily,
    PointedGraph,
    StructureTensor,
    formats,
    presets,
    realize,
)
from hyperwalk.cli import main
from hyperwalk.graphs import build_spheres, check_condition_s, check_distance_regular
from hyperwalk.hypergroups import validate_hypergroup
from hyperwalk.verify import verify_corollary_2_6
from reference import formats_parse as frozen
from reference.formats_dump import _dump as reference_dump


def _document(name: str, *options) -> dict:
    build, names = presets.FIXTURES[name]
    defaults = {"n": 4, "d": 3, "radius": 3, "generators": 2, "x": 0.5,
                "h_dim": 1, "d_size": 2, "site": 0}
    defaults.update(options)
    return json.loads(formats.serialize(build(*(defaults[o] for o in names))))


# (parser, expected type, valid documents, command reading the document at
# {doc}, with the other documents it needs)
CASES = {
    "graph": (formats.parse_graph, PointedGraph,
              [_document("c4"), _document("free-ball", ("radius", 2))],
              ["check-graph", "--graph", "{doc}"]),
    "tensor": (formats.parse_tensor, StructureTensor,
               [_document("z3"), _document("z-lattice", ("radius", 3))],
               ["validate", "--tensor", "{doc}"]),
    "hypergroup": (formats.parse_hypergroup, Hypergroup,
                   [_document("c4-hypergroup"), _document("s3-classes")],
                   ["verify-c26", "--tensor", "{doc}", "--max-len", "1"]),
    "kraus": (formats.parse_kraus, KrausFamily,
              [_document("ex56"), _document("ex55")],
              ["verify-hb", "--kraus", "{doc}", "--tensor", "{z2}"]),
    "state": (formats.parse_state, BlockState,
              [_document("ex55-state"), _document("mixed-state", ("h_dim", 2))],
              ["walk", "--kraus", "{ex55}", "--state", "{doc}", "--word", "1"]),
}

KEYS = ["kind", "version", "size", "entries", "involution", "truncation_radius",
        "vertices", "edges", "base", "window_radius", "d_size", "h_dim", "blocks",
        "i", "j", "k", "matrix", "x"]
SCALARS = (st.none() | st.booleans() | st.integers(-2, 4) | st.floats()
           | st.sampled_from(["", "a", "0", "1/2", "1/0", "graph", "1"]))
JSON = st.recursive(
    SCALARS,
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.sampled_from(KEYS), inner, max_size=3)),
    max_leaves=8,
)
# Matrix cells that are not a [re, im] pair of numbers: bool parts, too
# short or too long.
BAD_CELLS = (
    st.lists(st.integers(-2, 4) | st.floats(allow_nan=False), min_size=3, max_size=4)
    | st.lists(st.integers(-2, 4) | st.floats(allow_nan=False) | st.booleans(), max_size=4)
    .filter(lambda cell: len(cell) != 2 or any(isinstance(x, bool) for x in cell))
)


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        children = node.items()
    else:
        children = enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _paths(child, prefix + (key,))


@st.composite
def edited(draw, documents):
    doc = copy.deepcopy(draw(st.sampled_from(documents)))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        if not path:
            doc = draw(JSON)
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.booleans()):
            parent[path[-1]] = draw(JSON | BAD_CELLS)
        else:
            del parent[path[-1]]
    return json.dumps(doc)


def _texts(documents):
    return edited(documents) | st.text(max_size=20)


# An index out of range of any fixture, a negative constant, non-finite ones.
OFFENDERS = st.sampled_from([-1, 7, math.nan, -math.inf])


@st.composite
def scalars_replaced(draw, documents):
    """A valid document with two to four scalars of its entries or blocks
    replaced by random ones, so that checks past the decoding (indices in
    range, finite, not negative) often see several offenders at once."""
    doc = copy.deepcopy(draw(st.sampled_from(documents)))
    leaves = [path for path in _paths(doc) if path and path[0] in ("entries", "blocks")
              and not isinstance(_at(doc, path), (dict, list))]
    for path in draw(st.lists(st.sampled_from(leaves), min_size=2, max_size=4)):
        _at(doc, path[:-1])[path[-1]] = draw(OFFENDERS | SCALARS)
    return json.dumps(doc)


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@pytest.fixture(scope="module")
def fixtures(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    paths = {}
    for name in ("z2", "ex55"):
        paths[name] = str(root / f"{name}.json")
        assert main(["gen", name, "--out", paths[name]]) == 0
    paths["doc"] = str(root / "doc.json")
    return paths


def _check(kind, text, fixtures, capsys):
    parse, expected, _, command = CASES[kind]
    try:
        parsed = parse(text)
    except (HyperwalkError, ValueError):
        parsed = None
    else:
        assert isinstance(parsed, expected)
    with open(fixtures["doc"], "w", encoding="utf-8") as fh:
        fh.write(text)
    code = main([part.format(**fixtures) for part in command])
    capsys.readouterr()
    assert code in (0, 1, 2)
    if parsed is None:
        assert code == 2


@pytest.mark.parametrize("kind", CASES)
def test_parsers_refuse_or_accept(kind, fixtures, capsys):
    @given(_texts(CASES[kind][2]))
    def run(text):
        _check(kind, text, fixtures, capsys)

    run()


# kind -> (the library's reader, the frozen reader it replaced)
READERS = {
    "tensor": (formats.tensor_and_involution, frozen.tensor_and_involution),
    "hypergroup": (formats.tensor_and_involution, frozen.tensor_and_involution),
    "kraus": (formats.parse_kraus, frozen.parse_kraus),
    "state": (formats.parse_state, frozen.parse_state),
}


def _bits(array: np.ndarray):
    """An array's dtype, shape and bits (its values, for Python objects)."""
    return array.dtype, array.shape, array.tolist() if array.dtype == object else array.tobytes()


def _read(read, text):
    """What a reader makes of ``text``: the fields of its object, bit for
    bit, or the type and message of its refusal."""
    try:
        value = read(text)
    except Exception as exc:  # any refusal, whatever its type, is compared
        return type(exc), str(exc)
    if isinstance(value, tuple):  # a tensor and its involution
        tensor, involution = value
        return (_bits(tensor.cube), tensor.denominator, tensor.truncation_radius, involution)
    if isinstance(value, KrausFamily):
        return _bits(value.array), value.truncation_radius
    return _bits(value.array), value._checked


@pytest.mark.parametrize("kind", READERS)
def test_readers_match_the_frozen_readers(kind):
    read, frozen_read = READERS[kind]

    @given(_texts(CASES[kind][2]) | scalars_replaced(CASES[kind][2]))
    def run(text):
        assert _read(read, text) == _read(frozen_read, text)

    run()


def _blocks_edited(at: int, plant):
    """A realized z-lattice(16) h2 Kraus document with one offender planted
    in its block at ``at`` by ``plant(blocks, at)``."""
    family, _ = realize(presets.zlattice_hypergroup(16), h_dim=2)
    doc = json.loads(formats.serialize_kraus(family))
    plant(doc["blocks"], at)
    return "kraus", json.dumps(doc)


def _bool_cell(blocks, at):
    blocks[at]["matrix"][0][0] = [True, 0.0]


def _float_index(blocks, at):
    blocks[at]["i"] = float(blocks[at]["i"])


def _duplicate_key(blocks, at):
    other = blocks[1 if at == 0 else 0]
    blocks[at].update(i=other["i"], j=other["j"], k=other["k"])


def _ragged_row(blocks, at):
    blocks[at]["matrix"][0].append([0.0, 0.0])


def _tensor_with_bad_last_entry():
    doc = json.loads(formats.serialize_hypergroup(presets.zlattice_hypergroup(32)))
    doc["entries"][-1] = doc["entries"][-1][:3] + ["1/0"]
    return "tensor", json.dumps(doc)


def _document_with(kind, **fields):
    return kind, json.dumps({"kind": kind, "version": "1", **fields})


LARGE_AND_EDGE = {
    **{f"{plant.__name__[1:]}-{where}": lambda plant=plant, at=at: _blocks_edited(at, plant)
       for plant in (_bool_cell, _float_index, _duplicate_key, _ragged_row)
       for where, at in (("first", 0), ("last", -1))},
    "tensor-bad-last-entry": _tensor_with_bad_last_entry,
    "kraus-no-blocks": lambda: _document_with("kraus", d_size=2, h_dim=1, blocks=[]),
    "state-two-sizes": lambda: _document_with(
        "state", h_dim=1,
        blocks=[[[[0.5, 0.0]]], [[[0.25, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.25, 0.0]]]]),
    "state-huge-part": lambda: _document_with(
        "state", h_dim=1, blocks=[[[[1.0, 0.0]]], [[[0.0, 10**400]]]]),
}


@pytest.mark.parametrize("case", LARGE_AND_EDGE)
def test_readers_match_the_frozen_readers_on_large_and_edge_documents(case):
    kind, text = LARGE_AND_EDGE[case]()
    read, frozen_read = READERS[kind]
    assert _read(read, text) == _read(frozen_read, text)


def _cells(doc, kind):
    matrices = [b["matrix"] for b in doc["blocks"]] if kind == "kraus" else doc["blocks"]
    return [(row, c) for matrix in matrices for row in matrix for c in range(len(row))]


@pytest.mark.parametrize("kind", ["kraus", "state"])
def test_bad_matrix_cells_are_refused(kind, fixtures, capsys):
    parse = CASES[kind][0]

    @given(st.data())
    def run(data):
        doc = copy.deepcopy(data.draw(st.sampled_from(CASES[kind][2])))
        row, c = data.draw(st.sampled_from(_cells(doc, kind)))
        row[c] = data.draw(BAD_CELLS)
        text = json.dumps(doc)
        with pytest.raises(formats.FormatError, match="bad matrix"):
            parse(text)
        _check(kind, text, fixtures, capsys)

    run()


# ---------------------------------------------------------------------------
# The document writer against the frozen one.


def _writer_cases():
    """Every ``gen`` fixture at its default options and at larger ones, and
    report documents of each payload shape the command line writes."""
    objects = []
    for options in ({}, {"n": 9, "d": 4, "radius": 6, "h_dim": 2, "d_size": 3, "site": 1}):
        defaults = {"n": 4, "d": 3, "radius": 3, "generators": 2, "x": 0.5,
                    "h_dim": 1, "d_size": 2, "site": 0, **options}
        for build, names in presets.FIXTURES.values():
            objects.append(formats.serialize(build(*(defaults[o] for o in names))))
    c4h, zl = presets.c4_hypergroup(), presets.zlattice_hypergroup(6)
    table = build_spheres(presets.c4_graph())
    validation = validate_hypergroup(zl.tensor, zl.involution)
    reports = [
        ("transition-products", verify_corollary_2_6(c4h, 2)),
        ("graph-symmetry", {"condition_s": check_condition_s(table),
                            "distance_regular": check_distance_regular(table),
                            "index_set": list(table.index_set), "passed": True}),
        ("hypergroup-axioms", {"passed": validation.passed, "checks": list(validation.checks),
                               "involution": list(zl.involution)}),
        ("walk", {"word": [1, 1], "distribution": np.array([0.25, 0.5, 0.25])}),
        ("demo", {"matrix": np.eye(3) / 3, "values": [math.nan, -math.inf, 1e-300]}),
    ]
    return objects, reports


def test_documents_match_the_frozen_writer(monkeypatch):
    objects, reports = _writer_cases()
    written = [*objects, *(formats.report_document(*r) for r in reports)]
    monkeypatch.setattr(formats, "_dump", reference_dump)
    assert written == [*objects, *(formats.report_document(*r) for r in reports)]


TEXT = st.text(st.characters(exclude_characters="\x00"), max_size=12)
WRITABLE = st.recursive(
    st.none() | st.booleans() | st.integers() | TEXT
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: (st.lists(inner, max_size=14) | st.tuples(inner, inner)
                   | st.dictionaries(TEXT, inner, max_size=4)),
    max_leaves=60,
)


@given(st.dictionaries(TEXT, WRITABLE, max_size=5))
def test_writer_matches_the_frozen_writer(doc):
    # The frozen writer marks one-line arrays with NUL-delimited strings, so
    # strings holding NUL are left out.
    assert formats._dump(doc) == reference_dump(doc)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("repeat", [1, 40])  # a one-line array, and a long one
def test_writer_refuses_non_finite_floats(value, repeat):
    for writer in (formats._dump, reference_dump):
        with pytest.raises(ValueError):
            writer({"values": [[value] * repeat]})
