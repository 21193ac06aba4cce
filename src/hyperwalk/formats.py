"""JSON documents for graphs, tensors, Kraus families, states, and reports.

Every document carries {"kind": ..., "version": "1", ...}.  Numeric constant
values are either JSON numbers or exact fraction strings "p/q"; exact values
survive a round trip unchanged, floats round-trip via repr (17 significant
digits).  Parsing runs the full invariant checks of the domain constructors.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, is_dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii

import numpy as np

from .errors import FormatError
from .graphs import PointedGraph, pointed_graph
from .hypergroups import (
    Hypergroup,
    Number,
    StructureTensor,
    derive_involution,
    structure_tensor,
)
from .oqrw import BlockState, KrausFamily, block_state, kraus_family

FORMAT_VERSION = "1"


# ---------------------------------------------------------------------------
# Scalar values.


def encode_value(value: Number):
    if isinstance(value, bool):
        raise FormatError(f"boolean is not a constant value: {value}")
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return int(value)
        return f"{value.numerator}/{value.denominator}"
    return float(value)


def decode_value(raw) -> Number:
    if isinstance(raw, bool):
        raise FormatError(f"boolean is not a constant value: {raw}")
    if isinstance(raw, int):
        return raw
    if isinstance(raw, float):
        return raw
    if isinstance(raw, str):
        try:
            if "/" in raw:
                num, den = raw.split("/", 1)
                return Fraction(int(num), int(den))
            return Fraction(int(raw))
        except (ValueError, ZeroDivisionError) as exc:
            raise FormatError(f"bad numeric literal {raw!r}: {exc}") from None
    raise FormatError(f"bad numeric literal {raw!r}")


def _load(text: str, kinds: tuple[str, ...]) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON: {exc.msg}", exc.lineno, exc.colno) from None
    if not isinstance(doc, dict):
        raise FormatError("document is not a JSON object")
    kind = doc.get("kind")
    if kind not in kinds:
        raise FormatError(f"expected kind in {kinds}, found {kind!r}")
    if doc.get("version") != FORMAT_VERSION:
        raise FormatError(f"unsupported format version {doc.get('version')!r}")
    return doc


def _require(doc: dict, field: str):
    if field not in doc:
        raise FormatError(f"missing field {field!r}")
    return doc[field]


def _count(doc: dict, field: str) -> int:
    """A size field: an integer >= 1, not a bool."""
    value = _require(doc, field)
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise FormatError(f"{field} must be an integer >= 1, got {value!r}")
    return value


def _indices(values, what: str, where) -> tuple[int, ...]:
    """Indices read from ``where``: integers, not bools, floats or strings."""
    if not all(isinstance(x, int) and not isinstance(x, bool) for x in values):
        raise FormatError(f"bad {what} indices in {where!r}")
    return tuple(values)


def _list(doc: dict, field: str) -> list:
    value = _require(doc, field)
    if not isinstance(value, list):
        raise FormatError(f"{field} must be a list, got {value!r}")
    return value


def _dump(doc: dict) -> str:
    """Indented JSON, as ``json.dumps(doc, indent=2)`` writes it, except that
    an array with no object below it stays on one line, as ``json.dumps``
    writes it compactly, when that line is at most 76 characters.  Object
    keys must be strings."""
    return _render(doc, "\n")[0] + "\n"


def _render(node, newline: str) -> tuple[str, bool]:
    """The text of ``node``, its inner lines opened by ``newline``, and
    whether that text is the one-line form.  One traversal decides both: an
    array is one line when every item is one line and the joined line fits."""
    inner = newline + "  "
    if isinstance(node, dict):
        if not node:
            return "{}", False
        items = [f"{encode_basestring_ascii(key)}: {_render(value, inner)[0]}"
                 for key, value in node.items()]
        return "{" + inner + ("," + inner).join(items) + newline + "}", False
    if not isinstance(node, (list, tuple)):
        return _scalar(node), True
    texts, flat = [], True
    for item in node:
        if isinstance(item, (dict, list, tuple)):
            text, item_flat = _render(item, inner)
            flat = flat and item_flat
        else:
            text = _scalar(item)
        texts.append(text)
    if flat:
        line = "[" + ", ".join(texts) + "]"
        if len(line) <= 76:
            return line, True
    return "[" + inner + ("," + inner).join(texts) + newline + "]", False


def _scalar(value) -> str:
    """A JSON scalar as ``json.dumps`` writes it; like ``json.dumps(...,
    allow_nan=False)``, refuses a non-finite float or any other type."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float) and math.isfinite(value):
        return float.__repr__(value)
    return json.dumps(value, allow_nan=False)  # raises ValueError or TypeError


# ---------------------------------------------------------------------------
# Graphs.


def serialize_graph(graph: PointedGraph) -> str:
    doc = {
        "kind": "graph",
        "version": FORMAT_VERSION,
        "vertices": list(graph.labels),
        "edges": [[graph.labels[u], graph.labels[v]] for u, v in graph.edges()],
        "base": graph.labels[graph.base],
    }
    if graph.window_radius is not None:
        doc["window_radius"] = graph.window_radius
    return _dump(doc)


def parse_graph(text: str) -> PointedGraph:
    doc = _load(text, ("graph",))
    labels = [str(v) for v in _list(doc, "vertices")]
    index = {label: i for i, label in enumerate(labels)}
    if len(index) != len(labels):
        raise FormatError("vertex labels are not unique")
    edges = []
    for edge in _list(doc, "edges"):
        if not isinstance(edge, (list, tuple)) or len(edge) != 2:
            raise FormatError(f"bad edge {edge!r}")
        a, b = str(edge[0]), str(edge[1])
        if a not in index or b not in index:
            raise FormatError(f"edge {edge!r} references unknown vertex")
        edges.append((index[a], index[b]))
    base = str(_require(doc, "base"))
    if base not in index:
        raise FormatError(f"base {base!r} is not a vertex")
    window = doc.get("window_radius")
    return pointed_graph(labels, edges, index[base], window_radius=window)


# ---------------------------------------------------------------------------
# Tensors and hypergroups.


def serialize_tensor(
    tensor: StructureTensor,
    involution=None,
    kind: str = "tensor",
) -> str:
    entries = [
        [i, j, k, encode_value(v)]
        for (i, j), row in tensor.rows.items()
        for k, v in row.items()
    ]
    doc = {
        "kind": kind,
        "version": FORMAT_VERSION,
        "size": tensor.size,
        "entries": entries,
    }
    if involution is not None:
        doc["involution"] = list(involution)
    if tensor.truncation_radius is not None:
        doc["truncation_radius"] = tensor.truncation_radius
    return _dump(doc)


def serialize_hypergroup(h: Hypergroup) -> str:
    return serialize_tensor(h.tensor, involution=h.involution, kind="hypergroup")


def tensor_and_involution(text: str) -> tuple[StructureTensor, tuple[int, ...] | None]:
    """A tensor/hypergroup document's tensor and its optional stored
    involution, decoded once."""
    doc = _load(text, ("tensor", "hypergroup"))
    size = _count(doc, "size")
    entries = []
    for entry in _list(doc, "entries"):
        if not isinstance(entry, (list, tuple)) or len(entry) != 4:
            raise FormatError(f"bad entry {entry!r}")
        i, j, k = _indices(entry[:3], "entry", entry)
        entries.append((i, j, k, decode_value(entry[3])))
    tensor = structure_tensor(size, entries, truncation_radius=doc.get("truncation_radius"))
    return tensor, _involution(doc)


def _involution(doc: dict) -> tuple[int, ...] | None:
    sigma = doc.get("involution")
    if sigma is None:
        return None
    if not isinstance(sigma, list) or not all(
        isinstance(s, int) and not isinstance(s, bool) for s in sigma
    ):
        raise FormatError(f"involution must be a list of integers, got {sigma!r}")
    return tuple(sigma)


def parse_tensor(text: str) -> StructureTensor:
    return tensor_and_involution(text)[0]


def stored_involution(text: str):
    """The optional involution list of a tensor/hypergroup document."""
    return _involution(_load(text, ("tensor", "hypergroup")))


def parse_hypergroup(text: str) -> Hypergroup:
    """Parse and fully validate; raises if the axioms fail."""
    tensor, sigma = tensor_and_involution(text)
    if sigma is None:
        sigma = derive_involution(tensor)
    return Hypergroup.build(tensor, sigma)


# ---------------------------------------------------------------------------
# Kraus families and states.


def _encode_matrix(matrix: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(matrix)]


def _decode_cell(cell) -> complex:
    """A matrix entry: a [re, im] pair of JSON numbers (not bools)."""
    if len(cell) != 2 or not all(
        isinstance(x, (int, float)) and not isinstance(x, bool) for x in cell
    ):
        raise ValueError(f"bad matrix cell {cell!r}")
    return complex(cell[0], cell[1])


def _decode_matrix(raw, where: str) -> np.ndarray:
    try:
        arr = np.asarray([[_decode_cell(cell) for cell in row] for row in raw])
    except (TypeError, ValueError, OverflowError):
        raise FormatError(f"bad matrix in {where}") from None
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise FormatError(f"matrix in {where} is not square")
    return arr


def serialize_kraus(family: KrausFamily) -> str:
    blocks = [
        {"i": i, "j": j, "k": k, "matrix": _encode_matrix(mat)}
        for (i, j, k), mat in sorted(family.blocks.items())
    ]
    doc = {
        "kind": "kraus",
        "version": FORMAT_VERSION,
        "d_size": family.d_size,
        "h_dim": family.h_dim,
        "blocks": blocks,
    }
    if family.truncation_radius is not None:
        doc["truncation_radius"] = family.truncation_radius
    return _dump(doc)


def parse_kraus(text: str) -> KrausFamily:
    doc = _load(text, ("kraus",))
    d_size = _count(doc, "d_size")
    h_dim = _count(doc, "h_dim")
    blocks = {}
    for block in _list(doc, "blocks"):
        if not isinstance(block, dict):
            raise FormatError(f"bad block {block!r}")
        key = _indices([block.get(c) for c in "ijk"], "block", block)
        if key in blocks:
            raise FormatError(f"duplicate block {key}")
        blocks[key] = _decode_matrix(block.get("matrix"), f"block {key}")
    return kraus_family(
        d_size, h_dim, blocks, truncation_radius=doc.get("truncation_radius")
    )


def serialize_state(state: BlockState) -> str:
    doc = {
        "kind": "state",
        "version": FORMAT_VERSION,
        "h_dim": state.h_dim,
        "blocks": [_encode_matrix(b) for b in state.blocks],
    }
    return _dump(doc)


def parse_state(text: str) -> BlockState:
    doc = _load(text, ("state",))
    h_dim = _count(doc, "h_dim")
    raw_blocks = _list(doc, "blocks")
    if not raw_blocks:
        raise FormatError("state has no blocks")
    blocks = [_decode_matrix(raw, f"state block {i}") for i, raw in enumerate(raw_blocks)]
    if any(b.shape != (h_dim, h_dim) for b in blocks):
        raise FormatError("state blocks disagree with h_dim")
    try:
        return block_state(blocks)
    except ValueError as exc:
        raise FormatError(f"invalid state: {exc}") from None


_SERIALIZERS = {
    PointedGraph: serialize_graph,
    StructureTensor: serialize_tensor,
    Hypergroup: serialize_hypergroup,
    KrausFamily: serialize_kraus,
    BlockState: serialize_state,
}


def serialize(obj) -> str:
    """The document of a graph, tensor, hypergroup, Kraus family or state."""
    return _SERIALIZERS[type(obj)](obj)


# ---------------------------------------------------------------------------
# Reports.


def _jsonable(value):
    """Plain JSON values; a non-finite float becomes the string "NaN",
    "Infinity" or "-Infinity", since JSON has no such numbers."""
    if isinstance(value, np.ndarray):
        return _jsonable(_encode_matrix(value) if value.ndim == 2 else [float(x) for x in value])
    if isinstance(value, (np.floating, np.integer)):
        value = value.item()
    if isinstance(value, float) and not math.isfinite(value):
        return "NaN" if math.isnan(value) else ("Infinity" if value > 0 else "-Infinity")
    if is_dataclass(value) and not isinstance(value, type):
        return {k: _jsonable(v) for k, v in asdict(value).items()}
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def report_document(check: str, payload) -> str:
    doc = {"kind": "report", "version": FORMAT_VERSION, "check": check}
    doc.update(_jsonable(payload))
    return _dump(doc)
