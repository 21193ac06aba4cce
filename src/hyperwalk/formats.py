"""JSON documents for graphs, tensors, Kraus families, states, and reports.

Every document carries {"kind": ..., "version": "1", ...}.  Numeric constant
values are either JSON numbers or exact fraction strings "p/q"; exact values
survive a round trip unchanged, floats round-trip via repr (17 significant
digits).  Parsing runs the full invariant checks of the domain constructors.
"""

from __future__ import annotations

import itertools
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
    tensor_from_columns,
)
from .oqrw import BlockState, KrausFamily, block_state, family_from_arrays

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
        write = _SCALARS.get(type(item))
        if write is not None:
            texts.append(write(item))
        elif isinstance(item, (dict, list, tuple)):
            text, item_flat = _render(item, inner)
            flat = flat and item_flat
            texts.append(text)
        else:
            texts.append(json.dumps(item, allow_nan=False))
    if flat:
        line = "[" + ", ".join(texts) + "]"
        if len(line) <= 76:
            return line, True
    return "[" + inner + ("," + inner).join(texts) + newline + "]", False


def _float_text(value: float) -> str:
    if math.isfinite(value):
        return float.__repr__(value)
    return json.dumps(value, allow_nan=False)  # raises ValueError


# The text of a scalar by its type, as ``json.dumps`` writes it.  Any other
# type goes to ``json.dumps(..., allow_nan=False)``, which writes a subclass
# of these as its base and refuses the rest.
_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _float_text,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _scalar(value) -> str:
    """A JSON scalar as ``json.dumps`` writes it; like ``json.dumps(...,
    allow_nan=False)``, refuses a non-finite float or any other type."""
    write = _SCALARS.get(type(value))
    return write(value) if write is not None else json.dumps(value, allow_nan=False)


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
    doc = {
        "kind": kind,
        "version": FORMAT_VERSION,
        "size": tensor.size,
        "entries": _encode_entries(tensor),
    }
    if involution is not None:
        doc["involution"] = list(involution)
    if tensor.truncation_radius is not None:
        doc["truncation_radius"] = tensor.truncation_radius
    return _dump(doc)


def _encode_entries(tensor: StructureTensor) -> list:
    """[i, j, k, value] for each nonzero stored constant, in (i, j, k) order,
    the value as ``encode_value`` writes it: exact numerators reduced
    against the denominator by one vectorized gcd."""
    cube = tensor.cube
    i, j, k = np.nonzero((cube != 0) & tensor.domain[:, :, None])
    values = cube[i, j, k]
    if tensor.is_exact:
        if values.dtype == object or tensor.denominator >= 2**63:
            values = values.astype(object)
        common = np.gcd(values, tensor.denominator)
        values = [num if den == 1 else f"{num}/{den}" for num, den in
                  zip((values // common).tolist(), (tensor.denominator // common).tolist())]
    else:
        values = values.tolist()
    return list(map(list, zip(i.tolist(), j.tolist(), k.tolist(), values)))


def serialize_hypergroup(h: Hypergroup) -> str:
    return serialize_tensor(h.tensor, involution=h.involution, kind="hypergroup")


def tensor_and_involution(text: str) -> tuple[StructureTensor, tuple[int, ...] | None]:
    """A tensor/hypergroup document's tensor and its optional stored
    involution, decoded once."""
    doc = _load(text, ("tensor", "hypergroup"))
    size = _count(doc, "size")
    entries = _list(doc, "entries")
    values = None
    if set(map(type, entries)) <= {list} and set(map(len, entries)) <= {4}:
        i, j, k, raw = tuple(zip(*entries)) or ((),) * 4
        if set(map(type, itertools.chain(i, j, k))) <= {int}:
            values = _decode_values(raw)
    if values is None:
        i, j, k, values = _read_entries(entries)
    tensor = tensor_from_columns(size, (i, j, k), values,
                                 truncation_radius=doc.get("truncation_radius"))
    return tensor, _involution(doc)


def _decode_values(raw) -> list | None:
    """JSON values as ``decode_value`` reads them, each distinct string once;
    None if one is not a constant."""
    kinds = set(map(type, raw))
    if not kinds <= {int, float, str}:
        return None
    fractions = {}
    for value in set(raw) if str in kinds else ():
        if type(value) is str:
            try:
                fractions[value] = decode_value(value)
            except FormatError:
                return None
    return list(map(fractions.get, raw, raw))


def _read_entries(entries: list) -> tuple:
    """The columns i, j, k and the values of tensor ``entries``, read one
    entry at a time; refuses the first that is not a list of three integer
    indices and a constant ``decode_value`` reads."""
    read = []
    for entry in entries:
        if not isinstance(entry, list) or len(entry) != 4:
            raise FormatError(f"bad entry {entry!r}")
        if not set(map(type, entry[:3])) <= {int}:
            raise FormatError(f"bad entry indices in {entry!r}")
        read.append((*entry[:3], decode_value(entry[3])))
    return tuple(zip(*read)) or ((),) * 4


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


def _encode_cells(array: np.ndarray) -> list:
    """An array of matrix entries as nested lists ending in [re, im] pairs of
    floats, by one ``tolist``."""
    array = np.asarray(array)
    return np.stack((array.real, array.imag), axis=-1).astype(float, copy=False).tolist()


def _decode_matrices(raw: list) -> np.ndarray | None:
    """Square matrices of [re, im] cells as one (n, s, s) complex array, when
    the types and lengths each nesting level holds show that every matrix is
    s >= 1 lists of s pairs of JSON numbers (not bools), s the same for all,
    and every number fits a float; None otherwise."""
    sizes = set(map(len, raw)) if set(map(type, raw)) <= {list} else set()
    if len(sizes) != 1 or 0 in sizes:
        return None
    level = raw
    for length in (*sizes, 2):  # the rows of a matrix, then the cells of a row
        level = list(itertools.chain.from_iterable(level))
        if not (set(map(type, level)) <= {list} and set(map(len, level)) <= {length}):
            return None
    parts = list(itertools.chain.from_iterable(level))
    if not set(map(type, parts)) <= {int, float}:
        return None
    try:
        values = np.array(parts, dtype=float)
    except OverflowError:  # an int past the float range
        return None
    return values.view(complex).reshape(len(raw), *sizes, *sizes)


def _decode_cell(cell) -> complex:
    """A matrix entry: a [re, im] pair of JSON numbers (not bools)."""
    if len(cell) != 2 or not set(map(type, cell)) <= {int, float}:
        raise ValueError(f"bad matrix cell {cell!r}")
    return complex(*cell)


def _decode_matrix(raw, where: str) -> np.ndarray:
    """One matrix, read a cell at a time; refused as bad (it, a row or a cell
    malformed, or a part past the float range) or as not square."""
    try:
        arr = np.asarray([[_decode_cell(cell) for cell in row] for row in raw])
    except (TypeError, ValueError, OverflowError):
        raise FormatError(f"bad matrix in {where}") from None
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise FormatError(f"matrix in {where} is not square")
    return arr


def serialize_kraus(family: KrausFamily) -> str:
    k, i, j, matrices = family._nonzero
    blocks = [{"i": a, "j": b, "k": c, "matrix": matrix} for a, b, c, matrix in
              zip(i.tolist(), j.tolist(), k.tolist(), _encode_cells(matrices))]
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
    """A Kraus document's family.  A document whose blocks are objects with
    integer indices, no key twice, and matrices ``_decode_matrices`` reads is
    read a whole array at a time; any other one block at a time."""
    doc = _load(text, ("kraus",))
    d_size = _count(doc, "d_size")
    h_dim = _count(doc, "h_dim")
    blocks = _list(doc, "blocks")
    matrices = None
    if set(map(type, blocks)) <= {dict}:
        index = [list(map(dict.get, blocks, itertools.repeat(c))) for c in "ijk"]
        if (set(map(type, itertools.chain(*index))) <= {int}
                and len(set(zip(*index))) == len(blocks)):
            matrices = _decode_matrices(list(map(dict.get, blocks, itertools.repeat("matrix"))))
    if matrices is None:
        index, matrices = _read_blocks(blocks)
    return family_from_arrays(d_size, h_dim, index, matrices,
                              truncation_radius=doc.get("truncation_radius"))


def _read_blocks(blocks: list) -> tuple[list, list]:
    """The index columns i, j, k and the matrices of Kraus ``blocks``, read
    one block at a time; refuses the first that is not an object with
    integer indices, repeats a key, or holds a malformed matrix."""
    matrices = {}
    for block in blocks:
        if not isinstance(block, dict):
            raise FormatError(f"bad block {block!r}")
        key = tuple(block.get(c) for c in "ijk")
        if not set(map(type, key)) <= {int}:
            raise FormatError(f"bad block indices in {block!r}")
        if key in matrices:
            raise FormatError(f"duplicate block {key}")
        matrices[key] = _decode_matrix(block.get("matrix"), f"block {key}")
    return list(zip(*matrices)), list(matrices.values())


def serialize_state(state: BlockState) -> str:
    doc = {
        "kind": "state",
        "version": FORMAT_VERSION,
        "h_dim": state.h_dim,
        "blocks": _encode_cells(state.array),
    }
    return _dump(doc)


def parse_state(text: str) -> BlockState:
    """A state document's state, its blocks read a whole array at a time
    when ``_decode_matrices`` reads them, one block at a time otherwise."""
    doc = _load(text, ("state",))
    h_dim = _count(doc, "h_dim")
    raw = _list(doc, "blocks")
    if not raw:
        raise FormatError("state has no blocks")
    blocks = _decode_matrices(raw)
    if blocks is None:
        blocks = [_decode_matrix(matrix, f"state block {n}") for n, matrix in enumerate(raw)]
    if set(map(np.shape, blocks)) != {(h_dim, h_dim)}:
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
        return _jsonable(_encode_cells(value) if value.ndim == 2 else [float(x) for x in value])
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
