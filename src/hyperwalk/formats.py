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
from operator import length_hint

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


def _of_type(items, kinds: set) -> np.ndarray:
    """Per item, whether its type is one of ``kinds`` (a bool is not an int)."""
    found = set(map(type, items))
    if found <= kinds or not found & kinds:
        return np.full(len(items), found <= kinds)
    return np.fromiter(map(kinds.__contains__, map(type, items)), bool, len(items))


def _lengths(items) -> np.ndarray:
    """Per item, how many items iterating it yields: a list its items, a
    string its characters, an object its keys; -1 for any other value."""
    return np.fromiter(map(length_hint, items, itertools.repeat(-1)), np.intp, len(items))


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
        _refuse_entries(entries)
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


def _refuse_entries(entries: list) -> None:
    """Raise the refusal of the first entry that is not a list of three
    integer indices and a constant ``decode_value`` reads, as a loop over
    the entries would, from one mask per check."""
    listed = _of_type(entries, {list}) & (_lengths(entries) == 4)
    i, j, k, raw = tuple(zip(*itertools.compress(entries, listed))) or ((),) * 4
    indexed = _of_type(i, {int}) & _of_type(j, {int}) & _of_type(k, {int})
    valued = _of_type(raw, {int, float})
    strings = _of_type(raw, {str})
    read = {text for text in set(itertools.compress(raw, strings))
            if _decode_values([text]) is not None}
    valued[strings] = np.fromiter(map(read.__contains__, itertools.compress(raw, strings)),
                                  bool, np.count_nonzero(strings))
    refused = ~listed
    refused[listed] = ~(indexed & valued)
    first = int(np.argmax(refused))
    entry = entries[first]
    if not listed[first]:
        raise FormatError(f"bad entry {entry!r}")
    if not indexed[np.count_nonzero(listed[:first])]:
        raise FormatError(f"bad entry indices in {entry!r}")
    decode_value(entry[3])  # raises its refusal


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


def _decode_matrices(raw: list) -> tuple[np.ndarray, np.ndarray | None]:
    """Square matrices of [re, im] cells: per matrix its number of rows if
    every row has that many cells, 0 if not, and -1 if it is malformed (it,
    a row or a cell not iterable, a cell not a pair of JSON numbers, not
    bools, a part too large for a float, or rows of different lengths); and
    the entries of all of them, in order, as complex numbers when none is
    malformed.  The common case is checked by the types and lengths each
    nesting level holds, any other a level at a time with ``_lengths``."""
    n = len(raw)
    if set(map(type, raw)) <= {list} and len(sizes := set(map(len, raw))) == 1:
        # Every matrix a list of as many rows, each a list of as many [re,
        # im] lists of JSON numbers.
        rows = list(itertools.chain.from_iterable(raw))
        if set(map(type, rows)) <= {list} and set(map(len, rows)) <= sizes:
            cells = list(itertools.chain.from_iterable(rows))
            if set(map(type, cells)) <= {list} and set(map(len, cells)) <= {2}:
                parts = list(itertools.chain.from_iterable(cells))
                if set(map(type, parts)) <= {int, float}:
                    try:
                        values = np.array(parts, dtype=float)
                    except OverflowError:
                        pass
                    else:
                        return np.full(n, sizes.pop()), values.view(complex)
    counts = _lengths(raw)  # rows per matrix
    rows = list(itertools.chain.from_iterable(itertools.compress(raw, counts >= 0)))
    row_of = np.repeat(np.arange(n), np.maximum(counts, 0))
    widths = _lengths(rows)
    cells = list(itertools.chain.from_iterable(itertools.compress(rows, widths >= 0)))
    cell_of = np.repeat(row_of, np.maximum(widths, 0))
    paired = _lengths(cells) == 2
    parts = list(itertools.chain.from_iterable(itertools.compress(cells, paired)))
    numeric = _of_type(parts, {int, float})
    numbers = list(itertools.compress(parts, numeric))
    try:
        values = np.array(numbers, dtype=float)
    except OverflowError:  # complex() refuses an int past the float range
        huge = _of_type(numbers, {int}) & (np.abs(np.array(numbers, dtype=object)) >= _TOO_LARGE)
        numeric[np.flatnonzero(numeric)[huge]] = False
        values = None
    first_row = np.cumsum(np.maximum(counts, 0)) - np.maximum(counts, 0)
    malformed = np.zeros(n, dtype=bool)
    malformed[counts < 0] = True
    malformed[row_of[(widths < 0) | (widths != widths[first_row[row_of]])]] = True
    malformed[cell_of[~paired]] = True
    malformed[np.repeat(cell_of[paired], 2)[~numeric]] = True
    size = np.where(malformed, -1, counts)
    has_rows = size > 0
    size[has_rows] *= widths[first_row[has_rows]] == size[has_rows]
    return size, (None if malformed.any() else values.view(complex))


# The least int that ``float`` refuses: 2**1024 less half a unit in the last
# place of the largest float rounds up to 2**1024.
_TOO_LARGE = 2**1024 - 2**970


def _matrix_refusal(size: int, where: str) -> FormatError:
    """The refusal of a matrix ``_decode_matrices`` sized below 1."""
    if size < 0:
        return FormatError(f"bad matrix in {where}")
    return FormatError(f"matrix in {where} is not square")


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
    """A Kraus document's family.  Each check runs on every block at once; a
    refusal names the first block that fails one (an object, integer
    indices, not a repeat, a square matrix), as a loop would."""
    doc = _load(text, ("kraus",))
    d_size = _count(doc, "d_size")
    h_dim = _count(doc, "h_dim")
    raw = _list(doc, "blocks")
    objects = _of_type(raw, {dict})
    blocks = list(itertools.compress(raw, objects))
    i, j, k = index = [list(map(dict.get, blocks, itertools.repeat(c))) for c in "ijk"]
    indexed = _of_type(i, {int}) & _of_type(j, {int}) & _of_type(k, {int})
    keys = list(itertools.compress(zip(i, j, k), indexed))
    first_seen = dict(zip(reversed(keys), range(len(keys) - 1, -1, -1)))
    repeated = np.zeros(len(blocks), dtype=bool)
    seen_at = np.fromiter(map(first_seen.get, keys), np.intp, len(keys))
    repeated[indexed] = seen_at < np.arange(len(keys))
    size, values = _decode_matrices(
        list(map(dict.get, blocks, itertools.repeat("matrix"))))
    refused = ~objects
    refused[objects] = ~indexed | repeated | (size < 1)
    if refused.any():
        first = int(np.argmax(refused))
        block = raw[first]
        if not objects[first]:
            raise FormatError(f"bad block {block!r}")
        m = np.count_nonzero(objects[:first])
        if not indexed[m]:
            raise FormatError(f"bad block indices in {block!r}")
        key = (i[m], j[m], k[m])
        if repeated[m]:
            raise FormatError(f"duplicate block {key}")
        raise _matrix_refusal(size[m], f"block {key}")
    if (size == h_dim).all():
        matrices = values.reshape(-1, h_dim, h_dim)
    else:  # kraus_family refuses the first block of another shape
        ends = np.cumsum(size * size)
        matrices = [part.reshape(s, s) for part, s in zip(np.split(values, ends[:-1]), size)]
    return family_from_arrays(d_size, h_dim, index, matrices,
                              truncation_radius=doc.get("truncation_radius"))


def serialize_state(state: BlockState) -> str:
    doc = {
        "kind": "state",
        "version": FORMAT_VERSION,
        "h_dim": state.h_dim,
        "blocks": _encode_cells(state.array),
    }
    return _dump(doc)


def parse_state(text: str) -> BlockState:
    doc = _load(text, ("state",))
    h_dim = _count(doc, "h_dim")
    raw = _list(doc, "blocks")
    if not raw:
        raise FormatError("state has no blocks")
    size, values = _decode_matrices(raw)
    if (size < 1).any():
        first = int(np.argmax(size < 1))
        raise _matrix_refusal(size[first], f"state block {first}")
    if (size != h_dim).any():
        raise FormatError("state blocks disagree with h_dim")
    try:
        return block_state(values.reshape(-1, h_dim, h_dim))
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
