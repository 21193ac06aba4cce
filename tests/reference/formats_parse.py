"""Frozen reference copy of the document readers before they read each
document a whole array at a time.

``decode_value``, ``tensor_and_involution``, ``parse_kraus`` and
``parse_state`` as they read a document one entry, block and matrix cell at
a time (``_indices``, ``_decode_cell``, ``_decode_matrix``), with the domain
constructors they fed, ``structure_tensor``, ``kraus_family`` and
``block_state``, as loops over the entries and blocks.  Kept unchanged as
the oracle of ``tests/test_formats_fuzz.py``: the library's readers must
return equal objects or raise the same refusals.  Only the imports differ:
the helpers that did not change are taken from the library.  Do not
optimise this file.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from hyperwalk.errors import FormatError
from hyperwalk.formats import _count, _involution, _list, _load
from hyperwalk.hypergroups import (
    EPS_PROB,
    Number,
    StructureTensor,
    _exact_tensor_taking,
    check_radius,
    check_rows,
)
from hyperwalk.oqrw import BlockState, KrausFamily, _check_states


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


def _indices(values, what: str, where) -> tuple[int, ...]:
    """Indices read from ``where``: integers, not bools, floats or strings."""
    if not all(isinstance(x, int) and not isinstance(x, bool) for x in values):
        raise FormatError(f"bad {what} indices in {where!r}")
    return tuple(values)


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


def structure_tensor(
    size: int,
    entries: Iterable[tuple[int, int, int, Number]],
    truncation_radius: int | None = None,
) -> StructureTensor:
    """Build a tensor from (i, j, k, value) entries and check the row sums.

    Values of exactly zero are dropped; small negative float noise (within
    EPS_PROB) is discarded as zero, and repeated (i, j, k) add up.  Every
    row inside the domain must be present and sum to one within EPS_PROB.
    The tensor is exact when every value is an int or a ``Fraction``.
    """
    if size <= 0:
        raise ValueError("size must be positive")
    truncation_radius = check_radius(truncation_radius, "truncation radius")
    values: dict[tuple[int, int, int], Number] = {}
    for i, j, k, value in entries:
        for idx in (i, j, k):
            if not (0 <= idx < size):
                raise ValueError(f"index {idx} out of range for size {size}")
        if truncation_radius is not None and i + j > truncation_radius:
            raise ValueError(
                f"entry ({i}, {j}, {k}) lies outside truncation radius {truncation_radius}"
            )
        if not isinstance(value, (int, Fraction)) and not math.isfinite(value):
            raise ValueError(f"non-finite constant at ({i}, {j}, {k}): {value}")
        if value < 0:
            if float(value) < -EPS_PROB:
                raise ValueError(f"negative constant at ({i}, {j}, {k}): {value}")
            continue
        if value == 0:
            continue
        key = (i, j, k)
        values[key] = values[key] + value if key in values else value
    where = tuple(np.array(list(values), dtype=np.intp).reshape(-1, 3).T)
    if all(isinstance(v, (int, Fraction)) for v in values.values()):
        scale = math.lcm(*(v.denominator for v in values.values()))
        numerators = [v.numerator * (scale // v.denominator) for v in values.values()]
        cube = np.zeros((size,) * 3, dtype=np.int64 if sum(numerators) < 2**63 else object)
        cube[where] = numerators
        return check_rows(_exact_tensor_taking(cube, scale, truncation_radius))
    cube = np.zeros((size, size, size))
    cube[where] = [float(v) for v in values.values()]
    cube.setflags(write=False)
    return check_rows(StructureTensor(cube, None, truncation_radius))


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


def _as_block(matrix, h_dim: int) -> np.ndarray:
    arr = np.asarray(matrix, dtype=complex)
    if arr.shape != (h_dim, h_dim):
        raise ValueError(f"block has shape {arr.shape}, expected ({h_dim}, {h_dim})")
    return arr


def kraus_family(
    d_size: int,
    h_dim: int,
    blocks: Mapping[tuple[int, int, int], "np.ndarray"],
    truncation_radius: int | None = None,
) -> KrausFamily:
    """Build a family from an (i, j, k) -> matrix map; absent blocks are zero."""
    if d_size <= 0 or h_dim <= 0:
        raise ValueError("d_size and h_dim must be positive")
    truncation_radius = check_radius(truncation_radius, "truncation radius")
    array = np.zeros((d_size, d_size, d_size, h_dim, h_dim), dtype=complex)
    for (i, j, k), matrix in blocks.items():
        if not all(0 <= idx < d_size for idx in (i, j, k)):
            raise ValueError(f"block index {(i, j, k)} out of range")
        arr = _as_block(matrix, h_dim)
        if not np.isfinite(arr).all():
            raise ValueError(f"block {(i, j, k)} has non-finite entries")
        array[i, j, k] = arr
    array.setflags(write=False)
    return KrausFamily(array=array, truncation_radius=truncation_radius)


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


def block_state(blocks: Sequence[np.ndarray], validate: bool = True) -> BlockState:
    if len(blocks) == 0:
        raise ValueError("state needs at least one block")
    h = np.asarray(blocks[0]).shape[0]
    if h == 0:
        raise ValueError("state blocks must be at least 1x1")
    array = np.stack([_as_block(b, h) for b in blocks])
    if validate:
        _check_states(array)
    array.setflags(write=False)
    state = BlockState(array=array)
    object.__setattr__(state, "_checked", validate)
    return state
