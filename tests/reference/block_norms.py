"""Frozen reference copy of the per-piece reduction Theorem 5.1 ran on the
Heisenberg walker's blocks before its norms were taken once per walk.

``largest_moduli`` and ``block_bounds`` are the entry-bound formulas as
they were written over trailing (h, h) axes, ``block_norms`` the screened
``eigvalsh`` norms built on them, and ``first_worst`` the reduction of one
piece to its first worst norm in word order, which carried its bound from
piece to piece.  ``walk_first_worst`` is the unpruned oracle: the spectral
norm of every selected block of a walk, each by ``eigvalsh``, reduced in
(length, word, i, j) order.  Kept unchanged as oracles for the plane-wise
and pruned replacements in ``hyperwalk.oqrw``.  Do not optimise this file.
"""

from __future__ import annotations

import numpy as np

from hyperwalk.oqrw import entry_moduli, hermitian_blocks
from hyperwalk.report import worst_residual


def largest_moduli(coords: np.ndarray) -> np.ndarray:
    """Per block, the largest of its ``entry_moduli``, by the pair formula
    over a flat (n, h^2) view, taken again from the moduli where squares
    overflow or lose digits."""
    h = coords.shape[-1]
    if h == 1:
        return np.abs(coords[..., 0, 0])
    a, b = np.triu_indices(h)
    upper, lower = a * h + b, b * h + a
    flat = coords.reshape(-1, h * h)
    with np.errstate(over="ignore", invalid="ignore"):
        squares = flat * flat
        largest = np.sqrt((squares[:, upper] + squares[:, lower]).max(axis=-1) * 0.5)
    redo = ~(largest < 1e150) | (largest < 1e-150) & (largest > 0)
    if redo.any():
        largest[redo] = entry_moduli(flat[redo].reshape(-1, h, h)).max(axis=(-2, -1))
    return largest.reshape(coords.shape[:-2])


def block_bounds(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The largest entry modulus and the largest absolute row sum of each
    block of an (n, h, h) stack of coordinates."""
    magnitudes = entry_moduli(blocks)
    return magnitudes.max(axis=(-2, -1)), magnitudes.sum(axis=-1).max(axis=-1)


def block_norms(blocks: np.ndarray, bound: float) -> tuple[np.ndarray, float]:
    """Spectral norms where the row sums reach the bound raised to the
    largest entry, 0 for the other finite blocks, NaN or inf for the
    non-finite ones; and the raised bound."""
    lower, upper = block_bounds(blocks)
    finite = np.isfinite(lower)
    bound = max(bound, float(lower[finite].max(initial=0.0)))
    exact = finite & (upper >= bound) & (upper > 0)
    norms = np.where(finite, 0.0, lower)
    if exact.any():
        eigenvalues = np.linalg.eigvalsh(hermitian_blocks(blocks[exact]))
        norms[exact] = np.maximum(-eigenvalues[:, 0], eigenvalues[:, -1])
    return norms, bound


def first_worst(rows: np.ndarray, letters: np.ndarray, blocks: np.ndarray,
                selected: np.ndarray, bound: float):
    """One piece's candidates, none or ((length, word, i, j), norm, (word,
    i, j)) for its first worst ``block_norms`` norm in word order, and the
    raised bound."""
    picked = blocks[selected]
    if not len(picked):
        return [], bound
    norms = np.full(selected.shape, -1.0)
    norms[selected], bound = block_norms(picked, bound)
    order = np.lexsort(rows.T) if rows.shape[1] > 1 else None
    worst, n = worst_residual(norms if order is None else norms[:, order])
    a, b, i, j = (int(x) for x in np.unravel_index(n, norms.shape))
    word = (int(letters[a]),) + tuple(rows[b if order is None else order[b], ::-1].tolist())
    return [((len(word), word, i, j), worst, (word, i, j))], bound


def walk_first_worst(pieces, selected=None):
    """The unpruned first worst norm of the blocks of ``heisenberg_levels``
    pieces: every selected block's spectral norm by ``eigvalsh`` (NaN or
    inf where it is not finite), the first worst in (length, word, i, j)
    order as ``worst_residual`` picks it.  ``selected(blocks)`` picks the
    blocks of a piece, its nonzero ones by default.  Returns (norm, (word,
    i, j)), or None for no block."""
    cases = []
    for rows, letters, blocks in pieces:
        picked = blocks.any(axis=(-2, -1)) if selected is None else selected(rows, letters, blocks)
        for a, b, i, j in zip(*(x.tolist() for x in np.nonzero(picked))):
            word = (int(letters[a]),) + tuple(rows[b, ::-1].tolist())
            block = blocks[a, b, i, j]
            if np.isfinite(block).all():
                eigenvalues = np.linalg.eigvalsh(hermitian_blocks(block))
                norm = float(max(-eigenvalues[0], eigenvalues[-1]))
            else:
                norm = float(entry_moduli(block).max())
            cases.append(((len(word), word, i, j), norm))
    if not cases:
        return None
    cases.sort(key=lambda case: case[0])
    worst, n = worst_residual([norm for _, norm in cases])
    (_, word, i, j), _ = cases[n]
    return worst, (word, i, j)
