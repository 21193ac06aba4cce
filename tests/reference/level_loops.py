"""Frozen reference copies of the exact Theorem 2.4 level walks as they ran
one letter at a time, before ``hyperwalk`` extended a trie level a block of
letters at a time.  Do not optimise this file.

- ``prefix_trie``: the word enumerator, one Python ``sum`` per word for
  the budget test.
- ``path_sum_levels``: one product per letter of the level's prefixes with
  the counts |S_k(v) & S_r(base)| and with the distance-k indicator of
  their support.
- ``fold_levels``/``fold_level`` on exact tensors: one product per letter
  of the prefixes with the rows (j, k), after ``_check_stored`` for that
  letter.

They are oracles for ``tests/test_level_differential.py``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from hyperwalk.errors import TruncationExceededError
from hyperwalk.hypergroups import StructureTensor, exact_tier


def prefix_trie(letters: Sequence[int], max_len: int, budget: int | None):
    letters = sorted(letters)
    words: list[tuple[int, ...]] = [()]
    for _ in range(max_len):
        children = [
            (p, k)
            for p, word in enumerate(words)
            for k in letters
            if budget is None or sum(word) + k <= budget
        ]
        if not children:
            return
        words = [words[p] + (k,) for p, k in children]
        parents, last = np.array(children, dtype=np.intp).T
        yield words, parents, last


def path_sum_levels(table, levels):
    graph = table.graph
    n, size = graph.n_vertices, len(table.index_set)
    spheres = table.sphere_sizes[graph.base, :size].tolist()
    levels = list(levels)
    mass = np.zeros((1, n))
    mass[0, graph.base] = 1
    denominators = [1]
    for depth, (words, parents, letters) in enumerate(levels):
        children = [denominators[p] * spheres[k] for p, k in zip(parents.tolist(), letters.tolist())]
        bound = max(children)
        mass = exact_tier(bound, mass)
        counts = exact_tier(bound, table.base_counts)
        totals = exact_tier(bound, np.zeros((len(words), size)))
        last = depth == len(levels) - 1
        nxt = None if last else exact_tier(bound, np.zeros((len(words), n)))
        for k in sorted(set(letters.tolist())):
            chosen = letters == k
            prefixes = mass[parents[chosen]]
            on = np.flatnonzero(prefixes.any(axis=0))
            prefixes = prefixes[:, on]
            totals[chosen] = prefixes @ counts[on, k]
            if not last:
                nxt[chosen] = prefixes @ exact_tier(bound, table.dist[on] == k)
        yield totals, children
        mass, denominators = nxt, children


def _check_stored(tensor: StructureTensor, folds: np.ndarray, k: int) -> None:
    if tensor.truncation_radius is None:
        return
    needed = np.asarray(folds != 0).reshape(-1, tensor.size).any(axis=0)
    outside = needed & ~tensor.domain[:, k]
    if outside.any():
        raise TruncationExceededError(int(np.argmax(outside)), k, tensor.truncation_radius)


def _exact_step(tensor: StructureTensor, folds: np.ndarray, k: int, bound: int) -> np.ndarray:
    folds = exact_tier(bound, folds)
    _check_stored(tensor, folds, k)
    return folds @ exact_tier(bound, tensor.cube[:, k])


def fold_levels(tensor: StructureTensor, levels):
    folds = None
    for length, (_, parents, letters) in enumerate(levels, start=1):
        folds = fold_level(tensor, folds, parents, letters, length)
        yield folds, tensor.denominator ** (length - 1)


def fold_level(tensor: StructureTensor, prefixes, parents, letters, length):
    """The exact folds of words of ``length`` letters, one letter at a time."""
    assert tensor.is_exact
    if length == 1:
        folds = np.zeros((len(letters), tensor.size))
        folds[np.arange(len(letters)), letters] = 1
        return folds
    bound = tensor.growth ** (length - 1)
    prefixes = exact_tier(bound, prefixes)
    folds = np.zeros((len(letters), tensor.size), dtype=prefixes.dtype)
    for k in sorted(set(letters.tolist())):
        chosen = letters == k
        folds[chosen] = _exact_step(tensor, prefixes[parents[chosen]], k, bound)
    return folds
