"""Frozen reference copy of the chain enumeration behind
``hyperwalk.graphs.path_sum_distribution``.

The library now pushes exact vertex masses through the spheres of each
letter; this is the enumeration it replaced, one stack entry per chain, kept
as an oracle for ``tests/test_graph_differential.py``.  The only change is
that the integer chain-count pre-pass is gone: it guarded a path cap that
no longer exists.  Do not optimise this file.
"""

from __future__ import annotations

from fractions import Fraction

from hyperwalk.errors import EmptySphereError
from hyperwalk.graphs import SphereTable


def path_sum_distribution(table: SphereTable, word) -> list:
    """Exhaustive jump-path enumeration of the distance distribution.

    Sums over every chain v_1 in S_{k1}(base), v_2 in S_{k2}(v_1), ... the
    product of the uniform sphere weights, placing the mass at the final base
    distance.
    """
    graph = table.graph
    word = list(word)
    if not word:
        raise ValueError("word must have at least one letter")
    for k in word:
        if k not in table.index_set:
            raise IndexError(f"letter {k} not in index set {table.index_set}")

    size = len(table.index_set)
    out = [Fraction(0)] * size
    stack = [(graph.base, 0, Fraction(1))]
    while stack:
        v, depth, weight = stack.pop()
        if depth == len(word):
            out[int(table.dist[v, graph.base])] += weight
            continue
        k = word[depth]
        table._window_check(v, k)
        sphere = table.sphere(v, k)
        if not sphere:
            raise EmptySphereError(graph.labels[v], k)
        share = weight / len(sphere)
        for w in sphere:
            stack.append((w, depth + 1, share))
    return out
