"""Frozen reference copies of the graph-layer loops that ``hyperwalk.graphs``
replaced with array code.

- ``path_sum_distribution``: the chain enumeration behind the exact mass
  recursion, one stack entry per chain.  The integer chain-count pre-pass is
  gone: it guarded a path cap that no longer exists.
- ``build_spheres`` (BFS from each vertex, spheres as tuples), and
  ``check_condition_s``, ``check_distance_regular`` and ``wildberger_tensor``
  as Python set intersections and ``Fraction`` sums over the tuple spheres.

- ``condition_s_reduceat``: the array scan of condition (S) over the
  library's sphere table that reduced every class to its minimum and
  maximum with ``np.minimum.reduceat`` and ``np.maximum.reduceat`` over an
  (n, size, size) copy of the counts in base order.  The library now
  compares each member's counts with the previous member's.

- ``verify_theorem_2_4``: one ``path_sum_distribution`` and one
  ``multi_constants`` fold per word, compared as ``Fraction`` lists, over the
  words of ``itertools.product``; and ``residual``, its per-word residual.

They are oracles for ``tests/test_graph_differential.py``.  Do not optimise
this file.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from hyperwalk import graphs
from hyperwalk.errors import (
    BoundaryContactError,
    ConditionSViolatedError,
    DisconnectedGraphError,
    EmptySphereError,
)
from hyperwalk.graphs import PointedGraph
from hyperwalk.hypergroups import multi_constants, structure_tensor
from hyperwalk.report import Report, scan_report


@dataclass(frozen=True)
class SphereTable:
    """All-pairs distances and the spheres S_n(v) of a pointed graph."""

    graph: PointedGraph
    dist: np.ndarray
    index_set: tuple[int, ...]
    spheres: tuple[tuple[tuple[int, ...], ...], ...]  # [v][n] -> vertices

    def sphere(self, v: int, n: int) -> tuple[int, ...]:
        if n < 0 or n >= len(self.spheres[v]):
            return ()
        return self.spheres[v][n]

    def sphere_size(self, v: int, n: int) -> int:
        return len(self.sphere(v, n))

    def base_sphere(self, n: int) -> tuple[int, ...]:
        return self.sphere(self.graph.base, n)

    def _window_check(self, v: int, radius: int) -> None:
        window = self.graph.window_radius
        if window is None:
            return
        if self.dist[self.graph.base, v] + radius > window:
            raise BoundaryContactError(self.graph.labels[v], radius, window)


def build_spheres(graph: PointedGraph) -> SphereTable:
    """BFS from every vertex; the index set is the set of base distances."""
    n = graph.n_vertices
    dist = np.full((n, n), -1, dtype=int)
    for source in range(n):
        dist[source, source] = 0
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for v in graph.neighbors[u]:
                if dist[source, v] < 0:
                    dist[source, v] = dist[source, u] + 1
                    queue.append(v)
    if (dist < 0).any():
        raise DisconnectedGraphError("distance matrix has unreachable pairs")
    max_dist = int(dist.max())
    spheres = tuple(
        tuple(
            tuple(int(w) for w in np.flatnonzero(dist[v] == r))
            for r in range(max_dist + 1)
        )
        for v in range(n)
    )
    index_set = tuple(sorted({int(d) for d in dist[graph.base]}))
    dist.setflags(write=False)
    return SphereTable(graph=graph, dist=dist, index_set=index_set, spheres=spheres)


def wildberger_tensor(table):
    """Distance-distribution constants of a two-jump walk from the base."""
    graph = table.graph
    index_set = table.index_set
    size = len(index_set)
    if index_set != tuple(range(size)):
        raise ValueError(f"index set {index_set} is not contiguous")
    window = graph.window_radius
    entries = []
    for i in index_set:
        first = table.base_sphere(i)
        if not first:
            raise EmptySphereError(graph.labels[graph.base], i)
        for j in index_set:
            if window is not None and i + j > window:
                continue
            row: dict[int, Fraction] = {}
            for v in first:
                table._window_check(v, j)
                second = table.sphere(v, j)
                if not second:
                    raise EmptySphereError(graph.labels[v], j)
                weight = Fraction(1, len(first) * len(second))
                for w in second:
                    k = int(table.dist[w, graph.base])
                    row[k] = row.get(k, Fraction(0)) + weight
            entries.extend((i, j, k, q) for k, q in row.items())
    return structure_tensor(size, entries, truncation_radius=window)


def check_condition_s(table) -> Report:
    """Sphere-symmetry condition, scanned class by class."""
    graph = table.graph
    window = graph.window_radius
    base = graph.base

    def in_window(v: int, i: int) -> bool:
        return window is None or table.dist[base, v] + i <= window

    def classes():
        for i in table.index_set:
            yield ("sphere-size", i), {
                v: table.sphere_size(v, i) for v in range(graph.n_vertices) if in_window(v, i)
            }
        for i, j, k in itertools.product(table.index_set, repeat=3):
            target = set(table.base_sphere(j))
            yield ("intersection", i, j, k), {
                v: len(target.intersection(table.sphere(v, i)))
                for v in table.base_sphere(k) if in_window(v, i)
            }

    checked = 0
    for name, counts in classes():
        checked += 1
        if len(set(counts.values())) > 1:
            v = next(iter(counts))
            v2 = next(u for u in counts if counts[u] != counts[v])
            witness = name + (graph.labels[v], graph.labels[v2])
            return Report("condition-S", False, float(abs(counts[v] - counts[v2])),
                          witness, 0.0, checked)
    return Report("condition-S", True, 0.0, None, 0.0, checked)


def condition_s_reduceat(table: graphs.SphereTable) -> Report:
    """Sphere-symmetry condition on a library sphere table, each class's
    spread taken as its maximum against its minimum."""
    graph = table.graph
    window = graph.window_radius
    base = graph.base
    size = len(table.index_set)
    radii = np.arange(size)

    def uneven(name: tuple, members: np.ndarray, counts: np.ndarray, checked: int) -> Report:
        other = int(np.argmax(counts != counts[0]))
        witness = name + (graph.labels[members[0]], graph.labels[members[other]])
        return Report("condition-S", False, float(abs(int(counts[0]) - int(counts[other]))),
                      witness, 0.0, checked)

    sizes = table.sphere_sizes[:, :size]
    inside = np.ones(sizes.shape, dtype=bool)
    if window is not None:
        inside = table.dist[base, :, None].astype(np.intp) + radii <= window
    highest = np.where(inside, sizes, -1).max(axis=0)
    spread = highest > np.where(inside, sizes, sizes.max()).min(axis=0)
    if spread.any():
        i = int(np.argmax(spread))
        members = np.flatnonzero(inside[:, i])
        return uneven(("sphere-size", i), members, sizes[members, i], i + 1)

    # counts[v, i, j] over the base spheres S_k(base), one reduction per k.
    counts = table.base_counts[table.base_order]
    cuts = table.starts[base, :size]
    spread = np.maximum.reduceat(counts, cuts) > np.minimum.reduceat(counts, cuts)  # [k, i, j]
    spread = spread.transpose(1, 2, 0)
    if window is not None:
        spread &= (radii[:, None] + radii <= window)[:, None, :]
    if spread.any():
        n = int(np.argmax(spread))
        i, j, k = (int(x) for x in np.unravel_index(n, spread.shape))
        members = table.base_order[cuts[k]:table.starts[base, k + 1]]
        return uneven(("intersection", i, j, k), members, table.base_counts[members, i, j],
                      size + n + 1)
    return Report("condition-S", True, 0.0, None, 0.0, size + size**3)


def check_distance_regular(table) -> Report:
    """Whether |S_i(u) & S_j(v)| depends only on (i, j, d(u, v))."""
    labels = table.graph.labels
    n = table.graph.n_vertices
    max_dist = int(table.dist.max())
    seen: dict[tuple[int, int, int], tuple[int, tuple[int, int]]] = {}
    for u, v in itertools.product(range(n), repeat=2):
        d = int(table.dist[u, v])
        for i in range(max_dist + 1):
            su = set(table.sphere(u, i))
            for j in range(max_dist + 1):
                count = len(su.intersection(table.sphere(v, j)))
                expected, (a, b) = seen.setdefault((i, j, d), (count, (u, v)))
                if count != expected:
                    witness = (i, j, d, (labels[a], labels[b]), (labels[u], labels[v]))
                    return Report("distance-regular", False, float(abs(count - expected)),
                                  witness, 0.0, len(seen))
    return Report("distance-regular", True, 0.0, None, 0.0, len(seen))


def path_sum_distribution(table, word) -> list:
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


def _budgeted_words(letters, max_len, budget):
    for n in range(1, max_len + 1):
        for word in itertools.product(letters, repeat=n):
            if budget is None or sum(word) <= budget:
                yield word


def residual(paths, fold, mode) -> float:
    """The largest |path sum - fold| of one word."""
    if mode == "exact":
        if paths == fold:
            return 0.0
        return float(max(abs(p - f) for p, f in zip(paths, fold)))
    return max(abs(float(p) - float(f)) for p, f in zip(paths, fold))


def verify_theorem_2_4(graph, max_word_len, mode="exact") -> Report:
    """Path sums versus algebra folds on a condition-(S) graph, word by word."""
    if mode not in ("exact", "float"):
        raise ValueError("mode must be 'exact' or 'float'")
    if max_word_len < 1:
        raise ValueError("max_word_len must be at least 1")
    table = graph if isinstance(graph, graphs.SphereTable) else graphs.build_spheres(graph)
    condition = graphs.check_condition_s(table)
    if not condition.passed:
        raise ConditionSViolatedError(str(condition))
    tensor = graphs.wildberger_tensor(table)
    fold_tensor = tensor if mode == "exact" else tensor.to_float()
    tolerance = 0.0 if mode == "exact" else 1e-12
    words = list(_budgeted_words(table.index_set, max_word_len, table.graph.window_radius))
    residuals = np.fromiter(
        (residual(graphs.path_sum_distribution(table, word),
                  multi_constants(fold_tensor, word), mode) for word in words),
        float, len(words),
    )
    return scan_report("paths-vs-fold", residuals, lambda n: (words[n],), tolerance, note=mode)
