"""Pointed graphs, distance spheres, and sphere-count structure constants.

All sphere and intersection counts are exact integers, so the constants come
out as exact rationals.  Infinite vertex sets (the integer line, free-group
Cayley graphs) are handled as finite windows carrying their radius; any
evaluation that would need a sphere reaching past the window boundary is
refused instead of silently using the clipped sphere, and the constants of a
windowed graph are only reported for the rows that agree with the infinite
graph (a truncated tensor).
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    BoundaryContactError,
    DisconnectedGraphError,
    EmptySphereError,
    TruncationExceededError,
)
from .hypergroups import Number, StructureTensor, Word, check_radius, structure_tensor
from .report import Report


@dataclass(frozen=True)
class PointedGraph:
    """Finite simple connected graph with a base vertex.

    ``window_radius`` marks graphs that stand in for an infinite graph: the
    base sits at the center and only spheres staying within the radius are
    trusted by downstream evaluations.
    """

    labels: tuple[str, ...]
    neighbors: tuple[tuple[int, ...], ...]
    base: int
    window_radius: int | None = None

    @property
    def n_vertices(self) -> int:
        return len(self.labels)

    def edges(self):
        for u, nbrs in enumerate(self.neighbors):
            for v in nbrs:
                if u < v:
                    yield (u, v)


def pointed_graph(
    labels: Sequence[str],
    edges: Iterable[tuple[int, int]],
    base: int,
    window_radius: int | None = None,
) -> PointedGraph:
    """Build and check a pointed graph from vertex labels and index edges."""
    labels = tuple(str(l) for l in labels)
    n = len(labels)
    if n == 0:
        raise ValueError("graph has no vertices")
    if len(set(labels)) != n:
        raise ValueError("vertex labels are not unique")
    if not (0 <= base < n):
        raise ValueError(f"base index {base} out of range")
    window_radius = check_radius(window_radius, "window radius")
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range")
        if u == v:
            raise ValueError(f"loop at vertex {labels[u]!r}")
        if v in adj[u]:
            raise ValueError(f"duplicate edge ({labels[u]!r}, {labels[v]!r})")
        adj[u].add(v)
        adj[v].add(u)
    seen = {base}
    queue = deque([base])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    if len(seen) != n:
        missing = [labels[v] for v in range(n) if v not in seen]
        raise DisconnectedGraphError(f"unreachable vertices: {missing}")
    return PointedGraph(
        labels=labels,
        neighbors=tuple(tuple(sorted(s)) for s in adj),
        base=base,
        window_radius=window_radius,
    )


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

    def standing_assumption_witness(self) -> tuple[int, int] | None:
        """First (vertex, n) with S_n(v) empty for n in the index set, if any."""
        for v in range(self.graph.n_vertices):
            for n in self.index_set:
                if self.sphere_size(v, n) == 0:
                    return (v, n)
        return None

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


def _as_table(graph_or_table) -> SphereTable:
    if isinstance(graph_or_table, SphereTable):
        return graph_or_table
    return build_spheres(graph_or_table)


def wildberger_tensor(graph_or_table) -> StructureTensor:
    """Distance-distribution constants of a two-jump walk from the base.

    p[i,j,k] averages, over the first landing vertex v in S_i(base), the
    fraction of the second sphere S_j(v) that lands at base distance k.  The
    result is exact and row-stochastic.  For windowed graphs only the rows
    with i + j <= window radius are produced (as a truncated tensor), since
    those are the rows that agree with the underlying infinite graph.
    """
    table = _as_table(graph_or_table)
    graph = table.graph
    index_set = table.index_set
    size = len(index_set)
    if index_set != tuple(range(size)):
        raise ValueError(f"index set {index_set} is not contiguous")
    window = graph.window_radius
    entries: list[tuple[int, int, int, Number]] = []
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


def check_condition_s(graph_or_table) -> Report:
    """Sphere-symmetry condition: |S_i(v)| constant over vertices, and
    |S_i(v) & S_j(base)| constant over v in S_k(base), for all i, j, k.

    On a windowed graph the scan is restricted to the spheres that agree
    with the infinite graph (base distance plus radius within the window).
    The scan stops at the first uneven class: the witness names it and two
    vertices whose counts differ, and the residual is that difference.
    """
    table = _as_table(graph_or_table)
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


def check_distance_regular(graph_or_table) -> Report:
    """Whether |S_i(u) & S_j(v)| depends only on (i, j, d(u, v)).

    The scan stops at the first count that differs from the first count of
    its class (i, j, d); the residual is their difference.
    """
    table = _as_table(graph_or_table)
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


def path_sum_distribution(graph_or_table, word: Word) -> list[Number]:
    """Exact jump-path sum of the distance distribution.

    Sums over every chain v_1 in S_{k1}(base), v_2 in S_{k2}(v_1), ... the
    product of the uniform sphere weights, placing the mass at the final base
    distance.  The sum runs as a recursion on exact vertex masses: each
    letter spreads every vertex's mass uniformly over its sphere, so the
    cost grows with vertices times sphere sizes per letter, not with the
    number of chains.  This is the graph-level oracle: it never touches
    structure constants.
    """
    table = _as_table(graph_or_table)
    graph = table.graph
    word = list(word)
    if not word:
        raise ValueError("word must have at least one letter")
    for k in word:
        if k not in table.index_set:
            raise IndexError(f"letter {k} not in index set {table.index_set}")

    # Integer masses over one common denominator, scaled per letter by the
    # lcm of the sphere sizes, so the sum needs no Fraction arithmetic.
    mass, denominator = {graph.base: 1}, 1
    for k in word:
        spheres = {}
        for v in mass:
            table._window_check(v, k)
            spheres[v] = table.sphere(v, k)
            if not spheres[v]:
                raise EmptySphereError(graph.labels[v], k)
        scale = math.lcm(*map(len, spheres.values()))
        spread: dict[int, int] = {}
        for v, weight in mass.items():
            share = weight * (scale // len(spheres[v]))
            for w in spheres[v]:
                spread[w] = spread.get(w, 0) + share
        mass, denominator = spread, denominator * scale
    totals = [0] * len(table.index_set)
    for v, weight in mass.items():
        totals[int(table.dist[v, graph.base])] += weight
    zero = Fraction(0)
    return [Fraction(x, denominator) if x else zero for x in totals]


@dataclass(frozen=True)
class TransitionMatrixFamily:
    """Row-stochastic matrices P_k with (P_k)[i, j] = Q[k, i, j]."""

    matrices: tuple[np.ndarray, ...]

    @property
    def size(self) -> int:
        return len(self.matrices)


def transition_family(tensor: StructureTensor) -> TransitionMatrixFamily:
    """One transition matrix per index; requires a complete (untruncated) tensor."""
    if tensor.truncation_radius is not None:
        raise TruncationExceededError(
            tensor.size - 1, tensor.size - 1, tensor.truncation_radius
        )
    mats = []
    for k in range(tensor.size):
        mat = np.zeros((tensor.size, tensor.size))
        for i in range(tensor.size):
            for j, q in tensor.row(k, i).items():
                mat[i, j] = float(q)
        mat.setflags(write=False)
        mats.append(mat)
    return TransitionMatrixFamily(matrices=tuple(mats))


# ---------------------------------------------------------------------------
# Named graph generators.


def cycle_graph(n: int) -> PointedGraph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    labels = [str(i) for i in range(n)]
    edges = [(i, (i + 1) % n) for i in range(n)]
    return pointed_graph(labels, edges, base=0)


def complete_graph(n: int) -> PointedGraph:
    if n < 2:
        raise ValueError("complete graph needs at least 2 vertices")
    labels = [str(i) for i in range(n)]
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return pointed_graph(labels, edges, base=0)


def hypercube_graph(d: int) -> PointedGraph:
    if d < 1:
        raise ValueError("hypercube dimension must be positive")
    n = 1 << d
    labels = [format(i, f"0{d}b") for i in range(n)]
    edges = [(i, i ^ (1 << b)) for i in range(n) for b in range(d) if i < i ^ (1 << b)]
    return pointed_graph(labels, edges, base=0)


def path_graph(n: int) -> PointedGraph:
    if n < 2:
        raise ValueError("path needs at least 2 vertices")
    labels = [str(i) for i in range(n)]
    edges = [(i, i + 1) for i in range(n - 1)]
    return pointed_graph(labels, edges, base=0)


def line_window_graph(radius: int) -> PointedGraph:
    """Window {-radius, ..., radius} of the integer line, based at 0."""
    if radius < 1:
        raise ValueError("window radius must be positive")
    points = list(range(-radius, radius + 1))
    labels = [str(p) for p in points]
    edges = [(i, i + 1) for i in range(len(points) - 1)]
    return pointed_graph(labels, edges, base=radius, window_radius=radius)


def free_ball_graph(n_generators: int, radius: int) -> PointedGraph:
    """Ball of the 2n-regular tree (free-group Cayley graph), based at the root."""
    if n_generators < 1:
        raise ValueError("need at least one generator")
    if radius < 1:
        raise ValueError("ball radius must be positive")
    gens = []
    for g in range(n_generators):
        letter = chr(ord("a") + g)
        gens.append(letter)
        gens.append(letter.upper())

    def inverse(letter: str) -> str:
        return letter.lower() if letter.isupper() else letter.upper()

    words = [""]
    index = {"": 0}
    edges = []
    frontier = [""]
    for _ in range(radius):
        nxt = []
        for w in frontier:
            for g in gens:
                if w and g == inverse(w[-1]):
                    continue
                new = w + g
                index[new] = len(words)
                words.append(new)
                nxt.append(new)
                edges.append((index[w], index[new]))
        frontier = nxt
    labels = ["e" if not w else w for w in words]
    return pointed_graph(labels, edges, base=0, window_radius=radius)


_GENERATORS = {
    "cycle": cycle_graph,
    "complete": complete_graph,
    "hypercube": hypercube_graph,
    "path": path_graph,
    "line_window": line_window_graph,
    "free_ball": free_ball_graph,
}


def generate_graph(name: str, *args, **kwargs) -> PointedGraph:
    """Dispatch to a named generator: cycle(n), complete(n), hypercube(d),
    path(n), line_window(radius), free_ball(n_generators, radius)."""
    key = name.replace("-", "_")
    if key not in _GENERATORS:
        raise ValueError(f"unknown graph family {name!r}")
    return _GENERATORS[key](*args, **kwargs)
