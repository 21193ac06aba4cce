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
import numbers
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    BoundaryContactError,
    DisconnectedGraphError,
    EmptySphereError,
    TruncationExceededError,
)
from .hypergroups import (
    _COUNT_BLOCK,
    _exact_tensor_taking,
    Number,
    StructureTensor,
    Word,
    check_radius,
    exact_tier,
    letter_blocks,
)
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
    """Build and check a pointed graph from vertex labels and index edges.

    The base and the edge endpoints must be integer indices (numpy integers
    are stored as ``int``); a bool or a non-integral index is refused.
    """
    labels = tuple(str(l) for l in labels)
    n = len(labels)
    if n == 0:
        raise ValueError("graph has no vertices")
    if len(set(labels)) != n:
        raise ValueError("vertex labels are not unique")
    base = _vertex_index(base, "base index")
    if not (0 <= base < n):
        raise ValueError(f"base index {base} out of range")
    window_radius = check_radius(window_radius, "window radius")
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        if type(u) is not int or type(v) is not int:  # plain ints skip the calls
            name = f"edge ({u!r}, {v!r}) endpoint"
            u, v = _vertex_index(u, name), _vertex_index(v, name)
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range")
        if u == v:
            raise ValueError(f"loop at vertex {labels[u]!r}")
        row = adj[u]
        if v in row:
            raise ValueError(f"duplicate edge ({labels[u]!r}, {labels[v]!r})")
        row.add(v)
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


def _vertex_index(value, name: str) -> int:
    """An index or a count as an ``int``: a bool or a non-integral value is
    refused."""
    if type(value) is int:
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} {value!r} is not an integer")
    return int(value)


@dataclass(frozen=True)
class SphereTable:
    """All-pairs distances and the spheres S_r(v) of a pointed graph.

    ``dist`` is in the narrowest unsigned dtype that holds the diameter, so
    arithmetic on it widens first.  S_r(v) is ``np.flatnonzero(dist[v] ==
    r)``, of size ``starts[v, r + 1] - starts[v, r]``; ``base_order`` lists
    the vertices by base distance, ties in index order, so S_r(base) is
    also ``base_order[starts[base, r]:starts[base, r + 1]]``.
    """

    graph: PointedGraph
    dist: np.ndarray  # (n, n) uint8 or uint16
    index_set: tuple[int, ...]
    starts: np.ndarray  # (n, diameter + 2)
    base_order: np.ndarray  # (n,) int32

    def sphere(self, v: int, n: int) -> tuple[int, ...]:
        return tuple(np.flatnonzero(self.dist[v] == n).tolist())

    def sphere_size(self, v: int, n: int) -> int:
        if n < 0 or n >= self.starts.shape[1] - 1:
            return 0
        return int(self.starts[v, n + 1] - self.starts[v, n])

    def base_sphere(self, n: int) -> tuple[int, ...]:
        return self.sphere(self.graph.base, n)

    @property
    def sphere_sizes(self) -> np.ndarray:
        """``sphere_sizes[v, r] = |S_r(v)|`` for r up to the diameter."""
        return np.diff(self.starts, axis=1)

    @cached_property
    def base_counts(self) -> np.ndarray:
        """``base_counts[v, r, k] = |S_r(v) & S_k(base)|`` for r and k in the
        index set, in the narrowest unsigned dtype that holds n.

        One bincount per block of rows, of the keys ``d(v, w) * size +
        d(base, w)`` widened to ``np.intp`` and offset by each row's cell of
        ``width * size`` keys, the first size**2 of which have r in the
        index set; a block's keys and counts take at most ``_COUNT_BLOCK``
        entries."""
        n, size, width = self.graph.n_vertices, len(self.index_set), self.starts.shape[1] - 1
        cell = width * size
        counts = np.empty((n, size * size), dtype=np.min_scalar_type(n))
        rows = max(1, _COUNT_BLOCK // max(n, cell))
        shift = self.dist[self.graph.base] + np.arange(min(rows, n))[:, None] * cell
        for lo in range(0, n, rows):
            keys = self.dist[lo:lo + rows].astype(np.intp)
            keys *= size
            keys += shift[:len(keys)]
            counts[lo:lo + rows] = np.bincount(
                keys.ravel(), minlength=len(keys) * cell).reshape(-1, cell)[:, :size * size]
        counts = counts.reshape(n, size, size)
        counts.setflags(write=False)
        return counts

    @cached_property
    def tensor(self) -> StructureTensor:
        """The sphere-count constants of ``wildberger_tensor``, built once."""
        return _sphere_count_tensor(self)

    @cached_property
    def condition_s(self) -> Report:
        """The report of ``check_condition_s``, computed once."""
        return _condition_s(self)

    def _window_check(self, v: int, radius: int) -> None:
        window = self.graph.window_radius
        if window is not None and int(self.dist[self.graph.base, v]) + radius > window:
            raise BoundaryContactError(self.graph.labels[v], radius, window)


def _neighbour_array(graph: PointedGraph) -> np.ndarray:
    """The neighbour lists as one (n, max degree) index array, at least one
    column wide; a row shorter than that is padded with its own vertex."""
    n = graph.n_vertices
    degrees = list(map(len, graph.neighbors))
    width = max(max(degrees), 1)
    flat = np.fromiter(itertools.chain.from_iterable(graph.neighbors), dtype=np.intp,
                       count=sum(degrees))
    if min(degrees) == width:
        return flat.reshape(n, width)
    nbrs = np.repeat(np.arange(n), width).reshape(n, width)
    nbrs[np.arange(width) < np.array(degrees)[:, None]] = flat
    return nbrs


# Unpacked, a source is a byte holding 0 or 1: shifted by b mod 8 as 64-bit
# words, eight sources a word, distance plane b's bit stays in its byte, and
# eight planes OR into the byte of distance bits b - b mod 8 on.
_PLANE_SHIFTS = np.arange(64, dtype=np.uint64) % 8


def build_spheres(graph: PointedGraph) -> SphereTable:
    """Distances from every vertex at once, one BFS level at a time; the
    index set is the set of base distances.

    The search runs on bitsets packed along the source axis: row v of the
    frontier holds one bit per source s, set when d(s, v) is the current
    level, in 64-bit words.  Distances are symmetric, so the next level of
    row v is the OR of its neighbours' frontier rows, less the sources that
    already reached v: one gather of n/8-byte rows per neighbour column,
    O(n² · max degree / 64) word operations per level.  By the same
    symmetry, level r's row v is the sphere S_r(v), so the sphere sizes are
    counted on the search: each level's ``np.bitwise_count``, a byte a
    word, goes into a words-major buffer, which is summed over its words
    once per batch of levels.  The levels set the binary digits of the
    distances, packed like the frontier until the end, where they become
    ``dist``: one n×n array of 8- or 16-bit keys, the only n×n array the
    table holds or the build forms, unpacked a block of rows at a time, all
    planes of a block in one ``np.unpackbits`` and one OR-reduce per eight
    planes.  The count buffer and the unpacked planes of a block each take
    at most ``_COUNT_BLOCK`` int64 words (or one level, or one row).
    """
    n = graph.n_vertices
    # A row's own frontier bits are never unseen, so padding a neighbour
    # list with its own vertex adds nothing to the next level.
    nbrs = _neighbour_array(graph)
    words = (n + 63) // 64
    # One bit per source, in np.packbits order; the padding bits past n
    # are never unseen, so they never enter a frontier.
    frontier = np.zeros((n, 8 * words), dtype=np.uint8)
    vertices = np.arange(n)
    frontier[vertices, vertices // 8] = 0x80 >> (vertices % 8)
    unseen = np.packbits(np.arange(64 * words) < n) ^ frontier
    frontier, unseen = frontier.view(np.uint64), unseen.view(np.uint64)
    columns = list(nbrs.T)
    planes = [np.zeros((n, words), dtype=np.uint64)]  # bit b of d(v, s)
    tally = np.min_scalar_type(n)
    sizes = [np.ones((1, n), dtype=tally)]  # [r, v] = |S_r(v)|, a batch of levels each
    # Words-major, so that a row's words sum as whole rows (numpy sums
    # along a row's few words several times slower); a batch of levels
    # whose bytes fill at most _COUNT_BLOCK int64 words, and whose sums
    # hold at most _COUNT_BLOCK entries.
    batch = max(1, 8 * _COUNT_BLOCK // (n * max(words, 8)))
    counts = np.empty((words, min(batch, n), n), dtype=np.uint8)
    filled = 0
    level, more = 0, n > 1
    while more:
        reached = frontier[columns[0]]
        for column in columns[1:]:
            reached |= frontier[column]
        reached &= unseen
        level += 1
        unseen ^= reached
        more = unseen.any()
        frontier = reached
        if level.bit_length() > len(planes):
            planes.append(np.zeros((n, words), dtype=np.uint64))
        for b, plane in enumerate(planes):
            if level >> b & 1:
                plane |= reached
        np.bitwise_count(reached.T, out=counts[:, filled])
        filled += 1
        if filled == len(counts[0]) or not more:
            sizes.append(counts[:, :filled].sum(axis=0, dtype=tally))
            filled = 0
            # A level that reaches nothing leaves every later one empty.
            if not sizes[-1][-1].any():
                raise DisconnectedGraphError("distance matrix has unreachable pairs")
    frontier = unseen = reached = counts = None  # the planes are all that is left to read
    dist = np.empty((n, n), dtype=np.min_scalar_type(level))
    starts = np.zeros((n, level + 2), dtype=np.intp)
    np.cumsum(np.concatenate(sizes, dtype=np.intp).T, axis=1, out=starts[:, 1:])
    shifts = _PLANE_SHIFTS[:len(planes), None, None]
    rows = max(1, _COUNT_BLOCK // (len(planes) * 8 * words))
    for lo in range(0, n, rows):
        packed = np.array([plane[lo:lo + rows] for plane in planes]).view(np.uint8)
        lanes = np.unpackbits(packed, axis=2).view(np.uint64)
        lanes <<= shifts
        block = dist[lo:lo + rows]
        for b in range(0, len(planes), 8):
            byte = np.bitwise_or.reduce(lanes[b:b + 8], axis=0).view(np.uint8)[:, :n]
            if b:
                block |= byte.astype(dist.dtype) << b
            else:
                block[...] = byte
    base_row = dist[graph.base]
    index_set = tuple(np.flatnonzero(np.bincount(base_row)).tolist())
    base_order = np.argsort(base_row, kind="stable").astype(np.int32)
    for array in (dist, starts, base_order):
        array.setflags(write=False)
    return SphereTable(graph=graph, dist=dist, index_set=index_set, starts=starts,
                       base_order=base_order)


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
    those are the rows that agree with the underlying infinite graph; the
    spheres S_j(v) they use then stay inside the window.  A sphere table
    builds its tensor once and keeps it (``SphereTable.tensor``).
    """
    return _as_table(graph_or_table).tensor


def _sphere_count_tensor(table: SphereTable) -> StructureTensor:
    """The cube of ``wildberger_tensor``, summed from the base counts of the
    vertices in base order a block of ``_COUNT_BLOCK // size**2`` vertices
    at a time, into the rows of the base spheres each block meets: the cube
    is the only array of its size that is formed."""
    graph = table.graph
    index_set = table.index_set
    size = len(index_set)
    if index_set != tuple(range(size)):
        raise ValueError(f"index set {index_set} is not contiguous")
    window = graph.window_radius
    base_row, starts = table.base_order, table.starts[graph.base]
    cuts = starts[:size]
    base_sizes = np.diff(starts[:size + 1])
    # The landing sphere sizes |S_j(v)| of the vertices v of each S_i(base),
    # and the rows (i, j) inside the window, per vertex.
    sizes = table.sphere_sizes[base_row, :size]
    allowed = np.ones((size, size), dtype=bool)
    if window is not None:
        allowed = np.add.outer(np.arange(size), np.arange(size)) <= window
    rank = np.repeat(np.arange(size), base_sizes)  # base distance, in base order
    inside = allowed[rank]
    empty = allowed & (np.minimum.reduceat(sizes, cuts) == 0)
    if empty.any():
        i, j = divmod(int(np.argmax(empty)), size)
        lo, hi = starts[i], starts[i + 1]
        raise EmptySphereError(graph.labels[base_row[lo + np.argmin(sizes[lo:hi, j])]], j)
    # Over the lcm M of the landing sphere sizes, each v in S_i(base) adds
    # |S_j(v) & S_k(base)| * M / |S_j(v)| to M * |S_i(base)| * Q[i, j, k].
    # Over the lcm of the base sphere sizes too, every row has the one
    # denominator its numerators sum to, so they fit where it does.
    landing = math.lcm(*np.unique(sizes[inside]).tolist())
    denominator = landing * math.lcm(*base_sizes.tolist())
    dtype = np.int64 if denominator < 2**63 else object
    weights = np.zeros(sizes.shape, dtype=dtype)
    weights[inside] = landing // sizes[inside].astype(dtype)
    # A block meets the spheres rank[lo] to rank[hi - 1], each in one run
    # of its rows: the runs start at the sphere starts inside it.
    cube = np.zeros((size, size, size), dtype=dtype)
    rows = max(1, _COUNT_BLOCK // (size * size))
    for lo in range(0, len(base_row), rows):
        hi = min(lo + rows, len(base_row))
        counts = table.base_counts[base_row[lo:hi]] * weights[lo:hi, :, None]
        runs = np.concatenate(([0], cuts[rank[lo] + 1:rank[hi - 1] + 1] - lo))
        cube[rank[lo]:rank[hi - 1] + 1] += np.add.reduceat(counts, runs)
    cube *= (denominator // (landing * base_sizes.astype(dtype)))[:, None, None]
    return _exact_tensor_taking(cube, denominator, window)


def check_condition_s(graph_or_table) -> Report:
    """Sphere-symmetry condition: |S_i(v)| constant over vertices, and
    |S_i(v) & S_j(base)| constant over v in S_k(base), for all i, j, k.

    On a windowed graph the scan is restricted to the spheres that agree
    with the infinite graph (base distance plus radius within the window).
    Classes are scanned sphere sizes first (by i), then intersections (by
    i, j, k), and the scan stops at the first uneven class: the witness names
    it and two vertices whose counts differ, and the residual is that
    difference.  A sphere table scans once and keeps the report
    (``SphereTable.condition_s``).
    """
    return _as_table(graph_or_table).condition_s


def _condition_s(table: SphereTable) -> Report:
    graph = table.graph
    base = graph.base
    size = len(table.index_set)
    window = graph.window_radius
    if window is not None:  # past every base distance plus radius, and within int64
        window = min(window, 2 * size)
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

    # A class (i, j, k) is even when each member v of S_k(base), in base
    # order, has the counts[v, i, j] of the member before it.  Members are
    # compared a block at a time, over the i that the window keeps for their
    # k (none at a sphere's first member); spread[i, j, k] is formed only
    # once a pair differs, to name the first uneven class.  The counts and
    # their comparisons take a byte or two an entry, so a block's members
    # are counted in the int64 words they fill (see check_distance_regular).
    counts, order = table.base_counts, table.base_order
    ks = table.dist[base, order].astype(np.intp)
    limits = np.full(len(order), size) if window is None else window - ks
    limits[table.starts[base, :size]] = -1
    rows = max(1, _COUNT_BLOCK // -(-size * size * counts.itemsize // 8))
    spread = None
    for lo in range(1, len(order), rows):
        block = counts[order[lo - 1:lo + rows]]
        differ = block[1:] != block[:-1]
        differ &= (radii <= limits[lo:lo + rows, None])[:, :, None]
        if spread is None:
            if not differ.any():
                continue
            spread = np.zeros((size, size, size), dtype=bool)  # [i, j, k]
        block_ks = ks[lo:lo + rows]
        for k in np.unique(block_ks).tolist():
            spread[:, :, k] |= differ[block_ks == k].any(axis=0)
    if spread is not None:
        n = int(np.argmax(spread))
        i, j, k = (int(x) for x in np.unravel_index(n, spread.shape))
        members = order[table.starts[base, k]:table.starts[base, k + 1]]
        return uneven(("intersection", i, j, k), members, counts[members, i, j], size + n + 1)
    return Report("condition-S", True, 0.0, None, 0.0, size + size**3)


def check_distance_regular(graph_or_table) -> Report:
    """Whether |S_i(u) & S_j(v)| depends only on (i, j, d(u, v)).

    A connected graph has this property exactly when it is regular and, for
    every pair (v, u) at distance i, the numbers c_i and a_i of neighbours
    of v at distances i - 1 and i from u depend only on i: its intersection
    array (Brouwer, Cohen and Neumaier, *Distance-Regular Graphs*, 1989,
    §4.1).  That certificate is the whole test, in O(n² · degree) time.

    The degrees come first: the first v whose degree differs from vertex
    0's fails with the witness ("degree", 0, (0, 0), (v, v)), the degree
    difference as residual and v + 1 vertices checked.  Then c_i and a_i
    are read at the first pair at each distance i, in row-major order, and
    every pair (v, u) is checked against them in that order, c_i before
    a_i; the first miss fails with the witness ("c" or "a", i, first pair,
    (v, u)), the count difference as residual and v·n + u + 1 pairs
    checked.  Vertices are given by label.  A passing report counts the
    (diameter + 1)³ classes (i, j, d) that the property makes even.
    """
    table = _as_table(graph_or_table)
    graph, dist = table.graph, table.dist
    labels, n, width = graph.labels, graph.n_vertices, table.starts.shape[1] - 1

    def fail(kind, i, first, pair, residual, checked):
        witness = (kind, i, tuple(labels[x] for x in first), tuple(labels[x] for x in pair))
        return Report("distance-regular", False, float(residual), witness, 0.0, checked)

    degree = len(graph.neighbors[0])
    for v, row in enumerate(graph.neighbors):
        if len(row) != degree:
            return fail("degree", 0, (0, 0), (v, v), abs(len(row) - degree), v + 1)
    nbrs = _neighbour_array(graph)
    # c_i and a_i at the first pair (v, u) at each distance i: the
    # neighbours w of v with d(u, w) < i and d(u, w) = i.
    radii = np.arange(width, dtype=dist.dtype)
    first_v = np.argmax(table.sphere_sizes > 0, axis=0)
    first_u = np.argmax(dist[first_v] == radii[:, None], axis=1)
    near = dist[nbrs[first_v], first_u[:, None]]  # [i, neighbour]
    # The same counts for every pair, one block of rows v at a time: row
    # gathers d(w, u) = d(u, w) of each neighbour column w, by symmetry.
    # Counts and distances take a byte or two an entry, so a block's rows
    # are counted in the int64 words they fill: each temporary holds the
    # bytes of at most _COUNT_BLOCK int64 entries (or of one row).
    tally = np.min_scalar_type(nbrs.shape[1])
    c = (near < radii[:, None]).sum(axis=1).astype(tally)
    a = (near == radii[:, None]).sum(axis=1).astype(tally)
    rows = max(1, _COUNT_BLOCK // -(-n * max(dist.itemsize, tally.itemsize) // 8))
    for lo in range(0, n, rows):
        block = dist[lo:lo + rows]
        behind = np.zeros(block.shape, dtype=tally)
        level = np.zeros_like(behind)
        for column in nbrs[lo:lo + rows].T:
            near = dist[column]
            behind += near < block
            level += near == block
        c_miss = behind != c[block]
        miss = c_miss | (level != a[block])
        if miss.any():
            r, u = divmod(int(np.argmax(miss)), n)
            i = int(block[r, u])
            kind, count, expected = ("c", behind, c) if c_miss[r, u] else ("a", level, a)
            return fail(kind, i, (first_v[i], first_u[i]), (lo + r, u),
                        abs(int(count[r, u]) - int(expected[i])), (lo + r) * n + u + 1)
    return Report("distance-regular", True, 0.0, None, 0.0, width**3)


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
            spheres[v] = np.flatnonzero(table.dist[v] == k).tolist()
            if not spheres[v]:
                raise EmptySphereError(graph.labels[v], k)
        scale = math.lcm(*map(len, spheres.values()))
        spread: dict[int, int] = {}
        for v, weight in mass.items():
            share = weight * (scale // len(spheres[v]))
            for w in spheres[v]:
                spread[w] = spread.get(w, 0) + share
        mass, denominator = spread, denominator * scale
    base_dist = table.dist[graph.base].tolist()
    totals = [0] * len(table.index_set)
    for v, weight in mass.items():
        totals[base_dist[v]] += weight
    zero = Fraction(0)
    return [Fraction(x, denominator) if x else zero for x in totals]


def path_sum_levels(table: SphereTable, levels):
    """Exact path sums of every word of a ``prefix_trie`` over the index
    set, one level at a time: ``path_sum_distribution`` for whole levels.

    The table must satisfy condition (S), and on a windowed graph the
    words' letter sums must stay within the window radius.  Then every
    vertex v a prefix reaches has |S_k(v)| = |S_k(base)|, never 0, and
    d(base, v) + k stays within the window, so no word refuses
    (``path_sum_distribution`` is the single-word sum that refuses) and a
    letter k multiplies every denominator by |S_k(base)|.

    Holds the integer vertex masses of every prefix in a level.  A word
    ending in the letter 0 stays where its prefix is: its masses are a copy
    of its prefix's.  The other letters extend them a block of letters at a
    time (``letter_blocks``, within ``_COUNT_BLOCK``), by one product of the
    masses of the block's prefixes with the distance-k indicators of their
    support for the block's letters k, built and multiplied a chunk of
    support rows at a time (``_indicator_product``); the distributions then
    sum the masses by base distance (``_by_distance``).  The last level
    needs only the distributions: a letter 0 sums its prefix's masses by
    base distance, and the other products are with the counts |S_k(v) &
    S_r(base)| instead.  Yields per level the numerators of the
    distributions, a (words, size) array, and their denominators, a list.
    The masses of a word sum to its denominator, so the sums run in float64
    while every denominator is below 2**53, and in Python ints above; both
    are exact in any order, so the chunks change no bit.  Like the
    single-word sum, this never reads structure constants.
    """
    graph = table.graph
    n, size = graph.n_vertices, len(table.index_set)
    spheres = table.sphere_sizes[graph.base, :size]
    levels = list(levels)
    mass = np.zeros((1, n))
    mass[0, graph.base] = 1
    denominators = np.ones(1, dtype=np.int64)
    for depth, (words, parents, letters) in enumerate(levels):
        if int(denominators.max()) * int(spheres.max()) >= 2**63:
            denominators = denominators.astype(object)
        children = denominators[parents] * spheres[letters]
        bound = int(children.max())
        mass = exact_tier(bound, mass)
        last = depth == len(levels) - 1
        width = size if last else n
        out = np.empty((len(words), width), dtype=mass.dtype)
        stay, move = (letters == 0).nonzero()[0], letters.nonzero()[0]
        if len(stay):
            out[stay] = _by_distance(table, mass[parents[stay]]) if last else mass[parents[stay]]
        for ks, rows, chosen, at in letter_blocks(parents[move], letters[move], len(mass) * width):
            product = _indicator_product(table, mass[rows], ks, last, bound)
            out[move[chosen]] = product.reshape(-1, width)[at]
        yield (out if last else _by_distance(table, out)), children.tolist()
        mass, denominators = out, children


def _indicator_product(table: SphereTable, prefixes: np.ndarray, ks: np.ndarray, last: bool,
                       bound: int) -> np.ndarray:
    """``prefixes`` times, over their support v, the indicators [d(v, w) =
    k] at [v, (k, w)], or on the ``last`` level the counts |S_k(v) &
    S_r(base)| at [v, (k, r)], for the letters ``ks``: summed over chunks of
    support rows whose indicators and prefix columns each hold at most
    ``_COUNT_BLOCK`` entries, in the tier ``exact_tier`` picks for ``bound``."""
    on = prefixes.any(axis=0).nonzero()[0]
    keys = ks.astype(table.dist.dtype)[:, None]
    columns = len(ks) * (len(table.index_set) if last else table.graph.n_vertices)
    step = max(1, _COUNT_BLOCK // max(columns, len(prefixes)))
    product = None
    for lo in range(0, len(on), step):
        chunk = on[lo:lo + step]
        if last:
            block = table.base_counts[np.ix_(chunk, ks)]  # [v, k, r]
        else:
            block = table.dist[chunk, None, :] == keys  # [v, k, w]
        part = prefixes[:, chunk] @ exact_tier(bound, block).reshape(len(chunk), -1)
        if product is None:
            product = part
        else:
            product += part
    return product


def _by_distance(table: SphereTable, masses: np.ndarray) -> np.ndarray:
    """Vertex ``masses`` (rows of n) summed by base distance: (rows, size)."""
    base = table.graph.base
    return np.add.reduceat(masses[:, table.base_order], table.starts[base, :len(table.index_set)],
                           axis=1)


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
    return TransitionMatrixFamily(matrices=tuple(tensor.to_float().cube))


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

