"""Differential tests of the array graph layer and the associativity axiom
against the frozen loops in ``tests/reference/``.

- Path sums: every word of up to three letters over the index set of every
  graph in ``test_properties.py`` (words past a window's radius included, so
  that the window refusal is exercised) and a set of refusal cases must give
  exactly equal ``Fraction`` vectors, or the same refusal type.
- Spheres, condition (S), distance-regularity, the sphere-count constants and
  the associativity report: those graphs and 400 seeded random connected
  graphs (2 to 14 vertices, random base, windowed or not) must give equal
  spheres and distances, equal reports, equal tensor rows, or the same
  refusal with the same message.  Exact tensors must give bit-identical
  associativity reports; their float copies agree within round-off.  The
  frozen scan decides distance regularity; a failing report is the first
  violation of a plain loop over the intersection-array counts.
- Condition (S) and the associativity skips against the frozen array scans
  they replaced: the reduceat scan of each class's minimum and maximum, in
  blocks of one, of three and of the default number of members, and the
  mask of size**4 float products of the support and the undefined rows,
  with the report over it.  On those graphs, on windowed graphs that fail
  by sphere size and by intersection, on every truncated tensor of the
  corpus and on random truncated supports, the passed flag, the repr of
  the residual, the witness, checked and skipped must be equal.
- Wildberger constants of distance-regular graphs (hypercubes to Q10,
  Petersen, Shrikhande, the 4x4 rook's graph, K5, H(3,4), J(8,3)) must equal
  the closed form from their intersection arrays, as exact ``Fraction``s.
- Theorem 2.4: the level walk must give the frozen word loop's report, or
  its refusal with the same message, in exact and float mode, on the same
  graphs and on complete graphs whose sums cross 2**53.  The path and fold
  level walks must give each word's single-word sum and fold exactly (float
  folds bit for bit), and refuse at the level of the first word that does.
  A perturbed tensor drives the mismatch branch against the frozen residual.
- Corollary 2.6: the prefix-trie products and folds must give the frozen
  word loop's report bit for bit, or its refusal.
"""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from hyperwalk import (
    Hypergroup,
    HyperwalkError,
    build_spheres,
    check_condition_s,
    check_distance_regular,
    complete_graph,
    cycle_graph,
    free_ball_graph,
    hypercube_graph,
    line_window_graph,
    multi_constants,
    path_graph,
    path_sum_distribution,
    pointed_graph,
    presets,
    structure_tensor,
    validate_hypergroup,
    verify_corollary_2_6,
    verify_theorem_2_4,
    wildberger_tensor,
)
from hyperwalk import graphs, hypergroups
from hyperwalk.graphs import path_sum_levels
from hyperwalk.hypergroups import exact_tier, fold_levels, prefix_trie
from hyperwalk.report import Report
from hyperwalk.verify import _theorem_2_4_residuals
from reference import graph_loops as ref
from reference import hypergroup_loops as ref_assoc
from test_properties import CONDITION_S_GRAPHS, path_graph_based_mid

GRAPHS = CONDITION_S_GRAPHS + [path_graph_based_mid(), line_window_graph(5), line_window_graph(9)]


def _outcome(fn, table, word):
    """The distribution, or the type of the refusal."""
    try:
        return fn(table, word)
    except (HyperwalkError, IndexError, ValueError) as exc:
        return type(exc)


@pytest.mark.parametrize("graph", GRAPHS, ids=lambda g: f"n{g.n_vertices}-base{g.base}")
def test_path_sums_match_enumeration(graph):
    table = build_spheres(graph)
    for n in (1, 2, 3):
        for word in itertools.product(table.index_set, repeat=n):
            new = _outcome(path_sum_distribution, table, word)
            assert new == _outcome(ref.path_sum_distribution, table, word), word
            if isinstance(new, list):
                assert sum(new) == 1


@pytest.mark.parametrize(
    "graph, word",
    [
        (path_graph(3), (1, 2)),        # empty sphere around the middle vertex
        (path_graph(4), (1, 3)),
        (path_graph(4), (3, 1, 3)),
        (path_graph(3), (5,)),          # letter outside the index set
        (path_graph(3), ()),            # no letters
        (line_window_graph(3), (2, 2)),  # past the window
        (line_window_graph(3), (1, 1, 1, 1)),
    ],
)
def test_refusals_match_enumeration(graph, word):
    table = build_spheres(graph)
    new = _outcome(path_sum_distribution, table, word)
    assert isinstance(new, type)
    assert new is _outcome(ref.path_sum_distribution, table, word)


def random_graph(seed: int):
    """A connected graph on 2 to 14 vertices, shuffled labels, a random base,
    and half the time a window.  One in three is a circulant, whose sphere
    sizes are all equal, so that condition (S) also fails at intersection
    classes; the others are a random tree plus random chords."""
    rng = random.Random(seed)
    if rng.random() < 1 / 3:
        n = rng.randint(5, 14)
        steps = rng.sample(range(1, n // 2 + 1), rng.randint(1, min(3, n // 2)))
        if math.gcd(n, *steps) != 1:
            steps.append(1)
        edges = {tuple(sorted((v, (v + s) % n))) for v in range(n) for s in steps}
    else:
        n = rng.randint(2, 14)
        edges = {tuple(sorted((v, rng.randrange(v)))) for v in range(1, n)}
        density = rng.random() * 0.6
        edges |= {(u, v) for u, v in itertools.combinations(range(n), 2) if rng.random() < density}
    labels = [f"v{x}" for x in rng.sample(range(100), n)]
    window = rng.randint(0, n) if rng.random() < 0.5 else None
    return pointed_graph(labels, sorted(edges), rng.randrange(n), window_radius=window)


SHAPES = GRAPHS + [
    cycle_graph(6),
    cycle_graph(9),
    complete_graph(5),
    hypercube_graph(4),
    path_graph(6),
    free_ball_graph(2, 3),
    free_ball_graph(1, 4),
]


def _result(fn, table):
    """The result, or the type and message of the refusal."""
    try:
        return fn(table)
    except (HyperwalkError, ValueError) as exc:
        return type(exc), str(exc)


def _rows(tensor):
    if isinstance(tensor, tuple):
        return tensor
    rows = {pair: {k: (type(q), q) for k, q in row.items()} for pair, row in tensor.rows.items()}
    return tensor.size, tensor.truncation_radius, rows


def _assert_same_float_associativity(tensor):
    """The float copy's report against the loop's, within round-off: a
    different witness is accepted only at a tie within round-off."""
    floats = tensor.to_float()
    new = validate_hypergroup(floats, range(tensor.size)).check("associativity")
    old = ref_assoc.associativity(floats)
    assert (new.passed, new.checked, new.skipped) == (old.passed, old.checked, old.skipped)
    assert new.max_residual == pytest.approx(old.max_residual, abs=1e-13)
    if new.witness != old.witness and old.max_residual > 1e-13:
        i, j, k, l = new.witness
        at = ref_assoc._associator(floats, i, j, k).get(l, 0.0)
        assert at == pytest.approx(old.max_residual, abs=1e-13)


def _assert_same_distances(table, old_table):
    """Equal distances, held as the narrowest unsigned keys of the diameter."""
    assert table.dist.dtype == np.min_scalar_type(old_table.dist.max())
    assert np.array_equal(table.dist, old_table.dist)
    assert not table.dist.flags.writeable


def _first_violation_loop(graph):
    """The failing ``check_distance_regular`` report, as loops over the
    frozen BFS distances, or None when the graph is distance-regular: the
    first vertex whose degree differs from vertex 0's, else the first pair
    (v, u), row by row, whose count c (neighbours of v at distance i - 1
    from u) or then a (at distance i) differs from the first pair's at
    their distance i."""
    labels, nbrs, n = graph.labels, graph.neighbors, graph.n_vertices
    for v in range(n):
        if len(nbrs[v]) != len(nbrs[0]):
            witness = ("degree", 0, (labels[0], labels[0]), (labels[v], labels[v]))
            return Report("distance-regular", False, float(abs(len(nbrs[v]) - len(nbrs[0]))),
                          witness, 0.0, v + 1)
    dist = ref.build_spheres(graph).dist.tolist()
    firsts = {}
    for v, u in itertools.product(range(n), repeat=2):
        i = dist[v][u]
        counts = {"c": sum(dist[u][w] == i - 1 for w in nbrs[v]),
                  "a": sum(dist[u][w] == i for w in nbrs[v])}
        (a, b), expected = firsts.setdefault(i, ((v, u), counts))
        for kind in ("c", "a"):
            if counts[kind] != expected[kind]:
                witness = (kind, i, (labels[a], labels[b]), (labels[v], labels[u]))
                return Report("distance-regular", False,
                              float(abs(counts[kind] - expected[kind])), witness, 0.0,
                              v * n + u + 1)
    return None


def _assert_same_distance_regularity(graph, table):
    """The frozen scan's decision, and its report when it passes; the loop's
    first violation when it fails."""
    report = check_distance_regular(table)
    old = ref.check_distance_regular(ref.build_spheres(graph))
    assert report.passed is old.passed
    assert report == (old if old.passed else _first_violation_loop(graph))
    return report


def _fields(report):
    """What the comparisons with the frozen array scans cover."""
    return report.passed, repr(report.max_residual), report.witness, report.checked, report.skipped


def _assert_same_condition_s(table):
    """The scan against the frozen reduceat scan, in blocks of the default
    size, of one member and of three members."""
    expected = _fields(ref.condition_s_reduceat(table))
    # A member's counts fill this many int64 words of the budget.
    words = -(-len(table.index_set) ** 2 * table.base_counts.itemsize // 8)
    for block in (None, 1, 3):
        with pytest.MonkeyPatch.context() as patch:
            if block is not None:
                patch.setattr(graphs, "_COUNT_BLOCK", block * words)
            assert _fields(graphs._condition_s(table)) == expected, block


def _assert_same_skips(tensor):
    """The skip mask against the frozen GEMM mask, and the associativity
    report of the tensor and of its float copy against the frozen scan."""
    assert np.array_equal(hypergroups._skipped_triples(tensor), ref_assoc.gemm_skip(tensor))
    for t in (tensor, tensor.to_float()):
        new = validate_hypergroup(t, range(t.size)).check("associativity")
        assert _fields(new) == _fields(ref_assoc.associativity_gemm(t))


def _assert_same_graph_layer(graph):
    table, old_table = build_spheres(graph), ref.build_spheres(graph)
    _assert_same_distances(table, old_table)
    assert table.index_set == old_table.index_set
    for v in range(graph.n_vertices):
        for r in range(-1, int(table.dist.max()) + 3):
            assert table.sphere(v, r) == old_table.sphere(v, r), (v, r)
            assert table.sphere_size(v, r) == old_table.sphere_size(v, r)
    for r in range(-1, len(table.index_set) + 1):
        assert table.base_sphere(r) == old_table.base_sphere(r)

    assert check_condition_s(table) == ref.check_condition_s(old_table)
    _assert_same_condition_s(table)
    _assert_same_distance_regularity(graph, table)
    tensor = _result(wildberger_tensor, table)
    assert _rows(tensor) == _rows(_result(ref.wildberger_tensor, old_table))
    if isinstance(tensor, tuple):
        return
    _assert_same_skips(tensor)
    new = validate_hypergroup(tensor, range(tensor.size)).check("associativity")
    assert new == ref_assoc.associativity(tensor)
    _assert_same_float_associativity(tensor)


@pytest.mark.parametrize("graph", SHAPES, ids=lambda g: f"n{g.n_vertices}-base{g.base}")
def test_graph_layer_matches_loops(graph):
    _assert_same_graph_layer(graph)


@pytest.mark.parametrize("seed", range(400))
def test_random_graph_layer_matches_loops(seed):
    _assert_same_graph_layer(random_graph(seed))


def _circulant(n, steps, window):
    """The circulant graph on Z_n with the connection set of ``steps``,
    based at 0 and windowed: every sphere size is even, not every count."""
    edges = sorted({tuple(sorted((v, (v + s) % n))) for v in range(n) for s in steps})
    return pointed_graph([str(v) for v in range(n)], edges, 0, window_radius=window)


def _line_with_pendant(radius, at):
    """z-window(radius) with one more vertex hung on the vertex ``at``."""
    line = line_window_graph(radius)
    edges = list(line.edges()) + [(line.labels.index(at), len(line.labels))]
    return pointed_graph(list(line.labels) + ["x"], edges, line.base, window_radius=radius)


# Windowed graphs, each with the kind of uneven class condition (S) names:
# a pendant past the window makes uneven spheres that the scan leaves out.
WINDOWED = [
    (_line_with_pendant(30, "2"), "sphere-size"),
    (_line_with_pendant(30, "30"), None),
    (_circulant(8, (1, 4), 3), "intersection"),
    (_circulant(200, (1, 5), 12), "intersection"),
]


@pytest.mark.parametrize("graph, uneven", WINDOWED,
                         ids=("pendant-2", "pendant-30", "C8(1,4)", "C200(1,5)"))
def test_windowed_condition_s_matches_frozen_scan(graph, uneven):
    table = build_spheres(graph)
    report = check_condition_s(table)
    assert (report.witness or (None,))[0] == uneven
    _assert_same_condition_s(table)


def _index_graph(n, edges, base=0):
    return pointed_graph([str(v) for v in range(n)], sorted({tuple(sorted(e)) for e in edges}), base)


def _cayley_z4_squared(steps):
    """Cayley graph of Z4 x Z4 with the connection set of ``steps`` and their negatives."""
    return _index_graph(16, [(4 * a + b, 4 * ((a + x) % 4) + (b + y) % 4)
                             for a in range(4) for b in range(4) for x, y in steps])


def _generalized_petersen(n, k):
    """GP(n, k): an outer n-cycle, inner vertices joined k apart, and spokes."""
    edges = [(v, (v + 1) % n) for v in range(n)]
    edges += [(n + v, n + (v + k) % n) for v in range(n)]
    edges += [(v, n + v) for v in range(n)]
    return _index_graph(2 * n, edges)


CERTIFICATE_GRAPHS = {
    # Same intersection array {6, 3; 1, 2}; only the rook's graph is
    # distance-transitive.
    "shrikhande": (_cayley_z4_squared([(1, 0), (0, 1), (1, 1)]), True),
    "rook-4x4": (_index_graph(16, [(4 * a + b, 4 * c + d)
                                   for a, b, c, d in itertools.product(range(4), repeat=4)
                                   if (a == c) != (b == d)]), True),
    "petersen": (_generalized_petersen(5, 2), True),
    # Vertex-transitive, not distance-regular.
    "moebius-kantor": (_generalized_petersen(8, 3), False),
    "prism-c5xk2": (_generalized_petersen(5, 1), False),
    # 4-regular, not distance-regular: K3,4 plus a matching on its four
    # side.  Rows 0-2 meet the intersection array of their first pairs;
    # rows 3-6 do not.
    "k34-plus-matching": (_index_graph(7, [(a, b) for a in range(3) for b in range(3, 7)]
                                       + [(3, 5), (4, 6)]), False),
    "k1": (pointed_graph(["0"], [], 0), True),
    "k2": (complete_graph(2), True),
}


@pytest.mark.parametrize("name", CERTIFICATE_GRAPHS)
def test_intersection_array_certificate_matches_scan(name):
    graph, regular = CERTIFICATE_GRAPHS[name]
    assert _assert_same_distance_regularity(graph, build_spheres(graph)).passed is regular


def _intersection_array_constants(b, c):
    """The constants Q[i,j,k] = p^i_jk / k_j of a distance-regular graph
    with intersection array {b_0, ..., b_{D-1}; c_1, ..., c_D}, from its
    intersection matrices: L_1 is tridiagonal in (c_h, a_h, b_h), and
    L_1 L_j = b_{j-1} L_{j-1} + a_j L_j + c_{j+1} L_{j+1} gives the rest,
    with (L_j)[i, k] = p^i_jk and k_j = (L_j)[0, j]."""
    size = len(b) + 1
    b, c = list(b) + [0], [0] + list(c)
    a = [b[0] - b[h] - c[h] for h in range(size)]

    def product(x, y):
        return [[sum(x[i][m] * y[m][k] for m in range(size)) for k in range(size)]
                for i in range(size)]

    one = [[0] * size for _ in range(size)]
    for h in range(size):
        one[h][h] = a[h]
        if h:
            one[h][h - 1] = c[h]
        if h + 1 < size:
            one[h][h + 1] = b[h]
    levels = [[[int(i == k) for k in range(size)] for i in range(size)], one]
    for j in range(1, size - 1):
        step = product(one, levels[j])
        levels.append([[Fraction(step[i][k] - b[j - 1] * levels[j - 1][i][k]
                                 - a[j] * levels[j][i][k], c[j + 1]) for k in range(size)]
                       for i in range(size)])
    return {(i, j): {k: Fraction(levels[j][i][k], levels[j][0][j])
                     for k in range(size) if levels[j][i][k]}
            for i in range(size) for j in range(size)}


def _hamming_graph(d, q):
    words = list(itertools.product(range(q), repeat=d))
    return _index_graph(len(words), [(x, y) for x, y in itertools.combinations(range(len(words)), 2)
                                     if sum(s != t for s, t in zip(words[x], words[y])) == 1])


def _johnson_graph(n, k):
    sets = [set(s) for s in itertools.combinations(range(n), k)]
    return _index_graph(len(sets), [(x, y) for x, y in itertools.combinations(range(len(sets)), 2)
                                    if len(sets[x] & sets[y]) == k - 1])


# Graphs with a known intersection array {b_0, ..., b_{D-1}; c_1, ..., c_D}.
INTERSECTION_ARRAYS = {
    **{f"Q{d}": (lambda d=d: hypercube_graph(d), range(d, 0, -1), range(1, d + 1))
       for d in range(3, 11)},
    "petersen": (lambda: CERTIFICATE_GRAPHS["petersen"][0], (3, 2), (1, 1)),
    "shrikhande": (lambda: CERTIFICATE_GRAPHS["shrikhande"][0], (6, 3), (1, 2)),
    "rook-4x4": (lambda: CERTIFICATE_GRAPHS["rook-4x4"][0], (6, 3), (1, 2)),
    "K5": (lambda: complete_graph(5), (4,), (1,)),
    "H(3,4)": (lambda: _hamming_graph(3, 4), (9, 6, 3), (1, 2, 3)),
    "J(8,3)": (lambda: _johnson_graph(8, 3), (15, 8, 3), (1, 4, 9)),
}


@pytest.mark.parametrize("name", INTERSECTION_ARRAYS)
def test_wildberger_tensor_matches_intersection_array(name):
    build, b, c = INTERSECTION_ARRAYS[name]
    graph = build()
    tensor = wildberger_tensor(graph)
    assert tensor.is_exact
    rows = {pair: dict(row) for pair, row in tensor.rows.items()}
    assert rows == _intersection_array_constants(b, c)
    assert all(type(q) is Fraction for row in rows.values() for q in row.values())
    assert check_distance_regular(graph).passed


@pytest.mark.parametrize("rows", (1, 3))
def test_intersection_array_certificate_in_blocks_of_rows(rows, monkeypatch):
    # One row, or three (which divide few of the vertex counts), a block:
    # the report is the frozen scan's or the loop's on the whole corpus.  On
    # k34-plus-matching the first failing row is in the second block.  A row
    # of one-byte distances and counts fills n/8 int64 words of the budget.
    corpus = SHAPES + [graph for graph, _ in CERTIFICATE_GRAPHS.values()]
    corpus += [random_graph(seed) for seed in range(400)]
    tables = [build_spheres(graph) for graph in corpus]
    for graph, table in zip(corpus, tables):
        assert table.dist.itemsize == 1
        monkeypatch.setattr(graphs, "_COUNT_BLOCK", rows * -(-graph.n_vertices // 8))
        _assert_same_distance_regularity(graph, table)


def _bfs_graph(n, seed):
    """A connected graph on n vertices: a random tree plus a few chords."""
    rng = random.Random(seed)
    edges = {tuple(sorted((v, rng.randrange(v)))) for v in range(1, n)}
    edges |= {tuple(sorted(rng.sample(range(n), 2))) for _ in range(n // 4)}
    return pointed_graph([f"v{v}" for v in range(n)], sorted(edges), rng.randrange(n))


def _grid_graph(rows, cols):
    """The rows × cols grid, based at a corner."""
    edges = [(v, v + 1) for v in range(rows * cols) if (v + 1) % cols]
    edges += [(v, v + cols) for v in range((rows - 1) * cols)]
    return pointed_graph([f"v{v}" for v in range(rows * cols)], edges, 0)


# Vertex counts around the byte and 64-bit word boundaries of the packed
# rows; P300 has a diameter past 255, so its sort keys take 16 bits.  The
# 4 × 40 grid (diameter 42, three words a row) unpacks six distance planes
# at once; C520 unpacks nine, and its nine-word rows size a batch of
# sphere-size counts by its bytes rather than by its sums.
BFS_GRAPHS = ([_bfs_graph(n, seed) for n in (1, 7, 8, 9, 63, 64, 65) for seed in (0, 1)]
              + [path_graph(n) for n in (7, 8, 9, 63, 64, 65, 300)]
              + [free_ball_graph(2, 5), _grid_graph(4, 40), cycle_graph(520)])


@pytest.mark.parametrize("graph", BFS_GRAPHS, ids=lambda g: f"n{g.n_vertices}-base{g.base}")
def test_packed_bfs_matches_loop_bfs(graph):
    table, old_table = build_spheres(graph), ref.build_spheres(graph)
    _assert_same_distances(table, old_table)
    assert table.index_set == old_table.index_set
    sizes = [[len(sphere) for sphere in spheres] for spheres in old_table.spheres]
    starts = np.zeros_like(table.starts)
    np.cumsum(sizes, axis=1, out=starts[:, 1:])
    assert np.array_equal(table.starts, starts)
    assert [[table.sphere(v, r) for r in range(starts.shape[1] - 1)]
            for v in range(graph.n_vertices)] == [list(s) for s in old_table.spheres]


def _base_counts_loop(table):
    """``base_counts`` as one bincount per vertex, on widened keys."""
    n, width = table.starts.shape[0], table.starts.shape[1] - 1
    size = len(table.index_set)
    base_dist = table.dist[table.graph.base].astype(np.intp)
    counts = np.empty((n, size, size), dtype=np.min_scalar_type(n))
    for v in range(n):
        keys = table.dist[v].astype(np.intp) * size + base_dist
        counts[v] = np.bincount(keys, minlength=width * size).reshape(width, size)[:size]
    return counts


# path(256) has uint8 keys and an index set of 256 radii, P300 uint16 keys
# and 300 × 300 cells: unwidened keys wrap on both.
@pytest.mark.parametrize("block", (None, 1, 50))
@pytest.mark.parametrize("graph", [hypercube_graph(7), free_ball_graph(2, 5),
                                   line_window_graph(30), path_graph(8), path_graph(256),
                                   path_graph(300)],
                         ids=("Q7", "free-ball(2,5)", "z-window(30)", "path(8)", "path(256)",
                              "path(300)"))
def test_base_counts_match_per_vertex_loop(graph, block, monkeypatch):
    if block is not None:  # blocks of one row, and of rows that do not divide n
        monkeypatch.setattr(graphs, "_COUNT_BLOCK", block * max(graph.n_vertices, 64))
    counts = build_spheres(graph).base_counts
    expected = _base_counts_loop(build_spheres(graph))
    assert counts.dtype == expected.dtype and counts.shape == expected.shape
    assert np.array_equal(counts, expected)


def test_random_graphs_cover_refusals_and_failures():
    """The random corpus reaches every outcome the comparisons rely on."""
    outcomes = set()
    for seed in range(400):
        table = build_spheres(random_graph(seed))
        window = table.graph.window_radius
        condition = check_condition_s(table)
        outcomes.add(("condition-S", condition.passed))
        if not condition.passed:
            outcomes.add(("uneven", condition.witness[0]))
            if condition.witness[0] == "intersection":
                i, _, k = condition.witness[1:4]
                outcomes.add(("window edge", window is not None and i + k == window))
        regular = check_distance_regular(table)
        outcomes.add(("distance-regular", regular.passed))
        if not regular.passed:
            outcomes.add(("irregular", regular.witness[0]))
        tensor = _result(wildberger_tensor, table)
        outcomes.add(("tensor", tensor[0].__name__ if isinstance(tensor, tuple) else "ok"))
        outcomes.add(("windowed", window is not None))
    for check in ("condition-S", "distance-regular", "windowed", "window edge"):
        assert {(check, True), (check, False)} <= outcomes
    assert {("uneven", "sphere-size"), ("uneven", "intersection")} <= outcomes
    assert {("irregular", "degree"), ("irregular", "c"), ("irregular", "a")} <= outcomes
    assert {("tensor", "ok"), ("tensor", "EmptySphereError")} <= outcomes


def _large_denominator_tensor(seed: int, primes):
    """A random exact size-3 tensor: unit rows at index 0, and random rows
    over denominators drawn from ``primes``."""
    rng = random.Random(seed)
    size = 3
    entries = [(i, 0, i, Fraction(1)) for i in range(size)]
    entries += [(0, j, j, Fraction(1)) for j in range(1, size)]
    for i, j in itertools.product(range(1, size), repeat=2):
        den = rng.choice(primes)
        cuts = sorted(rng.randrange(1, den) for _ in range(size - 1))
        parts = [b - a for a, b in zip([0] + cuts, cuts + [den])]
        entries += [(i, j, k, Fraction(p, den)) for k, p in enumerate(parts)]
    return structure_tensor(size, entries)


def _negative_numerator_tensor(seed: int):
    """A random exact size-3 tensor built directly, past the constructor's
    checks: half of the numerators below 2**20, half above -2**40, so that
    max |N|**2 * size passes 2**53 where the largest numerator's square
    alone would not."""
    rng = random.Random(seed)
    numerators = [rng.randrange(2**20) if rng.random() < 0.5 else -rng.randrange(2**40)
                  for _ in range(27)]
    return hypergroups.StructureTensor(np.array(numerators).reshape(3, 3, 3), 2**25)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize(
    "build, dtype",
    [
        # numerators near 2**25: products near 2**50
        (lambda seed: _large_denominator_tensor(seed, (33554393,)), float),
        # past 2**53
        (lambda seed: _large_denominator_tensor(
            seed, (1099511627791, 1099511627817, 1099511627839)), object),
        (_negative_numerator_tensor, object),
    ],
    ids=["float64", "python-ints", "negative"],
)
def test_associativity_large_numerators_match_loop(seed, build, dtype, monkeypatch):
    tensor = build(seed)
    tensor.to_float()  # built once, outside the recorded calls
    contracted = []

    def recording_tier(bound, values):
        out = exact_tier(bound, values)
        if values is tensor.cube:
            contracted.append(out.dtype)
        return out

    monkeypatch.setattr(hypergroups, "exact_tier", recording_tier)
    new = validate_hypergroup(tensor, range(tensor.size)).check("associativity")
    assert contracted == [np.dtype(dtype)]
    assert new == ref_assoc.associativity(tensor)
    assert not new.passed


def test_truncated_skip_count_matches_loop():
    tensor = wildberger_tensor(line_window_graph(30))
    new = validate_hypergroup(tensor, range(tensor.size)).check("associativity")
    assert new == ref_assoc.associativity(tensor)
    assert new.skipped == 24335


def _moved_mass(tensor, pairs):
    """``tensor`` with a third of the first entry of each row in ``pairs``
    moved to the next index: still stochastic, no longer associative."""
    rows = {pair: dict(row) for pair, row in tensor.rows.items()}
    for pair in pairs:
        row = rows[pair]
        k, nxt = min(row), (min(row) + 1) % tensor.size
        moved = row[k] / 3
        row[k] -= moved
        row[nxt] = row.get(nxt, 0) + moved
    entries = [(i, j, k, q) for (i, j), row in rows.items() for k, q in row.items()]
    return structure_tensor(tensor.size, entries, tensor.truncation_radius)


# Per i, associativity contracts only the box of (j, k) that some kept
# triple needs; a failing row puts the witness inside a box narrower than
# the cube.
@pytest.mark.parametrize("pairs", [(), ((3, 5),), ((1, 1), (20, 9))], ids=("exact", "one", "two"))
@pytest.mark.parametrize("tensor", [presets.zlattice_hypergroup(32).tensor,
                                    wildberger_tensor(line_window_graph(30))],
                         ids=("zlattice(32)", "z-window(30)"))
def test_truncated_associativity_matches_loop(tensor, pairs):
    tensor = _moved_mass(tensor, pairs)
    new = validate_hypergroup(tensor, range(tensor.size)).check("associativity")
    assert new == ref_assoc.associativity(tensor)
    assert new.passed == (not pairs)
    _assert_same_float_associativity(tensor)
    _assert_same_skips(tensor)


@pytest.mark.parametrize("tensor", [presets.zlattice_hypergroup(r).tensor for r in (1, 4, 8)]
                         + [wildberger_tensor(free_ball_graph(2, 3)),
                            wildberger_tensor(line_window_graph(60))],
                         ids=("zlattice(1)", "zlattice(4)", "zlattice(8)",
                              "free-ball(2,3)", "z-window(60)"))
def test_truncated_skips_match_frozen_mask(tensor):
    _assert_same_skips(tensor)


def test_random_truncated_supports_match_frozen_mask():
    """Random supports, inside and outside the domain, with empty rows."""
    rng = np.random.default_rng(20)
    for _ in range(300):
        size = int(rng.integers(1, 9))
        cube = rng.integers(0, 3, (size,) * 3) * (rng.random((size,) * 3) < rng.random())
        tensor = hypergroups.StructureTensor(cube, 1, int(rng.integers(0, 2 * size)))
        assert np.array_equal(hypergroups._skipped_triples(tensor), ref_assoc.gemm_skip(tensor))


def _report(fn, graph, max_len, mode):
    """The report, or the type and message of the refusal."""
    try:
        return fn(graph, max_len, mode)
    except (HyperwalkError, ValueError) as exc:
        return type(exc), str(exc)


def _assert_same_theorem_2_4(graph, max_len):
    table = build_spheres(graph)
    for mode in ("exact", "float"):
        for n in range(1, max_len + 1):
            new = _report(verify_theorem_2_4, table, n, mode)
            assert new == _report(ref.verify_theorem_2_4, table, n, mode), (mode, n)


@pytest.mark.parametrize("graph", SHAPES, ids=lambda g: f"n{g.n_vertices}-base{g.base}")
def test_theorem_2_4_matches_word_loop(graph):
    _assert_same_theorem_2_4(graph, 4 if graph.n_vertices <= 20 else 3)


@pytest.mark.parametrize("seed", range(400))
def test_random_theorem_2_4_matches_word_loop(seed):
    _assert_same_theorem_2_4(random_graph(seed), 3)


def _assert_residuals_match(table, tensor, max_len):
    """The level walk's residuals against the frozen per-word residual, in
    both modes (returned by mode); the per-word path sums are formed once."""
    words = list(ref._budgeted_words(table.index_set, max_len, table.graph.window_radius))
    paths = [path_sum_distribution(table, w) for w in words]
    out = {}
    for mode, fold_tensor in (("exact", tensor), ("float", tensor.to_float())):
        level_words, residuals = _theorem_2_4_residuals(table, tensor, max_len, mode)
        assert [tuple(w) for level in level_words for w in level.tolist()] == words
        expected = [ref.residual(p, multi_constants(fold_tensor, w), mode)
                    for p, w in zip(paths, words)]
        assert residuals.tolist() == expected
        out[mode] = expected
    return out


def test_theorem_2_4_python_ints():
    # On K100 the words of 8 letters have path sums over up to 99**8 > 2**53,
    # held as Python ints, and from 4 letters on the cross-products of the
    # exact comparison pass 2**53 too.
    table = build_spheres(complete_graph(100))
    assert not any(_assert_residuals_match(table, wildberger_tensor(table), 8)["exact"])


def _assert_level_walks_match(table, levels, tensor):
    """Each word's path sum and exact fold from the level walks equal its
    single-word sum and fold."""
    walks = zip(levels, path_sum_levels(table, levels), fold_levels(tensor, levels), strict=True)
    for (words, _, _), (numerators, denominators), (folds, scale) in walks:
        for word, row, den, fold in zip(words.tolist(), numerators.tolist(), denominators,
                                        folds.tolist()):
            assert [Fraction(int(x), den) for x in row] == path_sum_distribution(table, word)
            assert [Fraction(int(x), scale) for x in fold] == multi_constants(tensor, word)


def _assert_walkable_match(graph, max_len):
    """On a condition-(S) graph, the level walks over the words within its
    window budget, the words ``verify_theorem_2_4`` walks, match the
    single-word sums.  Other graphs are refused before any walk, which
    ``_assert_same_theorem_2_4`` compares."""
    table = build_spheres(graph)
    if not check_condition_s(table).passed:
        return False
    levels = list(prefix_trie(table.index_set, max_len, graph.window_radius))
    _assert_level_walks_match(table, levels, wildberger_tensor(table))
    return True


def test_random_level_walks_match_single_words():
    walked = sum(_assert_walkable_match(random_graph(seed), 3) for seed in range(400))
    assert walked == 124


@pytest.mark.parametrize(
    "graph", [g for g in SHAPES if check_condition_s(g).passed],
    ids=lambda g: f"n{g.n_vertices}-base{g.base}",
)
def test_level_walks_match_single_words(graph):
    assert _assert_walkable_match(graph, 4 if graph.n_vertices <= 20 else 3)


def test_level_walks_cross_into_python_ints():
    # On K200 the word 1**n has path sums over 199**n and folds over
    # 199**(n - 1): from n = 7 and n = 8 on they pass 2**53 and are held as
    # Python ints, and from n = 9 and n = 10 on they pass 2**63 too.
    table = build_spheres(complete_graph(200))
    tensor = wildberger_tensor(table)
    levels = list(prefix_trie((1,), 10, None))
    _assert_level_walks_match(table, levels, tensor)
    paths = list(path_sum_levels(table, levels))
    assert [numerators.dtype for numerators, _ in paths] == [float] * 6 + [object] * 4
    assert paths[-1][1] == [199**10]
    folds = list(fold_levels(tensor, levels))
    assert [folds.dtype for folds, _ in folds] == [float] * 7 + [object] * 3
    assert folds[-1][1] == 199**9
    # C5's constants have denominators 2 and rows of up to two entries:
    # folds of 1**n are over 2**(n - 1), held as Python ints from n = 54.
    tensor = wildberger_tensor(cycle_graph(5))
    levels = list(prefix_trie((1,), 56, None))
    _assert_level_walks_match(build_spheres(cycle_graph(5)), levels, tensor)
    folds = list(fold_levels(tensor, levels))
    assert [folds.dtype for folds, _ in folds] == [float] * 53 + [object] * 3


def test_theorem_2_4_mismatch_matches_frozen_residual():
    # A real condition-(S) graph never disagrees: a perturbed tensor must.
    # Row (1, 1) of Q3 is [1/3, 0, 2/3, 0]; moving 1/7 from each of its
    # entries to index 1 makes the fold's largest excess and largest deficit
    # differ, so a residual that is not the largest |difference| shows.
    table = build_spheres(hypercube_graph(3))
    exact = wildberger_tensor(table)
    rows = {pair: dict(row) for pair, row in exact.rows.items()}
    for k, delta in ((0, Fraction(-1, 7)), (1, Fraction(2, 7)), (2, Fraction(-1, 7))):
        rows[(1, 1)][k] = rows[(1, 1)].get(k, 0) + delta
    entries = [(i, j, k, q) for (i, j), row in rows.items() for k, q in row.items()]
    tensor = structure_tensor(exact.size, entries)
    residuals = _assert_residuals_match(table, tensor, 3)["exact"]
    assert 0 < sum(r > 0 for r in residuals) < len(residuals)


def test_theorem_2_4_mismatch_below_float_resolution():
    # Moving 1/99**8 within row (1, 1) of K100's constants brings the fold
    # denominators to 99**8 per letter: the cross-products of the exact
    # comparison pass 2**53, and the paths and folds differ by about 1e-16
    # relative, below what float64 products of them could tell apart.
    table = build_spheres(complete_graph(100))
    exact = wildberger_tensor(table)
    delta = Fraction(1, 99**8)
    rows = {pair: dict(row) for pair, row in exact.rows.items()}
    rows[(1, 1)] = {0: rows[(1, 1)][0] + delta, 1: rows[(1, 1)][1] - delta}
    entries = [(i, j, k, q) for (i, j), row in rows.items() for k, q in row.items()]
    tensor = structure_tensor(exact.size, entries)
    residuals = _assert_residuals_match(table, tensor, 3)["exact"]
    # The five words that use row (1, 1) disagree.
    assert sum(r > 0 for r in residuals) == 5 and max(residuals) < 1e-15


def _corollary_cases():
    cases = [presets.FIXTURES[name][0]() for name in ("c4-hypergroup", "z2", "z3", "s3-classes")]
    cases += [presets.FIXTURES["s3"][0](), presets.FIXTURES["z-lattice"][0](3)]
    cases.append(Hypergroup(presets.FIXTURES["c4-perturbed"][0](), (0, 1, 2)))
    cases += [Hypergroup.build(wildberger_tensor(g))
              for g in (cycle_graph(6), hypercube_graph(3), complete_graph(5), cycle_graph(9))]
    return cases


@pytest.mark.parametrize("hypergroup", _corollary_cases(), ids=lambda h: f"size{h.size}")
def test_corollary_2_6_matches_word_loop(hypergroup):
    for n in range(1, 5 if hypergroup.size <= 5 else 4):
        new = _report(verify_corollary_2_6, hypergroup, n, 1e-12)
        assert new == _report(ref_assoc.verify_corollary_2_6, hypergroup, n, 1e-12), n
