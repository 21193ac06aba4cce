"""Differential tests of the exact graph route's blocked paths against the
frozen loops in ``tests/reference/``, and the memory those blocks bound.

The block budget ``_COUNT_BLOCK`` is read by ``graphs``, by
``hypergroups.validate_hypergroup`` and by Theorem 2.4's folds in
``verify``; each test sets it in the three modules, to its default, to one
entry (every block then holds one row, one j or one support vertex), and
to r rows of the path's unit, r the least count >= 2 that does not divide
the rows the path splits ("uneven").
- ``build_spheres``: distances (dtype included), sphere sizes and spheres
  of the packed-BFS corpus (n around the 64-bit word boundaries, P300's
  uint16 distances) against the loop BFS.
- ``base_counts``: the per-vertex bincount, on path(256) and path(300),
  whose unwidened keys would wrap.
- ``wildberger_tensor``: the frozen ``Fraction`` layer on z-window(30/100),
  free-ball cubes and a tree whose denominator passes 2**63 (an object
  cube), with the frozen ``validate_hypergroup``, ``derive_involution`` and
  folds on the tensor and on its float copy.
- ``path_sum_levels``: the per-letter loop, with the letter 0 on every
  level, in float64 and past 2**53 in Python ints.
- Theorem 2.4's ``fold_levels`` at the budget: the per-letter loop on the
  same graphs, and the theorem's report.
- ``validate_hypergroup``: the frozen associativity loop on exact tensors
  bit for bit, and on their float copies within round-off; the frozen
  layer's whole report on every preset, a non-identity involution among
  them.
- ``tracemalloc`` peaks of warm second calls: ``build_spheres`` holds no
  more than ``dist``, the packed search and one budget; Theorem 2.4 on a
  free-group ball never holds an n×n float array; ``wildberger_tensor``
  holds at most two cubes and one budget.
"""

import random
import tracemalloc

import numpy as np
import pytest

from hyperwalk import (
    build_spheres,
    complete_graph,
    cycle_graph,
    free_ball_graph,
    hypercube_graph,
    line_window_graph,
    path_graph,
    pointed_graph,
    presets,
    validate_hypergroup,
    verify_theorem_2_4,
    wildberger_tensor,
)
from hyperwalk import graphs, hypergroups, verify
from hyperwalk.hypergroups import fold_levels, prefix_trie
from reference import graph_loops as ref
from reference import level_loops as ref_level
from reference import hypergroup_loops as ref_assoc
from reference import tensor_loops as ref_tensor
from test_graph_differential import (
    BFS_GRAPHS,
    _assert_same_distances,
    _assert_same_float_associativity,
    _base_counts_loop,
    _moved_mass,
)
from test_level_differential import assert_same_array, assert_same_walks
from test_tensor_differential import (
    _assert_same_entries,
    _assert_same_graph_tensor,
    _preset_calls,
)

BUDGETS = ("default", "one row", "uneven")


def _set_budget(monkeypatch, kind, rows, unit):
    """Set ``_COUNT_BLOCK`` for ``kind``: a block of ``unit`` entries a row
    over ``rows`` rows."""
    if kind == "default":
        return
    entries = 1
    if kind == "uneven":
        entries = unit * next(r for r in range(2, rows + 3) if rows % r)
    for module in (graphs, hypergroups, verify):
        monkeypatch.setattr(module, "_COUNT_BLOCK", entries)


@pytest.mark.parametrize("kind", BUDGETS)
@pytest.mark.parametrize("graph", BFS_GRAPHS, ids=lambda g: f"n{g.n_vertices}-base{g.base}")
def test_blocked_bfs_matches_loop_bfs(graph, kind, monkeypatch):
    n = graph.n_vertices
    _set_budget(monkeypatch, kind, n, n)
    table, old_table = build_spheres(graph), ref.build_spheres(graph)
    _assert_same_distances(table, old_table)
    assert table.index_set == old_table.index_set
    sizes = [[len(sphere) for sphere in spheres] for spheres in old_table.spheres]
    starts = np.zeros_like(table.starts)
    np.cumsum(sizes, axis=1, out=starts[:, 1:])
    assert np.array_equal(table.starts, starts)
    assert [[table.sphere(v, r) for r in range(starts.shape[1] - 1)]
            for v in range(n)] == [list(s) for s in old_table.spheres]


@pytest.mark.parametrize("kind", BUDGETS)
@pytest.mark.parametrize("graph", [path_graph(256), path_graph(300), line_window_graph(30),
                                   free_ball_graph(2, 5)],
                         ids=("path(256)", "path(300)", "z-window(30)", "free-ball(2,5)"))
def test_blocked_base_counts_match_per_vertex_loop(graph, kind, monkeypatch):
    table = build_spheres(graph)
    cell = (table.starts.shape[1] - 1) * len(table.index_set)
    _set_budget(monkeypatch, kind, graph.n_vertices, max(graph.n_vertices, cell))
    counts = table.base_counts
    expected = _base_counts_loop(table)
    assert counts.dtype == expected.dtype and np.array_equal(counts, expected)


def _tree(seed):
    """A random tree on 200 to 400 vertices; seed 2's sphere sizes bring the
    common denominator past 2**63."""
    rng = random.Random(seed)
    n = rng.randint(200, 400)
    edges = sorted({tuple(sorted((v, rng.randrange(v)))) for v in range(1, n)})
    return pointed_graph([str(v) for v in range(n)], edges, 0)


CUBE_GRAPHS = {"z-window(30)": line_window_graph(30), "z-window(100)": line_window_graph(100),
               "free-ball(2,5)": free_ball_graph(2, 5), "free-ball(3,3)": free_ball_graph(3, 3),
               "tree": _tree(2)}


@pytest.mark.parametrize("kind", BUDGETS)
@pytest.mark.parametrize("name", CUBE_GRAPHS)
def test_blocked_cube_matches_frozen_layer(name, kind, monkeypatch):
    graph = CUBE_GRAPHS[name]
    size = len(build_spheres(graph).index_set)
    _set_budget(monkeypatch, kind, graph.n_vertices, size * size)
    if graph.n_vertices > 100:  # the frozen layer's algebra over a large cube is slow
        table = build_spheres(graph)
        tensor = wildberger_tensor(table)
        old = ref_tensor._sphere_count_tensor(table)
        assert {p: dict(row) for p, row in tensor.rows.items()} == \
            {p: dict(row) for p, row in old.rows.items()}
        assert tensor.cube.dtype == (object if name == "tree" else np.int64)
        return
    _assert_same_graph_tensor(graph)


@pytest.mark.parametrize("kind", BUDGETS)
@pytest.mark.parametrize("graph, max_len", [
    (line_window_graph(30), 3), (free_ball_graph(2, 5), 3), (hypercube_graph(6), 3),
    (cycle_graph(9), 4), (complete_graph(100), 8)],
    ids=("z-window(30)", "free-ball(2,5)", "Q6", "C9", "K100"))
def test_blocked_path_sums_match_per_letter_loop(graph, max_len, kind, monkeypatch):
    # K100 at eight letters passes 2**53: its last levels sum Python ints.
    table = build_spheres(graph)
    _set_budget(monkeypatch, kind, graph.n_vertices, graph.n_vertices)
    paths = assert_same_walks(table, wildberger_tensor(table), max_len, graph.window_radius)
    tiers = {numerators.dtype for numerators, _ in paths}
    assert tiers == ({np.dtype(float), np.dtype(object)} if graph.n_vertices == 100
                     else {np.dtype(float)})


@pytest.mark.parametrize("kind", BUDGETS)
@pytest.mark.parametrize("graph, max_len", [
    (line_window_graph(30), 3), (free_ball_graph(2, 5), 3), (hypercube_graph(6), 3),
    (cycle_graph(9), 4), (complete_graph(100), 8)],
    ids=("z-window(30)", "free-ball(2,5)", "Q6", "C9", "K100"))
def test_theorem_2_4_folds_at_the_budget_match_per_letter_loop(graph, max_len, kind,
                                                               monkeypatch):
    # Theorem 2.4 folds a block of letters within the graph budget: a
    # letter's block of the cube is size**2 entries.
    table = build_spheres(graph)
    tensor, size = wildberger_tensor(table), len(table.index_set)
    _set_budget(monkeypatch, kind, size, size * size)
    levels = list(prefix_trie(table.index_set, max_len, graph.window_radius))
    folds = fold_levels(tensor, levels, verify._COUNT_BLOCK)
    for (fold, scale), (old_fold, old_scale) in zip(folds, ref_level.fold_levels(tensor, levels),
                                                    strict=True):
        assert_same_array(fold, old_fold)
        assert scale == old_scale
    report = verify_theorem_2_4(table, max_len)
    assert report.passed and report.max_residual == 0


def _random_supports(seed, count):
    """Exact tensors of random integer numerators over random supports,
    truncated at random radii: rows whose last kept k is not monotone in j."""
    rng = np.random.default_rng(seed)
    tensors = []
    for _ in range(count):
        size = int(rng.integers(2, 10))
        cube = rng.integers(1, 4, (size,) * 3) * (rng.random((size,) * 3) < rng.random())
        tensors.append(hypergroups.StructureTensor(cube, 4, int(rng.integers(size - 2, 2 * size))))
    return tensors


ASSOCIATIVITY_TENSORS = {
    "z-window(30)": wildberger_tensor(line_window_graph(30)),
    "z-window(30), two rows moved": _moved_mass(wildberger_tensor(line_window_graph(30)),
                                                ((1, 1), (20, 9))),
    "C48": wildberger_tensor(cycle_graph(48)),
    "free-ball(2,5)": wildberger_tensor(free_ball_graph(2, 5)),
    "z-lattice(20), one row moved": _moved_mass(presets.zlattice_hypergroup(20).tensor, ((3, 5),)),
    "perturbed C4": presets.perturbed_c4_tensor(),
}


@pytest.mark.parametrize("kind", BUDGETS)
@pytest.mark.parametrize("name", ASSOCIATIVITY_TENSORS)
def test_blocked_associativity_matches_loop(name, kind, monkeypatch):
    tensor = ASSOCIATIVITY_TENSORS[name]
    _set_budget(monkeypatch, kind, tensor.size, tensor.size**2)
    report = validate_hypergroup(tensor, range(tensor.size)).check("associativity")
    assert report == ref_assoc.associativity(tensor)
    assert report.passed == ("moved" not in name and "perturbed" not in name)
    _assert_same_float_associativity(tensor)


def test_blocked_associativity_of_random_supports_matches_loop():
    for tensor in _random_supports(26, 60):
        expected = ref_assoc.associativity(tensor)
        for kind in BUDGETS:
            with pytest.MonkeyPatch.context() as patch:
                _set_budget(patch, kind, tensor.size, tensor.size**2)
                report = validate_hypergroup(tensor, range(tensor.size)).check("associativity")
            assert report == expected, kind


@pytest.mark.parametrize("kind", BUDGETS[1:])
def test_blocked_presets_match_frozen_layer(kind, monkeypatch):
    # The presets' tensors and hypergroups, Z3's involution (0, 2, 1) among
    # them: every report of validate_hypergroup as the frozen layer's.
    calls, _ = _preset_calls()
    assert "z3" in presets.FIXTURES and presets.z3_hypergroup().involution == (0, 2, 1)
    for size, entries, radius in calls:
        with pytest.MonkeyPatch.context() as patch:
            _set_budget(patch, kind, size, size * size)
            _assert_same_entries(size, entries, radius)


def _warm_peak(call):
    """The result of a second ``call`` and the bytes it peaked at."""
    call()
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_build_spheres_holds_dist_the_search_and_one_budget():
    # Q10's 1 MiB of distances, four planes of bits and four arrays of the
    # search (frontier, unseen, reached and a gathered neighbour column)
    # of n/8 bytes a row; whole n×n unpacked temporaries peaked at 4.0 MiB.
    graph = hypercube_graph(10)
    table, peak = _warm_peak(lambda: build_spheres(graph))
    n, words = graph.n_vertices, (graph.n_vertices + 63) // 64
    planes = (table.starts.shape[1] - 2).bit_length()
    assert peak <= table.dist.nbytes + (planes + 4) * n * words * 8 + 8 * graphs._COUNT_BLOCK


def test_theorem_2_4_holds_no_vertex_square_of_floats():
    # A 1.9 MB distance-0 indicator of the whole ball peaked at 2.5 MiB.
    graph = free_ball_graph(2, 5)
    report, peak = _warm_peak(lambda: verify_theorem_2_4(graph, 3))
    assert report.passed and report.max_residual == 0
    assert peak < 8 * graph.n_vertices**2


def test_wildberger_tensor_holds_two_cubes_and_one_budget():
    # The counts of every vertex times its weights, then reduced, scaled and
    # copied as whole arrays, peaked at 41.9 MiB for a 7.9 MiB cube.
    graph = line_window_graph(100)
    tensor, peak = _warm_peak(lambda: wildberger_tensor(graph))
    assert peak <= 2 * tensor.cube.nbytes + 8 * graphs._COUNT_BLOCK
