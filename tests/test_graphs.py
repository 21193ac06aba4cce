from fractions import Fraction

import numpy as np
import pytest

from hyperwalk import (
    BoundaryContactError,
    DisconnectedGraphError,
    EmptySphereError,
    PointedGraph,
    TruncationExceededError,
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
    transition_family,
    wildberger_tensor,
)

HALF = Fraction(1, 2)


def test_pointed_graph_invariants():
    with pytest.raises(ValueError, match="loop"):
        pointed_graph(["a", "b"], [(0, 0), (0, 1)], 0)
    with pytest.raises(ValueError, match="duplicate"):
        pointed_graph(["a", "b"], [(0, 1), (1, 0)], 0)
    with pytest.raises(DisconnectedGraphError):
        pointed_graph(["a", "b", "c", "d"], [(0, 1), (2, 3)], 0)
    with pytest.raises(ValueError, match="unique"):
        pointed_graph(["a", "a"], [(0, 1)], 0)


@pytest.mark.parametrize("base, edge", [
    (True, (0, 1)),            # as an index, True would select the whole dist matrix
    (np.True_, (0, 1)),
    (1.0, (0, 1)),
    (0, (0, 1.0)),
    (0, (True, 1)),
    (0, (np.True_, 1)),
    (0, (np.float64(0), 1)),
])
def test_pointed_graph_refuses_non_integer_indices(base, edge):
    with pytest.raises(ValueError, match="is not an integer"):
        pointed_graph(["a", "b", "c", "d"], [edge, (1, 2), (2, 3)], base)


def test_pointed_graph_stores_numpy_indices_as_int():
    graph = pointed_graph(["a", "b", "c", "d"], [(np.int64(0), np.int32(1)), (1, 2), (2, 3)],
                          np.int64(1))
    assert type(graph.base) is int
    assert all(type(v) is int for row in graph.neighbors for v in row)
    assert graph == pointed_graph(["a", "b", "c", "d"], [(0, 1), (1, 2), (2, 3)], 1)
    assert build_spheres(graph).index_set == (0, 1, 2)


@pytest.mark.parametrize("neighbors", [((), ()), ((1,), (0,), ())])
def test_build_spheres_refuses_disconnected_graph(neighbors):
    # pointed_graph refuses these; a hand-built PointedGraph reaches the BFS.
    graph = PointedGraph(tuple(map(str, range(len(neighbors)))), neighbors, 0)
    with pytest.raises(DisconnectedGraphError, match="unreachable pairs"):
        build_spheres(graph)


def test_build_spheres_c4():
    table = build_spheres(cycle_graph(4))
    assert table.index_set == (0, 1, 2)
    assert table.sphere_size(0, 1) == 2
    assert table.sphere_size(0, 2) == 1
    assert table.dist[0, 2] == 2


def test_build_spheres_k2():
    table = build_spheres(complete_graph(2))
    assert table.index_set == (0, 1)
    assert np.array_equal(table.dist, np.array([[0, 1], [1, 0]]))


def test_build_spheres_q3():
    table = build_spheres(hypercube_graph(3))
    assert table.index_set == (0, 1, 2, 3)
    assert [table.sphere_size(0, n) for n in (1, 2, 3)] == [3, 3, 1]
    # Distances agree with Hamming distance between the vertex labels.
    labels = table.graph.labels
    for u in range(8):
        for v in range(8):
            hamming = sum(a != b for a, b in zip(labels[u], labels[v]))
            assert table.dist[u, v] == hamming


def test_distance_table_is_a_metric():
    for graph in (cycle_graph(5), hypercube_graph(3), free_ball_graph(2, 2)):
        dist = build_spheres(graph).dist
        n = graph.n_vertices
        assert np.array_equal(dist, dist.T)
        assert np.array_equal(np.diag(dist), np.zeros(n, dtype=int))
        for u in range(n):
            for v in range(n):
                assert (dist[u, :] + dist[:, v] >= dist[u, v]).all()


def test_wildberger_c4_exact(c4):
    tensor = wildberger_tensor(cycle_graph(4))
    assert tensor.rows == c4.tensor.rows
    assert tensor.entry(1, 1, 0) == HALF
    assert tensor.entry(1, 1, 2) == HALF
    assert tensor.entry(1, 2, 1) == 1
    assert tensor.entry(2, 1, 1) == 1
    assert tensor.entry(2, 2, 0) == 1


def test_wildberger_k2():
    tensor = wildberger_tensor(complete_graph(2))
    assert tensor.entry(1, 1, 0) == 1


def test_wildberger_line_window_truncated():
    tensor = wildberger_tensor(line_window_graph(6))
    assert tensor.truncation_radius == 6
    for i in range(1, 7):
        for j in range(1, 7 - i + 1):
            if i + j > 6:
                continue
            if i == j:
                assert tensor.entry(i, j, 0) == HALF
            else:
                assert tensor.entry(i, j, abs(i - j)) == HALF
            assert tensor.entry(i, j, i + j) == HALF
    with pytest.raises(TruncationExceededError):
        tensor.row(4, 4)


def test_wildberger_free_ball():
    tensor = wildberger_tensor(free_ball_graph(2, 2))
    # 4-regular tree: from a distance-1 vertex, one of four neighbors returns.
    assert tensor.entry(1, 1, 0) == Fraction(1, 4)
    assert tensor.entry(1, 1, 2) == Fraction(3, 4)


def test_wildberger_empty_sphere():
    # Base at the end of a path: the middle vertex has no distance-2 sphere.
    with pytest.raises(EmptySphereError):
        wildberger_tensor(path_graph(3))


def test_condition_s():
    assert check_condition_s(cycle_graph(4)).passed
    assert check_condition_s(hypercube_graph(3)).passed
    report = check_condition_s(path_graph(3))
    assert not report.passed
    assert report.witness[0] == "sphere-size"
    # Window graphs pass on their interior.
    assert check_condition_s(line_window_graph(5)).passed
    assert check_condition_s(free_ball_graph(2, 2)).passed


def test_condition_s_is_scanned_once_per_table(monkeypatch):
    from hyperwalk import ConditionSViolatedError, graphs, verify_theorem_2_4

    scans = []
    scan = graphs._condition_s
    monkeypatch.setattr(graphs, "_condition_s", lambda table: scans.append(table) or scan(table))
    for graph in (hypercube_graph(3), path_graph(3)):
        table = build_spheres(graph)
        report = check_condition_s(table)
        assert check_condition_s(table) is report
        try:
            verify_theorem_2_4(table, 2)
        except ConditionSViolatedError as exc:
            assert str(exc) == str(report)
        assert scans == [table]
        scans.clear()


def test_distance_regular():
    assert check_distance_regular(cycle_graph(4)).passed
    assert check_distance_regular(hypercube_graph(3)).passed
    report = check_distance_regular(path_graph(3))
    assert not report.passed
    # A window of the line is an honest path graph, hence not distance regular.
    assert not check_distance_regular(line_window_graph(4)).passed


def test_path_sum_matches_fold_on_c4():
    table = build_spheres(cycle_graph(4))
    assert path_sum_distribution(table, (1, 1)) == [HALF, 0, HALF]
    assert path_sum_distribution(table, (0,)) == [1, 0, 0]


def test_path_sum_matches_fold_on_q3():
    table = build_spheres(hypercube_graph(3))
    tensor = wildberger_tensor(table)
    assert path_sum_distribution(table, (1, 1, 1)) == multi_constants(tensor, (1, 1, 1))


def test_path_sum_guards():
    table = build_spheres(cycle_graph(4))
    with pytest.raises(IndexError):
        path_sum_distribution(table, (5,))
    with pytest.raises(EmptySphereError):
        path_sum_distribution(build_spheres(path_graph(3)), (1, 2))
    window = build_spheres(line_window_graph(3))
    with pytest.raises(BoundaryContactError):
        path_sum_distribution(window, (2, 2))
    # Total jump within the radius stays exact.
    assert sum(path_sum_distribution(window, (2, 1))) == 1


def test_window_check_widens_narrow_distances():
    # path(256) has uint8 distances, where 200 + 100 wraps to 44, inside
    # a window of 200.
    graph = pointed_graph([str(v) for v in range(256)], [(v, v + 1) for v in range(255)], 0,
                          window_radius=200)
    table = build_spheres(graph)
    assert table.dist.dtype == np.uint8
    with pytest.raises(BoundaryContactError, match="radius 100 around '200' exceeds"):
        path_sum_distribution(table, (200, 100))


def test_path_sum_refusal_names_first_carrier():
    # Both carriers of the last letter refuse; the first one reached is named.
    with pytest.raises(EmptySphereError, match="around vertex '1' is empty"):
        path_sum_distribution(build_spheres(path_graph(5)), (2, 1, 4))
    with pytest.raises(BoundaryContactError, match="around '-1' exceeds"):
        path_sum_distribution(build_spheres(line_window_graph(3)), (1, 3))


def test_transition_family_c4(c4):
    family = transition_family(c4.tensor)
    p0, p1, p2 = family.matrices
    assert np.array_equal(p0, np.eye(3))
    assert np.abs(p1 @ p1 - (p0 / 2 + p2 / 2)).max() < 1e-15
    assert np.abs(p1 @ p2 - p2 @ p1).max() < 1e-15
    for mat in family.matrices:
        assert np.abs(mat.sum(axis=1) - 1.0).max() < 1e-15


def test_transition_family_refuses_truncated(zlattice8):
    with pytest.raises(TruncationExceededError):
        transition_family(zlattice8.tensor)


def test_generators_and_their_degenerate_sizes():
    assert cycle_graph(4).n_vertices == 4
    assert free_ball_graph(2, 2).n_vertices == 17
    assert line_window_graph(radius=3).window_radius == 3
    with pytest.raises(ValueError):
        cycle_graph(2)
    with pytest.raises(ValueError):
        complete_graph(1)


def test_base_point_independence_on_distance_regular():
    for make, arg in ((cycle_graph, 5), (hypercube_graph, 3)):
        reference = None
        n = make(arg).n_vertices
        for base in range(n):
            graph = make(arg)
            moved = pointed_graph(graph.labels, list(graph.edges()), base)
            tensor = wildberger_tensor(moved)
            if reference is None:
                reference = tensor.rows
            else:
                assert tensor.rows == reference


def test_pointed_graph_checks_window_radius():
    edges = [(0, 1), (1, 2)]
    for bad in ("x", -1, True, 1.5):
        with pytest.raises(ValueError, match="window radius"):
            pointed_graph(["a", "b", "c"], edges, 1, window_radius=bad)
    assert pointed_graph(["a", "b", "c"], edges, 1, window_radius=np.int64(1)).window_radius == 1
    assert pointed_graph(["a", "b", "c"], edges, 1).window_radius is None
