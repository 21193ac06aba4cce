"""Differential test: the exact mass recursion of ``path_sum_distribution``
against the frozen chain enumeration in ``tests/reference/graph_loops.py``.

Every word of up to three letters over the index set of every graph in
``test_properties.py`` (words past a window's radius included, so that the
window refusal is exercised) and a set of refusal cases must give exactly
equal ``Fraction`` vectors, or the same refusal type.
"""

import itertools

import pytest

from hyperwalk import HyperwalkError, build_spheres, line_window_graph, path_graph, path_sum_distribution
from reference import graph_loops as ref
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
