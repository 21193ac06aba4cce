"""Differential tests of the exact Theorem 2.4 level walks, which extend a
trie level a block of letters at a time, against the frozen per-letter walks
in ``tests/reference/level_loops.py``.

- ``prefix_trie``: the same words (one row of a (words, length) array
  each), parents and letters, budgeted or not.
- ``path_sum_levels`` and ``fold_levels`` on exact tensors: bit-identical
  numerators, denominators and folds (dtypes included) on every
  condition-(S) graph of the graph corpus, on windowed graphs (z-window,
  free-ball), on budgeted tries, past 2**53 into Python ints, and on the
  large-denominator tensors of the associativity tests.
- Folds of tensors with a large negative numerator equal plain
  ``Fraction`` folds: the exact tier bounds numerators of either sign.
- A fold that leaves a truncated tensor's stored rows refuses with the same
  ``TruncationExceededError`` (j, k) as the per-letter loop.
- Shrinking the block budget to one letter, or to blocks that do not divide
  a level, changes no walk and no ``verify_theorem_2_4`` report.
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from hyperwalk import (
    TruncationExceededError,
    build_spheres,
    check_condition_s,
    complete_graph,
    cycle_graph,
    free_ball_graph,
    hypercube_graph,
    line_window_graph,
    presets,
    verify_theorem_2_4,
    wildberger_tensor,
)
from hyperwalk import graphs, hypergroups, verify
from hyperwalk.graphs import path_sum_levels
from hyperwalk.hypergroups import fold_level, fold_levels, letter_blocks, prefix_trie
from reference import level_loops as ref
from test_graph_differential import SHAPES, _large_denominator_tensor, random_graph

WINDOWS = [line_window_graph(30), line_window_graph(9), free_ball_graph(2, 5),
           free_ball_graph(1, 4), free_ball_graph(3, 2)]
LARGE = [hypercube_graph(6), cycle_graph(30)]


def _condition_s_graphs():
    shaped = [g for g in SHAPES + WINDOWS + LARGE if check_condition_s(g).passed]
    return shaped + [g for g in map(random_graph, range(400)) if check_condition_s(g).passed]


CORPUS = _condition_s_graphs()


def _graph_id(graph):
    window = "" if graph.window_radius is None else f"-window{graph.window_radius}"
    return f"n{graph.n_vertices}-base{graph.base}{window}"


def assert_same_array(new, old):
    """Equal dtype, shape and bits; Python ints in an object array."""
    assert (new.dtype, new.shape) == (old.dtype, old.shape)
    if new.dtype == object:
        assert all(type(x) is int for x in new.ravel().tolist())
        assert new.tolist() == old.tolist()
    else:
        assert new.tobytes() == old.tobytes()


def assert_same_trie(letters, max_len, budget):
    """The same levels from both enumerators; returns the new levels."""
    new = list(prefix_trie(letters, max_len, budget))
    old = list(ref.prefix_trie(letters, max_len, budget))
    assert len(new) == len(old)
    for length, ((words, parents, last), (old_words, old_parents, old_last)) in enumerate(
            zip(new, old), start=1):
        # One row of letters per word, as intp, without a tuple per word.
        assert words.dtype == np.intp and words.shape == (len(old_words), length)
        assert [tuple(w) for w in words.tolist()] == old_words
        assert_same_array(parents, old_parents)
        assert_same_array(last, old_last)
    return new


def assert_same_walks(table, tensor, max_len, budget):
    levels = assert_same_trie(table.index_set, max_len, budget)
    paths = list(path_sum_levels(table, levels))
    old_paths = list(ref.path_sum_levels(table, levels))
    assert len(paths) == len(old_paths) == len(levels)
    for (numerators, denominators), (old_numerators, old_denominators) in zip(paths, old_paths):
        assert_same_array(numerators, old_numerators)
        assert all(type(d) is int for d in denominators)
        assert denominators == old_denominators
    assert_same_folds(tensor, levels)
    return paths


def assert_same_folds(tensor, levels):
    folds = list(fold_levels(tensor, levels))
    old_folds = list(ref.fold_levels(tensor, levels))
    assert len(folds) == len(old_folds)
    for (fold, scale), (old_fold, old_scale) in zip(folds, old_folds):
        assert_same_array(fold, old_fold)
        assert scale == old_scale


@pytest.mark.parametrize("graph", CORPUS, ids=_graph_id)
def test_level_walks_match_per_letter_loops(graph):
    table = build_spheres(graph)
    max_len = 4 if graph.n_vertices <= 20 else 3
    assert_same_walks(table, wildberger_tensor(table), max_len, graph.window_radius)


def test_corpus_covers_windows_and_random_graphs():
    assert len(CORPUS) >= 124 + 10
    assert sum(g.window_radius is not None for g in CORPUS) > len(WINDOWS)


@pytest.mark.parametrize("graph, budget", [(hypercube_graph(4), 3), (cycle_graph(9), 5),
                                           (complete_graph(5), 1), (line_window_graph(9), 4),
                                           (free_ball_graph(2, 3), 2)],
                         ids=("Q4", "C9", "K5", "z-window(9)", "free-ball(2,3)"))
def test_budgeted_walks_match_per_letter_loops(graph, budget):
    # Budgets below the window: later letters have fewer parents, so a
    # block of letters holds parents that only some of its letters extend.
    table = build_spheres(graph)
    assert_same_walks(table, wildberger_tensor(table), 4, budget)


def test_walks_cross_into_python_ints():
    # K100 at 8 letters: path sums over 99**8 > 2**53, folds from 99**7.
    table = build_spheres(complete_graph(100))
    paths = assert_same_walks(table, wildberger_tensor(table), 8, None)
    assert paths[-1][0].dtype == object and paths[0][0].dtype == float
    # K200 on the one letter 1: past 2**63 too.
    table = build_spheres(complete_graph(200))
    levels = assert_same_trie((1,), 10, None)
    assert [d for _, d in path_sum_levels(table, levels)][-1] == [199**10]
    assert_same_folds(wildberger_tensor(table), levels)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("primes", [(33554393,), (1099511627791, 1099511627817, 1099511627839)],
                         ids=["float64", "python-ints"])
def test_large_denominator_folds_match_per_letter_loop(seed, primes):
    tensor = _large_denominator_tensor(seed, primes)
    for budget in (None, 3):
        levels = assert_same_trie(range(tensor.size), 4, budget)
        assert_same_folds(tensor, levels)
    folds = list(fold_levels(tensor, levels))
    assert folds[-1][0].dtype == object


def _fraction_fold(tensor, word):
    """The fold of ``word`` in plain Fractions, one letter at a time."""
    q = [[[Fraction(int(v), tensor.denominator) for v in row] for row in plane]
         for plane in tensor.cube.tolist()]
    fold = [Fraction(int(m == word[0])) for m in range(tensor.size)]
    for k in word[1:]:
        fold = [sum(fold[j] * q[j][k][m] for j in range(tensor.size)) for m in range(tensor.size)]
    return fold


def test_negative_numerator_folds_match_fractions():
    # The exact tier is chosen from the largest absolute row sum: a row sum
    # bounds the folds only while every numerator is nonnegative, and one
    # entry of -2**40 among numerators below 2**20 makes the folds of four
    # letters pass 2**53 in modulus while the signed row sums stay small.
    rng = np.random.default_rng(5)
    for _ in range(50):
        cube = rng.integers(0, 2**20, size=(3, 3, 3))
        cube[tuple(rng.integers(0, 3, size=3))] = -2**40
        tensor = hypergroups._exact_tensor_taking(cube, 2**25)
        for word in ((1, 2, 1, 2), (2, 2, 2, 2), (0, 1, 2, 1)):
            assert hypergroups.multi_constants(tensor, word) == _fraction_fold(tensor, word)
        levels = list(prefix_trie(range(3), 4, None))
        for (words, _, _), (folds, scale) in zip(levels, fold_levels(tensor, levels)):
            for word, fold in zip(words.tolist(), folds.tolist()):
                assert [Fraction(int(v), scale) for v in fold] == _fraction_fold(tensor, word)


def _refusal(call):
    """The pair, radius and message of the refusal, or None."""
    try:
        call()
    except TruncationExceededError as exc:
        return exc.pair, exc.radius, str(exc)
    return None


@pytest.mark.parametrize("tensor", [wildberger_tensor(line_window_graph(5)),
                                    wildberger_tensor(free_ball_graph(2, 3)),
                                    presets.zlattice_hypergroup(6).tensor],
                         ids=("z-window(5)", "free-ball(2,3)", "zlattice(6)"))
def test_truncation_refusals_match_per_letter_loop(tensor):
    radius = tensor.truncation_radius
    refusals = []
    for budget in (None, radius + 1, radius + 2, radius):
        levels = list(prefix_trie(range(tensor.size), 3, budget))
        refusal = _refusal(lambda: list(fold_levels(tensor, levels)))
        assert refusal == _refusal(lambda: list(ref.fold_levels(tensor, levels))), budget
        refusals.append(refusal)
    assert refusals[-1] is None and all(refusals[:-1])
    # Levels whose words leave the radius at letters 3 and 2, the larger
    # letter first: the smallest letter, then its smallest j, as the
    # per-letter loop raises them, whatever j the larger letter needs.
    prefixes = np.zeros((3, tensor.size))
    prefixes[0, radius] = prefixes[1, radius - 1] = prefixes[2, radius - 2] = 1
    for parents, letters, pair in (([1, 0, 1], [3, 2, 2], (radius - 1, 2)),
                                   ([2, 0], [3, 2], (radius, 2))):
        parents, letters = np.array(parents), np.array(letters)
        expected = _refusal(lambda: ref.fold_level(tensor, prefixes, parents, letters, 2))
        assert _refusal(lambda: fold_level(tensor, prefixes, parents, letters, 2)) == expected
        assert expected[0] == pair


BUDGETS = {"one letter per block": 1, "blocks of a few letters": 3000}
# K100 at 8 letters reaches the Python-int tier.
BUDGET_GRAPHS = [(line_window_graph(30), 3), (free_ball_graph(2, 5), 3), (hypercube_graph(6), 3),
                 (cycle_graph(30), 3), (complete_graph(100), 8)]


def _spied_blocks(monkeypatch):
    """The blocks ``letter_blocks`` yields from now on, to the folds and to
    the path sums, as (entries, per_letter): the entries a block adds, its
    letters times ``per_letter``."""
    blocks = []

    def spied(parents, letters, per_letter):
        for block in letter_blocks(parents, letters, per_letter):
            blocks.append((len(block[0]) * per_letter, per_letter))
            yield block

    for module in (hypergroups, graphs):
        monkeypatch.setattr(module, "letter_blocks", spied)
    return blocks


@pytest.mark.parametrize("entries", BUDGETS.values(), ids=BUDGETS)
@pytest.mark.parametrize("graph, max_len", BUDGET_GRAPHS,
                         ids=[_graph_id(g) for g, _ in BUDGET_GRAPHS])
def test_letter_blocks_give_the_same_reports(graph, max_len, entries, monkeypatch):
    # The budget is set in every module that reads it, so Theorem 2.4's
    # folds and path sums both run in its blocks: each holds at most
    # ``entries`` or one letter, so a level that the default budget folds
    # in a larger block of letters is split further.  Q6 and K100 have no
    # such block at 3000 entries.
    table = build_spheres(graph)
    default = _spied_blocks(monkeypatch)
    reports = [verify_theorem_2_4(table, max_len, mode) for mode in ("exact", "float")]
    for module in (hypergroups, graphs, verify):
        monkeypatch.setattr(module, "_COUNT_BLOCK", entries)
    patched = _spied_blocks(monkeypatch)
    assert [verify_theorem_2_4(table, max_len, mode) for mode in ("exact", "float")] == reports
    assert all(size <= entries or size == per_letter for size, per_letter in patched)
    if any(entries < size > per_letter for size, per_letter in default):
        assert len(patched) > len(default)
    assert_same_walks(table, wildberger_tensor(table), max_len, graph.window_radius)


def test_a_small_budget_splits_levels_into_blocks(monkeypatch):
    # z-window(30) at two letters: 31 prefixes of up to 61 vertices and 31
    # distances a letter take blocks of 4 letters at the default budget of
    # 2**13 entries, one block of 61 * 31 * 31 entries, or one letter a
    # block of 3000 entries; 1000 entries a letter take three.
    table = build_spheres(line_window_graph(30))
    levels = list(prefix_trie(table.index_set, 2, 30))
    _, parents, letters = levels[1]

    def blocks_at(entries, per_letter):
        monkeypatch.setattr(hypergroups, "_COUNT_BLOCK", entries)
        return [ks.tolist() for ks, *_ in letter_blocks(parents, letters, per_letter)]

    assert blocks_at(2**13, 61 * 31) == [list(range(lo, min(lo + 4, 31))) for lo in range(0, 31, 4)]
    assert blocks_at(61 * 31 * 31, 61 * 31) == [list(range(31))]
    blocks = blocks_at(3000, 61 * 31)
    assert list(itertools.chain(*blocks)) == list(range(31)) and len(blocks) == 31
    assert blocks_at(3000, 1000) == [list(range(lo, min(lo + 3, 31))) for lo in range(0, 31, 3)]
    for ks, rows, words, at in letter_blocks(parents, letters, 1000):
        # Every word of the block, and only those, at its (parent, letter).
        assert np.isin(letters[words], ks).all() and np.array_equal(rows, np.unique(parents[words]))
        assert np.array_equal(rows[at // len(ks)], parents[words])
        assert np.array_equal(ks[at % len(ks)], letters[words])
