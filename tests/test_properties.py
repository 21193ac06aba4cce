"""Cross-route invariants: the same distribution must come out of path sums,
algebra folds, and scalar walk compositions, and structural properties must
hold on every generated fixture."""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hyperwalk import (
    Hypergroup,
    build_spheres,
    check_condition_s,
    check_distance_regular,
    check_hb,
    complete_graph,
    cycle_graph,
    derive_involution,
    free_ball_graph,
    hypercube_graph,
    line_window_graph,
    mixture_distribution,
    multi_constants,
    path_sum_distribution,
    point_state,
    produced_tensor,
    realize,
    tensor_difference,
    validate_hypergroup,
    walk_distribution,
    wildberger_tensor,
)
from hyperwalk import HyperwalkError, presets
from hyperwalk.hypergroups import fold_levels, structure_tensor
from hyperwalk.verify import random_block_state, spanning_states, verify_theorem_5_1
from reference import tensor_loops as ref

CONDITION_S_GRAPHS = [
    cycle_graph(4),
    cycle_graph(5),
    hypercube_graph(3),
    complete_graph(4),
    free_ball_graph(2, 2),
    line_window_graph(6),
]


@pytest.mark.parametrize("graph", CONDITION_S_GRAPHS, ids=lambda g: f"n{g.n_vertices}")
def test_path_sums_equal_folds(graph):
    table = build_spheres(graph)
    assert check_condition_s(table).passed
    tensor = wildberger_tensor(table)
    budget = graph.window_radius
    for n in (1, 2, 3):
        for word in itertools.product(table.index_set, repeat=n):
            if budget is not None and sum(word) > budget:
                continue
            assert path_sum_distribution(table, word) == multi_constants(tensor, word)


def test_distance_regular_implies_condition_s():
    for graph in CONDITION_S_GRAPHS + [path_graph_based_mid()]:
        table = build_spheres(graph)
        if check_distance_regular(table).passed:
            assert check_condition_s(table).passed


def path_graph_based_mid():
    from hyperwalk import pointed_graph

    return pointed_graph(["0", "1", "2"], [(0, 1), (1, 2)], 1)


def test_oracle_triangle():
    # Path sums, folds, and scalar realized walks agree (walk words reversed).
    for graph in (cycle_graph(4), hypercube_graph(3)):
        table = build_spheres(graph)
        tensor = wildberger_tensor(table)
        h = Hypergroup.build(tensor)
        family, state = realize(h, h_dim=1)
        for n in (1, 2, 3):
            for word in itertools.product(table.index_set, repeat=n):
                paths = [float(q) for q in path_sum_distribution(table, word)]
                fold = [float(q) for q in multi_constants(tensor, word)]
                walk = walk_distribution(family, tuple(reversed(word)), state)
                assert np.abs(np.array(paths) - fold).max() < 1e-12
                assert np.abs(walk - np.array(fold)).max() < 1e-11


def test_window_results_match_larger_window():
    # Enlarging the window cannot change any budget-respecting result.
    small = build_spheres(line_window_graph(5))
    large = build_spheres(line_window_graph(9))
    for word in [(1,), (2, 1), (1, 1, 1), (2, 2, 1), (3, 1, 1)]:
        a = path_sum_distribution(small, word)
        b = path_sum_distribution(large, word)
        assert a == b[: len(a)]
        assert all(q == 0 for q in b[len(a):])
    small_tensor = wildberger_tensor(small)
    large_tensor = wildberger_tensor(large)
    for (i, j) in small_tensor.defined_pairs():
        assert small_tensor.row(i, j) == large_tensor.row(i, j)


def test_hermitian_constants_commute():
    for h in (presets.c4_hypergroup(), presets.s3_class_hypergroup(),
              presets.zlattice_hypergroup(6)):
        assert h.hermitian
        tensor = h.tensor
        for i, j in tensor.defined_pairs():
            assert tensor.row(i, j) == tensor.row(j, i)


def test_derive_involution_reproduces_stored():
    fixtures = [
        presets.c4_hypergroup(),
        presets.z2_hypergroup(),
        presets.z3_hypergroup(),
        presets.s3_hypergroup(),
        presets.s3_class_hypergroup(),
    ]
    for h in fixtures:
        assert derive_involution(h.tensor) == h.involution


def test_walk_mixture_forward_property():
    # Whenever the block-decomposition check passes, walks factor through
    # folds for every tested word and state.
    cases = [
        realize(presets.c4_hypergroup(), h_dim=2) + (presets.c4_hypergroup().tensor,),
        realize(presets.s3_hypergroup(), h_dim=1) + (presets.s3_hypergroup().tensor,),
        (presets.left_zero_family(), presets.stationary_start_state(),
         presets.lo2_tensor()),
    ]
    rng = np.random.default_rng(17)
    for family, _, tensor in cases:
        assert check_hb(family, tensor).passed
        states = [random_block_state(family.h_dim, family.d_size, rng) for _ in range(3)]
        for n in range(1, 6):
            for _ in range(8):
                word = tuple(rng.integers(0, family.d_size, size=n))
                for state in states:
                    walked = walk_distribution(family, word, state)
                    mixed = mixture_distribution(family, tensor, word, state)
                    assert np.abs(walked - mixed).max() < 1e-8


def test_converse_at_basis_states():
    # If every length-2 word agrees on every spanning basis state, the
    # operator identity holds; a perturbed pairing must show a mismatch.
    c4 = presets.c4_hypergroup()
    family, _ = realize(c4, h_dim=2)
    for tensor, expect_hb in ((c4.tensor, True), (presets.perturbed_c4_tensor(), False)):
        mismatch = 0.0
        for m in range(3):
            for _, rho in spanning_states(2):
                state = point_state(rho, m, 3)
                for word in itertools.product(range(3), repeat=2):
                    walked = walk_distribution(family, word, state)
                    mixed = mixture_distribution(family, tensor, word, state)
                    mismatch = max(mismatch, float(np.abs(walked - mixed).max()))
        assert check_hb(family, tensor).passed == expect_hb
        if expect_hb:
            assert mismatch < 1e-12
        else:
            assert mismatch > 1e-4


def test_stationary_family_under_any_state():
    # All maps coincide, so the one-step distribution is already stationary
    # from any initial state, not just the mixed one.
    family = presets.stationary_family()
    report = verify_theorem_5_1(family, presets.lo2_tensor(), max_word_len=4,
                                n_states=4, seed=23)
    assert report.passed
    rng = np.random.default_rng(5)
    for _ in range(5):
        state = random_block_state(2, 2, rng)
        p1 = walk_distribution(family, (0,), state)
        for word in [(1,), (0, 1), (1, 1, 0), (0, 0, 1, 1)]:
            assert np.abs(walk_distribution(family, word, state) - p1).max() < 1e-12


def test_multi_constants_stay_probabilities():
    rng = np.random.default_rng(3)
    for h in (presets.c4_hypergroup(), presets.s3_hypergroup(),
              presets.s3_class_hypergroup()):
        for _ in range(25):
            n = int(rng.integers(1, 6))
            word = tuple(rng.integers(0, h.size, size=n))
            vec = multi_constants(h.tensor, word)
            assert sum(vec) == 1
            assert all(q >= 0 for q in vec)


def _entries(tensor):
    return [(i, j, k, v) for (i, j), row in tensor.rows.items() for k, v in row.items()]


NAMED_TENSORS = [(t.size, _entries(t), t.truncation_radius) for t in (
    presets.c4_hypergroup().tensor, presets.s3_class_hypergroup().tensor,
    presets.zlattice_hypergroup(6).tensor, wildberger_tensor(hypercube_graph(3)),
    presets.perturbed_c4_tensor())]


@st.composite
def _random_tensors(draw):
    """The size, entries and truncation radius of a random exact tensor.
    Row totals up to 200 make the common denominator large enough that long
    folds leave float64 for Python ints, and often the cube leaves int64."""
    size = draw(st.integers(1, 4))
    radius = draw(st.none() | st.integers(0, 2 * size - 2))
    entries = []
    for i, j in itertools.product(range(size), repeat=2):
        if radius is None or i + j <= radius:
            weights = draw(st.lists(st.integers(0, 50), min_size=size, max_size=size)
                           .filter(any))
            entries += [(i, j, k, Fraction(w, sum(weights))) for k, w in enumerate(weights) if w]
    return size, entries, radius


def _folded(fold, tensor, word):
    try:
        return fold(tensor, word)
    except HyperwalkError as exc:
        return type(exc), str(exc)


def _one_word_trie_fold(tensor, word):
    """The fold of ``word`` that ``fold_levels`` forms on its one-word trie."""
    levels = [([tuple(word[:n])], np.zeros(1, dtype=np.intp), np.array([word[n - 1]]))
              for n in range(1, len(word) + 1)]
    *_, (folds, scale) = fold_levels(tensor, levels)
    if not tensor.is_exact:
        return [v if v else 0 for v in folds[0].tolist()]
    return [Fraction(int(v), scale) if v else 0 for v in folds[0].tolist()]


@given(st.data())
def test_multi_constants_match_fold_levels(data):
    size, entries, radius = data.draw(_random_tensors() | st.sampled_from(NAMED_TENSORS))
    new, old = (build(size, entries, truncation_radius=radius)
                for build in (structure_tensor, ref.structure_tensor))
    if data.draw(st.booleans()):
        new, old = new.to_float(), old.to_float()
    word = data.draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=5))
    # The same Fractions, bit-identical floats, the same zeros and refusals;
    # the frozen per-entry loop shares no code with either fold.
    folded = repr(_folded(multi_constants, new, word))
    assert folded == repr(_folded(_one_word_trie_fold, new, word))
    assert folded == repr(_folded(ref.multi_constants, old, word))


def test_zwindow_family_produces_lattice_constants(zlattice8):
    family = presets.zwindow_family(8, h_dim=2)
    state = point_state(np.eye(2, dtype=complex) / 2, 0, 9)
    produced = produced_tensor(family, state)
    residual, _ = tensor_difference(produced, zlattice8.tensor)
    assert residual < 1e-12
    assert validate_hypergroup(produced, zlattice8.involution).passed
