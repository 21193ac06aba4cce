"""Differential tests: the dense superoperator code against the frozen loops.

Every Kraus and hypergroup preset, seeded random dense families and realized
truncated z-lattices run through both the library and the loop code kept in
``tests/reference/oqrw_loops.py``.  Distributions and produced constants
must agree within 1e-12, checks must agree on pass/fail, residual (within
1e-12) and counts, and on the witness whenever the check fails.  On a
passing check the residuals are round-off ties, so the witnesses may differ.
A failing check can tie too, when symmetry makes several cases equally bad
(the two positions of a d = 2 family, or words that differ by the
distance-0 map); round-off then decides which one the loops report, so a
different witness passes only if the loop formula puts it within 1e-12 of
the maximum.
"""

import functools

import numpy as np
import pytest

import hyperwalk as hw
from hyperwalk import presets
from reference import oqrw_loops as ref

TOL = 1e-12


def _isometries(h_dim, seed):
    rng = np.random.default_rng(seed)
    return lambda i, j, k: hw.random_unitary(h_dim, rng)


def _realized(tensor, h_dim, seed=0):
    family, state = hw.realize(tensor, h_dim=h_dim, isometries=_isometries(h_dim, seed))
    return family, tensor, state


def _random(d, h):
    family = hw.random_kraus_family(d, h, seed=10 * d + h)
    state = hw.maximally_mixed_state(h, d)
    return family, hw.produced_tensor(family, state), state


def _stationary():
    family = presets.stationary_family()
    state = presets.stationary_start_state()
    return family, hw.produced_tensor(family, state), state


HYPERGROUPS = {
    "c4": lambda: presets.c4_hypergroup().tensor,
    "z2": lambda: presets.z2_hypergroup().tensor,
    "z3": lambda: presets.z3_hypergroup().tensor,
    "s3": lambda: presets.s3_hypergroup().tensor,
    "s3-classes": lambda: presets.s3_class_hypergroup().tensor,
    "lo2": presets.lo2_tensor,
    "c4-perturbed": presets.perturbed_c4_tensor,
}

CASES = {
    # Kraus presets, each paired with the constants it is meant to realize.
    "ex44": lambda: (presets.c4_qubit_family(), presets.c4_hypergroup().tensor,
                     presets.diagonal_qubit_state(0.3)),
    "ex55": _stationary,
    "ex56": lambda: (presets.left_zero_family(), presets.lo2_tensor(),
                     presets.stationary_start_state()),
    **{
        f"ex45 h{h}": functools.partial(
            lambda h: (presets.zwindow_family(6, h), presets.zlattice_hypergroup(6).tensor,
                       hw.maximally_mixed_state(h, 7)), h)
        for h in (1, 3)
    },
    # Hypergroup presets realized with seeded random isometries.
    **{f"{name} h2": functools.partial(lambda make: _realized(make(), 2), make)
       for name, make in HYPERGROUPS.items()},
    # Realized truncated z-lattices.
    **{
        f"z-lattice({r}) h{h}": functools.partial(
            lambda r, h: _realized(presets.zlattice_hypergroup(r).tensor, h, seed=r), r, h)
        for r in (6, 10)
        for h in (1, 3)
    },
    # Seeded random dense families with their own produced constants.
    **{
        f"random d{d} h{h}": functools.partial(_random, d, h)
        for d in range(2, 7)
        for h in (1, 2, 3)
    },
}


@functools.lru_cache(maxsize=None)
def case(name):
    family, tensor, state = CASES[name]()
    return family, tensor, state, ref.from_family(family), ref.from_state(state)


def budget(family, tensor):
    radii = [r for r in (family.truncation_radius, tensor.truncation_radius) if r is not None]
    return min(radii) if radii else None


def sample_words(family, tensor, seed=0):
    """Every one-letter word and six seeded words of two or three letters."""
    d, cap = family.d_size, budget(family, tensor)
    rng = np.random.default_rng(seed)
    words = [(k,) for k in range(d) if cap is None or k <= cap]
    while len(words) < d + 6:
        word = tuple(int(k) for k in rng.integers(0, d, size=2 + len(words) % 2))
        if cap is None or sum(word) <= cap:
            words.append(word)
    return words


def dense_rows(tensor):
    q = np.full((tensor.size,) * 3, np.nan)
    for i, j in tensor.defined_pairs():
        q[i, j] = 0.0
        for k, value in tensor.row(i, j).items():
            q[i, j, k] = float(value)
    return q


def assert_same_check(new, old, witness_field, residual_at=None):
    assert new.passed == old.passed
    assert abs(new.max_residual - old.max_residual) <= TOL
    witness = new.witness
    if not new.passed and witness != getattr(old, witness_field):
        assert residual_at is not None, (witness, getattr(old, witness_field))
        assert residual_at(witness) >= old.max_residual - TOL


def hb_residual(old_family, tensor):
    """The loop formula of the block identity at one tuple (i, j, k, l)."""
    def residual(witness):
        i, j, k, l = witness
        block = old_family.block
        lhs = sum(
            block(m, j, l).conj().T @ block(i, m, k).conj().T @ block(i, m, k) @ block(m, j, l)
            for m in range(old_family.d_size)
        )
        rhs = sum(
            float(q) * block(i, j, m).conj().T @ block(i, j, m)
            for m, q in tensor.row(k, l).items()
        )
        return float(np.abs(lhs - rhs).max())
    return residual


def walk_residual(old_family, tensor, n_states, seed):
    """|walk - mixture| in the loop code for one (word, state index) case."""
    rng = ref._rng(seed)
    states = [ref.random_block_state(old_family.h_dim, old_family.d_size, rng)
              for _ in range(n_states)]

    def residual(witness):
        word, idx = witness
        walked = ref.walk_distribution(old_family, word, states[idx])
        mixed = ref.mixture_distribution(old_family, tensor, word, states[idx])
        return float(np.abs(walked - mixed).max())
    return residual


@pytest.mark.parametrize("name", CASES)
def test_validate_kraus_matches_loops(name):
    family, _, _, old_family, _ = case(name)
    assert_same_check(hw.validate_kraus(family), ref.validate_kraus(old_family), "worst_slot")


@pytest.mark.parametrize("name", CASES)
def test_step_and_walks_match_loops(name):
    family, tensor, state, old_family, old_state = case(name)
    starts = [(state, old_state)]
    if budget(family, tensor) is None:
        extra = hw.random_block_state(family.h_dim, family.d_size, seed=3)
        starts.append((extra, ref.from_state(extra)))
    for new_start, old_start in starts:
        for k in range(family.d_size):
            new = hw.step(family, k, new_start).array
            old = np.array(ref.step(old_family, k, old_start).blocks)
            assert np.abs(new - old).max() <= TOL
        for word in sample_words(family, tensor):
            walked = hw.walk_distribution(family, word, new_start)
            assert np.abs(walked - ref.walk_distribution(old_family, word, old_start)).max() <= TOL
            mixed = hw.mixture_distribution(family, tensor, word, new_start)
            old_mixed = ref.mixture_distribution(old_family, tensor, word, old_start)
            assert np.abs(mixed - old_mixed).max() <= TOL


@pytest.mark.parametrize("name", CASES)
def test_produced_tensor_matches_loops(name):
    family, _, state, old_family, old_state = case(name)
    new = hw.produced_tensor(family, state)
    old = ref.produced_tensor(old_family, old_state)
    assert new.truncation_radius == old.truncation_radius
    assert sorted(new.defined_pairs()) == sorted(old.defined_pairs())
    assert np.nanmax(np.abs(dense_rows(new) - dense_rows(old))) <= TOL


@pytest.mark.parametrize("name", CASES)
def test_check_hb_matches_loops(name):
    family, tensor, _, old_family, _ = case(name)
    new, old = hw.check_hb(family, tensor), ref.check_hb(old_family, tensor)
    assert_same_check(new, old, "worst_tuple", hb_residual(old_family, tensor))
    assert (new.checked, new.skipped) == (old.checked, old.skipped)


@pytest.mark.parametrize("name", CASES)
def test_theorem_5_1_matches_loops(name):
    family, tensor, _, old_family, _ = case(name)
    kwargs = dict(max_word_len=3, n_states=3, seed=7)
    new = hw.verify_theorem_5_1(family, tensor, **kwargs)
    old = ref.verify_theorem_5_1(old_family, tensor, **kwargs)
    if "converse" in old.note:
        # The converse witness is the first gap found, pass or fail.
        assert new.witness == old.worst_case
    residual = walk_residual(old_family, tensor, kwargs["n_states"], kwargs["seed"])
    assert_same_check(new, old, "worst_case", residual)
    assert new.checked == old.checked_cases
    assert new.note == old.note


@pytest.mark.parametrize(
    "blocks",
    [
        [np.array([[0.5, 1.0], [0.0, 0.5]])],
        [np.diag([1.5, -0.5])],
        [np.diag([0.45, 0.45])],
        [np.diag([0.5, 0.0]), np.array([[0.25, 0.1], [0.0, 0.25]])],
        [np.diag([0.5, 0.0]), np.diag([0.7, -0.2])],
        [np.eye(2) / 2, np.eye(3)],
    ],
)
def test_block_state_errors_match_loops(blocks):
    with pytest.raises(ValueError) as old:
        ref.block_state(blocks)
    with pytest.raises(ValueError, match=f"^{old.value}$".replace("(", r"\(").replace(")", r"\)")):
        hw.block_state(blocks)
