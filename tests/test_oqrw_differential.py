"""Differential tests: the dense superoperator code, in real Hermitian
coordinates, against the frozen loops and the complex formulas.

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
the maximum.  Theorem 5.1's passing branch is the exception: the library
reports the exact worst case over every state, which bounds the loops'
sampled states from above, and on truncated inputs it is checked against a
test-side loop over the point starts instead, since the loops' sampled
states leave the certified window.
"""

import collections
import copy
import functools
import gc
import itertools
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import hyperwalk as hw
from hyperwalk import oqrw, presets, verify
from reference import oqrw_loops as ref
from reference import tensor_loops

TOL = 1e-12


def _isometries(h_dim, seed):
    rng = np.random.default_rng(seed)
    return lambda i, j, k: hw.random_unitary(h_dim, rng)


def _realized(tensor, h_dim, seed=0):
    family, state = hw.realize(tensor, h_dim=h_dim, isometries=_isometries(h_dim, seed))
    return family, tensor, state


def _retagged(family, radius):
    return hw.KrausFamily(array=family.array, truncation_radius=radius)


def _with_radius(realized, radius):
    family, tensor, state = realized
    return _retagged(family, radius), tensor, state


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
    # Group and class families tagged with a radius below their size: a
    # jump can land past the window, so the longer words of Theorem 5.1
    # read positions outside it.
    **{
        f"{name} h2 radius {r}": functools.partial(
            lambda make, r: _with_radius(_realized(make(), 2), r), HYPERGROUPS[name], r)
        for name, r in (("z3", 1), ("s3-classes", 1), ("c4", 1), ("s3", 3))
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


def _hermitian(h, n, seed):
    """n seeded random Hermitian h x h blocks, of entries of every size."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, h, h)) + 1j * rng.standard_normal((n, h, h))
    scales = 10.0 ** rng.integers(-8, 9, size=(n, 1, 1))
    return scales * (a + a.conj().swapaxes(-1, -2)) / 2


@pytest.mark.parametrize("h", (1, 2, 3))
def test_coordinates_and_blocks_round_trip(h):
    """Blocks -> coordinates -> blocks gives the blocks back, coordinates
    -> blocks -> coordinates the coordinates; dot products of coordinates
    are traces tr(XY), and the entry moduli are |X_ab|, whose per-block
    maxima ``_largest_moduli`` takes.  A block that is not Hermitian has
    the coordinates of its Hermitian part."""
    # The layout: X_aa on the diagonal, sqrt(2) Re X_ab at [a, b] and
    # sqrt(2) Im X_ab at [b, a], a < b.
    known = np.array([[1, 2 + 3j], [2 - 3j, 4]])
    assert np.allclose(oqrw.hermitian_coordinates(known),
                       [[1, 2 * np.sqrt(2)], [3 * np.sqrt(2), 4]], rtol=1e-15, atol=0)
    blocks = _hermitian(h, 200, seed=h)
    coords = oqrw.hermitian_coordinates(blocks)
    assert coords.shape == blocks.shape and coords.dtype == float
    scale = np.abs(blocks).max(axis=(-2, -1))[:, None, None]
    assert (np.abs(oqrw.hermitian_blocks(coords) - blocks) <= 1e-15 * scale).all()
    again = oqrw.hermitian_coordinates(oqrw.hermitian_blocks(coords))
    assert (np.abs(again - coords) <= 1e-15 * scale).all()
    traces = np.einsum("nab,nba->n", blocks[:-1], blocks[1:]).real
    dots = (coords[:-1] * coords[1:]).sum(axis=(-2, -1))
    assert np.allclose(dots, traces, rtol=1e-12, atol=0)
    moduli = oqrw.entry_moduli(coords)
    assert (np.abs(moduli - np.abs(blocks)) <= 1e-15 * scale).all()
    for factor in (1.0, 1e-150, 1e200):  # squares that lose digits or overflow
        largest = oqrw._largest_moduli(factor * coords.reshape(10, 20, h, h))
        expected = oqrw.entry_moduli(factor * coords).max(axis=(-2, -1))
        assert np.allclose(largest.ravel(), expected, rtol=1e-15, atol=0)
    skew = blocks + 1j * _hermitian(h, 200, seed=h + 10)  # Hermitian part: blocks
    assert np.allclose(oqrw.hermitian_coordinates(skew), coords, rtol=0, atol=1e-14 * scale.max())


def _superoperator(family, k):
    """The complex superoperator of the distance-k map on states flattened
    to d h^2, T[(i,a,c), (j,b,e)] = B_ab conj(B_ce) with B = B[i,j;k]."""
    b = family.array[:, :, k]
    n = family.d_size * family.h_dim**2
    return np.einsum("ijab,ijce->iacjbe", b, b.conj()).reshape(n, n)


def test_moduli_of_entries_whose_squares_overflow():
    """Finite entries whose squares overflow keep finite moduli.  On a
    dense family whose columns (j, k) are scaled by seeded factors around
    1e100, so that its Gram blocks reach 1e200, ``validate_kraus`` reports
    the finite residual and the witness of the complex loops; around 1e50,
    so does ``check_hb``, whose products of four blocks reach 1e200; and
    the norms of blocks around 1e200 are finite and exact."""
    family, tensor, _, _, _ = case("random d4 h2")
    columns = np.random.default_rng(5).uniform(1, 2, size=(1, 4, 4, 1, 1))  # [., j, k]
    big = hw.KrausFamily(array=family.array * columns * 1e100)
    new, old = hw.validate_kraus(big), ref.validate_kraus(ref.from_family(big))
    assert new.witness == old.worst_slot
    assert np.isfinite(new.max_residual) and new.max_residual > 1e199
    assert np.isclose(new.max_residual, old.max_residual, rtol=1e-12, atol=0)
    big = hw.KrausFamily(array=family.array * columns * 1e50)
    new, old = hw.check_hb(big, tensor), ref.check_hb(ref.from_family(big), tensor)
    assert new.witness == old.worst_tuple
    assert np.isfinite(new.max_residual) and new.max_residual > 1e199
    assert np.isclose(new.max_residual, old.max_residual, rtol=1e-12, atol=0)
    blocks = 1e200 * _hermitian(3, 50, seed=9)
    norms, _ = oqrw._block_norms(oqrw.hermitian_coordinates(blocks), 0.0)
    exact = np.linalg.norm(blocks / 1e200, ord=2, axis=(-2, -1)) * 1e200
    assert np.isfinite(norms).all()
    assert np.isclose(norms.max(), exact.max(), rtol=1e-12, atol=0)


STACK_CASES = ["ex44", "ex45 h3", "c4 h2", "s3 h2", "z-lattice(10) h1", "z-lattice(10) h3",
               "random d2 h3", "random d4 h2", "random d6 h1"]


@pytest.mark.parametrize("blocks_per_chunk", (None, 1, 3))
@pytest.mark.parametrize("name", STACK_CASES)
def test_real_stack_is_the_complex_superoperator_in_the_basis(name, blocks_per_chunk,
                                                              monkeypatch):
    """Each real ``_stack[k]`` is V^* T_k V, with T_k the kron(B, conj B)
    superoperator and V the basis of coordinates at every position; the
    imaginary part of V^* T_k V is round-off, as the maps keep Hermitian
    blocks Hermitian.  The build runs in one chunk of nonzero blocks, or in
    chunks of 1 or 3 blocks, on a fresh family.  The Gram array holds the
    coordinates of the blocks B^* B."""
    family = case(name)[0]
    h = family.h_dim
    if blocks_per_chunk is not None:
        monkeypatch.setattr(oqrw, "_BUILD_ENTRIES", blocks_per_chunk * h**4)
        family = hw.KrausFamily(array=family.array, truncation_radius=family.truncation_radius)
    else:
        assert len(family._nonzero[0]) <= oqrw._BUILD_ENTRIES // h**4  # one chunk
    parts = oqrw._basis(h)[1].reshape(h * h, 2, h * h)  # [entry, re/im, q]
    basis = np.kron(np.eye(family.d_size), parts[:, 0] + 1j * parts[:, 1])
    for k in range(family.d_size):
        expected = basis.conj().T @ _superoperator(family, k) @ basis
        scale = max(1.0, np.abs(expected).max())
        assert np.abs(expected.imag).max() <= 1e-14 * scale
        assert np.abs(family._stack[k] - expected.real).max() <= 1e-14 * scale
    assert family._stack.dtype == float and not family._stack.flags.writeable
    # The Gram coordinates at [k, i, j] are those of B^* B, B = B[i,j;k].
    grams = np.einsum("ijkxa,ijkxc->kijac", family.array.conj(), family.array)
    expected = oqrw.hermitian_coordinates(grams)
    assert np.abs(family._gram - expected).max() <= 1e-15 * max(1.0, np.abs(expected).max())


@pytest.mark.parametrize("name", STACK_CASES)
def test_adjoint_is_the_transposed_stack(name):
    """<Phi_k(X), Y> = <X, Phi_k^*(Y)> on random Hermitian stacks, with
    Phi_k through the real stack and Phi_k^*(Y)_j = sum_i B^* Y_i B, B =
    B[i,j;k], from the blocks: in coordinates Phi_k^* is the transposed
    stack."""
    family = case(name)[0]
    d, h = family.d_size, family.h_dim
    x, y = (_hermitian(h, d, seed=s) for s in (1, 2))
    cx, cy = oqrw.hermitian_coordinates(x), oqrw.hermitian_coordinates(y)
    for k in range(d):
        b = family.array[:, :, k]  # [i, j]
        adjoint = np.einsum("ijba,ibc,ijce->jae", b.conj(), y, b)
        forward = oqrw._apply(family, k, cx)
        lhs, rhs = (forward * cy).sum(), np.einsum("jab,jba->", x, adjoint).real
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, np.abs(x).max() * np.abs(adjoint).max() * d * h)
        transposed = (family._stack[k].T @ cy.ravel()).reshape(cy.shape)
        coords = oqrw.hermitian_coordinates(adjoint)
        assert np.abs(transposed - coords).max() <= 1e-13 * max(1.0, np.abs(coords).max())


@pytest.mark.parametrize("name", CASES)
def test_produced_tensor_matches_loops(name):
    family, _, state, old_family, old_state = case(name)
    new = hw.produced_tensor(family, state)
    old = ref.produced_tensor(old_family, old_state)
    assert new.truncation_radius == old.truncation_radius
    assert not new.cube[~new.domain].any()  # rows past the radius are zero
    assert sorted(new.defined_pairs()) == sorted(old.defined_pairs())
    assert np.nanmax(np.abs(dense_rows(new) - dense_rows(old))) <= TOL


def invalid_stacks(h, d):
    """Stacks of two states whose second state is valid, or has a negative
    block, a non-finite entry or total trace 1.1."""
    valid = _states(h, d, 2, seed=6)
    negative = valid.copy()
    negative[1, 0] = -np.eye(h) / (2 * h)
    negative[1, 1:] *= 1.5 / np.trace(valid[1, 1:], axis1=-2, axis2=-1).real.sum()
    not_finite = valid.copy()
    not_finite[1, d - 1, 0, 0] = np.nan
    return {"valid": valid, "negative": negative, "non-finite": not_finite,
            "trace": valid * np.array([1.0, 1.1])[:, None, None, None]}


def produced_refusal(produce, family, state):
    """The type and message of ``produce``'s refusal, or None."""
    try:
        produce(family, state)
    except (ValueError, hw.HyperwalkError) as exc:
        return type(exc).__name__, str(exc)
    return None


@pytest.mark.parametrize("name", CASES)
def test_produced_tensor_refusals_match_frozen_loop(name):
    """Starts that are valid, negative, non-finite or of trace 1.1 are
    refused, or not, as the frozen two-step walk refuses them: by the check
    of the one-letter states.  The family is untruncated here, so that
    every start is certified (truncated starts are tested on their own)."""
    family, _, state, _, _ = case(name)
    family = _retagged(family, None)
    d, h = family.d_size, family.h_dim
    starts = {"start": state.array, **{label: stack[1]
                                       for label, stack in invalid_stacks(h, d).items()}}
    for label, array in starts.items():
        start = hw.block_state(array, validate=False)
        refusal = produced_refusal(hw.produced_tensor, family, start)
        assert refusal == produced_refusal(tensor_loops.produced_tensor, family, start), label
        # A dense map can take the negative block to a valid state.
        if label != "negative":
            assert (refusal is None) == (label in ("start", "valid")), label


def test_incomplete_family_is_refused_by_its_rows():
    """A family that keeps the trace of the start's column but not of the
    others: every one-letter state passes, and the first two-letter walk
    whose trace is off, (1, 0), is refused as the row (0, 1) it produces.
    The frozen walk refused the same walk's state by its trace."""
    family, _, state, _, _ = case("c4 h2")
    array = family.array.copy()
    array[:, 1:] *= 1.1  # B[i, j; k] for j > 0
    incomplete = hw.KrausFamily(array=array)
    assert not hw.validate_kraus(incomplete).passed
    with pytest.raises(ValueError, match=r"^row \(0, 1\) sums to 1\.21\d*, not 1$"):
        hw.produced_tensor(incomplete, state)
    with pytest.raises(ValueError, match=r"^total trace is 1\.21\d*, not 1$"):
        tensor_loops.produced_tensor(incomplete, state)


def test_non_finite_mass_is_refused():
    """Blocks of letter 1 scaled so that their superoperator is finite but
    one Gram block overflows, B[1,2;1]'s, at column 2: the one-letter states
    pass, and the first walk that reaches it, (2, 1), is refused by its mass
    at 1.  The words whose state is elsewhere are not refused through the
    zero blocks of their state (0 * inf).  The frozen walk refused the first
    two-letter state whose trace overflowed."""
    family, _, state, _, _ = case("c4 h2")
    array = family.array.copy()
    array[:, 1:, 1] *= np.sqrt(1.2e308) / np.abs(array[:, 1:, 1]).max()
    big = hw.KrausFamily(array=array)
    assert np.isfinite(big._stack).all()
    assert np.argwhere(~np.isfinite(big._gram).all(axis=(-2, -1))).tolist() == [[1, 1, 2]]
    with np.errstate(all="ignore"):
        assert produced_refusal(hw.produced_tensor, big, state) == (
            "ValueError", "mass at 1 after the word (2, 1) is not finite")
        assert produced_refusal(tensor_loops.produced_tensor, big, state) == (
            "ValueError", "total trace is inf, not 1")


@functools.lru_cache(maxsize=None)
def loop_check_hb(name):
    _, tensor, _, old_family, _ = case(name)
    return ref.check_hb(old_family, tensor)


def assert_check_hb_matches_loops(name, family=None):
    """check_hb on the case's family, or on ``family``, against the loops."""
    default, tensor, _, old_family, _ = case(name)
    family = default if family is None else family
    new, old = hw.check_hb(family, tensor), loop_check_hb(name)
    assert_same_check(new, old, "worst_tuple", hb_residual(old_family, tensor))
    assert (new.checked, new.skipped) == (old.checked, old.skipped)


@pytest.mark.parametrize("name", CASES)
def test_check_hb_matches_loops(name):
    assert_check_hb_matches_loops(name)


TRUNCATED = [name for name in CASES if budget(*case(name)[:2]) is not None]


@functools.lru_cache(maxsize=None)
def loop_theorem_5_1(name, max_len):
    _, tensor, _, old_family, _ = case(name)
    return ref.verify_theorem_5_1(old_family, tensor, max_word_len=max_len, n_states=3, seed=7)


def assert_theorem_5_1_matches_loops(name, max_len, family=None):
    """Theorem 5.1 on the case's family, or on ``family``, against the
    loops, or on truncated inputs against the point starts (see the module
    docstring)."""
    if name in TRUNCATED:
        assert_theorem_5_1_matches_point_starts(name, max_len, family)
        return
    default, tensor, _, _, _ = case(name)
    family = default if family is None else family
    new = hw.verify_theorem_5_1(family, tensor, max_word_len=max_len, n_states=3, seed=7)
    old = loop_theorem_5_1(name, max_len)
    assert (new.passed, new.note) == (old.passed, old.note)
    # The branch is check_hb's verdict, taken from the same two-letter blocks.
    assert ("holds" in new.note) == hw.check_hb(family, tensor).passed
    if "converse" in old.note:
        # The converse witness is the first gap found, pass or fail.
        assert (new.witness, new.checked) == (old.worst_case, old.checked_cases)
        assert abs(new.max_residual - old.max_residual) <= TOL
    else:
        # The exact worst case over all states bounds the sampled one.
        assert new.max_residual >= old.max_residual - TOL
        assert new.max_residual <= TOL


@pytest.mark.parametrize("name", [name for name in CASES if name not in TRUNCATED])
def test_theorem_5_1_matches_loops(name):
    assert_theorem_5_1_matches_loops(name, 3)


def point_start_gaps(family, tensor, max_len, radius):
    """The largest |walk - mixture| over every budgeted word and every point
    start E_j (x) sigma, sigma of ``spanning_states``, with j + sum(word)
    within ``radius``, walked depth first through the words by the blocks;
    and the number of (word, j) cases and of words."""
    d, h = family.d_size, family.h_dim
    spanning = [rho for _, rho in hw.spanning_states(h)]
    starts = np.zeros((d, len(spanning), d, h, h), dtype=complex)
    for j in range(d):
        starts[j, :, j] = spanning

    def step(k, stack):  # rho'_i = sum_j B[i,j;k] rho_j B[i,j;k]^*, over the nonzero blocks
        out = np.zeros_like(stack)
        for (i, j, letter), b in family.blocks.items():
            if letter == k:
                out[..., i, :, :] += b @ stack[..., j, :, :] @ b.conj().T
        return out

    def masses(stack):
        return np.trace(stack, axis1=-2, axis2=-1).real  # [j, s, i]

    one_step = np.array([masses(step(m, starts)) for m in range(d)])
    tally = {"worst": 0.0, "cases": 0, "words": 0}

    def visit(word, stack):
        window = np.arange(d) + sum(word) <= radius
        fold = np.array([float(c) for c in hw.multi_constants(tensor, word[::-1])])
        gaps = np.abs(masses(stack) - np.tensordot(fold, one_step, axes=1)).max(axis=-1)
        tally["worst"] = max(tally["worst"], float(gaps[window].max()))
        tally["cases"] += int(window.sum())
        tally["words"] += 1
        if len(word) < max_len:
            for k in range(min(d, radius - sum(word) + 1)):
                visit(word + (k,), step(k, stack))

    for k in range(min(d, radius + 1)):
        visit((k,), step(k, starts))
    return tally["worst"], tally["cases"], tally["words"]


@functools.lru_cache(maxsize=None)
def loop_point_starts(name, max_len):
    family, tensor, _, _, _ = case(name)
    return point_start_gaps(family, tensor, max_len, budget(family, tensor))


def assert_theorem_5_1_matches_point_starts(name, max_len, family=None):
    default, tensor, _, _, _ = case(name)
    family = default if family is None else family
    d = family.d_size
    report = hw.verify_theorem_5_1(family, tensor, max_word_len=max_len)
    worst, cases, words = loop_point_starts(name, max_len)
    assert hw.check_hb(family, tensor).passed
    assert report.passed and report.note == "decomposition holds; walk == mixture"
    assert worst <= TOL and report.max_residual <= TOL
    assert report.max_residual >= worst - TOL
    # One case per (word, i, j); the starts past the window are skipped.
    assert (report.checked, report.skipped) == (d * cases, d * (d * words - cases))


@pytest.mark.parametrize("max_len", (2, 3, 4))
@pytest.mark.parametrize("name", TRUNCATED)
def test_theorem_5_1_truncated_matches_point_starts(name, max_len):
    assert_theorem_5_1_matches_point_starts(name, max_len)


# Level entry budgets that give each letter of heisenberg_levels a piece of
# its own, and every letter of a group one piece.
LEVEL_BUDGETS = {"one letter per piece": 1, "one piece": 2**62}


def chunked_reports(family, tensor):
    """check_hb, Theorem 5.1 at two and three letters and the converse scan,
    each as a tuple that compares the residual bit for bit."""
    reports = [
        hw.check_hb(family, tensor),
        hw.verify_theorem_5_1(family, tensor, max_word_len=2),
        hw.verify_theorem_5_1(family, tensor, max_word_len=3),
        verify._converse_witness(family, tensor, 1e-8),
    ]
    # Plain ints, as a JSON document or a trace of the counts needs them.
    assert all(type(r.checked) is int and type(r.skipped) is int for r in reports)
    return compared(reports)


def compared(reports):
    """Reports as tuples that compare the residual bit for bit."""
    return [(r.passed, repr(r.max_residual), r.witness, r.checked, r.skipped, r.note)
            for r in reports]


def fresh(family):
    """A family equal to ``family`` with nothing cached: a check on it walks
    the levels anew instead of reading a kept ``_two_letter_pass``."""
    return hw.KrausFamily(array=family.array, truncation_radius=family.truncation_radius)


def spied_walks(monkeypatch):
    """Record every ``heisenberg_levels`` walk the library starts: the level
    entry budget then set, its longest words, whether the converse scan
    (``verify._converse_witness``) started it, and a Counter of the pieces
    read from each of its levels, by length."""
    calls, scanning = [], []
    walk, scan = oqrw.heisenberg_levels, verify._converse_witness

    def spy(family, tensor, max_len, radius):
        read = collections.Counter()
        calls.append((oqrw._LEVEL_ENTRIES, max_len, bool(scanning), read))

        def counted(pieces, length):
            for piece in pieces:
                read[length] += 1
                yield piece

        for length, pieces in enumerate(walk(family, tensor, max_len, radius), start=2):
            yield counted(pieces, length)

    def spied_scan(*args):
        scanning.append(True)
        try:
            return scan(*args)
        finally:
            scanning.pop()

    monkeypatch.setattr(oqrw, "heisenberg_levels", spy)
    monkeypatch.setattr(verify, "heisenberg_levels", spy)
    monkeypatch.setattr(verify, "_converse_witness", spied_scan)
    return calls


def two_letter_passes(calls):
    """The walks whose two-letter pieces were read for a pass: all but the
    converse scan's walks."""
    return sum(1 for _, _, converse, read in calls if read[2] and not converse)


@pytest.mark.parametrize("level_budget", LEVEL_BUDGETS)
@pytest.mark.parametrize("name", CASES)
def test_level_pieces_give_the_same_reports(name, level_budget, monkeypatch):
    family, tensor, _, _, _ = case(name)
    expected = chunked_reports(fresh(family), tensor)
    entries = LEVEL_BUDGETS[level_budget]
    monkeypatch.setattr(oqrw, "_LEVEL_ENTRIES", entries)
    calls = spied_walks(monkeypatch)
    family = fresh(family)
    assert chunked_reports(family, tensor) == expected
    assert_check_hb_matches_loops(name, family)
    for max_len in (2, 3):
        assert_theorem_5_1_matches_loops(name, max_len, family)
    assert (entries, 2, False) in [call[:3] for call in calls]
    assert {budget for budget, _, _, _ in calls} == {entries}


@functools.lru_cache(maxsize=None)
def _non_finite_cases():
    """d = 6, h = 2 inputs whose two-letter observables hold NaN: a block of
    letter 3 of a dense family, and constants of the rows (1, 3) and (2, 1)
    of a group's tensor, which come first in (k, l) and in (l, k) order."""
    family, tensor, _, _, _ = case("random d6 h2")
    array = family.array.copy()
    array[1, 2, 3] = np.nan  # B[1,2;3]
    group, group_tensor, _, _, _ = case("s3 h2")
    cube = group_tensor.to_float().cube.copy()
    cube[1, 3, 0] = cube[2, 1, 0] = np.nan  # Q[1,3,0] and Q[2,1,0]
    return {
        "NaN block in letter 3": (hw.KrausFamily(array=array), tensor),
        "NaN constants in rows (1, 3) and (2, 1)": (group, hw.StructureTensor(cube)),
    }


@pytest.mark.parametrize("name", _non_finite_cases())
def test_first_non_finite_witness_is_the_per_letter_one(name, monkeypatch):
    family, tensor = _non_finite_cases()[name]
    d = family.d_size
    # Letter 3 is inside a piece of five letters and inside the one piece.
    budgets = {"default": oqrw._LEVEL_ENTRIES, "five letters per piece": 5 * d**3 * 4,
               **LEVEL_BUDGETS}
    reports = {}
    calls = spied_walks(monkeypatch)
    for level_budget, entries in budgets.items():
        monkeypatch.setattr(oqrw, "_LEVEL_ENTRIES", entries)
        reports[level_budget] = chunked_reports(fresh(family), tensor)
        assert (entries, 2, False) in [call[:3] for call in calls]
        assert {budget for budget, _, _, _ in calls} == {entries}
        calls.clear()
    assert all(r == reports["one letter per piece"] for r in reports.values())
    report = hw.check_hb(family, tensor)
    assert not report.passed and np.isnan(report.max_residual)
    # The loop formula's first non-finite tuple in (k, l, i, j) order.
    residual = hb_residual(ref.from_family(family), tensor)
    first = next((i, j, k, l) for k, l, i, j in np.ndindex((d,) * 4)
                 if not np.isfinite(residual((i, j, k, l))))
    assert report.witness == first


@pytest.mark.parametrize("name", ["z-lattice(10) h3", "s3 h2 radius 3", "c4 h2", "random d4 h2"])
def test_one_two_letter_pass_per_family_and_tensor(name, monkeypatch):
    """check_hb, Theorem 5.1 at two and three letters and check_hb at
    another tolerance read the two-letter pieces of one walk; an equal but
    distinct tensor gets a pass of its own, which goes with the tensor.
    Only the converse branch (the random family) starts a converse scan,
    which walks the two letters again."""
    family, tensor, _, _, _ = case(name)
    family = fresh(family)
    calls = spied_walks(monkeypatch)
    first = hw.check_hb(family, tensor)
    t51 = [hw.verify_theorem_5_1(family, tensor, max_word_len=n) for n in (2, 3)]
    loose = hw.check_hb(family, tensor, tol=1e-3)
    assert two_letter_passes(calls) == 1
    assert any(converse for _, _, converse, _ in calls) == (not first.passed)
    assert (first.max_residual, first.witness, first.checked) == (
        loose.max_residual, loose.witness, loose.checked)
    assert (loose.passed, loose.tolerance) == (first.max_residual <= 1e-3, 1e-3)
    assert all(("holds" in r.note) == first.passed for r in t51)
    equal = hw.StructureTensor(tensor.cube, tensor.denominator, tensor.truncation_radius)
    assert repr(hw.check_hb(family, equal)) == repr(first)
    assert two_letter_passes(calls) == 2
    assert len(family._passes) == 2
    del equal
    gc.collect()
    assert len(family._passes) == 1 and tensor in family._passes


@pytest.mark.parametrize("max_len", (2, 3))
@pytest.mark.parametrize("name", ["ex44", "c4-perturbed h2", "random d6 h2"])
def test_theorem_5_1_alone_keeps_its_pass_and_scans_its_own_walk(name, max_len, monkeypatch):
    """Theorem 5.1 run alone on an identity that fails reads only the
    two-letter pieces of its walk, keeps the pass they form and starts a
    two-letter walk for the converse scan; check_hb then starts no walk."""
    family, tensor, _, _, _ = case(name)
    expected = chunked_reports(fresh(family), tensor)
    family = fresh(family)
    calls = spied_walks(monkeypatch)
    t51 = hw.verify_theorem_5_1(family, tensor, max_word_len=max_len)
    assert [call[:3] for call in calls] == [(oqrw._LEVEL_ENTRIES, max_len, False),
                                            (oqrw._LEVEL_ENTRIES, 2, True)]
    assert [set(call[3]) for call in calls] == [{2}, {2}] and tensor in family._passes
    hb = hw.check_hb(family, tensor)
    assert len(calls) == 2
    assert compared([hb, t51]) == expected[:2]


def counted_products(family):
    """A fresh copy of ``family`` whose superoperator stack records, for each
    product it is the right operand of, the observables times the letters
    they are extended by: one per word formed; and that list."""
    products = []
    d = family.d_size

    class CountedStack(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            left, right = inputs[0], inputs[-1]
            if ufunc is np.matmul and isinstance(right, CountedStack):
                products.append(left.shape[-2] // d * (right.shape[0] if right.ndim == 3 else 1))
            inputs = [x.view(np.ndarray) if isinstance(x, CountedStack) else x for x in inputs]
            return getattr(ufunc, method)(*inputs, **kwargs)

    counted = fresh(family)
    counted.__dict__["_stack"] = family._stack.view(CountedStack)
    return counted, products


@pytest.mark.parametrize("name", ["z-lattice(10) h3", "ex45 h3", "s3 h2 radius 3", "c4 h2"])
def test_theorem_5_1_forms_each_word_once(name, monkeypatch):
    """With one letter per piece, Theorem 5.1 at three letters on a fresh
    family forms the observables of each word of two and three letters
    once: the pass it keeps and the longer words share one walk.  check_hb
    then forms none."""
    family, tensor, _, _, _ = case(name)
    monkeypatch.setattr(oqrw, "_LEVEL_ENTRIES", 1)
    family, products = counted_products(family)
    d, cap = family.d_size, budget(family, tensor)
    words = sum(1 for n in (2, 3) for word in itertools.product(range(d), repeat=n)
                if cap is None or sum(word) <= cap)
    assert hw.verify_theorem_5_1(family, tensor, max_word_len=3).passed
    assert sum(products) == words and tensor in family._passes
    products.clear()
    assert hw.check_hb(family, tensor).passed and not products


@pytest.mark.parametrize("name", ["z-lattice(10) h3", "s3 h2 radius 3", "random d4 h2"])
def test_a_checked_family_pickles(name):
    """The kept passes stay out of a family's pickled or copied state; the
    copy forms its own and reads the same reports."""
    family, tensor, _, _, _ = case(name)
    family = fresh(family)

    def checked(family):
        return compared([hw.check_hb(family, tensor),
                         hw.verify_theorem_5_1(family, tensor, max_word_len=3)])

    before = checked(family)
    for copied in (pickle.loads(pickle.dumps(family)), copy.deepcopy(family)):
        assert not copied._passes and np.array_equal(copied.array, family.array)
        assert checked(copied) == before and tensor in copied._passes


def order_reports(family, tensor, order):
    """check_hb and Theorem 5.1 at two and three letters, as tuples that
    compare the residual bit for bit: on one fresh family with check_hb
    first or last, or each on a fresh family of its own ("alone")."""
    shared = fresh(family)
    pick = (lambda: fresh(family)) if order == "alone" else (lambda: shared)

    def t51():
        return [hw.verify_theorem_5_1(pick(), tensor, max_word_len=n) for n in (2, 3)]

    if order == "hb first":
        hb = hw.check_hb(pick(), tensor)
        later = t51()
    else:
        later = t51()
        hb = hw.check_hb(pick(), tensor)
    return compared([hb, *later])


@pytest.mark.parametrize("name", [*CASES, *_non_finite_cases()])
def test_reports_do_not_depend_on_the_order_of_the_checks(name):
    if name in CASES:
        family, tensor, _, _, _ = case(name)
    else:
        family, tensor = _non_finite_cases()[name]
    alone = order_reports(family, tensor, "alone")
    assert order_reports(family, tensor, "hb first") == alone
    assert order_reports(family, tensor, "t51 first") == alone


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


@functools.lru_cache(maxsize=None)
def _hb_window_cases():
    zl = presets.zlattice_hypergroup(6).tensor  # d = 7, radius 6
    zl_family, _, _ = _realized(zl, 2, seed=4)
    cut = zl.cube.copy()
    cut[np.add.outer(np.arange(7), np.arange(7)) > 4] = 0
    zl4 = hw.StructureTensor(cut, zl.denominator, 4)
    cut[1, 2] = cut[1, 2, [1, 0, 2, 3, 4, 5, 6]]  # x_1 x_2 lands on 0 or 3, not 1 or 3
    zl4_moved = hw.StructureTensor(cut, zl.denominator, 4)
    c4 = presets.c4_hypergroup().tensor  # d = 3, untruncated
    c4_family, _, _ = _realized(c4, 2, seed=5)
    return {
        # common_radius takes the smaller radius, on either side.
        "tensor radius below family's": (zl_family, zl4),
        "family radius below tensor's": (_retagged(zl_family, 3), zl),
        "radius 0": (_retagged(zl_family, 0), zl),
        "radius d - 1": (_retagged(c4_family, 2), c4),
        "radius d": (_retagged(c4_family, 3), c4),
        "radius past d": (_retagged(c4_family, 7), c4),
        # Rows past the lattice's radius are zero in an untruncated tensor.
        "radius past d, failing": (_retagged(zl_family, 9),
                                   hw.StructureTensor(zl.cube, zl.denominator)),
        "tensor radius below family's, failing": (zl_family, zl4_moved),
        "family radius below tensor's, failing": (_retagged(zl_family, 3), zl4_moved),
    }


@pytest.mark.parametrize("name", _hb_window_cases())
def test_check_hb_window_matches_loops(name):
    family, tensor = _hb_window_cases()[name]
    old_family = ref.from_family(family)
    new, old = hw.check_hb(family, tensor), ref.check_hb(old_family, tensor)
    assert_same_check(new, old, "worst_tuple", hb_residual(old_family, tensor))
    assert (new.checked, new.skipped) == (old.checked, old.skipped)


def converse_in_window(family, tensor, min_gap=1e-8):
    """The loops' converse scan over the certified cases only: the first
    start (m, density), then two-letter word w, with m + sum(w) within the
    common radius whose walk and mixture differ by ``min_gap``, walked by
    the frozen loops; its gap and the cases read up to it.  The frozen
    ``verify_theorem_5_1`` caps w by the tensor's radius alone and reads
    every start."""
    old = ref.from_family(family)
    d, radius = family.d_size, oqrw.common_radius(family, tensor)
    cases = 0
    for m in range(d):
        for label, rho in verify.spanning_states(family.h_dim):
            state = ref.point_state(rho, m, d)
            for word in itertools.product(range(d), repeat=2):
                if radius is not None and m + sum(word) > radius:
                    continue
                cases += 1
                gap = float(np.abs(ref.walk_distribution(old, word, state)
                                   - ref.mixture_distribution(old, tensor, word, state)).max())
                if gap >= min_gap:
                    return (m, label, word), cases, gap
    return None, cases, 0.0


@pytest.mark.parametrize("name", _hb_window_cases())
def test_theorem_5_1_window_matches_loops(name):
    family, tensor = _hb_window_cases()[name]
    new = hw.verify_theorem_5_1(family, tensor, max_word_len=3)
    old = ref.verify_theorem_5_1(ref.from_family(family), tensor, max_word_len=3)
    assert new.note == old.note
    if "converse" in old.note:
        # Over the cases m + sum(w) within the common radius, as check_hb reads them.
        witness, cases, gap = converse_in_window(family, tensor)
        assert (new.witness, new.checked) == (witness, cases)
        assert abs(new.max_residual - gap) <= TOL
    else:
        assert new.passed and new.max_residual <= TOL


def _recording(h_dim, seed, calls):
    rng = np.random.default_rng(seed)

    def isometry(i, j, k):
        calls.append((i, j, k))
        return hw.random_unitary(h_dim, rng)
    return isometry


REALIZED = {
    **HYPERGROUPS,
    **{f"z-lattice({r})": functools.partial(lambda r: presets.zlattice_hypergroup(r).tensor, r)
       for r in (6, 9)},
}


@pytest.mark.parametrize("name", REALIZED)
@pytest.mark.parametrize("h_dim", [1, 2, 3])
def test_realize_matches_per_block_loop(name, h_dim):
    tensor = REALIZED[name]()
    new_calls, old_calls = [], []
    family, state = hw.realize(tensor, h_dim, isometries=_recording(h_dim, 11, new_calls))
    old = ref.realize_array(tensor, h_dim, isometries=_recording(h_dim, 11, old_calls))
    assert new_calls == old_calls
    assert family.array.dtype == old.dtype and np.array_equal(family.array, old)
    assert family.truncation_radius == tensor.truncation_radius
    assert np.array_equal(hw.realize(tensor, h_dim)[0].array, ref.realize_array(tensor, h_dim))
    assert np.array_equal(state.array, hw.maximally_mixed_state(h_dim, tensor.size).array)


def _refusal(fn):
    with pytest.raises(ValueError) as raised:
        fn()
    return str(raised.value)


def test_realize_refusals_match_per_block_loop():
    tensor = presets.zlattice_hypergroup(4).tensor
    keys = [(i, j, k) for k, j, i in zip(*np.nonzero(tensor.cube))]
    rng = np.random.default_rng(2)
    good = {key: hw.random_unitary(2, rng) for key in keys}
    skewed = np.diag([1.0, 0.5]).astype(complex)
    cases = {
        "non-isometry": {**good, keys[5]: skewed, keys[9]: skewed},
        "wrong shape": {**good, keys[3]: np.eye(3)},
        # The earlier non-isometry is refused before the later wrong shape,
        # and the other way round.
        "non-isometry, then wrong shape": {**good, keys[4]: skewed, keys[7]: np.eye(3)},
        "wrong shape, then non-isometry": {**good, keys[4]: np.eye(3), keys[7]: skewed},
        "non-finite": {**good, keys[6]: np.full((2, 2), np.nan)},
    }
    for name, isometries in cases.items():
        old = _refusal(lambda: ref.realize_array(tensor, 2, isometries))
        assert _refusal(lambda: hw.realize(tensor, 2, isometries)) == old, name
        # The same blocks through a callable name the same first block.
        assert _refusal(lambda: hw.realize(tensor, 2, lambda *key: isometries[key])) == old, name


def _states(h_dim, d_size, n_states, seed):
    rng = np.random.default_rng(seed)
    return np.array([hw.random_block_state(h_dim, d_size, rng).array for _ in range(n_states)])


def _rotated(eigenvalues, seed):
    """A Hermitian block with the given spectrum in a seeded eigenbasis."""
    u = hw.random_unitary(len(eigenvalues), np.random.default_rng(seed))
    return (u * np.asarray(eigenvalues, dtype=float)) @ u.conj().T


def _ulps(x, n):
    """x moved n ulps (toward +inf for n > 0)."""
    for _ in range(abs(n)):
        x = np.nextafter(x, np.inf if n > 0 else -np.inf)
    return x


@functools.lru_cache(maxsize=None)
def _state_stacks():
    """Named (S, d, h, h) stacks, each holding valid and invalid states."""
    eps = ref.EPS_PSD
    out = {}
    for h in (1, 2, 3):
        d = 4
        valid = _states(h, d, 5, seed=h)
        out[f"h{h} random"] = valid
        # Zero blocks and images of rank-1 projectors.
        v = np.arange(1, h + 1) + 1j * np.arange(h)
        projector = np.outer(v, v.conj()) / np.vdot(v, v).real
        sparse = np.zeros((3, d, h, h), dtype=complex)
        sparse[0, 1] = projector
        sparse[1, 2] = projector / 2
        b = np.random.default_rng(h).standard_normal((h, h)) + 1j
        image = b @ projector @ b.conj().T
        sparse[1, 3] = image / (2 * np.trace(image).real)
        sparse[2, 0] = np.eye(h) / h
        out[f"h{h} zero blocks and projectors"] = sparse
        for scale in (1 - 1e-3, 1 + 1e-3):
            for rotated in (False, True):
                spectrum = [-eps * scale] + [1.0 / (d * h)] * (h - 1)
                block = _rotated(spectrum, seed=7) if rotated else np.diag(spectrum)
                stack = valid.copy()
                stack[2, 1] = block
                rest = np.trace(stack[2, [0, 2, 3]], axis1=-2, axis2=-1).real.sum()
                stack[2, [0, 2, 3]] *= (1 - np.trace(block).real) / rest
                out[f"h{h} eigenvalue {scale} rotated={rotated}"] = stack
        if h > 1:
            stack = valid.copy()
            stack[3, 2, 0, 1] += 2 * eps
            out[f"h{h} not Hermitian"] = stack
        for value in (np.nan, np.inf):
            stack = valid.copy()
            stack[1, 3, 0, 0] = value
            out[f"h{h} {value}"] = stack
        for offset in (2, 0.5, -2):
            stack = valid.copy()
            stack[4] *= 1 + offset * ref.EPS_PROB
            out[f"h{h} trace off by {offset} EPS_PROB"] = stack
        # A bad trace in an early state comes before a bad block in a later one.
        stack = valid.copy()
        stack[1] *= 1 + 2 * ref.EPS_PROB
        stack[3, 0] = -stack[3, 0]
        out[f"h{h} trace before block"] = stack
    # A least eigenvalue one ulp below -EPS_PSD in a rotated eigenbasis,
    # where the block's Hermitian projection rebuilt from its coordinates
    # reads above -EPS_PSD: a block that enters as complex values is
    # checked as it is given.
    stack = _states(2, 4, 5, seed=2)
    stack[2, 1] = _rotated([_ulps(-eps, -1), 1 / 8], seed=18)
    stack[2, [0, 2, 3]] *= (1 - np.trace(stack[2, 1]).real) / np.trace(
        stack[2, [0, 2, 3]], axis1=-2, axis2=-1).real.sum()
    out["h2 rotated eigenvalue an ulp below -EPS_PSD"] = stack
    # Many states in one stack, failing late.
    many = _states(3, 13, 300, seed=9)
    many[250, 7] = np.diag([-1e-9, 0.0, 0.0])
    many[250] /= np.trace(many[250], axis1=-2, axis2=-1).real.sum()
    out["many states, late failure"] = many
    out["many states"] = many[:250]
    return out


@pytest.mark.parametrize("name", _state_stacks())
def test_state_checks_match_eigvalsh_oracle(name):
    stack = _state_stacks()[name]
    assert _verdict(oqrw._check_states, stack) == _verdict(ref.check_states, stack)
    # Every state of the stack on its own, too.
    for state in stack:
        assert _verdict(oqrw._check_states, state) == _verdict(ref.check_states, state)


def test_entering_blocks_are_refused_as_given():
    """``block_state`` refuses the rotated block whose least eigenvalue
    sits an ulp below -EPS_PSD, as the oracle does, though the coordinate
    certificate passes the projection rebuilt from its coordinates."""
    state = _state_stacks()["h2 rotated eigenvalue an ulp below -EPS_PSD"][2]
    refusal = _verdict(ref.check_states, state)
    assert refusal.startswith("block 1 has negative eigenvalue -1.000000")
    assert oqrw._certified(oqrw.hermitian_coordinates(state)[None])
    with pytest.raises(ValueError, match=f"^{refusal}$"):
        hw.block_state(state)


def _verdict(check, stack):
    """None for a pass, else the refusal's message.  The oracle's eigvalsh
    can fail to converge on a NaN block before the block is named, where
    the library names it as non-finite."""
    try:
        check(stack)
    except np.linalg.LinAlgError:
        flat = stack.reshape((-1,) + stack.shape[-3:])
        failing = ~np.isfinite(flat).all(axis=(-2, -1))
        return f"block {int(np.argmax(failing[failing.any(axis=-1)][0]))} has non-finite entries"
    except ValueError as exc:
        return str(exc)
    return None


@st.composite
def _edge_stacks(draw):
    """An (S, d, h, h) stack of valid states with one entry pushed to an
    edge of a check: a least eigenvalue at -EPS_PSD, a Hermitian gap at
    EPS_PSD or a total trace at 1 +- EPS_PROB, each give or take a few ulps,
    or a NaN, +-inf or imaginary inf on a diagonal."""
    h = draw(st.sampled_from((1, 2, 3)))
    d, n_states = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**16))
    stack = _states(h, d, n_states, seed)
    s, j, a = draw(st.integers(0, n_states - 1)), draw(st.integers(0, d - 1)), draw(st.integers(0, h - 1))
    ulps = draw(st.integers(-4, 4))
    edge = draw(st.sampled_from(("eigenvalue", "hermitian", "trace", "non-finite")))
    if edge == "eigenvalue":
        least = _ulps(-ref.EPS_PSD, ulps)
        # The block's trace is 1/d, or -EPS_PSD when h = 1.
        spectrum = [least] + [(1 / d - least) / max(h - 1, 1)] * (h - 1)
        stack[s, j] = _rotated(spectrum, seed) if draw(st.booleans()) else np.diag(spectrum)
        if d > 1:
            rest = [m for m in range(d) if m != j]
            total = np.trace(stack[s, rest], axis1=-2, axis2=-1).real.sum()
            stack[s, rest] *= (1 - np.trace(stack[s, j]).real) / total
    elif edge == "hermitian":
        # On a diagonal block, whose Hermitian gap is then exactly ``gap``.
        gap = _ulps(ref.EPS_PSD, ulps)
        block = np.diag(np.diagonal(stack[s, j]).real).astype(complex)
        if h > 1:
            block[a, (a + 1) % h] = gap * draw(st.sampled_from((1, -1, 1j, -1j)))
        else:  # on a 1x1 block, X - X^* is 2i Im X
            block[0, 0] += 1j * gap / 2
        stack[s, j] = block
    elif edge == "trace":
        stack[s] *= _ulps(1 + draw(st.sampled_from((1, -1))) * ref.EPS_PROB, ulps)
    else:
        stack[s, j, a, a] = draw(st.sampled_from((np.nan, np.inf, -np.inf, complex(0, np.inf))))
    return stack


@given(_edge_stacks())
def test_certified_state_checks_match_eigvalsh_oracle(stack):
    """On stacks pushed to the edges of every check, ``_check_states``
    refuses exactly as the frozen eigvalsh-only check does, and the
    coordinate certificate passes a stack's coordinates only where that
    check passes the blocks they stand for."""
    with np.errstate(invalid="ignore", over="ignore"):
        expected = _verdict(ref.check_states, stack)
        singles = [_verdict(ref.check_states, state) for state in stack]
    assert _verdict(oqrw._check_states, stack) == expected
    assert [_verdict(oqrw._check_states, state) for state in stack] == singles
    coords = oqrw.hermitian_coordinates(stack)
    if oqrw._certified(coords):
        assert _verdict(ref.check_states, oqrw.hermitian_blocks(coords)) is None


def _refusing_walks():
    """Walks (family, state, word) whose state first goes bad at letter 1,
    2 or 3, or a few letters into the second batch of held states, with
    more letters after it."""
    family, state = hw.realize(presets.c4_hypergroup(), h_dim=3, isometries=_isometries(3, 8))
    v = np.array([1.0, 2.0, 2.0j]) / 3
    pure = hw.point_state(np.outer(v, v.conj()), 0, 3)
    # Per position, rho -> (2/3) tr(rho) 1 - rho: it keeps the trace, but is
    # not completely positive, and sends a pure block to eigenvalue -1/3.  In
    # the real coordinates of the stack the identity block has the
    # coordinates of the 3 x 3 identity, and tr(rho) is their dot product
    # with the state's.
    identity = np.eye(3).ravel()
    flip = (2 / 3) * np.outer(identity, identity) - np.eye(9)
    negative = family._stack.copy()
    negative[1] = np.kron(np.eye(3), flip) @ negative[1]
    bad = {
        "NaN block": (_with_blocks(family, 1, lambda b: b * np.nan), state),
        "overflowing block": (_with_blocks(family, 1, lambda b: b * 1e200), state),
        "trace not kept": (_with_blocks(family, 1, lambda b: b * 1.1), state),
        "trace growing to overflow": (_with_blocks(family, 1, lambda b: b * 1e3), state),
        "negative output": (_with_stack(family, negative), pure),
    }
    batch = oqrw._CHECK_ENTRIES // state.array.size
    out = []
    for name, (fam, start) in bad.items():
        for n in (1, 2, 3, batch + 3):
            # Distance 0 keeps a point state a point state; letter 1 goes bad.
            word = (0,) * (n - 1) + (1,) + (0, 1) * (200 if "overflow" in name else 2)
            out.append(pytest.param(fam, start, word, id=f"{name} at letter {n}"))
    return out


def _with_blocks(family, k, edit):
    array = family.array.copy()
    array[:, :, k] = edit(array[:, :, k])
    return hw.KrausFamily(array=array)


def _with_stack(family, stack):
    """A copy of ``family`` walking by the superoperators ``stack``: the
    stack is a cached property of the frozen family, seeded here."""
    family = hw.KrausFamily(array=family.array)
    family.__dict__["_stack"] = stack
    return family


def _outcome(walk):
    """The walk's distribution, or its refusal's type and message, with
    every numpy warning raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return walk().tolist()
        except (ValueError, RuntimeWarning) as exc:
            return type(exc).__name__, str(exc)


@pytest.mark.parametrize("family, state, word", _refusing_walks())
def test_refused_walks_match_the_per_letter_loop(family, state, word):
    """A walk that goes bad refuses its first bad state with the refusal
    and the warnings of the walk checked after every letter, and no
    warning from the letters after it."""
    expected = _outcome(lambda: ref.walk_per_letter(family, word, state))
    assert isinstance(expected, tuple)
    assert _outcome(lambda: hw.walk_distribution(family, word, state)) == expected


def _certificates(monkeypatch):
    """The (coordinates, verdict) of every ``oqrw._certified`` call, recorded
    in call order with a copy of the stack."""
    calls, certified = [], oqrw._certified

    def recorded(coords):
        verdict = certified(coords)
        calls.append((coords.copy(), verdict))
        return verdict

    monkeypatch.setattr(oqrw, "_certified", recorded)
    return calls


def assert_certificates_match_frozen(calls):
    """Each verdict is the frozen complex certificate's on the blocks the
    coordinates stand for, from bit-identical Gershgorin rows wherever both
    are finite."""
    assert calls
    for coords, verdict in calls:
        blocks = oqrw.hermitian_blocks(coords)
        assert verdict == ref.certified(blocks)
        with np.errstate(over="ignore", invalid="ignore"):
            rows = 2 * np.diagonal(coords, axis1=-2, axis2=-1) - oqrw.entry_moduli(coords).sum(-1)
            old = ref.gershgorin_rows(blocks)
        both = np.isfinite(rows) & np.isfinite(old)
        assert np.array_equal(rows[both].view(np.int64), old[both].view(np.int64))


@pytest.mark.parametrize("name", CASES)
def test_certificates_match_the_frozen_complex_certificate(name, monkeypatch):
    """On every held batch of the corpus walks, every stepped state and
    ``produced_tensor``'s one-letter states, the certificate in coordinates
    gives the frozen complex certificate's verdict."""
    family, tensor, state, _, _ = case(name)
    starts = [state]
    if budget(family, tensor) is None:
        starts.append(hw.random_block_state(family.h_dim, family.d_size, seed=3))
    calls = _certificates(monkeypatch)
    hw.produced_tensor(family, state)
    for start in starts:
        for k in range(family.d_size):
            hw.step(family, k, start)
        for word in sample_words(family, tensor):
            hw.walk_distribution(family, word, start)
    assert_certificates_match_frozen(calls)


@pytest.mark.parametrize("family, state, word", _refusing_walks())
def test_refused_walk_certificates_match_the_frozen_complex_certificate(
        family, state, word, monkeypatch):
    calls = _certificates(monkeypatch)
    with np.errstate(all="ignore"), pytest.raises(ValueError):
        hw.walk_distribution(family, word, state)
    assert_certificates_match_frozen(calls)
    assert not calls[-1][1]


def test_non_finite_rows_are_never_certified():
    """Walked coordinates can be non-finite off the diagonal alone, with
    finite traces and NaN or -inf Gershgorin rows: the certificate passes
    no such stack, and does not fail on it.  A walk whose last letter
    writes NaN to the coordinate (0, 1) at every position refuses it by
    name."""
    for seed in range(4):
        coords = oqrw.hermitian_coordinates(_states(3, 4, 2, seed))
        for value in (np.nan, np.inf, -np.inf):
            bad = coords.copy()
            bad[1, 2, 0, 1] = value
            assert not oqrw._certified(bad)
    family, state = hw.realize(presets.c4_hypergroup(), h_dim=3)
    stack = family._stack.copy()
    stack[1, 1::9] = np.nan  # the rows of the coordinate (0, 1), at each of 3 positions
    with pytest.raises(ValueError, match="^block 0 has non-finite entries$"):
        hw.walk_distribution(_with_stack(family, stack), (0, 1), state)


def test_walks_refuse_only_the_non_finite_values_they_reach():
    """On c4 at h_dim 2 with the blocks B[., 2; 1] scaled to overflow, a
    walk or step that never sits at position 2 before a letter 1 walks as
    with those blocks zeroed, with no warning; one that does refuses the
    overflow as before."""
    family, start = hw.realize(presets.c4_hypergroup(), h_dim=2)
    at_two = (np.arange(3) == 2)[None, :, None, None]  # the blocks B[., 2; k]
    big = _with_blocks(family, 1, lambda b: b * np.where(at_two, 1e200, 1.0))
    zero = _with_blocks(family, 1, lambda b: b * ~at_two)
    assert not np.isfinite(big._stack[1]).all()
    assert _outcome(lambda: hw.walk_distribution(big, (1,), start)) == [0.0, 1.0, 0.0]
    for word in [(1,), (1, 1), (1, 2), (0, 1, 0, 1)]:
        assert _outcome(lambda: hw.walk_distribution(big, word, start)) == _outcome(
            lambda: hw.walk_distribution(zero, word, start))
    assert _outcome(lambda: hw.distribution(hw.step(big, 1, start))) == [0.0, 1.0, 0.0]
    for word in [(1, 1, 1), (2, 1), (0, 2, 1, 0)]:
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="^block 1 has non-finite entries$"):
                hw.walk_distribution(big, word, start)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="^block 1 has non-finite entries$"):
            hw.step(big, 1, hw.point_state(np.eye(2) / 2, 2, 3))


def test_mixtures_and_produced_tensor_read_only_the_occupied_positions():
    """On c4 at h_dim 2 with every block B[., 2; k] scaled to overflow, a
    mixture from position 0 never reads position 2's Gram blocks: it agrees
    with the walk, with no warning.  produced_tensor forms the one-letter
    state Phi_2(rho0) at position 2 as the walk does, and refuses the first
    word whose mass reads the overflow there."""
    family, start = hw.realize(presets.c4_hypergroup(), h_dim=2)
    tensor = presets.c4_hypergroup().tensor
    big = hw.KrausFamily(array=family.array * np.where(np.arange(3) == 2, 1e200, 1.0)[
        None, :, None, None, None])
    assert not np.isfinite(big._gram[:, :, 2]).all()
    assert _outcome(lambda: hw.walk_distribution(big, (2,), start)) == [0.0, 0.0, 1.0]
    for word in [(0,), (1,), (2,), (1, 1), (0, 1)]:
        walked = _outcome(lambda: hw.walk_distribution(big, word, start))
        mixed = _outcome(lambda: hw.mixture_distribution(big, tensor, word, start))
        assert type(mixed) is list and np.allclose(mixed, walked, rtol=0, atol=TOL), word
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert produced_refusal(hw.produced_tensor, big, start) == (
            "ValueError", "mass at 2 after the word (2, 0) is not finite")
