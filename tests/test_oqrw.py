import itertools
import re
import tracemalloc

import numpy as np
import pytest

import hyperwalk as hw
from hyperwalk import (
    KrausFamily,
    StructureTensor,
    TruncationExceededError,
    block_state,
    check_hb,
    check_linear_independence,
    distribution,
    kraus_family,
    mixture_distribution,
    multi_constants,
    point_state,
    produced_tensor,
    realize,
    scalar_isometry_defect,
    state_from_density,
    step,
    tensor_difference,
    validate_kraus,
    walk_distribution,
)
from hyperwalk import presets
from hyperwalk.verify import random_block_state, random_unitary
from reference import oqrw_loops as ref


def delta_family(d_size, h_dim=1):
    """B[i,j;k] = delta(i,k) identity: every map relocates all mass to k."""
    eye = np.eye(h_dim, dtype=complex)
    blocks = {(k, j, k): eye for j in range(d_size) for k in range(d_size)}
    return kraus_family(d_size, h_dim, blocks)


def test_kraus_family_construction_errors():
    with pytest.raises(ValueError, match="shape"):
        kraus_family(2, 2, {(0, 0, 0): np.eye(3)})
    with pytest.raises(ValueError, match="out of range"):
        kraus_family(2, 2, {(2, 0, 0): np.eye(2)})
    with pytest.raises(ValueError, match="positive"):
        kraus_family(0, 2, {})


def test_non_finite_blocks_never_pass():
    with pytest.raises(ValueError, match="non-finite"):
        kraus_family(2, 1, {(0, 0, 0): [[np.nan]]})
    with pytest.raises(ValueError, match="non-finite"):
        kraus_family(2, 1, {(1, 0, 1): [[np.inf]]})
    # Built directly, past the constructor's check, the reducers still fail.
    fam, _ = realize(presets.c4_hypergroup(), h_dim=1)
    array = fam.array.copy()
    array[2, 1, 1] = np.nan
    bad = KrausFamily(array=array)
    report = validate_kraus(bad)
    assert not report.passed and np.isnan(report.max_residual)
    assert report.witness == (1, 1)
    hb = check_hb(bad, presets.c4_hypergroup().tensor)
    assert not hb.passed and np.isnan(hb.max_residual)
    assert hb.witness is not None


def test_family_keeps_its_own_copy_of_a_writable_array(c4):
    rng = np.random.default_rng(3)
    fam, state = realize(c4, h_dim=2, isometries=lambda *_: random_unitary(2, rng))
    # Arrays from realize and kraus_family are read-only and kept as they are.
    assert KrausFamily(array=fam.array).array is fam.array
    array = fam.array.copy()
    family = KrausFamily(array=array)
    first = validate_kraus(family)
    array[2, 1, 1] *= 3
    fresh = KrausFamily(array=fam.array)
    assert str(validate_kraus(family)) == str(validate_kraus(fresh)) == str(first)
    assert str(check_hb(family, c4.tensor)) == str(check_hb(fresh, c4.tensor))
    assert np.array_equal(walk_distribution(family, (1, 2), state),
                          walk_distribution(fresh, (1, 2), state))


def test_state_keeps_its_own_copy_of_a_writable_array(c4):
    """A state caches the coordinates its walks step, so it keeps a
    read-only copy of an array its caller could still write to."""
    fam, state = realize(c4, h_dim=2)
    assert hw.BlockState(array=state.array).array is state.array
    array = state.array.copy()
    start = hw.BlockState(array=array)
    first = walk_distribution(fam, (1,), start)
    array[0] = np.eye(2)
    assert np.array_equal(walk_distribution(fam, (1,), start), first)


def test_non_finite_states_are_named_as_such():
    rng = np.random.default_rng(4)
    for h_dim in (1, 2, 3):
        for value in (np.nan, np.inf):
            blocks = random_block_state(h_dim, 3, rng).array.copy()
            blocks[1, 0, 0] = value
            with pytest.raises(ValueError, match="^block 1 has non-finite entries$"):
                block_state(blocks)


def test_walks_refuse_a_start_they_would_project(c4):
    """Walks step the real coordinates of the Hermitian part of their start.
    A start that ``block_state`` refuses for its Hermitian gap, built
    directly as a BlockState or unvalidated by ``block_state``, is refused
    by every walk with that refusal, never stepped as its Hermitian part; a
    gap within EPS_PSD walks as its Hermitian part.  A NaN in the imaginary part of a diagonal entry, which
    the Hermitian part would drop, reaches the walk and is refused."""
    fam, state = realize(c4, h_dim=2)
    walks = {
        "walk": lambda s: walk_distribution(fam, (1, 2), s),
        "empty word": lambda s: walk_distribution(fam, (), s),
        "step": lambda s: step(fam, 1, s),
        "mixture": lambda s: mixture_distribution(fam, c4.tensor, (1, 2), s),
        "produce": lambda s: produced_tensor(fam, s),
    }
    for gap in (1e-6, 2e-10):
        array = state.array.copy()
        array[0, 0, 1] += gap
        with pytest.raises(ValueError, match="^block 0 is not Hermitian$"):
            block_state(array)
        for start in (hw.BlockState(array=array), block_state(array, validate=False)):
            for name, walk in walks.items():
                with pytest.raises(ValueError, match="^block 0 is not Hermitian$"):
                    walk(start)
    array = state.array.copy()
    array[0, 0, 1] += 0.5e-10
    hermitian = block_state((array + array.conj().swapaxes(-1, -2)) / 2)
    assert np.allclose(walk_distribution(fam, (1, 2), hw.BlockState(array=array)),
                       walk_distribution(fam, (1, 2), hermitian), rtol=0, atol=1e-15)
    array = state.array.copy()
    array[0, 1, 1] += complex(0, np.nan)
    with pytest.raises(ValueError, match="non-finite"):
        walk_distribution(fam, (1, 2), hw.BlockState(array=array))


def test_check_hb_fails_on_non_finite_constant(c4):
    fam, _ = realize(c4, h_dim=2)
    cube = c4.tensor.to_float().cube.copy()
    cube[1, 2, 1] = float("inf")
    report = check_hb(fam, StructureTensor(cube))
    assert not report.passed and not np.isfinite(report.max_residual)
    # The witness lies in the row (k, l) that holds the bad constant.
    assert report.witness[2:] == (1, 2)


def test_walks_reject_out_of_range_letters(c4):
    fam, state = realize(c4, h_dim=1)
    for fn in (walk_distribution, lambda f, w, s: mixture_distribution(f, c4.tensor, w, s)):
        with pytest.raises(ValueError, match="letter 5 out of range"):
            fn(fam, (1, 5), state)
    with pytest.raises(ValueError, match="^letter 5 out of range for size 3$"):
        step(fam, 5, state)


@pytest.mark.parametrize("letter", [True, False, 1.0, np.float64(1), np.bool_(True), "1"])
def test_walks_refuse_bool_and_non_integral_letters(letter):
    tensor = presets.zlattice_hypergroup(6).tensor
    fam, state = realize(tensor, h_dim=1)
    message = "^" + re.escape(f"letter {letter!r} is not an integer") + "$"
    for fn in (walk_distribution, lambda f, w, s: mixture_distribution(f, tensor, w, s)):
        for word in ((letter, 1), (1, letter)):
            with pytest.raises(ValueError, match=message):
                fn(fam, word, state)
    with pytest.raises(ValueError, match="is not an integer$"):
        step(fam, letter, state)
    with pytest.raises(ValueError, match="is not an integer$"):
        point_state(np.eye(1), letter, 3)


def test_numpy_integer_letters_and_sites_walk_as_ints(c4):
    fam, state = realize(c4, h_dim=2)
    word = (np.int64(1), np.int32(2), np.uint8(1))
    plain = tuple(int(k) for k in word)
    assert np.array_equal(walk_distribution(fam, word, state), walk_distribution(fam, plain, state))
    assert np.array_equal(mixture_distribution(fam, c4.tensor, word, state),
                          mixture_distribution(fam, c4.tensor, plain, state))
    assert np.array_equal(step(fam, np.int64(2), state).array, step(fam, 2, state).array)
    assert np.array_equal(point_state(np.eye(2) / 2, np.int64(1), 3).array,
                          point_state(np.eye(2) / 2, 1, 3).array)


def test_long_walk_holds_a_bounded_batch_of_states():
    """A walk holds at most ``_COUNT_BLOCK`` entries of states at a time:
    5,000 letters on d = 9, h = 3 stay far below the 6.5 MB that holding
    every letter's state would take, and give the bits of the walk checked
    letter by letter."""
    fam = hw.random_kraus_family(9, 3, seed=5)
    state = hw.maximally_mixed_state(3, 9)
    word = tuple(np.random.default_rng(5).integers(0, 9, 5000).tolist())
    walk_distribution(fam, word[:2], state)  # builds the family's superoperators
    tracemalloc.start()
    try:
        probs = walk_distribution(fam, word, state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    all_letters = len(word) * state.array.nbytes
    assert all_letters > 6e6
    assert peak < all_letters / 10
    assert np.array_equal(probs, ref.walk_per_letter(fam, word, state))


def test_validate_kraus_pass_and_fail():
    assert validate_kraus(presets.c4_qubit_family()).passed
    assert validate_kraus(delta_family(3, 2)).passed

    b = 1.1 * np.array([[1, 1], [0, 1]], dtype=complex) / np.sqrt(3)
    c = np.array([[1, 0], [-1, 1]], dtype=complex) / np.sqrt(3)
    bad = kraus_family(2, 2, {(0, 1, 1): b, (1, 1, 1): c,
                              (0, 0, 0): np.eye(2), (1, 1, 0): np.eye(2),
                              (0, 0, 1): np.eye(2)})
    report = validate_kraus(bad)
    assert not report.passed
    assert report.witness == (1, 1)
    # The scaled block inflates its Gram term by the factor 1.1^2 - 1.
    assert report.max_residual == pytest.approx(0.21 * np.abs(b.conj().T @ b).max() / 1.21)


def test_block_state_invariants():
    with pytest.raises(ValueError, match="Hermitian"):
        block_state([np.array([[0.5, 1.0], [0.0, 0.5]])])
    with pytest.raises(ValueError, match="eigenvalue"):
        block_state([np.diag([1.5, -0.5])])
    with pytest.raises(ValueError, match="trace"):
        block_state([np.diag([0.45, 0.45])])
    with pytest.raises(ValueError, match="^state blocks must be at least 1x1$"):
        block_state([np.zeros((0, 0)), np.zeros((0, 0))])


def test_step_moves_point_mass():
    fam = presets.c4_qubit_family()
    state = presets.diagonal_qubit_state(0.3)
    out = step(fam, 1, state)
    probs = distribution(out)
    assert np.abs(probs - np.array([0.0, 1.0, 0.0])).max() < 1e-15
    assert np.abs(out.blocks[1] - state.blocks[0]).max() < 1e-15


def test_step_identity_map():
    fam = delta_family(3, 2)
    # The distance-0 map of the delta family relocates to 0; build a true
    # identity map instead: B[j,j;0] = 1.
    eye = np.eye(2, dtype=complex)
    blocks = {(j, j, 0): eye for j in range(3)}
    blocks.update({(k, j, k): eye for j in range(3) for k in (1, 2)})
    fam = kraus_family(3, 2, blocks)
    state = random_block_state(2, 3, seed=7)
    out = step(fam, 0, state)
    for before, after in zip(state.blocks, out.blocks):
        assert np.abs(before - after).max() < 1e-15


def test_stationary_family_one_step():
    fam = presets.stationary_family()
    state = presets.stationary_start_state()
    for k in (0, 1):
        probs = distribution(step(fam, k, state))
        assert np.abs(probs - np.array([5 / 12, 7 / 12])).max() < 1e-12


def test_distribution_basics():
    state = point_state(np.diag([0.25, 0.75]).astype(complex), 1, 3)
    assert np.abs(distribution(state) - np.array([0, 1, 0])).max() < 1e-15
    uniform = block_state([np.eye(2, dtype=complex) / 8 for _ in range(4)])
    assert np.abs(distribution(uniform) - 0.25).max() < 1e-15


def test_walk_distribution_c4_qubit():
    fam = presets.c4_qubit_family()
    for x in (0.0, 0.5, 1.0):
        probs = walk_distribution(fam, (1, 1), presets.diagonal_qubit_state(x))
        expected = np.array([(2 - x) / 3, 0.0, (1 + x) / 3])
        assert np.abs(probs - expected).max() < 1e-12


def test_walk_stationarity():
    fam = presets.stationary_family()
    state = presets.stationary_start_state()
    p1 = distribution(step(fam, 0, state))
    for n in (1, 2, 3):
        for word in itertools.product(range(2), repeat=n):
            assert np.abs(walk_distribution(fam, word, state) - p1).max() < 1e-12


def test_produced_tensor_c4_qubit():
    fam = presets.c4_qubit_family()
    for x in (0.0, 0.5, 1.0):
        tensor = produced_tensor(fam, presets.diagonal_qubit_state(x))
        assert abs(tensor.entry(1, 1, 0) - (2 - x) / 3) < 1e-12
        assert abs(tensor.entry(1, 1, 2) - (1 + x) / 3) < 1e-12
        assert abs(tensor.entry(1, 2, 1) - 1) < 1e-12
        assert abs(tensor.entry(2, 1, 1) - 1) < 1e-12
        assert abs(tensor.entry(2, 2, 0) - 1) < 1e-12
        for j in range(3):
            assert abs(tensor.entry(0, j, j) - 1) < 1e-12
            assert abs(tensor.entry(j, 0, j) - 1) < 1e-12


def test_produced_tensor_left_zero_family():
    # Both maps preserve the maximally mixed block sum, so the produced rows
    # depend only on the second-applied map: the commuting-pair traces for
    # distance 0, and the flat split for distance 1.
    fam = presets.left_zero_family()
    tensor = produced_tensor(fam, presets.stationary_start_state())
    a0, a1 = presets.commuting_pair()
    expected_zero = [
        float(np.trace(a0 @ a0.conj().T).real) / 2,
        float(np.trace(a1 @ a1.conj().T).real) / 2,
    ]
    for l in range(2):
        assert abs(tensor.entry(0, l, 0) - expected_zero[0]) < 1e-12
        assert abs(tensor.entry(0, l, 1) - expected_zero[1]) < 1e-12
        assert abs(tensor.entry(1, l, 0) - 0.5) < 1e-12
        assert abs(tensor.entry(1, l, 1) - 0.5) < 1e-12
    assert expected_zero == pytest.approx([5 / 12, 7 / 12])


def test_realize_scalar_blocks(c4):
    fam, state = realize(c4, h_dim=1)
    assert validate_kraus(fam).passed
    assert abs(fam.block(0, 1, 1)[0, 0] - np.sqrt(0.5)) < 1e-15
    assert abs(fam.block(2, 1, 1)[0, 0] - np.sqrt(0.5)) < 1e-15
    assert abs(fam.block(1, 1, 2)[0, 0] - 1.0) < 1e-15
    produced = produced_tensor(fam, state)
    residual, _ = tensor_difference(produced, c4.tensor)
    assert residual < 1e-12


def test_realize_group_roundtrip(z3):
    fam, state = realize(z3, h_dim=2)
    produced = produced_tensor(fam, state)
    residual, _ = tensor_difference(produced, z3.tensor)
    assert residual < 1e-12


def test_realize_rejects_non_isometry(c4):
    bad = {(0, 1, 1): np.array([[1.0, 0.0], [0.0, 0.5]], dtype=complex)}
    with pytest.raises(ValueError, match="isometry"):
        realize(c4, h_dim=2, isometries=bad)


def test_realize_truncated_lattice(zlattice8):
    fam, state = realize(zlattice8, h_dim=1)
    assert fam.truncation_radius == 8
    assert validate_kraus(fam).passed
    produced = produced_tensor(fam, state)
    assert produced.truncation_radius == 8
    residual, _ = tensor_difference(produced, zlattice8.tensor)
    assert residual < 1e-12
    # A budgeted walk from the base matches the reversed-word fold.
    word = (1, 1, 1)
    probs = walk_distribution(fam, word, state)
    fold = multi_constants(zlattice8.tensor, tuple(reversed(word)))
    assert np.abs(probs - np.array([float(q) for q in fold])).max() < 1e-12


def test_truncated_walks_refuse_starts_past_the_window(zlattice8):
    fam, state = realize(zlattice8, h_dim=2)
    tensor = zlattice8.tensor
    # Walks as perfbench's quantum-realize workload runs them: from the
    # realized start at position 0, with letter sums within the radius.
    for word in ((8,), (3, 5), (2, 2, 4), (0, 8, 0), (1, 1, 1, 1)):
        walk_distribution(fam, word, state)
        mixture_distribution(fam, tensor, word, state)
    rho = np.eye(2) / 2
    for site, word in ((3, (2, 3)), (8, (0,)), (1, (7,))):  # j + sum(word) == 8
        walk_distribution(fam, word, point_state(rho, site, 9))
        mixture_distribution(fam, tensor, word, point_state(rho, site, 9))
    spread = block_state([np.eye(2) / 6 if j in (0, 2, 5) else np.zeros((2, 2))
                          for j in range(9)])
    for fn in (walk_distribution, lambda f, w, s: mixture_distribution(f, tensor, w, s)):
        with pytest.raises(TruncationExceededError) as refusal:
            fn(fam, (2, 2), spread)  # position 5 + 4 > 8
        assert refusal.value.pair == (5, 4) and refusal.value.radius == 8
        fn(fam, (1, 2), spread)  # 5 + 3 == 8
    # The mixture is certified only within the smaller of the two radii.
    narrow = KrausFamily(array=fam.array, truncation_radius=6)
    with pytest.raises(TruncationExceededError):
        mixture_distribution(narrow, tensor, (1, 1), spread)
    with pytest.raises(TruncationExceededError):
        walk_distribution(narrow, (1, 1), spread)
    # Untruncated families walk from any state.
    c4_family, _ = realize(presets.c4_hypergroup(), h_dim=2)
    walk_distribution(c4_family, (2, 2, 2), point_state(rho, 2, 3))


def test_produced_tensor_refuses_starts_past_the_window():
    # A produced row reads a walk of up to min(radius, 2 (d - 1)) letters,
    # and is refused where that walk is: on z-lattice(4), every start off 0.
    fam, state = realize(presets.zlattice_hypergroup(4), h_dim=1)
    produced_tensor(fam, state)
    with pytest.raises(TruncationExceededError) as refusal:
        produced_tensor(fam, point_state(np.eye(1), 2, 5))
    assert refusal.value.pair == (2, 4) and refusal.value.radius == 4
    assert str(refusal.value) == \
        "a walk of letter sum 4 from position 2 leaves the truncation radius 4"
    with pytest.raises(TruncationExceededError, match=f"^{re.escape(str(refusal.value))}$"):
        walk_distribution(fam, (2, 2), point_state(np.eye(1), 2, 5))
    # A radius past 2 (d - 1) = 4 certifies the starts up to radius - 4.
    c4_family, _ = realize(presets.c4_hypergroup(), h_dim=1)
    wide = KrausFamily(array=c4_family.array, truncation_radius=5)
    assert produced_tensor(wide, point_state(np.eye(1), 1, 3)).truncation_radius == 5
    with pytest.raises(TruncationExceededError) as refusal:
        produced_tensor(wide, point_state(np.eye(1), 2, 3))
    assert refusal.value.pair == (2, 4) and refusal.value.radius == 5


def test_check_hb_pass_cases(c4, s3_classes):
    assert check_hb(presets.left_zero_family(), presets.lo2_tensor()).max_residual < 1e-12
    for h in (c4, s3_classes):
        fam, _ = realize(h, h_dim=2)
        assert check_hb(fam, h.tensor).passed
    # The left-zero tensor is associative, so its realization passes too.
    lo2 = presets.lo2_tensor()
    fam, _ = realize(lo2, h_dim=2)
    assert check_hb(fam, lo2).passed


def test_check_hb_fails_on_non_associative():
    pert = presets.perturbed_c4_tensor()
    fam, _ = realize(pert, h_dim=2)
    report = check_hb(fam, pert)
    assert not report.passed
    assert report.max_residual > 1e-3
    assert report.witness is not None


def test_check_hb_size_mismatch(c4):
    with pytest.raises(ValueError, match="size mismatch"):
        check_hb(presets.left_zero_family(), c4.tensor)


def test_mixture_matches_walk_under_hb(c4):
    fam, _ = realize(c4, h_dim=2)
    state = random_block_state(2, 3, seed=11)
    for word in ((0,), (1, 1), (1, 1, 2), (2, 1, 2, 1)):
        walked = walk_distribution(fam, word, state)
        mixed = mixture_distribution(fam, c4.tensor, word, state)
        assert np.abs(walked - mixed).max() < 1e-12


def test_mixture_single_letter_is_one_step(c4):
    fam, _ = realize(c4, h_dim=2)
    state = random_block_state(2, 3, seed=5)
    for k in range(3):
        mixed = mixture_distribution(fam, c4.tensor, (k,), state)
        assert np.abs(mixed - distribution(step(fam, k, state))).max() < 1e-15


def test_stepped_state_mixes_as_a_validated_state(c4, monkeypatch):
    # A stepped state passed the state checks, so its mixture takes the
    # checked path, bit for bit the mixture of the same blocks validated by
    # block_state; only an unchecked state's masses are scanned.
    fam, _ = realize(c4, h_dim=2)
    start = random_block_state(2, 3, seed=5)
    scans = []
    isfinite = np.isfinite
    monkeypatch.setattr(np, "isfinite", lambda x: scans.append(x.shape) or isfinite(x))
    for k in range(3):
        stepped = step(fam, k, start)
        validated = block_state(stepped.blocks)
        for word in ((0,), (1, 2), (2, 1, 1)):
            scans.clear()
            mixed = mixture_distribution(fam, c4.tensor, word, stepped)
            assert scans == []
            assert mixed.tobytes() == mixture_distribution(fam, c4.tensor, word, validated).tobytes()
    unchecked = block_state(stepped.blocks, validate=False)
    mixture_distribution(fam, c4.tensor, (1,), unchecked)
    assert scans


def test_mixture_uses_reversed_word():
    # The left-zero constants make the reversal observable: folding
    # (k2, k1) keeps the mass at k2, the last-applied map.
    fam = presets.left_zero_family()
    tensor = presets.lo2_tensor()
    state = presets.stationary_start_state()
    mixed = mixture_distribution(fam, tensor, (1, 0), state)
    fold = multi_constants(tensor, (0, 1))
    direct = sum(
        float(q) * distribution(step(fam, m, state)) for m, q in enumerate(fold)
    )
    assert np.abs(mixed - direct).max() < 1e-15


def test_linear_independence_verdicts(c4):
    fam, _ = realize(c4, h_dim=2)
    assert check_linear_independence(fam).kind == "condition2"
    assert check_linear_independence(delta_family(3, 2)).kind == "condition2"
    verdict = check_linear_independence(presets.left_zero_family(), seed=1)
    assert verdict.kind == "condition1"
    assert verdict.j0 is not None and verdict.xi0 is not None
    assert check_linear_independence(presets.stationary_family()).kind == "inconclusive"


def test_realized_and_recovered_is_isomorphic(z3):
    from hyperwalk import Hypergroup, check_isomorphism, derive_involution

    fam, state = realize(z3, h_dim=2)
    produced = produced_tensor(fam, state)
    recovered = Hypergroup.build(produced, derive_involution(produced))
    assert check_isomorphism(recovered, z3, (0, 1, 2))


def test_blocks_are_the_nonzero_blocks_in_index_order():
    """``blocks`` keys every nonzero block (NaN counts) by (i, j, k) in
    index order, read-only, as ``_nonzero`` lists them."""
    array = hw.random_kraus_family(4, 2, seed=4).array.copy()
    array[1, 2, 3, 0, 1] = np.nan
    array[0, 3, 2] = 0
    fam = hw.KrausFamily(array=array)
    keys = [tuple(idx) for idx in np.argwhere((array != 0).any(axis=(-2, -1))).tolist()]
    assert len(keys) == 63 and list(fam.blocks) == keys
    for key, block in fam.blocks.items():
        assert np.array_equal(block, array[key], equal_nan=True) and not block.flags.writeable


def test_scalar_isometry_defect(c4):
    fam, _ = realize(c4, h_dim=2)
    for mat in fam.blocks.values():
        assert scalar_isometry_defect(mat) < 1e-12
    a0, _ = presets.commuting_pair()
    assert scalar_isometry_defect(a0) > 0.05


def test_state_from_density_extracts_blocks():
    rng = np.random.default_rng(4)
    blocks = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(3)]
    blocks = [b @ b.conj().T for b in blocks]
    total = sum(float(b.trace().real) for b in blocks)
    blocks = [b / total for b in blocks]
    full = np.zeros((6, 6), dtype=complex)
    for j, b in enumerate(blocks):
        full[2 * j : 2 * j + 2, 2 * j : 2 * j + 2] = b
    # Off-diagonal junk must be ignored.
    full[0, 3] = 0.1
    full[3, 0] = 0.1
    state = state_from_density(full, 2, 3)
    for want, got in zip(blocks, state.blocks):
        assert np.abs(want - got).max() < 1e-15


def test_trace_and_psd_preserved_along_walk():
    fam = presets.c4_qubit_family()
    state = random_block_state(2, 3, seed=2)
    for k in (1, 2, 1, 0, 1):
        state = step(fam, k, state)
        assert abs(sum(float(b.trace().real) for b in state.blocks) - 1.0) < 1e-9
        for b in state.blocks:
            assert np.linalg.eigvalsh((b + b.conj().T) / 2).min() > -1e-10


def test_random_unitary_isometries_keep_roundtrip(c4):
    rng = np.random.default_rng(9)
    iso = {}
    for k, j in sorted(c4.tensor.defined_pairs()):
        for i in sorted(c4.tensor.row(k, j)):
            iso[(i, j, k)] = random_unitary(3, rng)
    fam, state = realize(c4, h_dim=3, isometries=iso)
    produced = produced_tensor(fam, state)
    residual, _ = tensor_difference(produced, c4.tensor)
    assert residual < 1e-12


def test_kraus_family_checks_truncation_radius():
    eye = np.eye(1)
    for bad in ("x", -3, True):
        with pytest.raises(ValueError, match="truncation radius"):
            kraus_family(1, 1, {(0, 0, 0): eye}, truncation_radius=bad)
    assert kraus_family(1, 1, {(0, 0, 0): eye}, truncation_radius=0).truncation_radius == 0


def test_point_state_checks_site():
    for site in (5, 3, -1):
        with pytest.raises(ValueError, match="out of range"):
            point_state(np.eye(1), site, 3)
    assert point_state(np.eye(1), 2, 3).blocks[2][0, 0] == 1
