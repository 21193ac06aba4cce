import re
import tracemalloc

import numpy as np
import pytest

from hyperwalk import (
    ConditionSViolatedError,
    Hypergroup,
    KrausFamily,
    StructureTensor,
    check_hb,
    complete_graph,
    cycle_graph,
    distribution,
    hypercube_graph,
    path_graph,
    realize,
    validate_kraus,
    wildberger_tensor,
)
from hyperwalk import oqrw, presets
from hyperwalk.oqrw import hermitian_coordinates
from hyperwalk.verify import (
    random_block_state,
    random_isometries,
    random_kraus_family,
    random_unitary,
    spanning_states,
    verify_corollary_2_6,
    verify_roundtrip,
    verify_theorem_2_4,
    verify_theorem_5_1,
)
from reference import isometry_loops as ref_iso


def test_verify_theorem_2_4_exact():
    report = verify_theorem_2_4(cycle_graph(4), 3)
    assert report.passed and report.max_residual == 0.0
    report = verify_theorem_2_4(hypercube_graph(3), 3)
    assert report.passed and report.max_residual == 0.0


def test_verify_theorem_2_4_float_mode():
    report = verify_theorem_2_4(hypercube_graph(3), 3, mode="float")
    assert report.passed
    assert report.max_residual <= 1e-12


def test_verify_theorem_2_4_requires_condition_s():
    with pytest.raises(ConditionSViolatedError):
        verify_theorem_2_4(path_graph(3), 2)


def test_verify_theorem_2_4_windowed():
    report = verify_theorem_2_4(presets.line_window_graph(6), 3)
    assert report.passed and report.max_residual == 0.0


def test_verify_corollary_2_6(c4):
    assert verify_corollary_2_6(c4, 3).passed
    k2 = Hypergroup.build(wildberger_tensor(complete_graph(2)))
    assert verify_corollary_2_6(k2, 5).passed


def test_verify_corollary_2_6_fails_without_associativity():
    pert = presets.perturbed_c4_tensor()
    fake = Hypergroup(tensor=pert, involution=(0, 1, 2))
    report = verify_corollary_2_6(fake, 3)
    assert not report.passed
    assert report.max_residual > 1e-3


def test_verify_corollary_2_6_fails_on_nan_constant(c4):
    cube = c4.tensor.to_float().cube.copy()
    cube[1, 1, 2] = float("nan")  # set directly, past the constructor's check
    fake = Hypergroup(tensor=StructureTensor(cube), involution=c4.involution)
    report = verify_corollary_2_6(fake, 2)
    assert not report.passed and np.isnan(report.max_residual)
    assert report.witness is not None


def test_verify_corollary_2_6_keeps_no_last_level_products():
    # C48's constants have size 25: the 625 products of the two-letter words
    # would take 625 * 25**2 * 8 bytes = 3.1 MB if they were all kept.
    c48 = Hypergroup.build(wildberger_tensor(cycle_graph(48)))
    tracemalloc.start()
    try:
        report = verify_corollary_2_6(c48, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed and report.checked == 25 + 625
    assert peak < 1.5 * 2**20


def test_verify_corollary_2_6_folds_without_size_cubed_intermediates():
    # At three letters the 625 kept products take 3.1 MB, and so would the
    # 15625 folds of the last level if they were held whole: the peak was
    # 8.6 MiB that way, and is 6.4 MiB with the level folded in blocks of
    # 1024 words (0.2 MB each).  A (prefixes, size, size) intermediate per
    # letter would add 2 * 625 * 25**2 * 8 bytes = 6.2 MB.
    c48 = Hypergroup.build(wildberger_tensor(cycle_graph(48)))
    tracemalloc.start()
    try:
        report = verify_corollary_2_6(c48, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed and report.checked == 25 + 625 + 15625
    assert peak < 7.5 * 2**20


def test_verify_theorem_5_1_forward(c4):
    fam, _ = realize(c4, h_dim=2)
    report = verify_theorem_5_1(fam, c4.tensor, max_word_len=4, n_states=5, seed=1)
    assert report.passed
    assert report.max_residual < 1e-9
    assert "walk == mixture" in report.note


def test_verify_theorem_5_1_left_zero():
    report = verify_theorem_5_1(
        presets.left_zero_family(), presets.lo2_tensor(), max_word_len=4, n_states=5
    )
    assert report.passed
    assert report.max_residual < 1e-12


def test_verify_theorem_5_1_converse_witness(c4):
    # A family realized from one set of constants, paired with different
    # constants of the same size: the identity fails and a basis state
    # exposes the mismatch on a two-letter word.
    fam, _ = realize(c4, h_dim=2)
    pert = presets.perturbed_c4_tensor()
    report = verify_theorem_5_1(fam, pert, max_word_len=2, n_states=3)
    assert not check_hb(fam, pert).passed
    assert report.passed
    assert "witness" in report.note
    assert report.max_residual >= 1e-4
    m, label, word = report.witness
    assert len(word) == 2


def test_converse_witness_is_a_certified_case():
    """Example 4.5 truncated at radius 6 against the untruncated C13
    constants with the row (3, 3) tilted to 3/5 at 0 and 2/5 at 6: check_hb
    fails at (0, 0, 3, 3) by 1/10, and the converse reads the same gap off
    the word (3, 3) from position 0, not a word whose letter sum is past
    the family's radius, whose blocks are the arbitrary completion."""
    family = presets.zwindow_family(6)
    cube = wildberger_tensor(cycle_graph(13)).to_float().cube.copy()
    cube[3, 3, [0, 6]] = 0.6, 0.4
    tensor = StructureTensor(cube)
    hb = check_hb(family, tensor)
    assert (hb.passed, hb.witness) == (False, (0, 0, 3, 3))
    assert abs(hb.max_residual - 0.1) <= 1e-12
    report = verify_theorem_5_1(family, tensor)
    assert report.passed and report.note == "decomposition fails; converse witness found"
    # The cases before it: the words (l, k) in order with l + k <= 6, from position 0.
    assert (report.witness, report.checked) == ((0, ("diag", 0), (3, 3)), 7 + 6 + 5 + 4)
    assert abs(report.max_residual - 0.1) <= 1e-12


def test_verify_theorem_5_1_ignores_states_and_seed(c4):
    # Every state is covered, so the sampling arguments change nothing.
    fam, _ = realize(c4, h_dim=2, isometries=random_isometries(c4.tensor, 2, 3))
    reports = {verify_theorem_5_1(fam, c4.tensor, max_word_len=3, n_states=n, seed=seed)
               for n, seed in ((1, 0), (10, 0), (4, 99))}
    assert len(reports) == 1
    report = reports.pop()
    assert report.passed and report.max_residual < 1e-12
    # One case per (word, i, j): 3 + 9 + 27 words, 3 x 3 positions.
    assert (report.checked, report.skipped) == (39 * 9, 0)


def test_verify_theorem_5_1_reports_non_finite_blocks_as_failures(c4):
    fam, _ = realize(c4, h_dim=2)
    array = fam.array.copy()
    array[1, 2, 1, 0, 0] = np.nan
    report = verify_theorem_5_1(KrausFamily(array=array), c4.tensor, max_word_len=2)
    assert not report.passed
    # Blocks whose products overflow only past two letters: the identity
    # holds for a single letter x with Q = x^2 (x^4 == x^2 x^2), and the
    # three-letter block is inf - inf.
    x = 1e60
    family = KrausFamily(array=np.full((1, 1, 1, 1, 1), x, dtype=complex))
    tensor = StructureTensor(np.full((1, 1, 1), x * x), None, None)
    assert check_hb(family, tensor).passed
    assert verify_theorem_5_1(family, tensor, max_word_len=2).passed
    report = verify_theorem_5_1(family, tensor, max_word_len=3)
    assert not report.passed and np.isnan(report.max_residual)
    assert report.witness == ((0, 0, 0), 0, 0)


def test_block_norms_match_the_spectral_norm():
    rng = np.random.default_rng(5)
    for h in (1, 2, 3):
        for scale in (1.0, 1e-14):
            blocks = scale * (rng.standard_normal((40, h, h)) + 1j * rng.standard_normal((40, h, h)))
            blocks[5] = 0
            hermitian = (blocks + blocks.conj().swapaxes(-1, -2)) / 2
            exact = np.linalg.norm(hermitian, ord=2, axis=(-2, -1))
            coords = hermitian_coordinates(blocks)
            norms, bound = oqrw._block_norms(coords, 0.0)
            # Every norm returned is exact; the others are below the largest.
            computed = norms > 0
            assert np.allclose(norms[computed], exact[computed], rtol=1e-12, atol=0)
            assert (exact[~computed] < norms.max()).all()
            assert np.isclose(norms.max(), exact.max(), rtol=1e-12, atol=0)
            assert bound <= norms.max()
            # A bound carried in from earlier blocks screens more out.
            norms, _ = oqrw._block_norms(coords, 2 * exact.max())
            assert (norms == 0).all()
    nan = np.zeros((3, 2, 2))  # coordinates
    nan[1, 0, 1] = np.nan
    nan[2, 1, 1] = np.inf
    norms, bound = oqrw._block_norms(nan, 0.0)
    assert norms[0] == 0 and np.isnan(norms[1]) and norms[2] == np.inf and bound == 0


def test_verify_theorem_5_1_over_every_state_on_a_large_lattice():
    # The exact worst case keeps one trie level of observables, and only at
    # the starts that the window's words can still read.
    tensor = presets.zlattice_hypergroup(16).tensor
    family, _ = realize(tensor, h_dim=3, isometries=random_isometries(tensor, 3, 0))
    tracemalloc.start()
    try:
        report = verify_theorem_5_1(family, tensor, max_word_len=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed and report.max_residual < 1e-12, report
    assert report.skipped > 0
    assert peak < 48 * 2**20


def test_verify_roundtrip_fixtures(z3, s3_classes):
    for h in (z3, s3_classes):
        for h_dim in (1, 2):
            report = verify_roundtrip(h, h_dim=h_dim, seed=h_dim)
            assert report.passed, str(report)


def test_verify_roundtrip_random_isometries(c4):
    report = verify_roundtrip(c4, h_dim=3, seed=5, isometries="random")
    assert report.passed
    assert report.max_residual < 1e-12


def test_verify_roundtrip_truncated(zlattice8):
    for kind in ("identity", "random"):
        report = verify_roundtrip(zlattice8, h_dim=2, seed=0, isometries=kind)
        assert report.passed, str(report)


def test_random_block_state_deterministic():
    a = random_block_state(2, 3, seed=42)
    b = random_block_state(2, 3, seed=42)
    for x, y in zip(a.blocks, b.blocks):
        assert np.array_equal(x, y)
    assert abs(sum(float(m.trace().real) for m in a.blocks) - 1.0) < 1e-12
    scalar = random_block_state(1, 4, seed=0)
    probs = distribution(scalar)
    assert probs.min() > 0 and abs(probs.sum() - 1) < 1e-12


def test_random_kraus_family_is_complete():
    for seed in range(3):
        fam = random_kraus_family(3, 2, seed=seed)
        assert validate_kraus(fam).passed


def test_random_unitary_is_unitary():
    rng = np.random.default_rng(0)
    for dim in (1, 2, 3):
        u = random_unitary(dim, rng)
        assert np.abs(u.conj().T @ u - np.eye(dim)).max() < 1e-12


def test_spanning_states_are_density_matrices():
    labelled = spanning_states(3)
    assert len(labelled) == 9
    mats = []
    for _, rho in labelled:
        assert abs(np.trace(rho).real - 1.0) < 1e-15
        assert np.abs(rho - rho.conj().T).max() < 1e-15
        assert np.linalg.eigvalsh(rho).min() > -1e-15
        mats.append(rho.reshape(-1))
    # They span the full Hermitian space.
    assert np.linalg.matrix_rank(np.array(mats)) == 9


def test_random_isometries_draw_in_block_order(zlattice8):
    # The seeded draws run over sorted (k, j), then sorted i, so a seed keeps
    # giving the same walk.
    rng = np.random.default_rng(4)
    expected = {}
    for k, j in sorted(zlattice8.tensor.defined_pairs()):
        for i in sorted(zlattice8.tensor.row(k, j)):
            expected[(i, j, k)] = random_unitary(2, rng)
    got = random_isometries(zlattice8.tensor, 2, 4)
    assert list(got) == list(expected)
    assert all(np.array_equal(got[key], expected[key]) for key in expected)


@pytest.mark.parametrize("h_dim", (1, 2, 3))
@pytest.mark.parametrize("name", ("z-lattice(6)", "c4", "s3"))
def test_random_isometries_match_the_per_block_draws(name, h_dim):
    tensor = {"z-lattice(6)": presets.zlattice_hypergroup(6), "c4": presets.c4_hypergroup(),
              "s3": presets.s3_class_hypergroup()}[name].tensor
    for seed in (7, 8):
        got, expected = random_isometries(tensor, h_dim, seed), ref_iso.random_isometries(
            tensor, h_dim, seed)
        assert list(got) == list(expected)
        assert all(np.array_equal(got[key], expected[key]) for key in expected)
    rng, old_rng = np.random.default_rng(7), np.random.default_rng(7)
    for _ in range(3):
        assert np.array_equal(random_unitary(h_dim, rng), ref_iso.random_unitary(h_dim, old_rng))


def test_empty_scans_are_refused(c4):
    # A scan over no words or no states would pass having checked nothing.
    with pytest.raises(ValueError, match="max_word_len must be at least 1"):
        verify_theorem_2_4(cycle_graph(4), max_word_len=0)
    with pytest.raises(ValueError, match="max_word_len must be at least 1"):
        verify_corollary_2_6(c4, max_word_len=-1)
    family, _ = realize(c4)
    for kwargs in ({"max_word_len": 0}, {"n_states": 0}):
        with pytest.raises(ValueError, match="must be at least 1"):
            verify_theorem_5_1(family, c4.tensor, **kwargs)


@pytest.mark.parametrize("value", [True, False, 2.0, 2.5, "2", None])
def test_non_integral_lengths_are_refused(c4, value):
    # True would check one letter, 2.0 fail deep in the word enumeration.
    family, _ = realize(c4)
    calls = [
        (lambda: verify_theorem_2_4(cycle_graph(4), value), "max_word_len"),
        (lambda: verify_theorem_2_4(cycle_graph(4), value, "float"), "max_word_len"),
        (lambda: verify_corollary_2_6(c4, value), "max_word_len"),
        (lambda: verify_theorem_5_1(family, c4.tensor, max_word_len=value), "max_word_len"),
        (lambda: verify_theorem_5_1(family, c4.tensor, n_states=value), "n_states"),
    ]
    for call, name in calls:
        with pytest.raises(ValueError, match=f"^{re.escape(f'{name} {value!r}')} is not an integer$"):
            call()


def test_numpy_integer_lengths_are_accepted(c4):
    family, _ = realize(c4)
    for length in (np.int64(2), np.uint8(2), np.intp(2)):
        assert verify_theorem_2_4(cycle_graph(4), length) == verify_theorem_2_4(cycle_graph(4), 2)
        assert verify_corollary_2_6(c4, length) == verify_corollary_2_6(c4, 2)
        assert (verify_theorem_5_1(family, c4.tensor, max_word_len=length, n_states=length)
                == verify_theorem_5_1(family, c4.tensor, max_word_len=2))
