"""Theorem 5.1's block norms, taken once per walk.

The plane-wise entry bounds (``_largest_moduli``, ``_block_bounds``) equal
the formulas they replaced, kept in ``tests/reference/block_norms.py``, bit
for bit.  The pruned reduction (``_Candidates``) finds the same first worst
norm as the spectral norm of every block of the walk, each taken by
``eigvalsh``, on the quantum corpus and on drawn pieces with ties,
non-finite blocks and h = 1; and a two-letter pass calls ``eigvalsh`` once.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import hyperwalk as hw
from hyperwalk import oqrw
from hyperwalk.report import worst_residual
from reference import block_norms as ref
from test_oqrw_differential import CASES, _non_finite_cases, budget, case, fresh

# Entries of every size the bounds meet: signed zeros, subnormals, squares
# that underflow or overflow, non-finite values.
EDGES = (0.0, -0.0, 5e-324, -1e-310, 1e-200, -1e-170, 1e-150, 1e-12, 0.5, -1.0, 3.0,
         1e150, -1e200, 1.7e308, np.nan, np.inf, -np.inf)


@st.composite
def _coordinate_stacks(draw):
    """An (n, h, h) stack of coordinates, h from 1 to 4, of seeded normal
    entries of one scale, some replaced by the edge values."""
    h, n = draw(st.integers(1, 4)), draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    stack = rng.standard_normal((n, h, h)) * 10.0 ** draw(st.integers(-320, 300))
    for value in draw(st.lists(st.sampled_from(EDGES), max_size=8)):
        stack.flat[rng.integers(stack.size)] = value
    return stack


@given(_coordinate_stacks())
def test_plane_bounds_equal_the_trailing_axis_formulas(stack):
    """``_largest_moduli`` and ``_block_bounds`` read the blocks'
    coordinates across contiguous planes, and give the numbers of the
    reductions over trailing (h, h) axes bit for bit, also on a strided
    view and with no numpy warning."""
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        largest = oqrw._largest_moduli(stack)
        lower, upper = oqrw._block_bounds(stack)
        strided = oqrw._largest_moduli(np.stack([stack, stack], axis=1)[:, 1])
    with np.errstate(all="ignore"):
        expected = ref.largest_moduli(stack)
        expected_lower, expected_upper = ref.block_bounds(stack)
    for got, want in ((largest, expected), (strided, expected), (lower, expected_lower),
                      (upper, expected_upper)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def _reference_norms(blocks, bound):
    with np.errstate(all="ignore"):
        return ref.block_norms(blocks, bound)


@given(_coordinate_stacks(), st.sampled_from((0.0, 1e-300, 1.0, 1e100)))
def test_block_norms_equal_the_frozen_ones(stack, bound):
    norms, raised = oqrw._block_norms(stack, bound)
    expected, expected_bound = _reference_norms(stack, bound)
    assert np.array_equal(norms, expected, equal_nan=True) and raised == expected_bound


def _first_worst(candidates):
    """The first worst (norm, witness) of ``_Candidates`` results, as
    ``verify_theorem_5_1`` reads them."""
    candidates = sorted(candidates, key=lambda candidate: candidate[0])
    worst, n = worst_residual([value for _, value, _ in candidates])
    return None if n is None else (worst, candidates[n][2])


def _same(found, expected):
    """Equal first worst cases, the norm bit for bit."""
    if found is None or expected is None:
        return found is expected
    return repr(found[0]) == repr(expected[0]) and found[1] == expected[1]


def _pass_selection(radius):
    """The two-letter pass's blocks: nonzero residual within the radius."""
    def selected(rows, letters, blocks):
        entries = ref.largest_moduli(blocks)
        if radius is not None:
            within = np.add.outer(np.add.outer(letters, rows[:, 0]), np.arange(blocks.shape[3]))
            entries = np.where((within <= radius)[:, :, None], entries, 0.0)
        return entries != 0
    return selected


def _pieces(family, tensor, max_len):
    """Every piece of a walk, by length."""
    radius = oqrw.common_radius(family, tensor)
    return [list(level) for level in oqrw.heisenberg_levels(family, tensor, max_len, radius)]


@pytest.mark.parametrize("entries", (oqrw._CANDIDATE_ENTRIES, 1))
@pytest.mark.parametrize("name", [*CASES, *_non_finite_cases()])
def test_pruned_first_worst_is_the_unpruned_one(name, entries, monkeypatch):
    """On every family of the corpus, the two-letter pass's first worst norm
    and Theorem 5.1's at three letters are those of the spectral norms of
    all their blocks; so is the reduction of every nonzero block of a walk,
    whether or not the identity holds.  With a budget of one entry, the
    held blocks are pruned and reduced after every piece."""
    monkeypatch.setattr(oqrw, "_CANDIDATE_ENTRIES", entries)
    family, tensor = _non_finite_cases()[name] if name in _non_finite_cases() else case(name)[:2]
    two, three = _pieces(family, tensor, 3)
    found = oqrw._Candidates(family.h_dim, 3)
    for rows, letters, blocks in two + three:
        found.add(rows, letters, blocks)
    assert _same(_first_worst(found.worst()[0]), ref.walk_first_worst(two + three))
    family = fresh(family)
    hb = hw.check_hb(family, tensor)
    _, _, holds, words, _ = oqrw._two_letter_pass(family, tensor)
    assert holds == hb.passed
    if not holds:
        return
    selected = _pass_selection(budget(family, tensor))
    assert _same(_first_worst(words), ref.walk_first_worst(two, selected))
    t51 = hw.verify_theorem_5_1(family, tensor, max_word_len=3)
    # The two-letter cases the pass checks, then every nonzero block of three letters.
    cases = [(rows, letters, np.where(selected(rows, letters, blocks)[..., None, None], blocks, 0))
             for rows, letters, blocks in two]
    expected = ref.walk_first_worst(cases + three)
    assert _same((t51.max_residual, t51.witness), expected or (0.0, None))


@st.composite
def _walks(draw):
    """Pieces of a walk (rows, letters, blocks) of up to three letters over
    distinct words, at h from 1 to 4, whose blocks are drawn from a few
    shapes and scales, so that norms tie across pieces and lengths, with
    zero, tiny and non-finite blocks among them."""
    h = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    shapes = [np.diag(rng.permutation(np.arange(h, dtype=float))) * (1 + 1j), np.eye(h),
              rng.standard_normal((h, h)) + 1j * rng.standard_normal((h, h))]
    scales = (1.0, 2.0, 1e-170, 1e200)
    pieces, letter = [], 0
    for length in sorted(draw(st.lists(st.integers(2, 3), min_size=1, max_size=4))):
        n_letters, n_rows = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        d, win = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        letters = np.arange(letter, letter + n_letters)
        letter += n_letters
        rows = np.sort(rng.integers(0, 4, (n_rows, length - 1)), axis=0)
        rows = np.unique(rows, axis=0)
        blocks = np.zeros((n_letters, len(rows), d, win, h, h), dtype=complex)
        for index in np.ndindex(blocks.shape[:4]):
            pick = draw(st.integers(0, len(shapes) + 2))
            if pick < len(shapes):
                blocks[index] = draw(st.sampled_from(scales)) * shapes[pick]
            elif pick == len(shapes):
                blocks[index][draw(st.integers(0, h - 1)), 0] = draw(
                    st.sampled_from((np.nan, np.inf, -np.inf)))
        with np.errstate(all="ignore"):
            pieces.append((rows, letters, oqrw.hermitian_coordinates(blocks)))
    return h, pieces


@given(_walks(), st.sampled_from((oqrw._CANDIDATE_ENTRIES, 1)))
def test_pruned_first_worst_on_drawn_walks(walk, entries):
    """On drawn walks the pruned reduction, in one call after the walk or
    pruned and reduced after every piece, is the unpruned first worst."""
    h, pieces = walk
    saved, oqrw._CANDIDATE_ENTRIES = oqrw._CANDIDATE_ENTRIES, entries
    try:
        found = oqrw._Candidates(h, 3)
        for rows, letters, blocks in pieces:
            found.add(rows, letters, blocks)
        with np.errstate(all="ignore"):
            expected = ref.walk_first_worst(pieces)
        assert _same(_first_worst(found.worst()[0]), expected)
    finally:
        oqrw._CANDIDATE_ENTRIES = saved


@pytest.mark.parametrize("name", ["z-lattice(10) h1", "z-lattice(10) h3", "ex45 h3", "s3 h2",
                                  "c4 h2 radius 1", "random d4 h2"])
def test_a_pass_takes_its_norms_in_one_eigvalsh_call(name, monkeypatch):
    """A two-letter pass calls ``eigvalsh`` once if the identity holds (none
    if it fails), Theorem 5.1 at two letters none after it, and at three
    letters once more, for its longer words."""
    family, tensor, _, _, _ = case(name)
    family = fresh(family)
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        calls.append(len(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    holds = hw.check_hb(family, tensor).passed
    assert len(calls) == int(holds)
    hw.verify_theorem_5_1(family, tensor, max_word_len=2)
    assert len(calls) == int(holds)
    if holds:
        hw.verify_theorem_5_1(family, tensor, max_word_len=3)
        assert len(calls) == 2
