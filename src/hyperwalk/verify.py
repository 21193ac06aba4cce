"""Brute-force oracles and randomized harnesses tying the three computation
routes together: graph path sums, algebra folds, and quantum walk
compositions.

Randomness comes from numpy's seedable default_rng (PCG64); every report is
deterministic given its seed.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import ConditionSViolatedError
from .graphs import (
    PointedGraph,
    SphereTable,
    _vertex_index,
    build_spheres,
    check_condition_s,
    path_sum_levels,
    transition_family,
    wildberger_tensor,
)
from .hypergroups import (
    _COUNT_BLOCK,
    EPS_PROB,
    Hypergroup,
    StructureTensor,
    derive_involution,
    exact_tier,
    fold_level,
    fold_levels,
    prefix_trie,
    tensor_difference,
    validate_hypergroup,
)
from .oqrw import (
    BlockState,
    KrausFamily,
    _Candidates,
    _two_letter_pass,
    block_state,
    common_radius,
    heisenberg_levels,
    hermitian_coordinates,
    kraus_family,
    produced_tensor,
    realize,
    validate_kraus,
)
from .report import Report, scan_report


def _rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _random_unitaries(count: int, dim: int, rng) -> np.ndarray:
    """``count`` Haar-ish unitaries, (count, dim, dim): the QR of complex
    Gaussian matrices, each drawn as its real then its imaginary part, in
    one draw and one stacked QR."""
    draws = _rng(rng).standard_normal((count, 2, dim, dim))
    q, r = np.linalg.qr(draws[:, 0] + 1j * draws[:, 1])
    phases = np.diagonal(r, axis1=1, axis2=2).copy()
    phases /= np.abs(phases)
    return q * phases[:, None, :]


def random_unitary(dim: int, rng) -> np.ndarray:
    """Haar-ish unitary from the QR of a complex Gaussian matrix."""
    return _random_unitaries(1, dim, rng)[0]


def random_isometries(
    tensor: StructureTensor, h_dim: int, rng
) -> dict[tuple[int, int, int], np.ndarray]:
    """One random unitary per block (i, j, k) that ``realize`` builds from
    ``tensor``, drawn in sorted (k, j), then sorted i order."""
    keys = [(i, j, k) for k, j in sorted(tensor.defined_pairs()) for i in sorted(tensor.row(k, j))]
    return dict(zip(keys, _random_unitaries(len(keys), h_dim, rng)))


def random_block_state(h_dim: int, d_size: int, seed) -> BlockState:
    """Random full-support state: blocks A_i A_i^* scaled to total trace 1."""
    if h_dim <= 0 or d_size <= 0:
        raise ValueError("dimensions must be positive")
    draws = _rng(seed).standard_normal((d_size, 2, h_dim, h_dim))
    a = draws[:, 0] + 1j * draws[:, 1]
    blocks = a @ a.conj().swapaxes(-1, -2)
    return block_state(blocks / np.trace(blocks, axis1=1, axis2=2).real.sum())


def random_kraus_family(d_size: int, h_dim: int, seed) -> KrausFamily:
    """Random dense completeness-satisfying family.

    Per column (j, k), raw Gaussian blocks are whitened by the inverse square
    root of their Gram sum, which makes sum_i B^*B the identity exactly (up
    to roundoff).
    """
    draws = _rng(seed).standard_normal((d_size, d_size, d_size, 2, h_dim, h_dim))
    raws = draws[..., 0, :, :] + 1j * draws[..., 1, :, :]  # [j, k, i]
    w, v = np.linalg.eigh((raws.conj().swapaxes(-1, -2) @ raws).sum(axis=2))
    whiten = (v * w[..., None, :] ** -0.5) @ v.conj().swapaxes(-1, -2)
    blocks = raws @ whiten[:, :, None]
    keyed = {(i, j, k): blocks[j, k, i] for j, k, i in np.ndindex(blocks.shape[:3])}
    return kraus_family(d_size, h_dim, keyed)


def spanning_states(h_dim: int) -> list[tuple[tuple, np.ndarray]]:
    """Labelled density matrices spanning the Hermitian operators.

    Matrix units symmetrized: the diagonal projectors, then for each pair
    a < b the real combination (E_aa+E_bb+E_ab+E_ba)/2 and its imaginary
    counterpart (E_aa+E_bb-iE_ab+iE_ba)/2.
    """
    eye = np.eye(h_dim, dtype=complex)
    out = [(("diag", a), np.outer(eye[a], eye[a])) for a in range(h_dim)]
    for a, b in itertools.combinations(range(h_dim), 2):
        for label, phase in (("real", 1), ("imag", 1j)):
            v = eye[a] + phase * eye[b]
            out.append(((label, a, b), np.outer(v, v.conj()) / 2))
    return out


@lru_cache(maxsize=None)
def _spanning_coordinates(h_dim: int) -> tuple[tuple, np.ndarray]:
    """The labels of ``spanning_states`` and their coordinates, as columns of a read-only array."""
    spanning = spanning_states(h_dim)
    densities = hermitian_coordinates([rho for _, rho in spanning]).reshape(len(spanning), -1).T
    densities.setflags(write=False)
    return tuple(label for label, _ in spanning), densities


def verify_theorem_2_4(
    graph: PointedGraph | SphereTable,
    max_word_len: int,
    mode: str = "exact",
) -> Report:
    """Path sums versus algebra folds on a condition-(S) graph.

    For every word up to ``max_word_len`` the exact path-sum distribution
    must coincide with the fold of the sphere-count constants: identically
    in exact mode, within 1e-12 in float mode.  Both sides walk the prefix
    trie of the words one length at a time (``path_sum_levels`` and
    ``fold_levels``, in float mode over the float view), the folds in
    blocks of letters within the graph route's budget, ``_COUNT_BLOCK``.
    A bool or non-integral ``max_word_len`` is refused.
    """
    if mode not in ("exact", "float"):
        raise ValueError("mode must be 'exact' or 'float'")
    max_word_len = _vertex_index(max_word_len, "max_word_len")
    if max_word_len < 1:
        raise ValueError("max_word_len must be at least 1")
    table = graph if isinstance(graph, SphereTable) else build_spheres(graph)
    condition = check_condition_s(table)
    if not condition.passed:
        raise ConditionSViolatedError(str(condition))
    words, residuals = _theorem_2_4_residuals(table, wildberger_tensor(table), max_word_len, mode)
    tolerance = 0.0 if mode == "exact" else 1e-12
    return scan_report("paths-vs-fold", residuals, lambda n: (_word_at(words, n),), tolerance,
                       note=mode)


def _word_at(levels: list[np.ndarray], n: int) -> tuple[int, ...]:
    """The n-th word of the ``prefix_trie`` levels ``levels``, in order."""
    for words in levels:
        if n < len(words):
            return tuple(words[n].tolist())
        n -= len(words)


def _theorem_2_4_residuals(table: SphereTable, tensor: StructureTensor, max_word_len: int,
                           mode: str) -> tuple[list[np.ndarray], np.ndarray]:
    """The words of every budgeted level and each word's largest |path sum
    - fold| over the distances: in exact mode, the exact difference rounded
    once (0.0 where the two agree), and in float mode the difference of the
    two rounded sides.  The table must satisfy condition (S)."""
    levels = list(prefix_trie(table.index_set, max_word_len, table.graph.window_radius))
    exact = mode == "exact"
    words, residuals = [], []
    for (level, _, _), (numerators, denominators), (folds, scale) in zip(
        levels, path_sum_levels(table, levels),
        fold_levels(tensor if exact else tensor.to_float(), levels, _COUNT_BLOCK),
    ):
        words.append(level)
        if not exact:
            dens = np.array(denominators, dtype=numerators.dtype)[:, None]
            paths = (numerators / dens).astype(float)
            residuals.append(np.abs(paths - folds).max(axis=1))
            continue
        # Cross-multiplied: numerator / denominator == fold / scale.
        bound = max(denominators) * max(scale, int(folds.max()))
        dens = exact_tier(bound, np.array(denominators, dtype=object))[:, None]
        numerators, folds = exact_tier(bound, numerators), exact_tier(bound, folds)
        gaps = np.zeros(len(level))
        for w in np.flatnonzero((numerators * scale != folds * dens).any(axis=1)).tolist():
            path = [Fraction(int(x), denominators[w]) for x in numerators[w].tolist()]
            fold = [Fraction(int(x), scale) for x in folds[w].tolist()]
            gaps[w] = float(max(abs(p - f) for p, f in zip(path, fold)))
        residuals.append(gaps)
    return words, np.concatenate(residuals)


# Words of the last trie level that verify_corollary_2_6 folds at a time.
_FOLD_BLOCK = 1024


def verify_corollary_2_6(
    hypergroup: Hypergroup, max_word_len: int, tol: float = 1e-12
) -> Report:
    """Products of transition matrices versus folds of the constants.

    For every word (t1, ..., tn): P_{t1} P_{t2} ... P_{tn} must equal
    sum_m q[t1,...,tn; m] P_m, and the base row of the product must equal
    the fold vector itself.  Each word extends the product and the fold of
    its prefix in the trie, still formed left to right (``fold_level`` over
    the float view).  Only the products and folds of the words shorter than
    ``max_word_len`` are kept, one length at a time; the last length is
    folded one block of words at a time.  A bool or non-integral
    ``max_word_len`` is refused.
    """
    max_word_len = _vertex_index(max_word_len, "max_word_len")
    if max_word_len < 1:
        raise ValueError("max_word_len must be at least 1")
    tensor = hypergroup.tensor
    mats = transition_family(tensor).matrices
    floats = tensor.to_float()
    words, residuals, products, folds = [], [], [], None
    trie = prefix_trie(range(tensor.size), max_word_len, None)
    for length, (level, parents, letters) in enumerate(trie, start=1):
        keep = length < max_word_len
        block = len(level) if keep else _FOLD_BLOCK
        kept = []
        for start in range(0, len(level), block):
            part = slice(start, start + block)
            level_folds = fold_level(floats, folds, parents[part], letters[part], length)
            for p, k, coeffs in zip(parents[part].tolist(), letters[part].tolist(), level_folds):
                product = mats[k] if length == 1 else products[p] @ mats[k]
                expected = sum(c * mats[m] for m, c in enumerate(coeffs))
                residuals.append(np.maximum(np.abs(product - expected).max(),
                                            np.abs(product[0, :] - coeffs).max()))
                if keep:
                    kept.append(product)
        products, folds = kept, level_folds
        words.append(level)
    return scan_report("transition-products", np.array(residuals, dtype=float),
                       lambda n: (_word_at(words, n),), tol)


def verify_theorem_5_1(
    family: KrausFamily,
    tensor: StructureTensor,
    max_word_len: int = 4,
    n_states: int = 10,
    seed: int = 0,
    tol: float = 1e-9,
    min_gap: float = 1e-8,
) -> Report:
    """Walk distributions versus Q-mixture distributions, for every state.

    After the word w = (k1, ..., kn), k1 applied first, a walk and its
    mixture through the reversed-word fold put mass tr(X rho) and tr(M rho)
    at position i (see ``heisenberg_levels``).  They agree for every state
    started at position j exactly when the block D_{w,i,j} of D = X - M
    vanishes, and the largest |walk - mixture| at i over the states at j is
    the spectral norm of D_{w,i,j} (of its Hermitian part: masses are real).

    The branch follows the block-decomposition identity, by ``check_hb``'s
    rule on the two-letter blocks, read with their norms off the family's
    ``_two_letter_pass``, which one walk forms (if none is kept) and extends.
    If it holds, every word of up to ``max_word_len`` letters and every (i,
    j) with j + sum(w) within the common radius is checked (the other
    starts are skipped and counted): the residual is the largest block norm,
    within ``tol``, an exact worst case over all states rather than a
    sample, and the witness (word, i, j) its first case by word length,
    word, i, j.  The longer words' norms are taken once, after the walk,
    on the blocks whose largest entries let them reach it (``_Candidates``).
    If the identity fails, ``_converse_witness`` looks for the guaranteed
    witness among the two-letter cases.  The pass is kept either way.

    ``n_states`` (at least 1) and ``seed`` are accepted for compatibility
    and no longer affect the result.  A bool or non-integral
    ``max_word_len`` or ``n_states`` is refused.
    """
    max_word_len = _vertex_index(max_word_len, "max_word_len")
    n_states = _vertex_index(n_states, "n_states")
    if max_word_len < 1 or n_states < 1:
        raise ValueError("max_word_len and n_states must be at least 1")
    d = family.d_size
    radius = common_radius(family, tensor)
    # Past every sum + j, as is any larger radius, which need not fit int64.
    cap = (max_word_len + 1) * d
    cap = cap if radius is None else min(radius, cap)
    levels = heisenberg_levels(family, tensor, max(2, max_word_len), radius)
    # The walk's two-letter pieces form the pass if none is kept; longer words extend them.
    two = next(levels) if tensor not in family._passes or max_word_len > 2 else None
    _, pairs, holds, two_letter, bound = _two_letter_pass(family, tensor, two)
    if not holds:
        return _converse_witness(family, tensor, min_gap)
    sums = [np.arange(min(d, cap + 1))]  # one letter: Phi_k^*(E_i) less itself, zero
    longer = _Candidates(family.h_dim, max_word_len, bound)  # the pass's bound prunes them too
    for pieces in levels if max_word_len > 2 else ():  # from 3 letters: no word past its window
        for rows, letters, blocks in pieces:
            sums.append(np.add.outer(letters, rows.sum(axis=1)).ravel())
            longer.add(rows, letters, blocks)
    # (order key, norm, witness)
    candidates = (two_letter if max_word_len >= 2 else []) + longer.worst()[0]
    sums = np.concatenate(sums)  # a case (word, i, j) with j + sum(w) past cap is skipped
    checked, words = d * int(np.minimum(d, cap - sums + 1).sum()), len(sums)
    if max_word_len >= 2:  # the pass checked the two-letter cases
        checked += pairs
        words += int(np.count_nonzero(np.add.outer(np.arange(d), np.arange(d)) <= cap))
    candidates.sort(key=lambda candidate: candidate[0])
    return scan_report("walk-vs-mixture", [value for _, value, _ in candidates],
                       lambda n: candidates[n][2], tol, checked=checked,
                       skipped=d * d * words - checked, note="decomposition holds; walk == mixture")


def _converse_witness(family: KrausFamily, tensor: StructureTensor, min_gap: float) -> Report:
    """The first start E_m (x) sigma_s, sigma_s of ``spanning_states``, and
    two-letter word w whose walk and mixture differ by at least ``min_gap``:
    max_i |tr(D_{w,i,m} sigma_s)|, in (m, s) order, then word order, over
    the cases the two-letter pass checks, m + sum(w) within the common
    radius, read off a two-letter ``heisenberg_levels`` walk of its own
    with each piece's starts padded to d; ``checked`` counts the cases read."""
    d, h = family.d_size, family.h_dim
    radius = common_radius(family, tensor)
    cap = 3 * d if radius is None else radius  # untruncated, past every k + l + m
    labels, densities = _spanning_coordinates(h)
    words, gaps = [], []
    for rows, letters, blocks in next(heisenberg_levels(family, tensor, 2, radius)):
        within = np.add.outer(np.add.outer(letters, rows[:, 0]), np.arange(d)) <= cap  # [., ., m]
        inside = within[..., 0]  # the words with a certified start
        with np.errstate(invalid="ignore"):  # tr(D sigma) is the dot product of coordinates
            traces = (blocks.reshape(-1, h * h) @ densities).reshape(blocks.shape[:4] + (-1,))
        gap = np.full(within.shape + (len(labels),), -1.0)  # [l - l0, row, m, s]; -1: no case
        gap[:, :, :blocks.shape[3]] = np.abs(traces).max(axis=2)
        gap[~within] = -1.0
        gaps.append(gap[inside])
        a, b = np.nonzero(inside)
        words += zip(letters[a].tolist(), rows[b, 0].tolist())  # (l, k), in word order
    gaps = np.concatenate(gaps).transpose(1, 2, 0)  # [m, s, word]
    hits = np.flatnonzero(gaps >= min_gap)  # a NaN gap is a case read, but no witness
    cases = int(np.count_nonzero(gaps.ravel()[:hits[0] + 1 if hits.size else None] != -1.0))
    if not hits.size:
        return Report("walk-vs-mixture", False, 0.0, None, min_gap, cases,
                      note="decomposition fails but no distribution witness found")
    m, s, w = np.unravel_index(int(hits[0]), gaps.shape)
    return Report("walk-vs-mixture", True, float(gaps[m, s, w]), (int(m), labels[s], words[w]),
                  min_gap, cases, note="decomposition fails; converse witness found")


def verify_roundtrip(
    hypergroup: Hypergroup,
    h_dim: int,
    seed: int = 0,
    isometries: str = "identity",
    tol: float = EPS_PROB,
) -> Report:
    """Realize the constants as a walk, read them back, and compare.

    Checks the realized family's completeness, the produced constants
    against the originals (within ``tol``), the involution derived from the
    produced tensor against the stored one, and the full axiom validation of
    the produced tensor.
    """
    tensor = hypergroup.tensor
    if isometries not in ("identity", "random"):
        raise ValueError("isometries must be 'identity' or 'random'")
    iso = random_isometries(tensor, h_dim, seed) if isometries == "random" else None

    family, state = realize(hypergroup, h_dim=h_dim, isometries=iso)
    kraus_ok = validate_kraus(family).passed
    produced = produced_tensor(family, state)
    residual, worst = tensor_difference(produced, tensor)

    derived = derive_involution(produced, partial=True)
    involution_ok = all(
        s is None or s == hypergroup.involution[i] for i, s in enumerate(derived)
    )
    axioms_ok = validate_hypergroup(produced, hypergroup.involution).passed

    passed = kraus_ok and involution_ok and axioms_ok and residual <= tol
    notes = []
    if not kraus_ok:
        notes.append("completeness failed")
    if not involution_ok:
        notes.append("involution mismatch")
    if not axioms_ok:
        notes.append("produced tensor failed validation")
    return Report(
        "roundtrip", passed, residual, worst, tol, sum(1 for _ in tensor.defined_pairs()),
        note="; ".join(notes) or f"{isometries} isometries, h_dim={h_dim}",
    )
