"""Frozen reference copy of the loop implementations of the quantum layer.

These are the per-block Python loops over a sparse (i, j, k) -> block map
that the dense superoperator code in ``hyperwalk.oqrw`` and
``hyperwalk.verify`` replaced, kept unchanged as an oracle for the
differential tests.  Only the glue differs: the thread fan-out is a plain
sequential map, ``from_family``/``from_state`` convert the library's
dense objects into the sparse ones used here, and ``VerificationReport`` is
a local copy of the report class the library has since replaced.

``check_states``, ``realize_array``, ``walk_per_letter`` and ``certified``
at the end are frozen copies of later library code, the eigvalsh-only state
check, the per-block ``realize``, the dense walk that checks the state after
every letter and the certificate of complex state stacks, kept as the
oracles of their batched or coordinate replacements.  Do not optimise this
file.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Mapping, Sequence

import numpy as np

from hyperwalk.errors import TruncationExceededError
from hyperwalk.hypergroups import (
    EPS_PROB,
    StructureTensor,
    Word,
    multi_constants,
    structure_tensor,
)
from hyperwalk.oqrw import _apply_reached, _check_states, _checked_walk, hermitian_blocks
from hyperwalk.verify import spanning_states

EPS_KRAUS = 1e-8
EPS_HB = 1e-8
EPS_PSD = 1e-10


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one oracle run: worst residual over all checked cases."""

    checked_cases: int
    max_residual: float
    worst_case: tuple | None
    passed: bool
    tolerance: float
    note: str = ""

    def __str__(self) -> str:
        status = "pass" if self.passed else "FAIL"
        out = (
            f"{status}: {self.checked_cases} cases, max residual "
            f"{self.max_residual:.3e} (tol {self.tolerance:.1e})"
        )
        if self.worst_case is not None:
            out += f", worst case {self.worst_case}"
        if self.note:
            out += f" [{self.note}]"
        return out


def pmap(fn, items):
    return [fn(item) for item in items]


def from_family(family) -> "KrausFamily":
    """Sparse copy of a library ``KrausFamily``."""
    return kraus_family(
        family.d_size, family.h_dim, family.blocks, family.truncation_radius
    )


def from_state(state) -> "BlockState":
    """Tuple-of-blocks copy of a library ``BlockState``."""
    return block_state(list(state.blocks))


def _as_block(matrix, h_dim: int) -> np.ndarray:
    arr = np.asarray(matrix, dtype=complex)
    if arr.shape != (h_dim, h_dim):
        raise ValueError(f"block has shape {arr.shape}, expected ({h_dim}, {h_dim})")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class KrausFamily:
    """Sparse Kraus blocks B[i,j;k]; an absent block is the zero matrix.

    ``truncation_radius`` tags families realized from a truncated tensor:
    blocks in rows (k, j) with k + j beyond the radius are an arbitrary
    completion (kept only so each map stays trace preserving) and nothing
    computed through them is certified.
    """

    d_size: int
    h_dim: int
    blocks: Mapping[tuple[int, int, int], np.ndarray]
    truncation_radius: int | None = None

    def block(self, i: int, j: int, k: int) -> np.ndarray:
        found = self.blocks.get((i, j, k))
        if found is not None:
            return found
        return np.zeros((self.h_dim, self.h_dim), dtype=complex)

    @cached_property
    def _by_distance(self) -> dict[int, list[tuple[int, int, np.ndarray]]]:
        table: dict[int, list[tuple[int, int, np.ndarray]]] = {}
        for (i, j, k), mat in sorted(self.blocks.items()):
            table.setdefault(k, []).append((i, j, mat))
        return table


def kraus_family(
    d_size: int,
    h_dim: int,
    blocks: Mapping[tuple[int, int, int], "np.ndarray"],
    truncation_radius: int | None = None,
) -> KrausFamily:
    """Build a family from an (i, j, k) -> matrix map, dropping zero blocks."""
    if d_size <= 0 or h_dim <= 0:
        raise ValueError("d_size and h_dim must be positive")
    stored: dict[tuple[int, int, int], np.ndarray] = {}
    for (i, j, k), matrix in blocks.items():
        for idx in (i, j, k):
            if not (0 <= idx < d_size):
                raise ValueError(f"block index {(i, j, k)} out of range")
        arr = _as_block(matrix, h_dim)
        if np.abs(arr).max() == 0.0:
            continue
        stored[(i, j, k)] = arr
    return KrausFamily(
        d_size=d_size,
        h_dim=h_dim,
        blocks=stored,
        truncation_radius=truncation_radius,
    )


@dataclass(frozen=True)
class KrausReport:
    passed: bool
    max_residual: float
    worst_slot: tuple[int, int] | None
    tolerance: float

    def __str__(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return (
            f"completeness: {status}  max residual {self.max_residual:.3e} "
            f"at (j, k)={self.worst_slot}  tol {self.tolerance:.1e}"
        )


def validate_kraus(family: KrausFamily, tol: float = EPS_KRAUS) -> KrausReport:
    """Check sum_i B[i,j;k]^* B[i,j;k] = 1 for every (j, k), in max norm."""
    eye = np.eye(family.h_dim, dtype=complex)
    sums: dict[tuple[int, int], np.ndarray] = {}
    for (i, j, k), mat in family.blocks.items():
        acc = sums.setdefault((j, k), np.zeros_like(eye))
        acc += mat.conj().T @ mat
    worst, worst_slot = -1.0, None
    for j, k in itertools.product(range(family.d_size), repeat=2):
        total = sums.get((j, k), np.zeros_like(eye))
        residual = float(np.abs(total - eye).max())
        if residual > worst:
            worst, worst_slot = residual, (j, k)
    return KrausReport(worst <= tol, worst, worst_slot, tol)


@dataclass(frozen=True)
class BlockState:
    """Block-diagonal density operator: one PSD block per position, total trace 1."""

    blocks: tuple[np.ndarray, ...]

    @property
    def d_size(self) -> int:
        return len(self.blocks)

    @property
    def h_dim(self) -> int:
        return self.blocks[0].shape[0]


def block_state(blocks: Sequence[np.ndarray], validate: bool = True) -> BlockState:
    if not blocks:
        raise ValueError("state needs at least one block")
    h = np.asarray(blocks[0]).shape[0]
    mats = tuple(_as_block(b, h) for b in blocks)
    if validate:
        total = 0.0
        for idx, mat in enumerate(mats):
            if np.abs(mat - mat.conj().T).max() > EPS_PSD:
                raise ValueError(f"block {idx} is not Hermitian")
            eigmin = float(np.linalg.eigvalsh((mat + mat.conj().T) / 2).min())
            if eigmin < -EPS_PSD:
                raise ValueError(f"block {idx} has negative eigenvalue {eigmin}")
            total += float(mat.trace().real)
        if abs(total - 1.0) > EPS_PROB:
            raise ValueError(f"total trace is {total}, not 1")
    return BlockState(blocks=mats)


def point_state(rho0: np.ndarray, site: int, d_size: int) -> BlockState:
    """State rho0 concentrated at one position."""
    rho0 = np.asarray(rho0, dtype=complex)
    h = rho0.shape[0]
    blocks = [np.zeros((h, h), dtype=complex) for _ in range(d_size)]
    blocks[site] = rho0
    return block_state(blocks)


def step(family: KrausFamily, k: int, state: BlockState) -> BlockState:
    """One application of the distance-k map: rho'_i = sum_j B rho_j B^*."""
    if state.d_size != family.d_size or state.h_dim != family.h_dim:
        raise ValueError("state and family dimensions disagree")
    if not (0 <= k < family.d_size):
        raise IndexError(f"distance {k} out of range")
    out = [np.zeros((family.h_dim, family.h_dim), dtype=complex) for _ in range(family.d_size)]
    for i, j, mat in family._by_distance.get(k, ()):
        out[i] += mat @ state.blocks[j] @ mat.conj().T
    return block_state(out)


def distribution(state: BlockState) -> np.ndarray:
    """Measured position distribution: the block traces."""
    return np.array([float(b.trace().real) for b in state.blocks])


def walk_distribution(family: KrausFamily, word: Word, state0: BlockState) -> np.ndarray:
    """Distribution after applying the maps of ``word`` in order to ``state0``."""
    state = state0
    for k in word:
        state = step(family, k, state)
    return distribution(state)


def produced_tensor(family: KrausFamily, state0: BlockState) -> StructureTensor:
    """Structure constants read off the two-step walk distributions.

    Entry Q[k, l, m] is the mass at position m after applying the l-map and
    then the k-map to the initial state.  On a truncated family only the
    certified rows (k + l within the radius) are produced.
    """
    one_step = [step(family, l, state0) for l in range(family.d_size)]
    radius = family.truncation_radius
    entries = []
    for k, l in itertools.product(range(family.d_size), repeat=2):
        if radius is not None and k + l > radius:
            continue
        probs = distribution(step(family, k, one_step[l]))
        for m, p in enumerate(probs):
            if p > 1e-14:
                entries.append((k, l, m, float(p)))
    return structure_tensor(family.d_size, entries, truncation_radius=radius)


@dataclass(frozen=True)
class HBReport:
    """Residuals of the block-decomposition identity over all index tuples."""

    passed: bool
    max_residual: float
    worst_tuple: tuple[int, int, int, int] | None
    tolerance: float
    checked: int
    skipped: int = 0

    def __str__(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return (
            f"block decomposition: {status}  max residual {self.max_residual:.3e} "
            f"at (i, j, k, l)={self.worst_tuple}  tol {self.tolerance:.1e} "
            f"({self.checked} tuples)"
        )


def check_hb(
    family: KrausFamily, tensor: StructureTensor, tol: float = EPS_HB
) -> HBReport:
    """Operator identity equivalent to walk distributions folding through Q:

        sum_m B[m,j;l]^* B[i,m;k]^* B[i,m;k] B[m,j;l]
            == sum_m Q[k,l,m] B[i,j;m]^* B[i,j;m]

    for all i, j, k, l.  On truncated inputs, tuples needing rows beyond the
    radius are skipped and counted.
    """
    if family.d_size != tensor.size:
        raise ValueError(f"size mismatch: family {family.d_size}, tensor {tensor.size}")
    d, h = family.d_size, family.h_dim
    radius_values = [
        r for r in (family.truncation_radius, tensor.truncation_radius) if r is not None
    ]
    radius = min(radius_values) if radius_values else None

    grams: dict[tuple[int, int, int], np.ndarray] = {}

    def gram(i: int, j: int, k: int) -> np.ndarray:
        key = (i, j, k)
        found = grams.get(key)
        if found is None:
            mat = family.block(i, j, k)
            found = grams[key] = mat.conj().T @ mat
        return found

    def scan(pair: tuple[int, int]) -> tuple[float, tuple | None, int, int]:
        k, l = pair
        worst, worst_tuple, checked, skipped = -1.0, None, 0, 0
        for i, j in itertools.product(range(d), repeat=2):
            if radius is not None and j + k + l > radius:
                skipped += 1
                continue
            lhs = np.zeros((h, h), dtype=complex)
            for m in range(d):
                outer = family.block(m, j, l)
                if not outer.any():
                    continue
                lhs += outer.conj().T @ gram(i, m, k) @ outer
            try:
                q_row = tensor.row(k, l)
            except TruncationExceededError:
                skipped += 1
                continue
            rhs = np.zeros((h, h), dtype=complex)
            for m, q in q_row.items():
                rhs += float(q) * gram(i, j, m)
            residual = float(np.abs(lhs - rhs).max())
            checked += 1
            if residual > worst:
                worst, worst_tuple = residual, (i, j, k, l)
        return worst, worst_tuple, checked, skipped

    results = pmap(scan, itertools.product(range(d), repeat=2))
    worst, worst_tuple = -1.0, None
    checked = skipped = 0
    for w, t, c, s in results:
        checked += c
        skipped += s
        if w > worst:
            worst, worst_tuple = w, t
    return HBReport(
        passed=worst <= tol,
        max_residual=max(worst, 0.0),
        worst_tuple=worst_tuple,
        tolerance=tol,
        checked=checked,
        skipped=skipped,
    )


def mixture_distribution(
    family: KrausFamily,
    tensor: StructureTensor,
    word: Word,
    state0: BlockState,
) -> np.ndarray:
    """Distribution of the Q-mixture sum_m Q[kn,...,k1; m] M_m(state0).

    The fold runs over the reversed word, matching the order in which the
    walk applies its maps.
    """
    coeffs = multi_constants(tensor, tuple(reversed(tuple(word))))
    out = np.zeros(family.d_size)
    for m, coeff in enumerate(coeffs):
        c = float(coeff)
        if c == 0.0:
            continue
        out += c * distribution(step(family, m, state0))
    return out


def _rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def random_block_state(h_dim: int, d_size: int, seed) -> BlockState:
    """Random full-support state: blocks A_i A_i^* scaled to total trace 1."""
    if h_dim <= 0 or d_size <= 0:
        raise ValueError("dimensions must be positive")
    rng = _rng(seed)
    blocks = []
    for _ in range(d_size):
        a = rng.standard_normal((h_dim, h_dim)) + 1j * rng.standard_normal((h_dim, h_dim))
        blocks.append(a @ a.conj().T)
    total = sum(float(b.trace().real) for b in blocks)
    return block_state([b / total for b in blocks])


def _words(letters: Sequence[int], length: int) -> Iterator[tuple[int, ...]]:
    yield from itertools.product(letters, repeat=length)


def _budgeted_words(
    letters: Sequence[int], max_len: int, budget: int | None
) -> Iterator[tuple[int, ...]]:
    for n in range(1, max_len + 1):
        for word in _words(letters, n):
            if budget is None or sum(word) <= budget:
                yield word


def verify_theorem_5_1(
    family: KrausFamily,
    tensor: StructureTensor,
    max_word_len: int = 4,
    n_states: int = 10,
    seed: int = 0,
    tol: float = 1e-9,
    min_gap: float = 1e-8,
) -> VerificationReport:
    """Walk distributions versus Q-mixture distributions.

    If the block-decomposition identity holds, every walk distribution (all
    words up to ``max_word_len``, ``n_states`` seeded random states) must
    equal the mixture through the reversed-word fold, within ``tol``.  If the
    identity fails, the scan instead looks for the guaranteed witness: a
    basis state (position m, spanning density) and a length-2 word whose two
    distributions differ by at least ``min_gap``.
    """
    hb = check_hb(family, tensor)
    d, h = family.d_size, family.h_dim

    if hb.passed:
        rng = _rng(seed)
        states = [random_block_state(h, d, rng) for _ in range(n_states)]
        radii = [
            r
            for r in (family.truncation_radius, tensor.truncation_radius)
            if r is not None
        ]
        budget = min(radii) if radii else None
        words = list(_budgeted_words(range(d), max_word_len, budget))

        def scan(word):
            worst_local, witness_local = -1.0, None
            for idx, state in enumerate(states):
                walked = walk_distribution(family, word, state)
                mixed = mixture_distribution(family, tensor, word, state)
                residual = float(np.abs(walked - mixed).max())
                if residual > worst_local:
                    worst_local, witness_local = residual, (word, idx)
            return worst_local, witness_local

        worst, witness = -1.0, None
        for w, wit in pmap(scan, words):
            if w > worst:
                worst, witness = w, wit
        return VerificationReport(
            checked_cases=len(words) * len(states),
            max_residual=max(worst, 0.0),
            worst_case=witness,
            passed=worst <= tol,
            tolerance=tol,
            note="decomposition holds; walk == mixture",
        )

    # Identity fails: hunt for the distribution mismatch it guarantees.
    cases = 0
    for m in range(d):
        for label, rho in spanning_states(h):
            state = point_state(rho, m, d)
            for word in _words(range(d), 2):
                if tensor.truncation_radius is not None and sum(word) > tensor.truncation_radius:
                    continue
                walked = walk_distribution(family, word, state)
                mixed = mixture_distribution(family, tensor, word, state)
                gap = float(np.abs(walked - mixed).max())
                cases += 1
                if gap >= min_gap:
                    return VerificationReport(
                        checked_cases=cases,
                        max_residual=gap,
                        worst_case=(m, label, word),
                        passed=True,
                        tolerance=min_gap,
                        note="decomposition fails; converse witness found",
                    )
    return VerificationReport(
        checked_cases=cases,
        max_residual=0.0,
        worst_case=None,
        passed=False,
        tolerance=min_gap,
        note="decomposition fails but no distribution witness found",
    )



def check_states(stack: np.ndarray) -> None:
    """Raise ValueError for the first invalid state (in C order) of a
    (..., d, h, h) stack, naming its first bad block, else its trace."""
    flat = stack.reshape((-1,) + stack.shape[-3:])
    adjoint = flat.conj().swapaxes(-1, -2)
    finite = np.isfinite(flat).all(axis=(-2, -1))
    with np.errstate(invalid="ignore"):  # inf - inf in a non-finite block, refused by name
        hermitian = np.abs(flat - adjoint).max(axis=(-2, -1)) <= EPS_PSD
        eigmin = np.linalg.eigvalsh((flat + adjoint) / 2)[..., 0]
    bad = ~finite | ~hermitian | (eigmin < -EPS_PSD)
    total = np.trace(flat, axis1=-2, axis2=-1).real.sum(axis=-1)
    failing = bad.any(axis=-1) | ~(np.abs(total - 1.0) <= EPS_PROB)
    if not failing.any():
        return
    n = int(np.argmax(failing))
    if not bad[n].any():
        raise ValueError(f"total trace is {float(total[n])}, not 1")
    idx = int(np.argmax(bad[n]))
    if not finite[n, idx]:
        raise ValueError(f"block {idx} has non-finite entries")
    if not hermitian[n, idx]:
        raise ValueError(f"block {idx} is not Hermitian")
    raise ValueError(f"block {idx} has negative eigenvalue {float(eigmin[n, idx])}")


def realize_array(tensor: StructureTensor, h_dim: int = 1, isometries=None) -> np.ndarray:
    """The dense (d, d, d, h, h) block array that the per-block ``realize``
    builds, with its refusals: one isometry check per block in (k, j, i)
    order, then the constructor's checks in the same order."""
    d = tensor.size
    eye = np.eye(h_dim, dtype=complex)

    def isometry(i: int, j: int, k: int) -> np.ndarray:
        u = isometries(i, j, k) if callable(isometries) else (isometries or {}).get((i, j, k))
        if u is None:
            return eye
        u = _as_block(u, h_dim)
        if np.abs(u.conj().T @ u - eye).max() > EPS_KRAUS:
            raise ValueError(f"supplied matrix for {(i, j, k)} is not an isometry")
        return u

    floats = tensor.to_float().cube
    blocks = {(i, j, k): np.sqrt(floats[k, j, i]) * isometry(i, j, k)
              for k, j, i in zip(*(axis.tolist() for axis in np.nonzero(tensor.cube)))}
    blocks.update({(abs(j - k), j, k): eye
                   for k, j in zip(*(axis.tolist() for axis in np.nonzero(~tensor.domain)))})
    array = np.zeros((d, d, d, h_dim, h_dim), dtype=complex)
    for (i, j, k), matrix in blocks.items():
        arr = _as_block(matrix, h_dim)
        if not np.isfinite(arr).all():
            raise ValueError(f"block {(i, j, k)} has non-finite entries")
        array[i, j, k] = arr
    return array


def walk_per_letter(family, word: Word, state0) -> np.ndarray:
    """The library's ``walk_distribution`` on its dense objects as it ran
    before its states were checked in batches: the library's state check
    after every letter (on the state's coordinates read back as complex
    blocks), under the caller's numpy error state, each letter stepped as
    the library's own per-letter path steps it (``_apply_reached``)."""
    word = _checked_walk(family, state0, word, family.truncation_radius)
    stack = state0._coordinates
    for k in word:
        stack = _apply_reached(family, k, stack)
        _check_states(hermitian_blocks(stack))
    return np.trace(stack, axis1=-2, axis2=-1)


def gershgorin_rows(flat: np.ndarray) -> np.ndarray:
    """The Gershgorin row bounds ``certified`` reads: per row of each block's
    Hermitian part, twice the real diagonal entry less the row's moduli."""
    symmetric = (flat + flat.conj().swapaxes(-1, -2)) / 2
    return 2 * np.diagonal(symmetric, axis1=-2, axis2=-1).real - np.abs(symmetric).sum(axis=-1)


def certified(flat: np.ndarray) -> bool:
    """Whether every state of an (S, d, h, h) stack of complex blocks passes
    ``check_states``, from the quantities its scan computes, reduced over
    the whole stack: the largest Hermitian gap (NaN or inf anywhere makes it
    NaN or inf, so finiteness needs no pass of its own), the total traces,
    the Gershgorin row bounds, and ``eigvalsh`` on the blocks those bounds
    leave uncertain.  True only where the scan would pass."""
    with np.errstate(over="ignore", invalid="ignore"):
        adjoint = flat.conj().swapaxes(-1, -2)
        if not np.abs(flat - adjoint).max() <= EPS_PSD:
            return False
        total = np.trace(flat, axis1=-2, axis2=-1).real.sum(axis=-1)
        if not np.abs(total - 1.0).max() <= EPS_PROB:
            return False
        symmetric = (flat + adjoint) / 2
        rows = 2 * np.diagonal(symmetric, axis1=-2, axis2=-1).real - np.abs(symmetric).sum(axis=-1)
    if rows.min() >= 0:
        return True
    uncertain = ~(rows.min(axis=-1) >= 0)
    return np.linalg.eigvalsh(symmetric[uncertain])[..., 0].min() >= -EPS_PSD
