"""Open quantum random walks on distance sets.

A walk is a family of completely positive trace-preserving maps, one per
jump distance k, acting on block-diagonal states.  Each map is given by
Kraus blocks B[i,j;k] on the degree-of-freedom space (moving the block at
position j to position i under a jump of distance k), subject to the
completeness condition sum_i B[i,j;k]^* B[i,j;k] = 1 for every (j, k).

A family is stored as one dense (d, d, d, h, h) complex array holding
B[i,j;k] at [i, j, k] (d^3 h^2 numbers; absent blocks are zero), a state as
one (d, h, h) stack of its diagonal blocks.  The maps keep blocks
Hermitian, and everything computed from them is Hermitian too (states,
Gram blocks B^* B, walk-minus-mixture observables), so the maps run on real
coordinates in one orthonormal basis of the h x h Hermitian matrices
(``hermitian_coordinates``), where tr(X Y) is a dot product.  On states
flattened to length d h^2 the distance-k map is a real matrix T_k, whose
(i, j) block is B (x) conj(B), B = B[i,j;k], in that basis, and its
adjoint Phi_k^* is the transpose.  A family holds all d maps as one real
(d, d h^2, d h^2) stack that steps states (``_apply``); its Gram blocks, in
coordinates, give the masses one map moves from a stack of states
(``one_step_distributions``), read by the produced constants and the
mixtures.  The Heisenberg picture Phi_k^*(X)_j = sum_i B[i,j;k]^* X_i
B[i,j;k] is the adjoint, and the checks run there on one walker of words
(``heisenberg_levels``), a GEMM per chunk of ``_LEVEL_ENTRIES`` entries;
its two-letter words are reduced once per family and tensor to worst
residuals (``_two_letter_pass``), each piece's largest entries taken
across its coordinate planes (``_planes``).  Theorem 5.1's block norms
are taken once per walk, in one ``eigvalsh`` call, on the blocks whose
largest entries let them reach the largest norm (``_Candidates``).

Word-order convention, fixed globally because it is easy to get backwards:

* ``walk_distribution`` applies the maps in word order: word (k1, ..., kn)
  means apply the k1-map first.
* ``produced_tensor`` reads the constant Q[k, l] off the two-step walk that
  applies the l-map first and the k-map second (the product z_k o z_l).
* ``mixture_distribution`` therefore folds the *reversed* word through the
  tensor: the walk (k1, ..., kn) decomposes through the fold of
  (kn, ..., k1).
"""

from __future__ import annotations

import weakref
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import TruncationExceededError
from .graphs import _vertex_index
from .hypergroups import (
    EPS_PROB,
    StructureTensor,
    Word,
    check_radius,
    check_rows,
    fold_level,
    multi_constants,
    quotients,
)
from .report import Report, scan_report, worst_residual

# Completeness and block-decomposition residuals: chains of <= 4 products.
EPS_KRAUS = 1e-8
EPS_HB = 1e-8
# Minimum eigenvalue allowed below zero for a positive-semidefinite block.
EPS_PSD = 1e-10


_ROOT_HALF = np.sqrt(0.5)


@lru_cache(maxsize=None)
def _basis(h: int) -> tuple[np.ndarray, np.ndarray]:
    """The basis of ``hermitian_coordinates``: the basis matrix of the
    coordinate q = (a, b), C order, has the weight w[a, b] at the entry
    (a, b) and its conjugate at (b, a), two halves on the diagonal, so it
    is E_aa, and for a < b (E_ab + E_ba)/sqrt(2) at (a, b) and
    i (E_ab - E_ba)/sqrt(2) at (b, a).  Returns the (h, h) weights, and the
    real (2 h^2, h^2) matrix whose column q holds the real and imaginary
    part of each entry of that basis matrix, on two rows per entry."""
    a, b = np.divmod(np.arange(h * h), h)
    q = np.arange(h * h)
    weights = np.where(a == b, 0.5, np.where(a < b, _ROOT_HALF, -1j * _ROOT_HALF))
    basis = np.zeros((h * h, 2, h * h))
    basis[q, 0, q], basis[q, 1, q] = weights.real, weights.imag
    basis[b * h + a, 0, q] += weights.real
    basis[b * h + a, 1, q] -= weights.imag
    weights, basis = weights.reshape(h, h), basis.reshape(2 * h * h, h * h)
    weights.setflags(write=False)
    basis.setflags(write=False)
    return weights, basis


def hermitian_coordinates(blocks) -> np.ndarray:
    """The real coordinates of the Hermitian parts (X + X^*)/2 of a (..., h,
    h) stack of blocks, in one fixed orthonormal basis, as a (..., h, h)
    float array: X_aa at [a, a], and for a < b sqrt(2) Re X_ab at [a, b]
    and sqrt(2) Im X_ab at [b, a].  So tr(X Y) is the dot product of the
    coordinates.  One product with the basis, which scales each part by
    1/sqrt(2) before adding it.  A non-finite entry makes its block's
    coordinates non-finite, with no numpy warning."""
    x = np.ascontiguousarray(blocks, dtype=complex)
    h = x.shape[-1]
    with np.errstate(over="ignore", invalid="ignore"):
        return (x.view(float).reshape(-1, 2 * h * h) @ _basis(h)[1]).reshape(x.shape)


def hermitian_blocks(coords: np.ndarray) -> np.ndarray:
    """The complex Hermitian blocks of a (..., h, h) stack of coordinates,
    the inverse of ``hermitian_coordinates``, with no numpy warning."""
    h = coords.shape[-1]
    with np.errstate(over="ignore", invalid="ignore"):
        parts = coords.reshape(-1, h * h) @ _basis(h)[1].T
    return parts.view(complex).reshape(coords.shape)


def entry_moduli(coords: np.ndarray) -> np.ndarray:
    """The entry moduli of the blocks with these (..., h, h) coordinates:
    |X_aa| = |c_aa|, and |X_ab| = |c_ab + i c_ba| / sqrt(2) for a != b, the
    moduli of complex numbers, which numpy takes without squaring: a finite
    block has finite moduli, and the diagonal ones are exact."""
    own, partner = _modulus_scales(coords.shape[-1])
    pairs = np.empty(coords.shape, dtype=complex)
    with np.errstate(invalid="ignore"):  # inf * 0 on the diagonal: |inf + i NaN| is inf
        np.multiply(coords, own, out=pairs.real)
        np.multiply(coords.swapaxes(-1, -2), partner, out=pairs.imag)
    return np.abs(pairs)


@lru_cache(maxsize=None)
def _modulus_scales(h: int) -> tuple[np.ndarray, np.ndarray]:
    """The scales of c_ab and of c_ba in |X_ab|: 1 and 0 on the diagonal,
    1/sqrt(2) off it."""
    off = ~np.eye(h, dtype=bool)
    return np.where(off, _ROOT_HALF, 1.0), np.where(off, _ROOT_HALF, 0.0)


def _planes(coords: np.ndarray) -> np.ndarray:
    """The coordinate-major copy of a (..., h, h) stack of coordinates: an
    (h^2, n) array whose row a h + b holds the coordinate (a, b) of every
    block, so that a reduction over a block's entries runs across h^2
    contiguous planes, not over short trailing axes."""
    hh = coords.shape[-1] ** 2
    flat = coords.reshape(coords.shape[:-2] + (hh,))
    return flat.transpose((flat.ndim - 1, *range(flat.ndim - 1))).reshape(hh, -1)


def _plane_moduli(planes: np.ndarray, h: int) -> np.ndarray:
    """``entry_moduli`` on the planes of ``_planes``: the same complex
    numbers, plane by plane, so the same moduli bit for bit."""
    own, partner = _modulus_scales(h)
    pairs = np.empty(planes.shape, dtype=complex)
    with np.errstate(invalid="ignore"):  # inf * 0 on the diagonal, as in entry_moduli
        np.multiply(planes, own.reshape(-1, 1), out=pairs.real)
        np.multiply(planes[_pairs(h)[2]], partner.reshape(-1, 1), out=pairs.imag)
    return np.abs(pairs)


def _largest_moduli(coords: np.ndarray, planes: np.ndarray | None = None) -> np.ndarray:
    """Per block, the largest of its ``entry_moduli``.  At h = 1 that is
    |c| (reducing over a one-wide axis costs ten times as much on a large
    piece); above, the square root of the largest (c_ab^2 + c_ba^2) / 2 over
    the pairs a <= b (c_aa^2 on the diagonal, whose root is |c_aa|
    exactly), taken across the ``_planes`` of the stack (passed in if the
    caller holds them).  A block whose squares overflow or lose digits, its
    result not finite, past 1e150, or below 1e-150 but not 0, is taken
    again from its moduli; one whose entries are all below 1e-162, every
    square 0, reads 0."""
    h = coords.shape[-1]
    if h == 1:
        return np.abs(coords[..., 0, 0])
    upper, lower, _ = _pairs(h)
    planes = _planes(coords) if planes is None else planes
    with np.errstate(over="ignore", invalid="ignore"):
        squares = planes * planes
        largest = np.sqrt((squares[upper] + squares[lower]).max(axis=0) * 0.5)
    redo = ~(largest < 1e150) | (largest < 1e-150) & (largest > 0)
    if redo.any():
        largest[redo] = _plane_moduli(planes[:, redo], h).max(axis=0)
    return largest.reshape(coords.shape[:-2])


@lru_cache(maxsize=None)
def _pairs(h: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The flat indices a h + b and b h + a of the pairs a <= b, and the
    flat index b h + a of every entry a h + b."""
    a, b = np.triu_indices(h)
    return a * h + b, b * h + a, np.arange(h * h).reshape(h, h).T.ravel()


def _nonzero_blocks(array: np.ndarray) -> np.ndarray:
    """Per block of a (..., h, h) complex array, whether an entry is nonzero
    (NaN counts): the boolean product of its parts' nonzero flags with ones,
    their any.  Reducing over the short trailing axes instead costs twice
    as much on a family's array."""
    parts = np.ascontiguousarray(array).view(float).reshape(array.shape[:-2] + (-1,))
    return (parts != 0) @ np.ones(parts.shape[-1], dtype=bool)


def _as_block(matrix, h_dim: int) -> np.ndarray:
    arr = np.asarray(matrix, dtype=complex)
    if arr.shape != (h_dim, h_dim):
        raise ValueError(f"block has shape {arr.shape}, expected ({h_dim}, {h_dim})")
    return arr


class _PositionArray:
    """Shape of an array whose first axis is the position and last the h axis."""

    def __post_init__(self):
        # What is cached from the array must never go stale: keep a
        # read-only copy of an array the caller could still write to.
        if self.array.flags.writeable or self.array.base is not None:
            array = self.array.copy()
            array.setflags(write=False)
            object.__setattr__(self, "array", array)

    @property
    def d_size(self) -> int:
        return self.array.shape[0]

    @property
    def h_dim(self) -> int:
        return self.array.shape[-1]


@dataclass(frozen=True)
class KrausFamily(_PositionArray):
    """Kraus blocks as one dense array: ``array[i, j, k]`` is B[i,j;k].

    The array has shape (d, d, d, h, h); an absent block is the zero matrix.
    The Gram blocks (``_gram``) and the superoperators of all d letters, one
    read-only real (d, d h^2, d h^2) stack (``_stack``), both in the real
    coordinates of ``hermitian_coordinates``, are built on first use from
    the nonzero blocks and kept, so every walk and check on one family
    shares them, and so is its ``_two_letter_pass`` against each tensor.
    ``truncation_radius`` tags families realized from a truncated tensor:
    blocks in rows (k, j) with k + j beyond the radius are an arbitrary
    completion (kept only so each map stays trace preserving) and nothing
    computed through them is certified.
    """

    array: np.ndarray
    truncation_radius: int | None = None

    def block(self, i: int, j: int, k: int) -> np.ndarray:
        return self.array[i, j, k]

    @cached_property
    def blocks(self) -> dict[tuple[int, int, int], np.ndarray]:
        """The nonzero blocks keyed by (i, j, k), in index order."""
        nonzero = np.argwhere(_nonzero_blocks(self.array)).tolist()
        return {tuple(idx): self.array[tuple(idx)] for idx in nonzero}

    @cached_property
    def _nonzero(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The indices k, i, j of the nonzero blocks (NaN counts) and the
        (n, h, h) blocks themselves."""
        i, j, k = np.nonzero(_nonzero_blocks(self.array))
        return k, i, j, self.array[i, j, k]

    @cached_property
    def _gram(self) -> np.ndarray:
        """The coordinates of B[i,j;k]^* B[i,j;k] at [k, i, j], a real (d,
        d, d, h, h) array: Phi_k^*(E_i) at position j, with E_i the identity
        block at position i.  With w the weights of ``_basis``, the
        coordinate (a, b) of a Hermitian G is 2 Re(w[a, b] G[b, a]): one
        product of the transposed Gram blocks with 2 w.  Built on first use
        from the nonzero blocks.  Blocks too large to square give inf or
        NaN here, which every check reports as its worst residual, so
        numpy's warnings are not raised."""
        d, h = self.d_size, self.h_dim
        k, i, j, blocks = self._nonzero
        gram = np.zeros((d, d, d, h, h))
        with np.errstate(over="ignore", invalid="ignore"):
            transposed = np.einsum("nxa,nxb->nab", blocks, blocks.conj())  # G[b, a], G = B^* B
            gram[k, i, j] = (transposed * (2 * _basis(h)[0])).real
        gram.setflags(write=False)
        return gram

    @cached_property
    def _bounds_masses(self) -> bool:
        """Whether every mass ``one_step_distributions`` forms from checked
        states is finite.  Such a state's blocks are positive within
        EPS_PSD and its total trace is 1 within EPS_PROB, so each coordinate
        is below 2 in modulus, and a mass, d h^2 products with Gram
        coordinates, is below 2 d h^2 times the largest of these."""
        largest = float(np.abs(self._gram).max(initial=0.0))  # NaN if one is NaN
        return 2.0 * self._gram[0, 0].size * largest < np.finfo(float).max

    @cached_property
    def _stack(self) -> np.ndarray:
        """The superoperators of every letter as one read-only real (d, n,
        n) array, n = d h^2, with T_k at [k] (see the module docstring):
        h^2 / 2 times the memory of the array.  States step by it, the
        Heisenberg walker by its transposes.

        Column q of the block (i, j) of T_k holds the coordinates of
        B E_q B^*, B = B[i,j;k] and E_q the basis matrix of q = (a, b)
        (``_basis``).  With w its weight at (a, b) and b_a the column a of
        B, that is Y + Y^* for Y = w b_a b_b^*: twice the coordinates of the
        Hermitian part of Y, one product of all the Y, one broadcast product
        per chunk, with the basis.  Both w and the basis scale each term by
        1/sqrt(2) or less before it is added, so no entry overflows where
        B (x) conj(B) does not, bar the doubling of a sum that does not fit.
        Built on first use from the nonzero blocks only, ``_BUILD_ENTRIES``
        entries of Y at a time, so the build holds no complex temporary of
        the stack's size.  Non-finite entries as in ``_gram``."""
        d, h = self.d_size, self.h_dim
        hh = h * h
        k, i, j, blocks = self._nonzero
        weights, basis = _basis(h)
        weights = weights[:, :, None, None]
        stack = np.zeros((d, d, hh, d, hh))
        step = max(1, _BUILD_ENTRIES // (hh * hh))
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, len(k), step):
                part = slice(start, start + step)
                columns = blocks[part].swapaxes(1, 2)  # [n, a, x]: B[x, a]
                y = np.multiply(columns[:, :, None, :, None] * weights,
                                columns.conj()[:, None, :, None, :], order="C")  # [n, a, b, x, y]
                t_blocks = (y.view(float).reshape(-1, 2 * hh) @ basis).reshape(-1, hh, hh)
                stack[k[part], i[part], :, j[part]] = 2 * t_blocks.transpose(0, 2, 1)
        stack = stack.reshape(d, d * hh, d * hh)
        stack.setflags(write=False)
        return stack

    @cached_property
    def _passes(self) -> weakref.WeakKeyDictionary:  # the _two_letter_pass per live tensor
        return weakref.WeakKeyDictionary()

    def __getstate__(self):  # a weak dictionary does not pickle: a copy forms its own passes
        return {name: value for name, value in self.__dict__.items() if name != "_passes"}


# Entries that building ``KrausFamily._stack`` forms at a time.
_BUILD_ENTRIES = 2**16


def kraus_family(
    d_size: int,
    h_dim: int,
    blocks: Mapping[tuple[int, int, int], "np.ndarray"],
    truncation_radius: int | None = None,
) -> KrausFamily:
    """Build a family from an (i, j, k) -> matrix map; absent blocks are zero."""
    if d_size <= 0 or h_dim <= 0:
        raise ValueError("d_size and h_dim must be positive")
    truncation_radius = check_radius(truncation_radius, "truncation radius")
    array = np.zeros((d_size, d_size, d_size, h_dim, h_dim), dtype=complex)
    for (i, j, k), matrix in blocks.items():
        if not all(0 <= idx < d_size for idx in (i, j, k)):
            raise ValueError(f"block index {(i, j, k)} out of range")
        arr = _as_block(matrix, h_dim)
        if not np.isfinite(arr).all():
            raise ValueError(f"block {(i, j, k)} has non-finite entries")
        array[i, j, k] = arr
    array.setflags(write=False)
    return KrausFamily(array=array, truncation_radius=truncation_radius)


def validate_kraus(family: KrausFamily, tol: float = EPS_KRAUS) -> Report:
    """Check sum_i B[i,j;k]^* B[i,j;k] = 1 for every (j, k), in max norm."""
    sums = family._gram.sum(axis=1)  # the identity's coordinates are the identity
    residuals = _largest_moduli(sums - np.eye(family.h_dim)).T  # [j, k]
    return scan_report("completeness", residuals.ravel(), lambda n: divmod(n, family.d_size), tol)


@dataclass(frozen=True)
class BlockState(_PositionArray):
    """Block-diagonal density operator as a (d, h, h) stack of its diagonal
    blocks: one PSD block per position, total trace 1."""

    array: np.ndarray
    # Set by ``block_state`` once ``_check_states`` passed the array.
    _checked: bool = field(default=False, init=False, repr=False, compare=False)

    @property
    def blocks(self) -> tuple[np.ndarray, ...]:
        return tuple(self.array)

    @cached_property
    def _coordinates(self) -> np.ndarray:
        """The coordinates of the blocks (``hermitian_coordinates``), which
        every walk from this state steps.  A state not checked by
        ``block_state`` whose Hermitian gap max |X - X^*| is not within
        EPS_PSD, and whose coordinates (of its Hermitian part) are finite,
        is refused as ``_check_states`` refuses it: a walk never projects
        its start onto its Hermitian part.  Non-finite coordinates pass on
        to the walk, whose state checks refuse them."""
        coords = hermitian_coordinates(self.array)
        if not self._checked:
            with np.errstate(invalid="ignore"):
                gap = np.abs(self.array - self.array.conj().swapaxes(-1, -2)).max()
            if not gap <= EPS_PSD and np.isfinite(coords).all():
                _check_states(self.array)
        coords.setflags(write=False)
        return coords


# Entries of the states a walk holds for one ``_certified`` call.
_CHECK_ENTRIES = 2**12


def _certified(coords: np.ndarray) -> bool:
    """Whether every state of an (S, d, h, h) stack of coordinates passes
    ``_check_states`` as the exactly Hermitian blocks they stand for
    (``hermitian_blocks``), from that scan's own numbers reduced over the
    stack: the total traces (sums of the diagonal coordinates), the
    Gershgorin rows (twice the diagonal coordinate less the row's
    ``entry_moduli``), and ``eigvalsh`` on the rebuilt blocks those leave
    uncertain.  A non-finite coordinate makes a row NaN or -inf (a valid
    state's coordinates are at most 1), which never passes."""
    with np.errstate(over="ignore", invalid="ignore"):
        total = np.trace(coords, axis1=-2, axis2=-1).sum(axis=-1)
        if not np.abs(total - 1.0).max() <= EPS_PROB:
            return False
        rows = 2 * np.diagonal(coords, axis1=-2, axis2=-1) - entry_moduli(coords).sum(axis=-1)
    least = rows.min(axis=-1)
    lowest = least.min()
    if lowest >= 0:
        return True
    if not lowest > -np.inf:  # NaN or -inf: eigvalsh never sees a non-finite block
        return False
    return np.linalg.eigvalsh(hermitian_blocks(coords[least < 0]))[..., 0].min() >= -EPS_PSD


def _check_states(stack: np.ndarray) -> None:
    """Raise ValueError for the first invalid state (in C order) of a
    (..., d, h, h) stack of complex blocks, naming its first bad block,
    else its trace: the check of record, which words every refusal.

    A block's least eigenvalue is taken with ``eigvalsh`` only where the
    Gershgorin bound (per row, the diagonal entry less the other entries'
    moduli) cannot certify it as nonnegative.  Blocks are certified only at
    a bound >= 0: a certified block has a nonnegative diagonal, so in a
    state that passes its entries are at most the total trace 1, and the
    round-off in its bound is far below EPS_PSD.  Walked states are
    certified in coordinates first (``_certified``); this scan runs on
    blocks that enter as complex values, and on walked stacks that the
    certificate cannot pass."""
    flat = stack.reshape((-1,) + stack.shape[-3:])
    finite = np.isfinite(flat).all(axis=(-2, -1))
    # Non-finite blocks are refused by name below, not by these sums.
    with np.errstate(invalid="ignore"):
        adjoint = flat.conj().swapaxes(-1, -2)
        hermitian = np.abs(flat - adjoint).max(axis=(-2, -1)) <= EPS_PSD
        symmetric = (flat + adjoint) / 2
        # Twice the real diagonal entry less the row's moduli is >= 0
        # exactly where the diagonal entry covers the other moduli.
        rows = 2 * np.diagonal(symmetric, axis1=-2, axis2=-1).real - np.abs(symmetric).sum(axis=-1)
    # eigvalsh can fail to converge on a non-finite block, so it never sees one.
    uncertain = finite & ~(rows.min(axis=-1) >= 0)
    eigmin = np.zeros(finite.shape)
    if uncertain.any():
        eigmin[uncertain] = np.linalg.eigvalsh(symmetric[uncertain])[..., 0]
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


def block_state(blocks: Sequence[np.ndarray], validate: bool = True) -> BlockState:
    if len(blocks) == 0:
        raise ValueError("state needs at least one block")
    h = np.asarray(blocks[0]).shape[0]
    if h == 0:
        raise ValueError("state blocks must be at least 1x1")
    array = np.stack([_as_block(b, h) for b in blocks])
    if validate:
        _check_states(array)
    array.setflags(write=False)
    state = BlockState(array=array)
    object.__setattr__(state, "_checked", validate)
    return state


def point_state(rho0: np.ndarray, site: int, d_size: int) -> BlockState:
    """State rho0 concentrated at one position."""
    site = _vertex_index(site, "site")
    if not 0 <= site < d_size:
        raise ValueError(f"site {site} out of range for d_size {d_size}")
    rho0 = np.asarray(rho0, dtype=complex)
    blocks = np.zeros((d_size,) + rho0.shape, dtype=complex)
    blocks[site] = rho0
    return block_state(blocks)


def maximally_mixed_state(h_dim: int, d_size: int, site: int = 0) -> BlockState:
    return point_state(np.eye(h_dim, dtype=complex) / h_dim, site, d_size)


def state_from_density(rho: np.ndarray, h_dim: int, d_size: int) -> BlockState:
    """Extract the diagonal blocks rho_j of a full density matrix.

    Off-diagonal blocks are discarded: every walk step and every distribution
    depends only on the diagonal blocks, so nothing observable is lost.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (h_dim * d_size, h_dim * d_size):
        raise ValueError(f"density matrix has shape {rho.shape}")
    diagonal = np.arange(d_size)
    return block_state(rho.reshape(d_size, h_dim, d_size, h_dim)[diagonal, :, diagonal])


def _apply(family: KrausFamily, k: int, stack: np.ndarray) -> np.ndarray:
    """The distance-k map on a (..., d, h, h) stack of state coordinates,
    unvalidated."""
    vectors = stack.reshape(-1, family.d_size * family.h_dim**2)
    return (vectors @ family._stack[k].T).reshape(stack.shape)


def _apply_reached(family: KrausFamily, k: int, coords: np.ndarray) -> np.ndarray:
    """``_apply`` on one state's (d, h, h) coordinates.  A result that is not
    finite is formed again, under the caller's numpy error state, from the
    occupied positions only: a non-finite T_k block at an empty one is unread."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = _apply(family, k, coords)
    if np.isfinite(out).all():
        return out
    occupied = coords.any(axis=(-2, -1))  # NaN counts
    columns = family._stack[k].reshape(-1, family.d_size, family.h_dim**2)[:, occupied]
    return (columns.reshape(len(columns), -1) @ coords[occupied].ravel()).reshape(coords.shape)


def _complex_map(family: KrausFamily, k: int, blocks: np.ndarray) -> np.ndarray:
    """The distance-k map on a (d, h, h) stack of complex blocks, by the
    complex superoperator of this one letter, B (x) conj(B) at its (i, j)
    block, B = B[i,j;k], with no numpy warning: how a refusal's numbers are
    formed."""
    b = family.array[:, :, k]
    with np.errstate(over="ignore", invalid="ignore"):
        transfer = np.einsum("ijab,ijce->iacjbe", b, b.conj()).reshape(blocks.size, -1)
        return (transfer @ blocks.ravel()).reshape(blocks.shape)


def one_step_distributions(family: KrausFamily, stack: np.ndarray,
                           checked: bool = False) -> np.ndarray:
    """Mass at i after the m-map, at [..., m, i], for a (..., d, h, h) stack
    of state coordinates: sum_j tr(B[i,j;m]^* B[i,j;m] rho_j), the dot
    products of the coordinates, one product with a view of the Gram array.
    A mass that is not finite is formed again, as ``_apply_reached`` forms
    a state, from the occupied positions only (0 * inf is unread).  States
    ``checked`` (each passed the state checks) on a family whose Gram array
    bounds their masses (``KrausFamily._bounds_masses``) skip that scan."""
    d, flat = family.d_size, stack.reshape(stack.shape[:-3] + (-1,))
    if checked and family._bounds_masses:
        return (flat @ family._gram.reshape(d * d, -1).T).reshape(stack.shape[:-3] + (d, d))
    with np.errstate(over="ignore", invalid="ignore"):
        masses = flat @ family._gram.reshape(d * d, -1).T
    if not np.isfinite(masses).all():
        rows, states = masses.reshape(-1, d * d), stack.reshape((-1,) + stack.shape[-3:])
        for n in np.flatnonzero(~np.isfinite(rows).all(axis=1)).tolist():
            bad, occupied = ~np.isfinite(rows[n]), states[n].any(axis=(-2, -1))  # NaN counts
            gram = family._gram[:, :, occupied].reshape(d * d, -1)
            rows[n, bad] = (gram @ states[n, occupied].ravel())[bad]
    return masses.reshape(stack.shape[:-3] + (d, d))


def _checked_walk(family: KrausFamily, state: BlockState, word: Word = (),
                  radius: int | None = None) -> tuple[int, ...]:
    """Check a walk's inputs once at entry; returns the word as a tuple of
    ints.  A bool or non-integral letter is refused, as in ``graphs``.

    With a truncation ``radius``, a walk is certified only from the
    positions j with j + sum(word) within it: TruncationExceededError names
    the first position of the state's support past that, and the letter sum.
    """
    if state.d_size != family.d_size or state.h_dim != family.h_dim:
        raise ValueError("state and family dimensions disagree")
    word = tuple(_vertex_index(k, "letter") for k in word)
    for k in word:
        if not (0 <= k < family.d_size):
            raise ValueError(f"letter {k} out of range for size {family.d_size}")
    if radius is not None:
        support = np.flatnonzero(state.array.any(axis=(-2, -1)))
        past = support[support + sum(word) > radius]
        if past.size:
            j, total = int(past[0]), sum(word)
            raise TruncationExceededError(j, total, radius, (
                f"a walk of letter sum {total} from position {j} leaves the truncation "
                f"radius {radius}"))
    return word


def step(family: KrausFamily, k: int, state: BlockState) -> BlockState:
    """One application of the distance-k map: rho'_i = sum_j B rho_j B^*.
    The state returned passed the state checks, so it is marked checked as
    ``block_state`` marks the states it validates."""
    (k,) = _checked_walk(family, state, (k,))
    coords = _apply_reached(family, k, state._coordinates)
    blocks = hermitian_blocks(coords)
    if not _certified(coords[None]):
        _check_states(blocks)
    stepped = block_state(blocks, validate=False)
    object.__setattr__(stepped, "_checked", True)
    return stepped


def distribution(state: BlockState) -> np.ndarray:
    """Measured position distribution: the block traces."""
    return np.trace(state.array, axis1=-2, axis2=-1).real


def walk_distribution(family: KrausFamily, word: Word, state0: BlockState) -> np.ndarray:
    """Distribution after applying the maps of ``word`` in order to ``state0``.

    The state after each letter is held, up to ``_CHECK_ENTRIES`` entries
    of states at a time, and each batch of held states is certified at once
    (``_certified``), so memory stays the same whatever the word's length.
    A batch's letters run with numpy's overflow and invalid warnings off.  A
    batch that is not certified runs again, checking the state after every
    letter (``_apply_reached``), so a walk refuses the first invalid state it
    reaches as a walk checked letter by letter does.  The walk steps state
    coordinates (``BlockState._coordinates``) and certifies them as they
    are; only that rerun reads them as complex blocks, to word its refusal.

    On a truncated family the state's support must stay within the radius
    less the word's letter sum (see ``_checked_walk``)."""
    word = _checked_walk(family, state0, word, family.truncation_radius)
    stack = state0._coordinates
    batch = max(1, _CHECK_ENTRIES // stack.size)
    held = np.empty((min(batch, len(word)),) + stack.shape)
    for start in range(0, len(word), batch):
        letters, before = word[start:start + batch], stack
        with np.errstate(over="ignore", invalid="ignore"):
            for n, k in enumerate(letters):
                held[n] = stack = _apply(family, k, stack)
        if not _certified(held[:len(letters)]):
            for k in letters:
                before = _apply_reached(family, k, before)
                _check_states(hermitian_blocks(before))
            stack = before
    return np.trace(stack, axis1=-2, axis2=-1)


def produced_tensor(family: KrausFamily, state0: BlockState) -> StructureTensor:
    """Structure constants read off the two-step walk distributions.

    Entry Q[k, l, m] is the mass at position m after applying the l-map and
    then the k-map to the initial state, ``one_step_distributions`` of the
    checked states Phi_l(rho0).  A truncated family produces the rows with
    k + l within its radius, from a start certified for the largest such sum.
    A one-letter state or a mass that is not finite is formed again from
    the positions the start or the state occupies (``_apply_reached``,
    ``one_step_distributions``), so that an overflowing block at an empty
    position does not count (0 * inf); a mass still not finite is refused.
    A refused one-letter state is refused as the complex maps form it from
    the start (``_complex_map``), so the numbers in the refusal are those of
    a two-step walk in complex entries.
    """
    d, radius = family.d_size, family.truncation_radius
    longest = 2 * (d - 1) if radius is None else min(radius, 2 * (d - 1))
    _checked_walk(family, state0, (min(longest, d - 1), max(0, longest - d + 1)), radius)
    letters = d if radius is None else min(d, radius + 1)
    rho = state0._coordinates
    with np.errstate(over="ignore", invalid="ignore"):
        firsts = (family._stack[:letters] @ rho.ravel()).reshape((letters,) + rho.shape)
    if not _certified(firsts):
        for l in np.flatnonzero(~np.isfinite(firsts).all(axis=(1, 2, 3))).tolist():
            firsts[l] = _apply_reached(family, l, rho)  # not finite: formed as a walk forms it
        try:
            _check_states(hermitian_blocks(firsts))
        except ValueError:
            _check_states(np.array([_complex_map(family, l, state0.array) for l in range(letters)]))
            raise
    masses = one_step_distributions(family, firsts, checked=True)  # [l, k, m]
    if radius is not None:
        masses[np.add.outer(np.arange(letters), np.arange(d)) > radius] = 0.0
    if not np.isfinite(masses).all():
        l, k, m = np.argwhere(~np.isfinite(masses))[0].tolist()
        raise ValueError(f"mass at {m} after the word ({l}, {k}) is not finite")
    # Word (l, k) applies the l-map first: its distribution is the row Q[k, l].
    cube = np.zeros((d,) * 3)
    cube[:, :letters] = np.where(masses > 1e-14, masses, 0.0).swapaxes(0, 1)
    cube.setflags(write=False)
    return check_rows(StructureTensor(cube, None, radius))


def realize(
    tensor_or_hypergroup,
    h_dim: int = 1,
    isometries: Mapping[tuple[int, int, int], np.ndarray] | Callable | None = None,
    rho0: np.ndarray | None = None,
) -> tuple[KrausFamily, BlockState]:
    """Build the walk whose two-step statistics reproduce the given constants.

    Blocks are B[i,j;k] = sqrt(Q[k,j,i]) U[i,j;k] with isometries U (identity
    by default), and the initial state is rho0 at position 0 (maximally mixed
    by default).  The input must be row stochastic; rows of a truncated
    tensor that are out of range get an arbitrary deterministic completion so
    each map stays trace preserving, and the family is tagged with the same
    truncation radius.
    """
    tensor: StructureTensor = getattr(tensor_or_hypergroup, "tensor", tensor_or_hypergroup)
    if h_dim <= 0:
        raise ValueError("h_dim must be positive")
    d = tensor.size
    if d <= 0:
        raise ValueError("d_size and h_dim must be positive")
    eye = np.eye(h_dim, dtype=complex)
    # One block per nonzero constant, in (k, j, i) order: a callable is
    # called once per block in that order, and refusals name the first block.
    k, j, i = np.nonzero(tensor.cube)
    units = np.broadcast_to(eye, (k.size, h_dim, h_dim))
    if isometries:
        keys = list(zip(i.tolist(), j.tolist(), k.tolist()))
        supplied = []
        try:
            for key in keys:
                u = isometries(*key) if callable(isometries) else isometries.get(key)
                supplied.append(eye if u is None else _as_block(u, h_dim))
        finally:
            # A non-isometry is refused before any error of a later block.
            units = np.array(supplied).reshape(-1, h_dim, h_dim)
            gaps = np.abs(units.conj().swapaxes(-1, -2) @ units - eye)
            # Blocks are reduced only on failure; a NaN block is refused below, as non-finite.
            failing = (gaps > EPS_KRAUS).any() and gaps.max(axis=(-2, -1)) > EPS_KRAUS
            if np.any(failing):
                raise ValueError(
                    f"supplied matrix for {keys[int(np.argmax(failing))]} is not an isometry")
    truncation_radius = check_radius(tensor.truncation_radius, "truncation radius")
    array = np.zeros((d, d, d, h_dim, h_dim), dtype=complex)
    array[i, j, k] = np.sqrt(tensor.to_float().cube[k, j, i])[:, None, None] * units
    # Arbitrary completion outside the certified rows.
    k, j = np.nonzero(~tensor.domain)
    array[np.abs(j - k), j, k] = eye
    if not np.isfinite(array.view(float)).all():
        bad = ~np.isfinite(array).all(axis=(-2, -1)).T  # [k, j, i]
        k, j, i = np.unravel_index(int(np.argmax(bad)), bad.shape)
        raise ValueError(f"block {(int(i), int(j), int(k))} has non-finite entries")
    array.setflags(write=False)
    family = KrausFamily(array=array, truncation_radius=truncation_radius)
    return family, point_state(eye / h_dim if rho0 is None else rho0, 0, d)


def common_radius(family: KrausFamily, tensor: StructureTensor) -> int | None:
    """The smaller of the two truncation radii, if either is set."""
    radii = [r for r in (family.truncation_radius, tensor.truncation_radius) if r is not None]
    return min(radii) if radii else None


# Entries of the observables a piece of ``heisenberg_levels`` forms (at
# least one letter of d rows): its products and reductions run per piece.
_LEVEL_ENTRIES = 2**14


def _reach(family: KrausFamily) -> np.ndarray:
    """``reach[c, k]``: Phi_k^* reads the starts j < c from the positions
    m < reach[c, k] alone, those with a block B[m, j; k] (NaN counts)."""
    d = family.d_size
    nonzero = _nonzero_blocks(family.array)  # [m, j, k]
    last = np.where(nonzero.any(axis=0), d - 1 - np.argmax(nonzero[::-1], axis=0), -1)
    return np.vstack([np.zeros((1, d), dtype=int), np.maximum.accumulate(last, axis=0) + 1])


def _kept_starts(reach: np.ndarray, max_len: int) -> np.ndarray:
    """``kept[r, b]``: the starts j < kept[r, b] that Phi_u^*(E_i) must keep
    for a reversed word u with b left of its letter-sum budget, when up to r
    more letters may extend it: its own window j <= b, and every position
    that a longer word's kept starts are read from.  A budget of d - 1 or
    more keeps every start."""
    d = reach.shape[1]
    kept = np.empty((max_len, d), dtype=int)
    kept[0] = np.arange(1, d + 1)
    for r in range(1, max_len):
        kept[r] = kept[0]
        for b in range(d):
            for k in range(b + 1):
                kept[r, b] = max(kept[r, b], reach[kept[r - 1, b - k], k])
    return kept


def heisenberg_levels(family: KrausFamily, tensor: StructureTensor, max_len: int,
                      radius: int | None):
    """The walk-minus-mixture observables of the words of 2 to ``max_len``
    letters with letter sum within ``radius``, one level at a time.

    With E_i the identity block at position i, the word w = (k1, ..., kn),
    k1 applied first, moves mass tr(X rho) to position i with X =
    Phi_{k1}^*(...Phi_{kn}^*(E_i)), and its mixture moves tr(M rho) with M =
    sum_m q_m Phi_m^*(E_i), q the fold of the reversed word u = (kn, ...,
    k1).  The levels walk the prefix trie of u from the Gram array: adding
    a letter l applies Phi_l^* last, a row of coordinates times
    ``_stack[l]``.  A level is kept by letter sum (level 1 as one group),
    with its folds, at the starts ``_kept_starts`` names.  A group is
    extended a chunk of consecutive letters at a time, one batched product
    with ``_stack[l0:stop]`` of every row l0 admits, of at most
    ``_LEVEL_ENTRIES`` entries or one letter (its rows in blocks of d times
    that).  Letter l0 and the first row set the windows; only a two-letter
    walk's pieces hold later words past theirs, or past the radius.  The
    folds of two letters are the cube rows Q[k, l], longer ones come from
    ``fold_level``.  Memory stays O(d^3 h^2 + d^2 h^4) plus the kept level.

    Yields, per length from 2, an iterator over the level's pieces (rows,
    letters, D): the n reversed words extended, the L letters, and D = X -
    M as an (L, n, d, win, h, h) array of coordinates, D[a, b] for u =
    rows[b] + (letters[a],), at the starts j < win (all d when ``radius``
    is None); non-finite entries as in ``KrausFamily._gram``.  Each word
    within the radius is in one piece, whose starts cover its window.
    The next level extends the whole of this one, the pieces not read too.
    """
    if family.d_size != tensor.size:
        raise ValueError(f"size mismatch: family {family.d_size}, tensor {tensor.size}")
    d, h = family.d_size, family.h_dim
    hh = h * h
    # Past every letter sum, as is any larger radius, which need not fit int64.
    cap = max_len * d
    cap = cap if radius is None else min(radius, cap)
    gram = family._gram.reshape(d, d, d * hh)  # [m, i, (j, b, c)]: Phi_m^*(E_i) at j
    by_position = gram.swapaxes(0, 1)  # [i, m, (j, b, c)]
    floats = tensor.to_float().cube  # Q[k, l, m]; rows outside a truncation are zero
    if radius is not None and max_len > 2:
        reach = _reach(family)
        kept = _kept_starts(reach, max_len - 1)

    def starts(budget, r):
        """The starts kept for a word with ``budget`` left and r letters to come."""
        if budget is None:
            return d
        return min(d, budget + 1) if r == 0 else int(kept[r, min(budget, d - 1)])

    def extended(level, length, nxt):
        """The pieces of ``length`` letters, kept in ``nxt`` unless None."""
        scale = tensor.denominator ** (length - 1) if tensor.is_exact else None
        while level:
            _, parts = level.popitem()
            words, sums, folds, stack = (part[0] if len(part) == 1 else np.concatenate(part)
                                         for part in zip(*parts))
            del parts
            first, width = int(sums[0]), stack.shape[-1] // hh

            def windows(l):
                """The rows l admits, and the starts the first row's word keeps and checks."""
                child = None if radius is None else radius - first - l
                return (int(sums.searchsorted(cap - l, side="right")),
                        starts(child, max_len - length), starts(child, 0))

            l0, end = 0, min(d, cap - first + 1)
            if length > 2:  # a group's rows share a letter sum: one fold for all its words
                letter, row = np.indices((end, len(words))).reshape(2, -1)
                numerators = fold_level(tensor, folds, row, letter, length).reshape(end, -1, d)
                mixed = numerators if scale is None else quotients(numerators, scale)
            while l0 < end:
                admitted, cols, win = shared = windows(l0)
                per_row = d * cols * hh  # the entries a letter forms per row
                block = max(d, _LEVEL_ENTRIES * d // per_row)
                stop = min(end, l0 + max(1, _LEVEL_ENTRIES // (admitted * per_row)))
                if radius is not None and (nxt is not None or length > 2):
                    # Bits change with a product's width: a piece's letters share its windows.
                    stop = next((l for l in range(l0 + 1, stop) if windows(l) != shared), stop)
                # Past level 1, rows are read only where T_l reaches the kept starts from.
                feed = (width if length == 2 or radius is None
                        else min(width, int(reach[cols, l0:stop].max())))
                transfer = family._stack[l0:stop, :feed * hh, :cols * hh]
                ls = np.arange(l0, stop)
                for start in range(0, admitted, block):
                    part = slice(start, min(admitted, start + block))
                    shape = (len(ls), part.stop - start)
                    # The rows of level 1 are its letters k: Q[k, l] at [l - l0, k].
                    q = (floats[part, l0:stop].swapaxes(0, 1) if length == 2
                         else mixed[l0:stop, part])
                    with np.errstate(over="ignore", invalid="ignore"):
                        x = np.matmul(stack[part, :, :feed * hh].reshape(-1, feed * hh), transfer)
                        x = x.reshape(shape + (d, cols * hh))
                        blocks = x[..., :win * hh] if nxt is None else x[..., :win * hh].copy()
                        # Less the mixture as [i, (l - l0, row), (j, b, c)], one product per i.
                        blocks -= np.matmul(q.reshape(-1, d), by_position[:, :, :win * hh]).reshape(
                            (d,) + shape + (win * hh,)).transpose(1, 2, 0, 3)
                    yield words[part], ls, blocks.reshape(shape + (d, win, h, h))
                    if nxt is None:
                        continue
                    u = np.column_stack([np.tile(words[part], (len(ls), 1)), ls.repeat(shape[1])])
                    folded = (tensor.cube[part, l0:stop].swapaxes(0, 1) if length == 2
                              else numerators[l0:stop, part]).reshape(-1, d)
                    x = x.reshape(len(u), d, -1)
                    # Untruncated, a level is one group: every start is kept and checked.
                    totals = u.sum(axis=1) if radius is not None else np.zeros(len(u), dtype=int)
                    sums_kept = np.unique(totals).tolist()  # a kept level's words are all within
                    for total in sums_kept:
                        within = slice(None) if len(sums_kept) == 1 else totals == total
                        keep = starts(None if radius is None else radius - total, max_len - length)
                        nxt.setdefault(total, []).append(
                            (u[within], totals[within], folded[within], x[within, :, :keep * hh]))
                l0 = stop

    letters = np.arange(min(d, cap + 1))
    # sum -> [(words u, ascending letter sums or 0s, folds, X as [u, i, (j, b, c)])]
    level = {None: [(letters[:, None], letters, None, gram[:len(letters)])]}
    for length in range(2, max_len):
        nxt = {}
        yield (pieces := extended(level, length, nxt))
        deque(pieces, maxlen=0)  # the next level extends the whole of this one
        level = nxt
    yield extended(level, max_len, None)


def _two_letter_pass(family: KrausFamily, tensor: StructureTensor, pieces=None) -> tuple:
    """The pass of the family against the tensor, kept on the family: the
    two-letter pieces of a ``heisenberg_levels`` walk (``pieces``, formed if
    None; left unread if a pass is kept), each reduced in turn over its
    cases (word, i, j) with k + l + j within the common radius.  It holds
    ``check_hb``'s first worst residual per piece ((k, l), value, (i, j, k,
    l)), in (k, l) order, and the checked tuples (Theorem 5.1's two-letter
    cases); ``holds``, every piece within EPS_HB (Theorem 5.1's branch); and
    if it does, the first worst block norm of the two-letter cases and its
    bound (``_Candidates``): one ``_block_norms`` call after the last piece,
    on the blocks that the residuals, their largest entries, let reach it.
    O(d^2)."""
    if tensor in family._passes:
        return family._passes[tensor]
    radius = common_radius(family, tensor)
    hb, checked, holds, found = [], 0, True, _Candidates(family.h_dim, 2)
    for rows, letters, blocks in pieces or next(heisenberg_levels(family, tensor, 2, radius)):
        entries = _largest_moduli(blocks)  # [l - l0, row, i, j]
        if radius is None:
            checked += entries.size
        else:  # a case past the radius reads -1
            within = np.add.outer(np.add.outer(letters, rows[:, 0]), np.arange(blocks.shape[3]))
            within = within <= radius
            np.copyto(entries, -1.0, where=~within[:, :, None])
            checked += int(np.count_nonzero(within)) * blocks.shape[2]
        worst, (a, b, i, j) = _worst_entry(entries)
        k, l = int(rows[b, 0]), int(letters[a])
        hb.append(((k, l), worst, (i, j, k, l)))
        holds = holds and worst <= EPS_HB
        if holds:
            found.add(rows, letters, blocks, entries, worst)
    hb.sort()  # into (k, l, i, j) order; each (k, l) occurs once
    words, bound = found.worst() if holds else ([], 0.0)
    family._passes[tensor] = kept = hb, checked, holds, words, bound
    return kept


def _worst_entry(entries: np.ndarray) -> tuple[float, tuple[int, int, int, int]]:
    """``worst_residual`` of a piece's [l - l0, row, i, j] residuals read in
    (row, l - l0, i, j) order: the value and its (l - l0, row, i, j) index.
    Only the ties of the largest residual (or the non-finite ones) are
    ordered."""
    top = entries.max()
    tied = np.flatnonzero(entries == top if np.isfinite(top) else ~np.isfinite(entries))
    a, b, i, j = np.unravel_index(tied, entries.shape)
    n = int(np.lexsort((j, i, a, b))[0])
    return float(entries.flat[tied[n]]), (int(a[n]), int(b[n]), int(i[n]), int(j[n]))


# Relative slack of the entry bound by which ``_Candidates`` drops blocks:
# it covers the round-off of a row sum of h moduli and of the squares that
# ``_largest_moduli`` takes.
_NORM_SLACK = 1 + 1e-12
# Entries of the blocks ``_Candidates`` holds before it prunes them again,
# and past half of which it takes their norms early.
_CANDIDATE_ENTRIES = 2**16


class _Candidates:
    """Theorem 5.1's reduction of the blocks of a walk of up to ``max_len``
    letters: the first worst ``_block_norms`` norm in the order of the
    word's length, the word, i, j, from one ``_block_norms`` call after the
    last piece (``worst``).

    A Hermitian h x h block's spectral norm lies between its largest entry
    modulus and h times it, so a block whose h times largest entry (with a
    slack of ``_NORM_SLACK``) lies below the largest entry seen so far
    cannot reach the largest norm: ``add`` holds only the other blocks of a
    piece, and the non-finite ones, with their keys (length, word, padding,
    i, j).  When the held blocks pass ``_CANDIDATE_ENTRIES`` entries they
    are pruned again by the raised bound, and reduced early if half of them
    remain, so memory stays bounded whatever the walk's length.  ``bound``
    is the largest entry of the blocks reduced (carried from a pass to
    longer words), as ``_block_norms`` raises it."""

    def __init__(self, h: int, max_len: int, bound: float = 0.0):
        self.scale, self.hh, self.width = h * _NORM_SLACK, h * h, max_len + 3
        self.bound = self.reach = bound
        self.held, self.size, self.found = [], 0, []  # (keys, blocks, entries); candidates

    def add(self, rows, letters, blocks, entries=None, top=None) -> None:
        """Hold the blocks of a ``heisenberg_levels`` piece that may reach
        the largest norm.  ``entries`` are their largest entries, positive
        at the blocks to reduce, inf at those always held, and ``top`` the
        largest finite one; if None, they are taken here for the nonzero
        blocks (NaN counts), with inf at a non-finite block and at one whose
        entries read 0 (all below 1e-162)."""
        if entries is None:
            planes = _planes(blocks)
            entries = _largest_moduli(blocks, planes)
            top = entries.max()
            if not np.isfinite(top):
                entries[~np.isfinite(entries)] = np.inf
                top = entries.max(where=entries < np.inf, initial=0.0)
            tiny = entries == 0
            if tiny.any():
                entries[tiny & (planes != 0).any(axis=0).reshape(tiny.shape)] = np.inf
        self.reach = max(self.reach, float(top))
        kept = np.flatnonzero(self._kept(entries))
        if not kept.size:
            return
        a, b, i, j = np.unravel_index(kept, entries.shape)
        keys = np.zeros((kept.size, self.width), dtype=int)
        n = rows.shape[1] + 1
        keys[:, 0], keys[:, 1], keys[:, 2:n + 1] = n, letters[a], rows[b, ::-1]
        keys[:, -2], keys[:, -1] = i, j
        self.held.append((keys, blocks.reshape((-1,) + blocks.shape[-2:])[kept],
                          entries.ravel()[kept]))
        self.size += kept.size
        if self.size * self.hh > _CANDIDATE_ENTRIES:
            self._prune()
            if self.size * self.hh > _CANDIDATE_ENTRIES // 2:
                self.found.append(self._reduced())

    def _kept(self, entries: np.ndarray) -> np.ndarray:
        """The blocks whose entries let them reach the largest norm."""
        return entries * self.scale >= self.reach if self.reach > 0 else entries > 0

    def _prune(self) -> None:
        """Drop the held blocks that the raised bound screens out."""
        pruned = []
        for keys, blocks, entries in self.held:
            kept = self._kept(entries)
            pruned.append((keys[kept], blocks[kept], entries[kept]))
        self.held, self.size = pruned, sum(len(entries) for _, _, entries in pruned)

    def _reduced(self) -> tuple:
        """The held blocks' first worst norm as a candidate ((length, word, i,
        j), norm, (word, i, j)), the bound raised by their norms."""
        keys, blocks, _ = (np.concatenate(part) for part in zip(*self.held))
        self.held, self.size = [], 0
        norms, self.bound = _block_norms(blocks, self.bound)
        worst, _ = worst_residual(norms)
        tied = np.flatnonzero(norms == worst if np.isfinite(worst) else ~np.isfinite(norms))
        n = tied[np.lexsort(keys[tied].T[::-1])[0]]
        length, (i, j) = int(keys[n, 0]), keys[n, -2:].tolist()
        word = tuple(keys[n, 1:length + 1].tolist())
        return (length, word, i, j), float(norms[n]), (word, i, j)

    def worst(self) -> tuple[list, float]:
        """The candidates, none for no block held or one per reduction, and
        the bound."""
        self._prune()
        if self.size:
            self.found.append(self._reduced())
        return self.found, self.bound


def _block_norms(blocks: np.ndarray, bound: float) -> tuple[np.ndarray, float]:
    """Spectral norms of the Hermitian blocks with an (n, h, h) stack of
    coordinates (``hermitian_coordinates``) where they can reach ``bound``,
    the largest norm known to be reached.

    A Hermitian block's norm is at least its largest entry and at most its
    largest absolute row sum (Gershgorin), both read off the entry moduli
    of the coordinates (``_block_bounds``), so ``eigvalsh`` runs only on the
    blocks whose row sums reach the bound, raised first to the largest
    entry of this stack, rebuilt as complex blocks.  The others come
    back as 0: they lie below the largest norm.  A non-finite block comes
    back as NaN or inf.  Returns the norms and the raised bound.
    """
    lower, upper = _block_bounds(blocks)
    finite = np.isfinite(lower)
    bound = max(bound, float(lower[finite].max(initial=0.0)))
    exact = finite & (upper >= bound) & (upper > 0)
    norms = np.where(finite, 0.0, lower)
    if exact.any():
        eigenvalues = np.linalg.eigvalsh(hermitian_blocks(blocks[exact]))
        norms[exact] = np.maximum(-eigenvalues[:, 0], eigenvalues[:, -1])
    return norms, bound


def _block_bounds(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The largest entry modulus of each block of an (n, h, h) stack of
    coordinates (NaN or inf exactly where the block is not finite) and its
    largest absolute row sum, across the ``_planes`` of its moduli, each row
    summed in entry order as numpy sums a row of fewer than 8 entries."""
    h = blocks.shape[-1]
    moduli = _plane_moduli(_planes(blocks), h).reshape(h, h, -1)
    with np.errstate(over="ignore"):  # a row sum past the largest float is inf
        return moduli.max(axis=(0, 1)), moduli.sum(axis=1).max(axis=0)


def check_hb(
    family: KrausFamily, tensor: StructureTensor, tol: float = EPS_HB
) -> Report:
    """Operator identity equivalent to walk distributions folding through Q:

        sum_m B[m,j;l]^* B[i,m;k]^* B[i,m;k] B[m,j;l]
            == sum_m Q[k,l,m] B[i,j;m]^* B[i,j;m]

    for all i, j, k, l.  On truncated inputs, tuples needing rows beyond the
    radius (j + k + l past it) are skipped and counted.

    In the Heisenberg picture this reads Phi_l^*(Phi_k^*(E_i)) == sum_m
    Q[k,l,m] Phi_m^*(E_i), level 2 of the ``heisenberg_levels`` walk: the
    residual of a tuple is the largest entry modulus of its block of a
    two-letter piece, each piece's worst kept by the ``_two_letter_pass``
    that ``verify_theorem_5_1`` reads too; only ``tol`` is applied here.
    """
    hb, checked = _two_letter_pass(family, tensor)[:2]
    return scan_report("block-decomposition", [value for _, value, _ in hb], lambda n: hb[n][2],
                       tol, checked=checked, skipped=family.d_size**4 - checked)


def mixture_distribution(
    family: KrausFamily,
    tensor: StructureTensor,
    word: Word,
    state0: BlockState,
) -> np.ndarray:
    """Distribution of the Q-mixture sum_m Q[kn,...,k1; m] M_m(state0).

    The fold runs over the reversed word, matching the order in which the
    walk applies its maps.  On truncated inputs the state's support must stay
    within their common radius less the word's letter sum (see
    ``_checked_walk``).
    """
    word = _checked_walk(family, state0, word, common_radius(family, tensor))
    coeffs = np.array(multi_constants(tensor, word[::-1]), dtype=float)
    return coeffs @ one_step_distributions(family, state0._coordinates, state0._checked)


@dataclass(frozen=True)
class IndependenceVerdict:
    """Outcome of the sufficient-condition tests for linear independence.

    kind is "condition2" (delta-pattern column of isometries), "condition1"
    (a sampled vector separates the blocks of some column), or
    "inconclusive" (neither sufficient condition was established; the true
    status is undecided).
    """

    kind: str
    j0: int | None = None
    xi0: np.ndarray | None = None


def check_linear_independence(
    family: KrausFamily, trials: int = 8, seed: int = 0
) -> IndependenceVerdict:
    """Try the two sufficient conditions for independence of the maps.

    Condition 2 is structural: some column j0 has B[i,j0;k] = delta(i,k) U_k
    with isometric U_k.  Condition 1 is sampled: for some j0 and random unit
    vector xi0, the vectors {B[i,j0;k] xi0}_k are linearly independent for
    every i (tested by singular values over ``trials`` seeded draws).
    """
    d, h = family.d_size, family.h_dim
    diagonal = np.eye(d, dtype=bool)
    for j0 in range(d):
        column = family.array[:, j0]  # [i, k]
        off_diagonal = np.abs(column[~diagonal]).max(initial=0.0)
        grams = family._gram[:, :, j0][diagonal]
        if off_diagonal <= EPS_KRAUS and entry_moduli(grams - np.eye(h)).max() <= EPS_KRAUS:
            return IndependenceVerdict(kind="condition2", j0=j0)

    if d <= h:
        rng = np.random.default_rng(seed)
        for j0 in range(d):
            for _ in range(trials):
                xi = rng.standard_normal(h) + 1j * rng.standard_normal(h)
                xi /= np.linalg.norm(xi)
                # Singular values of the vectors B[i,j0;k] xi (over k), per i.
                sv = np.linalg.svd(family.array[:, j0] @ xi, compute_uv=False)
                if (sv.min(axis=-1) > 1e-8 * np.maximum(1.0, sv.max(axis=-1))).all():
                    return IndependenceVerdict(kind="condition1", j0=j0, xi0=xi)
    return IndependenceVerdict(kind="inconclusive")


def scalar_isometry_defect(matrix: np.ndarray) -> float:
    """Distance of B^*B from the nearest nonnegative multiple of the identity.

    Zero exactly when the matrix is a scalar multiple of an isometry.
    """
    matrix = np.asarray(matrix, dtype=complex)
    gram = matrix.conj().T @ matrix
    scale = float(gram.trace().real) / matrix.shape[1]
    return float(np.abs(gram - scale * np.eye(matrix.shape[1])).max())
