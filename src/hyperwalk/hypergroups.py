"""Finite structure-constant algebras and the discrete-hypergroup axioms.

A structure tensor stores nonnegative constants Q[i,j,k], one probability
row per pair (i, j), so every product of two basis elements is a probability
distribution over the basis.  Tensors built from combinatorial counts are
exact: one cube of integer numerators over one common denominator, and
everything folded out of them stays exact.  Tensors read off numerical
simulations hold floats and are compared with the tolerances below.

Index sets are {0, ..., size-1} with the unit always at index 0.  Structures
whose natural index set is the half-line are represented by a finite
truncation: only the rows (i, j) with i + j <= truncation_radius are stored,
and touching anything else raises TruncationExceededError rather than
renormalizing.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence, Union

import numpy as np

from .errors import (
    AmbiguousInvolutionError,
    HypergroupAxiomError,
    NoCandidateError,
    NotAGroupError,
    NotInvolutiveError,
    TruncationExceededError,
)
from .report import Report, scan_report, worst_case, worst_residual

# Stochasticity and support decisions; inputs are exact at machine precision.
EPS_PROB = 1e-9
# Associativity residuals accumulate one multiply-accumulate chain.
EPS_ASSOC = 1e-8

UNIT = 0

Number = Union[int, float, Fraction]
Word = Sequence[int]


def identity_permutation(size: int) -> tuple[int, ...]:
    return tuple(range(size))


def _check_permutation(perm: Sequence[int], size: int) -> tuple[int, ...]:
    perm = tuple(perm)
    if len(perm) != size or sorted(perm) != list(range(size)):
        raise ValueError(f"not a permutation of 0..{size - 1}: {perm}")
    return perm


@dataclass(frozen=True, eq=False)
class StructureTensor:
    """Nonnegative constants Q[i,j,k] with row sums equal to one, as one
    dense (size, size, size) cube.

    An exact tensor holds integer numerators over one common denominator,
    the lcm of its entries' denominators: Q = cube / denominator, in int64
    when every row sum fits and as Python ints otherwise.  A float tensor
    holds float64 constants and ``denominator`` None.  Rows outside the
    stored domain (i + j > truncation_radius) are zero.
    """

    cube: np.ndarray
    denominator: int | None = None
    truncation_radius: int | None = None

    @property
    def size(self) -> int:
        return self.cube.shape[0]

    @property
    def is_exact(self) -> bool:
        return self.denominator is not None

    @cached_property
    def domain(self) -> np.ndarray:
        """``domain[i, j]``: whether the row (i, j) is stored."""
        domain = np.ones((self.size, self.size), dtype=bool)
        if self.truncation_radius is not None:
            indices = np.arange(self.size)
            domain = np.add.outer(indices, indices) <= self.truncation_radius
        domain.setflags(write=False)
        return domain

    def defined(self, i: int, j: int) -> bool:
        """Whether the row (i, j) is inside the stored domain."""
        return 0 <= i < self.size and 0 <= j < self.size and bool(self.domain[i, j])

    def defined_pairs(self) -> Iterator[tuple[int, int]]:
        return zip(*(axis.tolist() for axis in np.nonzero(self.domain)))

    @cached_property
    def rows(self) -> Mapping[tuple[int, int], Mapping[int, Number]]:
        """Read-only view of the stored rows (i, j) -> {k: Q[i,j,k]} over
        their nonzero entries, in (i, j, k) order: ``Fraction``s on an exact
        tensor, floats on a float tensor."""
        rows: dict[tuple[int, int], dict[int, Number]] = {p: {} for p in self.defined_pairs()}
        i, j, k = (axis.tolist() for axis in np.nonzero((self.cube != 0) & self.domain[:, :, None]))
        values = self.cube[i, j, k].tolist()
        if self.is_exact:
            fractions = {v: Fraction(v, self.denominator) for v in set(values)}
            values = [fractions[v] for v in values]
        for a, b, c, value in zip(i, j, k, values):
            rows[(a, b)][c] = value
        return MappingProxyType({p: MappingProxyType(row) for p, row in rows.items()})

    def row(self, i: int, j: int) -> Mapping[int, Number]:
        if not self.defined(i, j):
            if 0 <= i < self.size and 0 <= j < self.size:
                raise TruncationExceededError(i, j, self.truncation_radius)
            raise IndexError(f"row index ({i}, {j}) out of range for size {self.size}")
        return self.rows[(i, j)]

    def entry(self, i: int, j: int, k: int) -> Number:
        return self.row(i, j).get(k, 0)

    def dense_row(self, i: int, j: int) -> list[Number]:
        out: list[Number] = [0] * self.size
        for k, value in self.row(i, j).items():
            out[k] = value
        return out

    def to_float(self) -> "StructureTensor":
        """The float view, built once: each constant as ``float(Fraction)``."""
        return self._float if self.is_exact else self

    def floats_at(self, index) -> np.ndarray:
        """The float view's constants at ``index`` of the cube, formed from
        those numerators alone: ``quotients`` rounds each on its own."""
        part = self.cube[index]
        return quotients(part, self.denominator) if self.is_exact else part

    @cached_property
    def _float(self) -> "StructureTensor":
        cube = quotients(self.cube, self.denominator)
        cube.setflags(write=False)
        return StructureTensor(cube, None, self.truncation_radius)

    @cached_property
    def growth(self) -> int:
        """An exact tensor's largest absolute integer row sum: the numerators
        of a fold of n letters, and every partial sum that forms them, are at
        most growth**(n - 1) in modulus, whatever their signs.  A cube with
        no negative numerator is summed as it is, with no copy."""
        cube = self.cube if self.cube.min(initial=0) >= 0 else np.abs(self.cube)
        return int(cube.sum(axis=2).max(initial=0))

    @cached_property
    def row_sums(self) -> np.ndarray:
        """Each row's sum as a float: an exact row summed as integers and
        rounded once, a float row summed over k in increasing order."""
        if self.is_exact:
            return quotients(self.cube.sum(axis=2), self.denominator)
        return np.cumsum(self.cube, axis=2)[:, :, -1]  # one add at a time, unlike sum


def quotients(numerators: np.ndarray, denominator: int) -> np.ndarray:
    """Integer ``numerators`` (any dtype) over ``denominator`` in float64,
    each correctly rounded like Python's int / int: one float64 division
    while both are exact in float64, Python int division otherwise."""
    if denominator < 2**53 and _magnitude(numerators) < 2**53:
        floats = numerators.astype(float)
        floats /= denominator
        return floats
    return (exact_tier(2**53, numerators) / denominator).astype(float)


def _magnitude(numerators: np.ndarray) -> int:
    """The largest |N| of integer ``numerators`` (any dtype); 0 when empty."""
    return max(int(numerators.max(initial=0)), -int(numerators.min(initial=0)))


def _exact_tensor_taking(cube: np.ndarray, denominator: int,
                         truncation_radius: int | None = None) -> StructureTensor:
    """The exact tensor ``cube / denominator`` of nonnegative integer
    numerators, brought over the lcm of its entries' reduced denominators.
    Takes ``cube`` over, so a caller passes an array it owns and does not
    read again: it is reduced in place, made read-only and, when its dtype
    is already the one the row sums call for, kept as the tensor's cube."""
    common = math.gcd(denominator, int(np.gcd.reduce(cube, axis=None)))
    if common > 1:
        cube //= common
        denominator //= common
    cube = cube.astype(np.int64 if cube.sum(axis=2).max(initial=0) < 2**63 else object,
                       copy=False)
    cube.setflags(write=False)
    return StructureTensor(cube, denominator, truncation_radius)


def check_rows(tensor: StructureTensor) -> StructureTensor:
    """Refuse the first stored row, in (i, j) order, that has no entry or
    whose sum is off one by more than EPS_PROB."""
    bad = tensor.domain & ~(np.abs(tensor.row_sums - 1.0) <= EPS_PROB)
    if bad.any():
        i, j = divmod(int(np.argmax(bad)), tensor.size)
        if not (tensor.cube[i, j] != 0).any():
            raise ValueError(f"row ({i}, {j}) missing (sums to 0, not 1)")
        raise ValueError(f"row ({i}, {j}) sums to {float(tensor.row_sums[i, j])}, not 1")
    return tensor


def check_radius(value, name: str) -> int | None:
    """A truncation or window radius: None, or an integer >= 0 (not a bool)."""
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 0:
        raise ValueError(f"{name} must be a nonnegative integer, got {value!r}")
    return int(value)


def structure_tensor(
    size: int,
    entries: Iterable[tuple[int, int, int, Number]],
    truncation_radius: int | None = None,
) -> StructureTensor:
    """Build a tensor from (i, j, k, value) entries and check the row sums.

    Values of exactly zero are dropped; small negative float noise (within
    EPS_PROB) is discarded as zero, and repeated (i, j, k) add up.  Every
    row inside the domain must be present and sum to one within EPS_PROB.
    The tensor is exact when every value is an int or a ``Fraction``.
    """
    if size <= 0:
        raise ValueError("size must be positive")
    truncation_radius = check_radius(truncation_radius, "truncation radius")
    values: dict[tuple[int, int, int], Number] = {}
    for i, j, k, value in entries:
        for idx in (i, j, k):
            if not (0 <= idx < size):
                raise ValueError(f"index {idx} out of range for size {size}")
        if truncation_radius is not None and i + j > truncation_radius:
            raise ValueError(
                f"entry ({i}, {j}, {k}) lies outside truncation radius {truncation_radius}"
            )
        if not isinstance(value, (int, Fraction)) and not math.isfinite(value):
            raise ValueError(f"non-finite constant at ({i}, {j}, {k}): {value}")
        if value < 0:
            if float(value) < -EPS_PROB:
                raise ValueError(f"negative constant at ({i}, {j}, {k}): {value}")
            continue
        if value == 0:
            continue
        key = (i, j, k)
        values[key] = values[key] + value if key in values else value
    where = tuple(np.array(list(values), dtype=np.intp).reshape(-1, 3).T)
    if all(isinstance(v, (int, Fraction)) for v in values.values()):
        scale = math.lcm(*(v.denominator for v in values.values()))
        numerators = [v.numerator * (scale // v.denominator) for v in values.values()]
        cube = np.zeros((size,) * 3, dtype=np.int64 if sum(numerators) < 2**63 else object)
        cube[where] = numerators
        return check_rows(_exact_tensor_taking(cube, scale, truncation_radius))
    cube = np.zeros((size, size, size))
    cube[where] = [float(v) for v in values.values()]
    cube.setflags(write=False)
    return check_rows(StructureTensor(cube, None, truncation_radius))


def tensor_difference(
    a: StructureTensor, b: StructureTensor
) -> tuple[float, tuple[int, int, int] | None]:
    """Max entrywise |a - b| over the common domain, with the first entry
    (i, j, k) attaining it; None when the tensors agree.

    Both tensors must have the same size and truncation radius.
    """
    if a.size != b.size:
        raise ValueError(f"size mismatch: {a.size} vs {b.size}")
    if a.truncation_radius != b.truncation_radius:
        raise ValueError("truncation mismatch between tensors")
    pairs = list(a.defined_pairs())
    gaps = np.abs(a.to_float().cube[a.domain] - b.to_float().cube[a.domain])
    return worst_case(gaps, lambda n: (*pairs[n // a.size], n % a.size))


def multi_constants(tensor: StructureTensor, word: Word) -> list[Number]:
    """Coefficients of the left-nested product x_{k1} o x_{k2} o ... o x_{kn}.

    A word of length one yields the point mass at its letter.  The word is
    folded one letter at a time, as ``fold_levels`` folds a level: an exact
    tensor yields ``Fraction``s, a float tensor floats (by ``fold_step``),
    and a zero coefficient 0.
    """
    word = list(word)
    if not word:
        raise ValueError("word must have at least one letter")
    for k in word:
        if not (0 <= k < tensor.size):
            raise IndexError(f"letter {k} out of range for size {tensor.size}")
    fold = np.zeros(tensor.size)
    fold[word[0]] = 1
    for length, k in enumerate(word[1:], start=2):
        if tensor.is_exact:
            fold = _exact_step(tensor, fold, k, tensor.growth ** (length - 1))
        else:
            fold = fold_step(tensor, fold, k)
    if not tensor.is_exact:
        return [v if v else 0 for v in fold.tolist()]
    scale = tensor.denominator ** (len(word) - 1)
    return [Fraction(int(v), scale) if v else 0 for v in fold.tolist()]


def _check_stored(tensor: StructureTensor, folds: np.ndarray, letters) -> None:
    """Every row (j, k) that a weight of ``folds`` needs must be stored: each
    fold (the last axis) is extended by a letter k, ``letters`` holding one
    per fold or one for all.  Raises for the smallest such k, then j."""
    if tensor.truncation_radius is None:
        return
    folds = np.asarray(folds).reshape(-1, tensor.size)
    outside = (folds != 0) & ~tensor.domain.T[letters]  # [fold, j]
    if outside.any():
        letters = np.broadcast_to(letters, len(folds))
        k = int(letters[outside.any(axis=1)].min())
        j = int(np.argmax(outside[letters == k].any(axis=0)))
        raise TruncationExceededError(j, k, tensor.truncation_radius)


def fold_step(tensor: StructureTensor, folds: np.ndarray, k: int) -> np.ndarray:
    """Float folds extended by the letter k: each fold (the last axis of
    ``folds``) times the rows (j, k) of the float view, summed as a loop
    would: over j in increasing order, over nonzero weights and entries."""
    folds = np.asarray(folds, dtype=float)
    _check_stored(tensor, folds, k)
    rows = tensor.to_float().cube[:, k]  # [j, m]
    nxt, term = np.zeros(folds.shape), np.empty(folds.shape)
    for j in np.flatnonzero(folds.reshape(-1, tensor.size).any(axis=0) & rows.any(axis=1)):
        weights = folds[..., j, None]
        term.fill(0.0)
        np.multiply(weights, rows[j], out=term, where=(weights != 0) & (rows[j] != 0))
        nxt += term
    return nxt


def _exact_step(tensor: StructureTensor, folds: np.ndarray, k: int, bound: int) -> np.ndarray:
    """Exact fold numerators (the last axis of ``folds``) extended by the
    letter k, in the tier ``exact_tier`` picks for ``bound``."""
    folds = exact_tier(bound, folds)
    _check_stored(tensor, folds, k)
    return folds @ exact_tier(bound, tensor.cube[:, k])


def prefix_trie(letters: Sequence[int], max_len: int, budget: int | None):
    """The words of up to ``max_len`` letters, with letter sum within
    ``budget`` if given, one length at a time.

    Yields per length the words in lexicographic order as the rows of an
    integer array, the index of each word's prefix in the previous level
    and its last letter.  Stops at the first length with no words.
    """
    letters = np.array(sorted(letters), dtype=np.intp)
    words = np.zeros((1, 0), dtype=np.intp)
    for _ in range(max_len):
        within = words.sum(axis=1)[:, None] + letters <= (np.inf if budget is None else budget)
        parents, columns = np.nonzero(within)
        if not len(parents):
            return
        last = letters[columns]
        words = np.column_stack([words[parents], last])
        yield words, parents, last


# Entries that a block of ``letter_blocks`` may hold per operand and per
# product (512 KB in float64): a level of a large trie is extended a
# block of letters at a time, a small one in one block.
_BLOCK_ENTRIES = 2**16

# Entries that a temporary of the exact graph route holds at a time: the
# blocks that ``graphs`` unpacks, bins, compares, sums and multiplies, and
# the chunks that ``validate_hypergroup`` contracts (one- and two-byte
# entries are counted by the int64 words they fill).  64 KiB of int64 or
# float64 stays below glibc's default 128 KiB mmap threshold, so a block is
# reused from the heap instead of being mapped, and faulted in, on each
# call.  ``graphs`` and ``verify`` (Theorem 2.4's folds) import the name; a
# test sets it in each module.
_COUNT_BLOCK = 2**13


def letter_blocks(parents: np.ndarray, letters: np.ndarray, per_letter: int,
                  budget: int | None = None):
    """The words of a trie level in blocks of consecutive letters that they
    use, at most ``budget // per_letter`` letters a block (at least one),
    ``per_letter`` being the entries a letter adds to an operand or a
    product and ``budget`` ``_BLOCK_ENTRIES`` unless given.

    Yields per block (ks, rows, words, at): its letters in increasing
    order, the parents with a child in it (increasing), the index of the
    words whose letter is in it (a slice when that is every word), and per
    such word the index ``r * len(ks) + c`` of its parent ``rows[r]`` and
    its letter ``ks[c]``.  A product of the rows' prefixes with every letter
    of the block, as (len(rows) * len(ks), ...), is the words' extensions
    when indexed by ``at``.
    """
    if not len(letters):
        return
    used = np.flatnonzero(np.bincount(letters))
    step = max(1, (_BLOCK_ENTRIES if budget is None else budget) // max(per_letter, 1))
    width = int(parents.max()) + 1
    for lo in range(0, len(used), step):
        ks = used[lo:lo + step]
        if len(ks) == len(used):
            words = slice(None)
        else:
            words = np.flatnonzero((letters >= ks[0]) & (letters <= ks[-1]))
        mine = parents[words]
        taken = np.zeros(width, dtype=bool)
        taken[mine] = True
        rows = np.flatnonzero(taken)
        yield ks, rows, words, np.searchsorted(rows, mine) * len(ks) + np.searchsorted(ks, letters[words])


def exact_tier(bound: int, values: np.ndarray) -> np.ndarray:
    """Integer ``values`` in float64 while ``bound`` < 2**53 proves every
    sum and product that is formed from them exact, as Python ints otherwise."""
    if bound < 2**53:
        return values.astype(float, copy=False)
    if values.dtype == object:
        return values
    return values.astype(np.int64).astype(object)


def fold_levels(tensor: StructureTensor, levels, budget: int | None = None):
    """Folds of every word of a ``prefix_trie``, one level at a time.

    A level extends the folds of its prefixes by their last letter (see
    ``fold_level``, which reads ``budget``), and yields them, a (words,
    size) array, with their common denominator: L**(length - 1) on an
    exact tensor, L its denominator, and 1 on a float tensor.
    """
    folds = None
    for length, (_, parents, letters) in enumerate(levels, start=1):
        folds = fold_level(tensor, folds, parents, letters, length, budget)
        yield folds, tensor.denominator ** (length - 1) if tensor.is_exact else 1


def fold_level(tensor: StructureTensor, prefixes: np.ndarray | None, parents: np.ndarray,
               letters: np.ndarray, length: int, budget: int | None = None) -> np.ndarray:
    """The folds of words of ``length`` letters: row n extends the fold
    ``prefixes[parents[n]]`` of its prefix by the letter ``letters[n]``
    through the rows (j, k); at length 1 it is the point mass at the letter.

    An exact tensor's folds are integer numerators over L**(length - 1),
    formed by one product per block of letters (``letter_blocks`` at
    ``budget``) of their prefixes with the rows (j, k) of the block, whose
    copy, operand and product each hold at most ``budget`` entries
    (``_BLOCK_ENTRIES`` unless given) or one letter; a float tensor's are
    floats, formed per letter by ``fold_step``.  Each row depends on its
    own prefix alone, so a level may be folded in blocks of rows.  A fold
    that needs a row outside the stored domain raises
    TruncationExceededError, for its smallest letter k, then j.
    """
    size = tensor.size
    if length == 1:
        folds = np.zeros((len(letters), size))
        folds[np.arange(len(letters)), letters] = 1
        return folds
    if not tensor.is_exact:
        folds = np.zeros((len(letters), size))
        for k in sorted(set(letters.tolist())):
            chosen = letters == k
            folds[chosen] = fold_step(tensor, prefixes[parents[chosen]], k)
        return folds
    bound = tensor.growth ** (length - 1)
    prefixes = exact_tier(bound, prefixes)
    folds = np.empty((len(letters), size), dtype=prefixes.dtype)
    for ks, rows, words, at in letter_blocks(parents, letters, max(len(prefixes), size) * size,
                                             budget):
        chosen = prefixes[rows]
        _check_stored(tensor, chosen[at // len(ks)], ks[at % len(ks)])
        block = exact_tier(bound, tensor.cube[:, ks]).reshape(size, -1)  # [j, (k, m)]
        folds[words] = (chosen @ block).reshape(-1, size)[at]
    return folds


@dataclass(frozen=True)
class ValidationReport:
    """One report per axiom, and whether the involution is the identity."""

    checks: tuple[Report, ...]
    hermitian: bool

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def skipped_triples(self) -> int:
        """Associativity triples and star pairs outside a truncation."""
        return sum(c.skipped for c in self.checks)

    def check(self, axiom: str) -> Report:
        for c in self.checks:
            if c.check == axiom:
                return c
        raise KeyError(axiom)

    def __str__(self) -> str:
        return "\n".join([str(c) for c in self.checks] + [f"hermitian: {self.hermitian}"])


def _skipped_triples(tensor: StructureTensor) -> np.ndarray:
    """``skip[i, j, k]``: whether associativity at (i, j, k) needs a row
    outside the stored domain i + j <= R: (i, j), (j, k), or (m, k) or
    (i, m) for an m in the support of (i, j) or (j, k).  With top[i, j] the
    largest such m of (i, j) (0 for an empty row, whose m never matter),
    that is when i + j, j + k, top[i, j] + k or i + top[j, k] exceeds R."""
    size, radius = tensor.size, tensor.truncation_radius
    if radius is None:
        return np.zeros((size,) * 3, dtype=bool)
    support = tensor.cube != 0
    top = np.where(support.any(axis=2), size - 1 - np.argmax(support[:, :, ::-1], axis=2), 0)
    indices, outside = np.arange(size), ~tensor.domain
    return (outside[:, :, None] | outside | (top[:, :, None] + indices > radius)
            | (indices[:, None, None] + top > radius))


def _first_worst(cases: list[tuple[float, tuple]]) -> tuple[float, tuple]:
    """The case ``worst_residual`` picks from (residual, position) pairs, as
    if the residuals were scanned in position order: the first non-finite,
    else the first of the largest."""
    bad = [case for case in cases if not np.isfinite(case[0])]
    if bad:
        return min(bad, key=lambda case: case[1])
    top = max(worst for worst, _ in cases)
    return min((case for case in cases if case[0] == top), key=lambda case: case[1])


def _worst_gap(lhs: np.ndarray, rhs: np.ndarray, kept: np.ndarray | None,
               scale: int | None) -> tuple[float, int] | None:
    """The first worst |lhs - rhs| over the ``kept`` entries, or over all
    when ``kept`` is None (``worst_residual``): float sides as they are,
    and exact sides over ``scale**2``, where only an entry at which they
    differ is converted, each side correctly rounded; None when exact
    sides agree."""
    if scale is None:
        gaps = np.abs(lhs - rhs)
        return worst_residual(gaps if kept is None else np.where(kept, gaps, 0.0))
    differ = lhs != rhs
    if kept is not None:
        differ &= kept
    if not differ.any():
        return None
    gaps = np.zeros(lhs.shape)
    for at in zip(*np.nonzero(differ)):
        gaps[at] = abs(int(lhs[at]) / scale**2 - int(rhs[at]) / scale**2)
    return worst_residual(gaps)


def validate_hypergroup(
    tensor: StructureTensor, involution: Sequence[int]
) -> ValidationReport:
    """Check the discrete-hypergroup axioms for a tensor/involution pair.

    Axioms checked: row stochasticity, the unit laws at index 0, full
    associativity, the star law Q[i,j,k] == Q[s(j),s(i),s(k)], and the
    zero-index support rule (Q[i,j,0] > 0 exactly when j == s(i)).  On a
    truncated tensor, triples whose intermediate products leave the stored
    domain are skipped and counted.  Associativity is contracted a chunk of
    k at a time, one i at a time within it, and the star law a block of i
    at a time, each temporary within ``_COUNT_BLOCK`` entries; an exact
    tensor's float constants are formed only where an axiom reads them
    (``floats_at``).
    """
    sigma = _check_permutation(involution, tensor.size)
    for i, s in enumerate(sigma):
        if sigma[s] != i:
            raise ValueError(f"involution is not self-inverse at index {i}")

    size, domain = tensor.size, tensor.domain
    n_pairs = int(domain.sum())

    def pair(mask, n):
        """The n-th pair (i, j) of ``mask`` in row-major order."""
        return tuple(int(axis[n]) for axis in np.nonzero(mask))

    sums = np.abs(tensor.row_sums[domain] - 1.0)
    stochastic = scan_report("stochasticity", sums, lambda n: pair(domain, n), EPS_PROB)

    # Unit laws: the rows (0, j) and (j, 0) are the point mass at j.
    units = [(a, b) for j in range(size) for a, b in ((UNIT, j), (j, UNIT)) if domain[a, b]]
    a, b = np.array(units, dtype=np.intp).reshape(-1, 2).T
    unit = scan_report("unit", np.abs(tensor.floats_at((a, b)) - np.eye(size)[a + b]),
                       lambda n: (*units[n // size], n % size), EPS_PROB)

    # Associativity: (x_i x_j) x_k against x_i (x_j x_k), over the triples
    # not skipped.
    kept = ~_skipped_triples(tensor)
    # Numerators are exact in float64 while every partial sum of size
    # products of two is an integer below 2**53, in any BLAS order.
    scale = tensor.denominator
    cube = tensor.cube
    if scale is not None:
        cube = exact_tier(_magnitude(cube)**2 * size, cube)
    skipped, found = size**3 - int(kept.sum()), [[] for _ in range(size)]
    # The (j, k) box is contracted a chunk of k at a time, each side within
    # _COUNT_BLOCK entries (at least one k), and per i over the j up to the
    # last one kept for a k of the chunk (``reach[i, k]`` less one); an i
    # with no j kept in the chunk is not.  A chunk's (j, k) rows are copied
    # once for every i; its (m, (k, l)) columns are read in place.
    reach = np.where(kept.any(axis=1), size - np.argmax(kept[:, ::-1], axis=1), 0)  # [i, k]
    flat = cube.reshape(size, -1)  # [m, (k, l)]
    step = max(1, _COUNT_BLOCK // size**2)
    for lo in range(0, size, step):
        hi = min(lo + step, size)
        jmaxs = reach[:, lo:hi].max(axis=1).tolist()
        if not any(jmaxs):
            continue
        box = np.ascontiguousarray(cube[:, lo:hi])  # [j, k, m]
        for i, jmax in enumerate(jmaxs):
            if not jmax:
                continue
            lhs = (cube[i, :jmax] @ flat[:, lo * size:hi * size]).reshape(jmax, -1, size)
            rhs = (box[:jmax].reshape(-1, size) @ cube[i]).reshape(lhs.shape)
            gap = _worst_gap(lhs, rhs, kept[i, :jmax, lo:hi, None] if skipped else None, scale)
            if gap is not None:
                j, k = divmod(gap[1] // size, hi - lo)
                found[i].append((gap[0], (i, j, lo + k, gap[1] % size)))
    per_i = [_first_worst(cases) if cases else (0.0, None) for cases in found]
    associativity = scan_report(
        "associativity", [w for w, _ in per_i], lambda i: per_i[i][1],
        EPS_ASSOC, checked=size**3 - skipped, skipped=skipped,
    )

    # Star law: Q[i,j,k] == Q[s(j),s(i),s(k)], wherever the mirror row is
    # stored, a block of i within _COUNT_BLOCK entries at a time; a scan's
    # first worst is the first worst of its blocks' first worst.  Permuted
    # one axis at a time: a gather by np.ix_ took 2-2.5 times longer.  Exact
    # constants differ only where their numerators do, so only there is a
    # gap formed, from the two constants as the float view holds them.
    s = np.array(sigma)
    mirrored = domain & domain[s][:, s].T
    cube = tensor.cube
    rows, worsts, firsts, pairs = max(1, _COUNT_BLOCK // size**2), [], [], 0
    for lo in range(0, size, rows):
        mirror = cube[:, s[lo:lo + rows]][s][:, :, s]
        stored = mirrored[lo:lo + rows]
        ours, theirs = cube[lo:lo + rows][stored], mirror.transpose(1, 0, 2)[stored]
        if scale is None:
            gaps = np.abs(ours - theirs)
        else:
            gaps, differ = np.zeros(ours.shape), ours != theirs
            if differ.any():
                gaps[differ] = np.abs(quotients(ours[differ], scale)
                                      - quotients(theirs[differ], scale))
        if len(gaps):
            worst, n = worst_residual(gaps)
            worsts.append(worst)
            firsts.append(pairs * size + n)
            pairs += len(gaps)
    star = scan_report("star", worsts, lambda c: (*pair(mirrored, firsts[c] // size),
                                                  firsts[c] % size),
                       EPS_PROB, checked=pairs, skipped=n_pairs - pairs)

    # Zero-index support: Q[i,j,0] > EPS_PROB iff j == sigma(i).  The
    # witness is the first bad entry if it is NaN, else the first of the
    # largest bad values, as a scan that keeps the first bad entry and
    # replaces it only by a larger one would find.
    values = tensor.floats_at(np.s_[:, :, UNIT])[domain]
    bad = np.flatnonzero((values > EPS_PROB) != (np.arange(size) == s[:, None])[domain])
    worst, witness = 0.0, None
    if len(bad):
        n = bad[0] if np.isnan(values[bad[0]]) else bad[np.nanargmax(values[bad])]
        worst, witness = float(values[n]), pair(domain, n)
    support = Report("unit-support", witness is None, worst, witness, EPS_PROB, n_pairs)

    return ValidationReport(
        checks=(stochastic, unit, associativity, star, support),
        hermitian=sigma == identity_permutation(size),
    )


@dataclass(frozen=True)
class Hypergroup:
    """A validated structure tensor with its involution; the unit is index 0."""

    tensor: StructureTensor
    involution: tuple[int, ...]
    unit: int = UNIT

    @property
    def size(self) -> int:
        return self.tensor.size

    @property
    def hermitian(self) -> bool:
        return self.involution == identity_permutation(self.size)

    @classmethod
    def build(
        cls, tensor: StructureTensor, involution: Sequence[int] | None = None
    ) -> "Hypergroup":
        """Validate the axioms and construct, deriving the involution if absent."""
        if involution is None:
            sigma = derive_involution(tensor)
        else:
            sigma = _check_permutation(involution, tensor.size)
        report = validate_hypergroup(tensor, sigma)
        if not report.passed:
            raise HypergroupAxiomError(report)
        return cls(tensor=tensor, involution=tuple(sigma))


def derive_involution(tensor: StructureTensor, partial: bool = False):
    """Read the involution off the zero-index supports of the tensor.

    sigma(i) is the unique j with Q[i,j,0] > EPS_PROB.  With ``partial=True``
    indices whose candidate rows all lie outside a truncated domain come back
    as None instead of raising; determined pairs are still required to be
    mutually inverse.
    """
    hits = tensor.domain & (tensor.floats_at(np.s_[:, :, UNIT]) > EPS_PROB)
    sigma: list[int | None] = []
    for i in range(tensor.size):
        candidates = np.flatnonzero(hits[i]).tolist()
        if not candidates:
            if partial and tensor.truncation_radius is not None:
                sigma.append(None)
                continue
            raise NoCandidateError(i)
        if len(candidates) > 1:
            raise AmbiguousInvolutionError(i, candidates)
        sigma.append(candidates[0])
    for i, s in enumerate(sigma):
        if s is None:
            continue
        if sigma[s] is not None and sigma[s] != i:
            raise NotInvolutiveError(sigma)
    return tuple(sigma)


def hypergroup_from_group(
    multiplication_table: Sequence[Sequence[int]],
    inverse_table: Sequence[int] | None = None,
) -> Hypergroup:
    """Degenerate hypergroup of a finite group: one-hot rows, inverse involution.

    The table must be a group with the identity at index 0; this is checked
    (Latin square, identity, inverses, associativity) before building.
    """
    table = [list(row) for row in multiplication_table]
    n = len(table)
    if n == 0 or any(len(row) != n for row in table):
        raise NotAGroupError("table is not square")
    rng = list(range(n))
    for i, row in enumerate(table):
        if sorted(row) != rng:
            raise NotAGroupError(f"row {i} is not a permutation")
    for j in range(n):
        if sorted(table[i][j] for i in range(n)) != rng:
            raise NotAGroupError(f"column {j} is not a permutation")
    if any(table[0][j] != j for j in range(n)) or any(table[i][0] != i for i in range(n)):
        raise NotAGroupError("identity is not at index 0")
    inverse = [None] * n
    for i in range(n):
        for j in range(n):
            if table[i][j] == 0 and table[j][i] == 0:
                inverse[i] = j
                break
        if inverse[i] is None:
            raise NotAGroupError(f"element {i} has no inverse")
    if inverse_table is not None and list(inverse_table) != inverse:
        raise NotAGroupError("supplied inverse table disagrees with the product table")
    for i, j, k in itertools.product(range(n), repeat=3):
        if table[table[i][j]][k] != table[i][table[j][k]]:
            raise NotAGroupError(f"product is not associative at ({i}, {j}, {k})")
    tensor = structure_tensor(
        n, ((i, j, table[i][j], Fraction(1)) for i in range(n) for j in range(n))
    )
    return Hypergroup.build(tensor, inverse)


def check_isomorphism(h1: Hypergroup, h2: Hypergroup, phi: Sequence[int]) -> bool:
    """Whether the supplied index map is an isomorphism between the two.

    Requires phi(0) = 0, compatibility with both involutions, and equality of
    all transported constants within EPS_PROB.  Sizes must agree.
    """
    if h1.size != h2.size:
        raise ValueError(f"size mismatch: {h1.size} vs {h2.size}")
    phi = _check_permutation(phi, h1.size)
    if phi[UNIT] != UNIT:
        return False
    if any(phi[h1.involution[i]] != h2.involution[phi[i]] for i in range(h1.size)):
        return False
    a, b = h1.tensor, h2.tensor
    if not b.domain[np.ix_(phi, phi)][a.domain].all():
        return False
    image = b.to_float().cube[np.ix_(phi, phi, phi)]
    return not (np.abs(a.to_float().cube - image)[a.domain] > EPS_PROB).any()
