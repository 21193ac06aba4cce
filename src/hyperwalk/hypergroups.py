"""Finite structure-constant algebras and the discrete-hypergroup axioms.

A structure tensor stores nonnegative constants Q[i,j,k], one probability
row per pair (i, j), so every product of two basis elements is a probability
distribution over the basis.  Tensors built from combinatorial counts keep
their entries as exact rationals (`fractions.Fraction`/int) and everything
folded out of them stays exact; tensors read off numerical simulations hold
floats and are compared with the tolerances below.

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


@dataclass(frozen=True)
class StructureTensor:
    """Sparse nonnegative constants Q[i,j,k] with row sums equal to one."""

    size: int
    rows: Mapping[tuple[int, int], Mapping[int, Number]]
    truncation_radius: int | None = None

    def defined(self, i: int, j: int) -> bool:
        """Whether the row (i, j) is inside the stored domain."""
        if not (0 <= i < self.size and 0 <= j < self.size):
            return False
        if self.truncation_radius is not None and i + j > self.truncation_radius:
            return False
        return True

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

    def defined_pairs(self) -> Iterator[tuple[int, int]]:
        for i in range(self.size):
            for j in range(self.size):
                if self.defined(i, j):
                    yield (i, j)

    @cached_property
    def is_exact(self) -> bool:
        return all(
            isinstance(v, (int, Fraction))
            for row in self.rows.values()
            for v in row.values()
        )

    @cached_property
    def numerators(self) -> tuple[np.ndarray, int]:
        """An exact tensor's rows as ``_numerators``, built once."""
        cube, scale = _numerators(self, list(self.defined_pairs()))
        cube.setflags(write=False)
        return cube, scale

    def to_float(self) -> "StructureTensor":
        rows = {
            pair: {k: float(v) for k, v in row.items()}
            for pair, row in self.rows.items()
        }
        return StructureTensor(self.size, rows, self.truncation_radius)


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
    EPS_PROB) is discarded as zero.  Every row inside the domain must be
    present and sum to one within EPS_PROB.
    """
    if size <= 0:
        raise ValueError("size must be positive")
    truncation_radius = check_radius(truncation_radius, "truncation radius")
    rows: dict[tuple[int, int], dict[int, Number]] = {}
    for i, j, k, value in entries:
        for idx in (i, j, k):
            if not (0 <= idx < size):
                raise ValueError(f"index {idx} out of range for size {size}")
        if truncation_radius is not None and i + j > truncation_radius:
            raise ValueError(
                f"entry ({i}, {j}, {k}) lies outside truncation radius {truncation_radius}"
            )
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"non-finite constant at ({i}, {j}, {k}): {value}")
        if value < 0:
            if float(value) < -EPS_PROB:
                raise ValueError(f"negative constant at ({i}, {j}, {k}): {value}")
            continue
        if value == 0:
            continue
        row = rows.setdefault((i, j), {})
        if k in row:
            row[k] += value
        else:
            row[k] = value
    tensor = StructureTensor(size, rows, truncation_radius)
    for i, j in tensor.defined_pairs():
        if (i, j) not in rows:
            raise ValueError(f"row ({i}, {j}) missing (sums to 0, not 1)")
        total = _row_total(rows[(i, j)].values(), tensor.is_exact)
        if abs(total - 1.0) > EPS_PROB:
            raise ValueError(f"row ({i}, {j}) sums to {total}, not 1")
    return tensor


def _row_total(values, exact: bool) -> float:
    """The sum of a row's values as a float.  A row of an exact tensor is
    summed once as integers over the lcm of its denominators and rounded
    once."""
    if not exact:
        return float(sum(values))
    scale = math.lcm(*(v.denominator for v in values))
    return sum(v.numerator * (scale // v.denominator) for v in values) / scale


def _dense(tensor: StructureTensor, pairs: Sequence[tuple[int, int]]) -> np.ndarray:
    """The rows ``pairs`` of ``tensor`` as a (len(pairs), size) float array."""
    rows = [tensor.dense_row(i, j) for i, j in pairs]
    return np.array(rows, dtype=float).reshape(len(pairs), tensor.size)


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
    gaps = np.abs(_dense(a, pairs) - _dense(b, pairs))
    return worst_case(gaps, lambda n: (*pairs[n // a.size], n % a.size))


def multi_constants(tensor: StructureTensor, word: Word) -> list[Number]:
    """Coefficients of the left-nested product x_{k1} o x_{k2} o ... o x_{kn}.

    A word of length one yields the point mass at its letter.  Folding keeps
    exact arithmetic when the tensor is exact.
    """
    word = list(word)
    if not word:
        raise ValueError("word must have at least one letter")
    for k in word:
        if not (0 <= k < tensor.size):
            raise IndexError(f"letter {k} out of range for size {tensor.size}")
    unity: Number = Fraction(1) if tensor.is_exact else 1.0
    vec: list[Number] = [0] * tensor.size
    vec[word[0]] = unity
    for k in word[1:]:
        vec = fold_step(tensor, vec, k)
    return vec


def fold_step(tensor: StructureTensor, vec: Sequence[Number], k: int) -> list[Number]:
    """The fold of a word extended by the letter k: ``vec`` times the rows
    (j, k), accumulated over j in increasing order."""
    nxt: list[Number] = [0] * tensor.size
    for j, weight in enumerate(vec):
        if weight == 0:
            continue
        for m, q in tensor.row(j, k).items():
            nxt[m] += weight * q
    return nxt


def prefix_trie(letters: Sequence[int], max_len: int, budget: int | None):
    """The words of up to ``max_len`` letters, with letter sum within
    ``budget`` if given, one length at a time.

    Yields per length the words in lexicographic order, and for each word
    the index of its prefix in the previous level and its last letter, as
    two integer arrays.  Stops at the first length with no words.
    """
    letters = sorted(letters)
    words: list[tuple[int, ...]] = [()]
    for _ in range(max_len):
        children = [
            (p, k)
            for p, word in enumerate(words)
            for k in letters
            if budget is None or sum(word) + k <= budget
        ]
        if not children:
            return
        words = [words[p] + (k,) for p, k in children]
        parents, last = np.array(children, dtype=np.intp).T
        yield words, parents, last


def exact_tier(bound: int, values: np.ndarray) -> np.ndarray:
    """Integer ``values`` in float64 while ``bound`` < 2**53 proves every
    sum and product that is formed from them exact, as Python ints otherwise."""
    if bound < 2**53:
        return values.astype(float, copy=False)
    if values.dtype == object:
        return values
    return values.astype(np.int64).astype(object)


def fold_levels(tensor: StructureTensor, levels):
    """Folds of every word of a ``prefix_trie`` over an exact tensor, one
    level at a time.

    A level extends the folds of its prefixes by their last letter k with
    one product with the rows (j, k), and yields the integer numerators, a
    (words, size) array, over their common denominator L**(length - 1),
    where L is the lcm of the tensor's denominators.  Every fold must stay
    inside the stored domain: on a truncated tensor, the words' letter sums
    within its truncation radius.
    """
    cube, scale = tensor.numerators
    # The folds of a length have row sums of at most growth**(length - 1).
    growth = int(cube.sum(axis=2).max())
    for length, (words, parents, letters) in enumerate(levels, start=1):
        if length == 1:
            folds = np.zeros((len(words), tensor.size))
            folds[np.arange(len(words)), letters] = 1
            yield folds, 1
            continue
        bound = growth ** (length - 1)
        folds, rows = exact_tier(bound, folds), exact_tier(bound, cube)
        nxt = np.zeros((len(words), tensor.size), dtype=folds.dtype)
        for k in sorted(set(letters.tolist())):
            chosen = letters == k
            nxt[chosen] = folds[parents[chosen]] @ rows[:, k]
        folds = nxt
        yield folds, scale ** (length - 1)


def as_floats(vec: Sequence[Number]) -> list[float]:
    return [float(v) for v in vec]


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


def _numerators(tensor: StructureTensor, pairs) -> tuple[np.ndarray, int]:
    """An exact tensor's rows ``pairs`` as integer numerators N = L * Q over
    the lcm L of their denominators: a dense (size, size, size) array, zero
    on the other rows.  It holds float64 when every partial sum of size
    products of two numerators is an integer below 2**53, so that a BLAS
    product of them is exact in any order, and Python ints otherwise."""
    size = tensor.size
    scale = math.lcm(*(q.denominator for p in pairs for q in tensor.row(*p).values()))
    cube = np.zeros((size, size, size), dtype=object)
    peak = 0
    for i, j in pairs:
        for k, q in tensor.row(i, j).items():
            cube[i, j, k] = q.numerator * (scale // q.denominator)
            peak = max(peak, abs(cube[i, j, k]))
    return exact_tier(peak * peak * size, cube), scale


def validate_hypergroup(
    tensor: StructureTensor, involution: Sequence[int]
) -> ValidationReport:
    """Check the discrete-hypergroup axioms for a tensor/involution pair.

    Axioms checked: row stochasticity, the unit laws at index 0, full
    associativity, the star law Q[i,j,k] == Q[s(j),s(i),s(k)], and the
    zero-index support rule (Q[i,j,0] > 0 exactly when j == s(i)).  On a
    truncated tensor, triples whose intermediate products leave the stored
    domain are skipped and counted.
    """
    sigma = _check_permutation(involution, tensor.size)
    for i, s in enumerate(sigma):
        if sigma[s] != i:
            raise ValueError(f"involution is not self-inverse at index {i}")

    size = tensor.size
    pairs = list(tensor.defined_pairs())
    row_of = {pair: n for n, pair in enumerate(pairs)}
    dense = _dense(tensor, pairs)

    def entry(rows):
        return lambda n: (*rows[n // size], n % size)

    sums = [abs(_row_total(tensor.row(i, j).values(), tensor.is_exact) - 1.0) for i, j in pairs]
    stochastic = scan_report("stochasticity", sums, pairs.__getitem__, EPS_PROB)

    # Unit laws: the rows (0, j) and (j, 0) are the point mass at j.
    units = [(a, b) for j in range(size) for a, b in ((UNIT, j), (j, UNIT)) if (a, b) in row_of]
    gaps = dense[[row_of[p] for p in units]] - np.eye(size)[[a + b for a, b in units]]
    unit = scan_report("unit", np.abs(gaps), entry(units), EPS_PROB)

    # Associativity: (x_i x_j) x_k against x_i (x_j x_k), contracted per i so
    # only size^3 residuals are held at once.  A triple is skipped when a row
    # it needs, (i, j), (j, k), (m, k) or (i, m) for m in the support of
    # (i, j) or (j, k), lies outside the stored domain.
    rows = tuple(np.array(pairs).T)
    undefined = np.ones((size, size))
    undefined[rows] = 0
    support = np.zeros((size * size, size))
    for i, j in pairs:
        support[i * size + j, list(tensor.row(i, j))] = 1
    skip = (undefined[:, :, None] + undefined
            + (support @ undefined).reshape(size, size, size)
            + (undefined @ support.T).reshape(size, size, size)) > 0
    if tensor.is_exact:
        cube, scale = tensor.numerators
    else:
        cube, scale = np.zeros((size, size, size)), None
        cube[rows] = dense
    skipped, per_i = int(skip.sum()), []
    for i in range(size):
        lhs = (cube[i] @ cube.reshape(size, -1)).reshape(-1)  # [j, k, l]
        rhs = (cube.reshape(-1, size) @ cube[i]).reshape(-1)
        keep = ~np.repeat(skip[i].reshape(-1), size)
        if scale is None:
            gaps = np.where(keep, np.abs(lhs - rhs), 0.0)
        else:
            # Both sides are exact sums over scale**2: only where they differ
            # is a residual converted, each side correctly rounded to float.
            gaps = np.zeros(size**3)
            for n in np.flatnonzero((lhs != rhs) & keep):
                gaps[n] = abs(int(lhs[n]) / scale**2 - int(rhs[n]) / scale**2)
        worst, n = worst_residual(gaps)
        per_i.append((worst, (i, n // size**2, n // size % size, n % size)))
    associativity = scan_report(
        "associativity", [w for w, _ in per_i], lambda i: per_i[i][1],
        EPS_ASSOC, checked=size**3 - skipped, skipped=skipped,
    )

    # Star law: Q[i,j,k] == Q[s(j),s(i),s(k)], wherever the mirror row is stored.
    mirrored = [(i, j) for i, j in pairs if (sigma[j], sigma[i]) in row_of]
    mirrors = dense[[row_of[(sigma[j], sigma[i])] for i, j in mirrored]][:, list(sigma)]
    gaps = np.abs(dense[[row_of[p] for p in mirrored]] - mirrors)
    star = scan_report("star", gaps, entry(mirrored), EPS_PROB,
                       skipped=len(pairs) - len(mirrored))

    # Zero-index support: Q[i,j,0] > EPS_PROB iff j == sigma(i).
    worst, witness = 0.0, None
    for i, j in pairs:
        value = float(tensor.entry(i, j, UNIT))
        if (value > EPS_PROB) != (j == sigma[i]) and (witness is None or value > worst):
            worst, witness = value, (i, j)
    support = Report("unit-support", witness is None, worst, witness, EPS_PROB, len(pairs))

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
    sigma: list[int | None] = []
    for i in range(tensor.size):
        candidates = [
            j
            for j in range(tensor.size)
            if tensor.defined(i, j) and float(tensor.entry(i, j, UNIT)) > EPS_PROB
        ]
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
    for i, j in h1.tensor.defined_pairs():
        if not h2.tensor.defined(phi[i], phi[j]):
            return False
        image = h2.tensor.row(phi[i], phi[j])
        for k in range(h1.size):
            if abs(float(h1.tensor.entry(i, j, k)) - float(image.get(phi[k], 0))) > EPS_PROB:
                return False
    return True
