"""Frozen reference copy of the dict-of-``Fraction`` tensor layer that
``hyperwalk.hypergroups`` replaced with one dense cube, kept as an oracle for
``tests/test_tensor_differential.py``.  Do not optimise this file.

- ``StructureTensor``: rows (i, j) -> {k: value} holding the values as
  given (ints, ``Fraction``s, floats), and ``structure_tensor``, which builds
  it with one ``Fraction`` or float sum per repeated entry and checks each
  row's sum (``_row_total``).
- ``tensor_difference``, ``multi_constants``/``fold_step``,
  ``validate_hypergroup`` (over ``_dense`` rows and the ``_numerators``
  cube) and ``derive_involution``, reading those rows.
- ``_sphere_count_tensor`` (one ``Fraction`` entry per constant) and
  ``produced_tensor`` (one float entry per constant), built through the
  frozen ``structure_tensor``.
- ``walk_levels``, the per-letter trie walk that ``produced_tensor`` reads,
  frozen from the library before its levels became one batched product:
  each letter's superoperator is built on its own, as the library then did,
  over the frozen word tuples of ``level_loops.prefix_trie``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from hyperwalk.errors import (
    AmbiguousInvolutionError,
    EmptySphereError,
    NoCandidateError,
    NotInvolutiveError,
    TruncationExceededError,
)
from hyperwalk.hypergroups import (
    EPS_ASSOC,
    EPS_PROB,
    UNIT,
    Number,
    ValidationReport,
    Word,
    _check_permutation,
    check_radius,
    exact_tier,
    identity_permutation,
)
from hyperwalk.oqrw import _check_states, _checked_walk
from hyperwalk.report import Report, scan_report, worst_case, worst_residual
from reference.level_loops import prefix_trie


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


def _sphere_count_tensor(table: SphereTable) -> StructureTensor:
    graph = table.graph
    index_set = table.index_set
    size = len(index_set)
    if index_set != tuple(range(size)):
        raise ValueError(f"index set {index_set} is not contiguous")
    window = graph.window_radius
    base_row, starts = table.base_order, table.starts[graph.base]
    cuts = starts[:size]
    # Per base sphere S_i(base): the least and largest |S_j(v)| over its
    # vertices v, and the summed counts |S_j(v) & S_k(base)|.
    sizes = table.sphere_sizes[base_row, :size]
    low, high = np.minimum.reduceat(sizes, cuts), np.maximum.reduceat(sizes, cuts)
    sums = np.add.reduceat(table.base_counts[base_row], cuts)  # [i, j, k]
    allowed = np.ones((size, size), dtype=bool)
    if window is not None:
        allowed = np.add.outer(np.arange(size), np.arange(size)) <= window
    empty = allowed & (low == 0)
    if empty.any():
        i, j = divmod(int(np.argmax(empty)), size)
        lo, hi = starts[i], starts[i + 1]
        raise EmptySphereError(graph.labels[base_row[lo + np.argmin(sizes[lo:hi, j])]], j)
    base_sizes = np.diff(starts[:size + 1]).tolist()
    entries: list[tuple[int, int, int, Number]] = []
    for i, j in zip(*(axis.tolist() for axis in np.nonzero(allowed))):
        if low[i, j] == high[i, j]:
            numerators, scale = sums[i, j].tolist(), int(low[i, j])
        else:
            # Group the landing vertices by sphere size and bring the groups
            # over the lcm of their sizes: exact integer numerators.
            lo, hi = starts[i], starts[i + 1]
            groups, group_of = np.unique(sizes[lo:hi, j], return_inverse=True)
            grouped = np.zeros((len(groups), size), dtype=np.int64)
            np.add.at(grouped, group_of, table.base_counts[base_row[lo:hi], j])
            groups = groups.tolist()
            scale = math.lcm(*groups)
            numerators = [sum(scale // s * c for s, c in zip(groups, column))
                          for column in grouped.T.tolist()]
        denominator = scale * base_sizes[i]
        entries += [(i, j, k, Fraction(x, denominator)) for k, x in enumerate(numerators) if x]
    return structure_tensor(size, entries, truncation_radius=window)


def _transfer(family: KrausFamily, k: int) -> np.ndarray:
    """Superoperator T_k of the distance-k map on states flattened to d h^2."""
    b = family.array[:, :, k]
    n = family.d_size * family.h_dim**2
    with np.errstate(over="ignore", invalid="ignore"):
        return np.einsum("ijab,ijce->iacjbe", b, b.conj()).reshape(n, n)


def walk_levels(family: KrausFamily, states: np.ndarray, max_len: int, budget: int | None):
    """Walk every word of up to ``max_len`` letters, with letter sum within
    ``budget`` if given, from an (S, d, h, h) stack of states.

    Goes down the prefix trie one length at a time, applying each prefix
    once.  Yields per length the words in lexicographic order and their
    distributions as a (words, S, d) array.
    """
    n = family.d_size * family.h_dim**2
    transfers = {}
    stack = states[None]
    for words, parents, letters in prefix_trie(range(family.d_size), max_len, budget):
        nxt = np.empty((len(words),) + states.shape, dtype=complex)
        for k in sorted(set(letters.tolist())):
            if k not in transfers:
                transfers[k] = _transfer(family, k)
            chosen = letters == k
            vectors = stack[parents[chosen]].reshape(-1, n)
            nxt[chosen] = (vectors @ transfers[k].T).reshape(nxt[chosen].shape)
        _check_states(nxt)
        stack = nxt
        yield words, np.trace(stack, axis1=-2, axis2=-1).real


def produced_tensor(family: KrausFamily, state0: BlockState) -> StructureTensor:
    """Structure constants read off the two-step walk distributions.

    Entry Q[k, l, m] is the mass at position m after applying the l-map and
    then the k-map to the initial state.  On a truncated family only the
    certified rows (k + l within the radius) are produced.
    """
    _checked_walk(family, state0)
    radius = family.truncation_radius
    *_, (words, probs) = walk_levels(family, state0.array[None], 2, radius)
    # Word (l, k) applies the l-map first: its distribution is the row Q[k, l].
    entries = [(k, l, m, float(p)) for (l, k), row in zip(words, probs[:, 0])
               for m, p in enumerate(row) if p > 1e-14]
    return structure_tensor(family.d_size, entries, truncation_radius=radius)
