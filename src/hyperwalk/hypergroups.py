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

from .errors import (
    AmbiguousInvolutionError,
    HypergroupAxiomError,
    NoCandidateError,
    NotAGroupError,
    NotInvolutiveError,
    TruncationExceededError,
)

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
        row[k] = row.get(k, 0) + value
    tensor = StructureTensor(size, rows, truncation_radius)
    for i, j in tensor.defined_pairs():
        if (i, j) not in rows:
            raise ValueError(f"row ({i}, {j}) missing (sums to 0, not 1)")
        total = sum(rows[(i, j)].values())
        if abs(float(total) - 1.0) > EPS_PROB:
            raise ValueError(f"row ({i}, {j}) sums to {float(total)}, not 1")
    return tensor


def tensor_difference(
    a: StructureTensor, b: StructureTensor
) -> tuple[float, tuple[int, int, int] | None]:
    """Max entrywise |a - b| over the common domain, with an argmax witness.

    Both tensors must have the same size and truncation radius.
    """
    if a.size != b.size:
        raise ValueError(f"size mismatch: {a.size} vs {b.size}")
    if a.truncation_radius != b.truncation_radius:
        raise ValueError("truncation mismatch between tensors")
    worst = 0.0
    witness = None
    for i, j in a.defined_pairs():
        ra, rb = a.row(i, j), b.row(i, j)
        for k in set(ra) | set(rb):
            diff = abs(float(ra.get(k, 0)) - float(rb.get(k, 0)))
            if diff > worst:
                worst, witness = diff, (i, j, k)
    return worst, witness


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
        nxt: list[Number] = [0] * tensor.size
        for j, weight in enumerate(vec):
            if weight == 0:
                continue
            for m, q in tensor.row(j, k).items():
                nxt[m] += weight * q
        vec = nxt
    return vec


def as_floats(vec: Sequence[Number]) -> list[float]:
    return [float(v) for v in vec]


@dataclass(frozen=True)
class AxiomCheck:
    axiom: str
    passed: bool
    residual: float
    witness: tuple | None


@dataclass(frozen=True)
class ValidationReport:
    """Per-axiom pass/fail results with worst residuals and witnesses."""

    checks: tuple[AxiomCheck, ...]
    hermitian: bool
    skipped_triples: int = 0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, axiom: str) -> AxiomCheck:
        for c in self.checks:
            if c.axiom == axiom:
                return c
        raise KeyError(axiom)

    def __str__(self) -> str:
        lines = []
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            line = f"{c.axiom:<14} {status}  residual={c.residual:.3e}"
            if c.witness is not None and not c.passed:
                line += f"  witness={c.witness}"
            lines.append(line)
        lines.append(f"hermitian: {self.hermitian}")
        if self.skipped_triples:
            lines.append(f"triples outside truncation (skipped): {self.skipped_triples}")
        return "\n".join(lines)


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

    # Row stochasticity.
    worst, witness = 0.0, None
    for i, j in tensor.defined_pairs():
        residual = abs(float(sum(tensor.row(i, j).values())) - 1.0)
        if residual > worst:
            worst, witness = residual, (i, j)
    stochastic = AxiomCheck("stochasticity", worst <= EPS_PROB, worst, witness)

    # Unit laws.
    worst, witness = 0.0, None
    for j in range(size):
        for a, b in ((UNIT, j), (j, UNIT)):
            if not tensor.defined(a, b):
                continue
            for k in range(size):
                want = 1.0 if k == j else 0.0
                residual = abs(float(tensor.entry(a, b, k)) - want)
                if residual > worst:
                    worst, witness = residual, (a, b, k)
    unit = AxiomCheck("unit", worst <= EPS_PROB, worst, witness)

    # Associativity: sum_m Q[i,j,m] Q[m,k,l] == sum_m Q[j,k,m] Q[i,m,l].
    worst, witness = 0.0, None
    skipped = 0
    for i, j, k in itertools.product(range(size), repeat=3):
        try:
            left_row = tensor.row(i, j)
            right_row = tensor.row(j, k)
            lhs: list[Number] = [0] * size
            for m, q in left_row.items():
                for l, q2 in tensor.row(m, k).items():
                    lhs[l] += q * q2
            rhs: list[Number] = [0] * size
            for m, q in right_row.items():
                for l, q2 in tensor.row(i, m).items():
                    rhs[l] += q * q2
        except TruncationExceededError:
            skipped += 1
            continue
        for l in range(size):
            residual = abs(float(lhs[l]) - float(rhs[l]))
            if residual > worst:
                worst, witness = residual, (i, j, k, l)
    associativity = AxiomCheck("associativity", worst <= EPS_ASSOC, worst, witness)

    # Star law.
    worst, witness = 0.0, None
    for i, j in tensor.defined_pairs():
        if not tensor.defined(sigma[j], sigma[i]):
            skipped += 1
            continue
        mirror = tensor.row(sigma[j], sigma[i])
        for k in set(tensor.row(i, j)) | {sigma[m] for m in mirror}:
            residual = abs(
                float(tensor.entry(i, j, k)) - float(mirror.get(sigma[k], 0))
            )
            if residual > worst:
                worst, witness = residual, (i, j, k)
    star = AxiomCheck("star", worst <= EPS_PROB, worst, witness)

    # Zero-index support: Q[i,j,0] > EPS_PROB iff j == sigma(i).
    worst, witness = 0.0, None
    support_ok = True
    for i, j in tensor.defined_pairs():
        value = float(tensor.entry(i, j, UNIT))
        positive = value > EPS_PROB
        if positive != (j == sigma[i]):
            support_ok = False
            if witness is None or value > worst:
                worst, witness = value, (i, j)
    support = AxiomCheck("unit-support", support_ok, worst, witness)

    return ValidationReport(
        checks=(stochastic, unit, associativity, star, support),
        hermitian=sigma == identity_permutation(size),
        skipped_triples=skipped,
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
