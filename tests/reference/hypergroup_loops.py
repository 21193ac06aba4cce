"""Frozen reference copies of two hypergroup-level loops, kept as oracles
for ``tests/test_graph_differential.py``.  Do not optimise this file.

- The associativity scan of ``hyperwalk.hypergroups.validate_hypergroup``:
  one ``_associator`` call per triple, with exact ``Fraction`` (or float)
  sums over the sparse rows and a ``TruncationExceededError`` marking a
  skipped triple.  The library now contracts dense integer numerators per
  index.
- ``verify_corollary_2_6``: every word's transition-matrix product and fold
  formed from scratch.  The library now extends those of its prefix.
"""

from __future__ import annotations

import itertools

import numpy as np

from hyperwalk.errors import TruncationExceededError
from hyperwalk.graphs import transition_family
from hyperwalk.hypergroups import EPS_ASSOC, multi_constants
from hyperwalk.report import Report, scan_report, worst_residual


def _associator(tensor, i: int, j: int, k: int) -> dict[int, float]:
    """|((x_i x_j) x_k - x_i (x_j x_k))_l| on the l where either side is
    nonzero, from the exact sums sum_m Q[i,j,m] Q[m,k,l] and
    sum_m Q[j,k,m] Q[i,m,l].  Raises TruncationExceededError when a row it
    needs lies outside the stored domain."""
    lhs: dict = {}
    for m, q in tensor.row(i, j).items():
        for l, q2 in tensor.row(m, k).items():
            lhs[l] = lhs.get(l, 0) + q * q2
    rhs: dict = {}
    for m, q in tensor.row(j, k).items():
        for l, q2 in tensor.row(i, m).items():
            rhs[l] = rhs.get(l, 0) + q * q2
    return {l: abs(float(lhs.get(l, 0)) - float(rhs.get(l, 0))) for l in lhs.keys() | rhs.keys()}


def associativity(tensor) -> Report:
    """The associativity report, reduced per i."""
    size = tensor.size
    skipped, per_i = 0, []
    for i in range(size):
        gaps = [0.0] * size**3  # [j, k, l]; skipped triples stay 0
        for n, (j, k) in enumerate(itertools.product(range(size), repeat=2)):
            try:
                for l, gap in _associator(tensor, i, j, k).items():
                    gaps[n * size + l] = gap
            except TruncationExceededError:
                skipped += 1
        worst, n = worst_residual(gaps)
        per_i.append((worst, (i, n // size**2, n // size % size, n % size)))
    return scan_report(
        "associativity", [w for w, _ in per_i], lambda i: per_i[i][1],
        EPS_ASSOC, checked=size**3 - skipped, skipped=skipped,
    )


def verify_corollary_2_6(hypergroup, max_word_len, tol=1e-12) -> Report:
    """Products of transition matrices versus folds of the constants."""
    if max_word_len < 1:
        raise ValueError("max_word_len must be at least 1")
    tensor = hypergroup.tensor
    mats = transition_family(tensor).matrices
    float_tensor = tensor.to_float()
    words = [word for n in range(1, max_word_len + 1)
             for word in itertools.product(range(tensor.size), repeat=n)]

    def residual(word) -> float:
        product = mats[word[0]].copy()
        for t in word[1:]:
            product = product @ mats[t]
        coeffs = multi_constants(float_tensor, word)
        expected = sum(c * mats[m] for m, c in enumerate(coeffs))
        return np.maximum(np.abs(product - expected).max(),
                          np.abs(product[0, :] - np.array(coeffs)).max())

    residuals = np.fromiter(map(residual, words), float, len(words))
    return scan_report("transition-products", residuals, lambda n: (words[n],), tol)
