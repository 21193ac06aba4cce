"""Frozen reference copies of hypergroup-level scans, kept as oracles
for ``tests/test_graph_differential.py``.  Do not optimise this file.

- The associativity scan of ``hyperwalk.hypergroups.validate_hypergroup``:
  one ``_associator`` call per triple, with exact ``Fraction`` (or float)
  sums over the sparse rows and a ``TruncationExceededError`` marking a
  skipped triple.  The library now contracts dense integer numerators per
  index.
- ``gemm_skip`` and ``associativity_gemm``: the associativity scan of
  ``validate_hypergroup`` that found its skipped triples with size**4 float
  products of the support and the undefined rows, and compared each i's
  integer sides over a flat ``np.repeat`` of the kept mask.  The library
  now reads the skips off the largest index of each row's support.  Like
  the replaced code, it picks the float64 tier from the largest numerator,
  which bounds max |N| only for nonnegative numerators.
- ``verify_corollary_2_6``: every word's transition-matrix product and fold
  formed from scratch.  The library now extends those of its prefix.
"""

from __future__ import annotations

import itertools

import numpy as np

from hyperwalk.errors import TruncationExceededError
from hyperwalk.graphs import transition_family
from hyperwalk.hypergroups import EPS_ASSOC, exact_tier, multi_constants
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


def gemm_skip(tensor) -> np.ndarray:
    """``skip[i, j, k]``: whether the triple needs a row outside the domain."""
    size, domain = tensor.size, tensor.domain
    undefined = (~domain).astype(float)
    support = (tensor.cube != 0).reshape(size * size, size).astype(float)
    return (undefined[:, :, None] + undefined
            + (support @ undefined).reshape(size, size, size)
            + (undefined @ support.T).reshape(size, size, size)) > 0


def associativity_gemm(tensor) -> Report:
    """The associativity report over the ``gemm_skip`` mask, contracted per
    i over the box of the kept (j, k)."""
    size = tensor.size
    skip = gemm_skip(tensor)
    scale = tensor.denominator
    floats = tensor.to_float().cube
    cube = floats if scale is None else exact_tier(int(tensor.cube.max())**2 * size, tensor.cube)
    skipped, per_i = int(skip.sum()), []
    jmaxs = size - np.argmax(~skip.all(axis=2)[:, ::-1], axis=1)
    kmaxs = size - np.argmax(~skip.all(axis=1)[:, ::-1], axis=1)
    for i, jmax, kmax in zip(range(size), jmaxs.tolist(), kmaxs.tolist()):
        lhs = (cube[i, :jmax] @ cube[:, :kmax].reshape(size, -1)).reshape(-1)  # [j, k, l]
        rhs = (cube[:jmax, :kmax].reshape(-1, size) @ cube[i]).reshape(-1)
        keep = ~np.repeat(skip[i, :jmax, :kmax].reshape(-1), size)
        if scale is None:
            gaps = np.where(keep, np.abs(lhs - rhs), 0.0)
        else:
            gaps = np.zeros(len(lhs))
            for n in np.flatnonzero((lhs != rhs) & keep):
                gaps[n] = abs(int(lhs[n]) / scale**2 - int(rhs[n]) / scale**2)
        worst, n = worst_residual(gaps)
        per_i.append((worst, (i, n // (kmax * size), n // size % kmax, n % size)))
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
