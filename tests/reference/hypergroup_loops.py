"""Frozen reference copy of the associativity scan of
``hyperwalk.hypergroups.validate_hypergroup``: one ``_associator`` call per
triple, with exact ``Fraction`` (or float) sums over the sparse rows and a
``TruncationExceededError`` marking a skipped triple.

The library now contracts dense integer numerators per index; this is the
loop it replaced, kept as an oracle for ``tests/test_graph_differential.py``.
Do not optimise this file.
"""

from __future__ import annotations

import itertools

from hyperwalk.errors import TruncationExceededError
from hyperwalk.hypergroups import EPS_ASSOC
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
