"""Expected results, taken from the paper and the documented CLI behaviour.

Nothing here calls the package under test: the checks compare its outputs
against closed forms, counts and exit codes worked out independently.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

HALF = Fraction(1, 2)

# Documented exit codes per subcommand: 0 success or pass, 1 verification
# failure, 2 input error.  Commands that verify nothing never exit with 1.
EXIT_CODES = {
    "gen": {0, 2},
    "graph-hypergroup": {0, 1, 2},
    "check-graph": {0, 1, 2},
    "validate": {0, 1, 2},
    "realize": {0, 1, 2},
    "walk": {0, 2},
    "produce": {0, 2},
    "verify-hb": {0, 1, 2},
    "verify-t51": {0, 1, 2},
    "verify-t24": {0, 1, 2},
    "verify-c26": {0, 1, 2},
}

# Defects of the program that the workloads keep on purpose.  An operation
# tagged with one of these ids still counts as failed while the defect
# reproduces; it is reported by name and does not make the run incorrect.
KNOWN_DEFECTS = {
    "nan-validate": "validate accepts a tensor with a NaN constant and exits 0 (expected 2)",
    "window-radius-type": (
        'a graph document with "window_radius": "x" raises TypeError out of '
        "cli.main (expected exit 2)"
    ),
    "t51-truncated": (
        "verify_theorem_5_1 reports FAIL on truncated families whose "
        "block-decomposition check passes: its random full-support states "
        "reach uncertified rows"
    ),
    "walk-letter-range": (
        "walk with a word letter outside the distance set raises IndexError "
        "out of cli.main (expected exit 2)"
    ),
}


def half_half_constants(size: int, fold) -> dict[tuple[int, int], dict[int, Fraction]]:
    """Rows Q[i,j,.] = 1/2 at fold(|i-j|) plus 1/2 at fold(i+j).

    The distance constants of the cycle and of the integer line: from a
    vertex at distance i, a jump of j lands at i-j or i+j.  ``fold`` maps an
    offset to a base distance and returns None outside the certified domain.
    """
    rows = {}
    for i, j in itertools.product(range(size), repeat=2):
        near, far = fold(abs(i - j)), fold(i + j)
        if near is None or far is None:
            continue
        row: dict[int, Fraction] = {}
        for k in (near, far):
            row[k] = row.get(k, Fraction(0)) + HALF
        rows[(i, j)] = row
    return rows


def cycle_constants(n: int):
    """Distance constants of the n-cycle on the index set 0..n//2."""
    return half_half_constants(n // 2 + 1, lambda x: min(x % n, n - x % n))


def line_constants(radius: int):
    """Integer-line constants, certified rows i + j <= radius only."""
    return half_half_constants(radius + 1, lambda x: x if x <= radius else None)


def rows_of(tensor) -> dict[tuple[int, int], dict[int, object]]:
    """A tensor's stored rows with zero entries dropped, for comparison."""
    return {
        pair: {k: v for k, v in row.items() if v != 0}
        for pair, row in tensor.rows.items()
    }


def doc_rows(doc: dict) -> dict[tuple[int, int], dict[int, float]]:
    """Rows of a tensor document read with the json module alone."""
    rows: dict[tuple[int, int], dict[int, float]] = {}
    for i, j, k, raw in doc["entries"]:
        rows.setdefault((i, j), {})[k] = float(Fraction(raw)) if isinstance(raw, str) else raw
    return rows


def max_row_difference(rows_a, rows_b) -> float:
    """Largest entrywise gap between two row maps; inf if their domains differ."""
    if set(rows_a) != set(rows_b):
        return float("inf")
    worst = 0.0
    for pair, row_a in rows_a.items():
        row_b = rows_b[pair]
        for k in set(row_a) | set(row_b):
            worst = max(worst, abs(float(row_a.get(k, 0)) - float(row_b.get(k, 0))))
    return worst


def row_stochastic_gap(rows) -> float:
    """Largest distance of a row sum from one, or of an entry below zero."""
    worst = 0.0
    for row in rows.values():
        worst = max(worst, abs(float(sum(row.values())) - 1.0))
        worst = max([worst] + [-float(v) for v in row.values()])
    return worst


def word_count(size: int, max_len: int, budget: int | None) -> int:
    """Words over 0..size-1 of length 1..max_len with letter sum <= budget."""
    if budget is None:
        return sum(size ** n for n in range(1, max_len + 1))
    # ways[s] = words of the current length with letter sum s.
    ways = {0: 1}
    total = 0
    for _ in range(max_len):
        nxt: dict[int, int] = {}
        for s, count in ways.items():
            for letter in range(size):
                if s + letter <= budget:
                    nxt[s + letter] = nxt.get(s + letter, 0) + count
        ways = nxt
        total += sum(ways.values())
    return total


def fold_from_unit(rows, size: int, word) -> list[float]:
    """Distribution of a realized walk started at position 0.

    Realized blocks are sqrt(Q[k,j,i]) times isometries, so from position j
    the k-map sends mass Q[k,j,i] to position i: the distribution after the
    word (k1, ..., kn) is e_{k1} pushed through Q[k2,.,.], ..., Q[kn,.,.].
    """
    vec = [0.0] * size
    vec[word[0]] = 1.0
    for k in word[1:]:
        nxt = [0.0] * size
        for j, weight in enumerate(vec):
            if weight:
                for i, q in rows[(k, j)].items():
                    nxt[i] += weight * float(q)
        vec = nxt
    return vec


def max_gap(a, b) -> float:
    return max(abs(float(x) - float(y)) for x, y in zip(a, b, strict=True))
