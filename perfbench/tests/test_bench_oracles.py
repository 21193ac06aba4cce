"""Tests for the benchmark's expected results and its CLI exit-code table.

    python3 -m pytest -q perfbench/tests
"""

import itertools
import os
import sys
from collections import deque
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from oracles import (  # noqa: E402
    EXIT_CODES,
    KNOWN_DEFECTS,
    cycle_constants,
    fold_from_unit,
    line_constants,
    max_row_difference,
    row_stochastic_gap,
    word_count,
)

HALF = Fraction(1, 2)


def _brute_force_constants(n_vertices, edges, base, window=None):
    """Sphere-count constants straight from the definition, by BFS."""
    adj = {v: set() for v in range(n_vertices)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)

    def dist_from(src):
        dist = {src: 0}
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return dist

    dist = {v: dist_from(v) for v in adj}
    size = max(dist[base].values()) + 1
    rows = {}
    for i, j in itertools.product(range(size), repeat=2):
        if window is not None and i + j > window:
            continue
        first = [v for v in adj if dist[base][v] == i]
        row = {}
        for v in first:
            second = [w for w in adj if dist[v][w] == j]
            for w in second:
                k = dist[base][w]
                row[k] = row.get(k, 0) + Fraction(1, len(first) * len(second))
        rows[(i, j)] = row
    return rows


@pytest.mark.parametrize("n", [3, 4, 5, 8, 9, 12])
def test_cycle_closed_form_matches_sphere_counts(n):
    edges = [(v, (v + 1) % n) for v in range(n)]
    assert cycle_constants(n) == _brute_force_constants(n, edges, 0)


@pytest.mark.parametrize("radius", [1, 3, 6])
def test_line_closed_form_matches_window_sphere_counts(radius):
    n = 2 * radius + 1
    edges = [(v, v + 1) for v in range(n - 1)]
    assert line_constants(radius) == _brute_force_constants(n, edges, radius, window=radius)


def test_closed_forms_match_the_paper_examples():
    # The 4-cycle: x1 o x1 = (x0 + x2)/2 and x2 o x2 = x0.
    c4 = cycle_constants(4)
    assert c4[(1, 1)] == {0: HALF, 2: HALF}
    assert c4[(2, 2)] == {0: 1}
    assert c4[(1, 2)] == {1: 1}
    # The integer line: half the mass at |i-j|, half at i+j; truncated.
    line = line_constants(4)
    assert line[(1, 3)] == {2: HALF, 4: HALF}
    assert line[(2, 2)] == {0: HALF, 4: HALF}
    assert line[(0, 3)] == {3: 1}
    assert (2, 3) not in line
    for rows in (c4, line, cycle_constants(7)):
        assert row_stochastic_gap(rows) == 0


def test_word_count_matches_enumeration():
    for size, max_len, budget in [(3, 3, None), (4, 2, None), (5, 3, 4), (7, 2, 6)]:
        words = [
            w for n in range(1, max_len + 1)
            for w in itertools.product(range(size), repeat=n)
            if budget is None or sum(w) <= budget
        ]
        assert word_count(size, max_len, budget) == len(words)


def test_fold_from_unit_on_the_four_cycle():
    rows = cycle_constants(4)
    assert fold_from_unit(rows, 3, (1,)) == [0.0, 1.0, 0.0]
    assert fold_from_unit(rows, 3, (1, 1)) == [0.5, 0.0, 0.5]
    assert fold_from_unit(rows, 3, (1, 1, 1)) == [0.0, 1.0, 0.0]


def test_max_row_difference():
    a = {(0, 0): {0: 1.0}, (0, 1): {1: 1.0}}
    assert max_row_difference(a, {(0, 0): {0: 1.0}, (0, 1): {1: 0.75, 0: 0.25}}) == 0.25
    assert max_row_difference(a, {(0, 0): {0: 1.0}}) == float("inf")


def test_exit_code_table_covers_every_subcommand():
    from hyperwalk.cli import build_parser

    parser = build_parser()
    sub = next(a for a in parser._actions if a.choices and "gen" in a.choices)
    assert set(EXIT_CODES) == set(sub.choices)
    for command, codes in EXIT_CODES.items():
        assert {0, 2} <= codes <= {0, 1, 2}, command


def test_cli_workload_runs_every_subcommand_with_documented_codes(tmp_path):
    import cli_docs

    workload = cli_docs.Workload(seed=3, root=str(tmp_path))
    try:
        commands = [op.run.args[0] for op in workload.ops
                    if op.run.func is cli_docs.run_command]
        assert {c.name for c in commands} == set(EXIT_CODES)
        for c in commands:
            assert c.expected in EXIT_CODES[c.name]
        assert {c.name for c in commands if c.expected == 1} >= {
            "graph-hypergroup", "check-graph", "validate", "verify-hb"}
        defects = {op.defect for op in workload.ops if op.defect}
        assert defects <= set(KNOWN_DEFECTS)
    finally:
        workload.close()
    assert not (tmp_path / ".bench_out" / f"cli-{os.getpid()}").exists()
