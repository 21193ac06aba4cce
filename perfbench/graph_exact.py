"""Workload graph-exact: the exact graph route, one pipeline per instance.

pointed_graph -> build_spheres -> check_condition_s -> check_distance_regular
(unwindowed graphs) -> wildberger_tensor -> derive_involution +
validate_hypergroup -> verify_theorem_2_4 (exact).

The instances vary what the graph layer's cost depends on: vertex count
(Q7, J(9,4), a free-group ball), sphere size (H(3,4), J(8,3), Q6 at word
length 3) and diameter, which sets the number of words and Fraction folds
(C30, C48, an integer-line window).  Two refusal cases ride along.  The
seed relabels vertices, picks the base of vertex-transitive graphs and
orders the instances; it never changes the amount of work.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from dataclasses import dataclass
from functools import partial

import hyperwalk as hw
from core import Op, shuffled
from oracles import cycle_constants, line_constants, rows_of, word_count

NAME = "graph-exact"
TAIL_CAP = 75.0
# Relabelled copies per round.  Per-call times on a shared machine vary by
# up to a quarter, so the cheaper instances come several times: the median
# and the p75 then fall inside blocks of like-sized samples instead of on
# the step between two instances of very different cost.
COPIES = {"K1,5": 3, "P8": 3, "C30": 2, "free-ball(2,5)": 3, "J(8,3)": 2, "Z-window(30)": 3}


@dataclass(frozen=True)
class Shape:
    """A pointed graph before relabelling, with what the paper says of it."""

    name: str
    n: int
    edges: tuple[tuple[int, int], ...]
    base: int
    max_len: int
    window: int | None = None
    transitive: bool = True  # any vertex may serve as the base
    distance_regular: bool = True
    closed_form: dict | None = None
    refusal: str | None = None  # "empty-sphere" or "condition-s"


def _cube(d):
    n = 1 << d
    return n, [(v, v ^ (1 << b)) for v in range(n) for b in range(d) if v < v ^ (1 << b)]


def _johnson(n, k):
    verts = list(itertools.combinations(range(n), k))
    edges = [
        (a, b)
        for a, b in itertools.combinations(range(len(verts)), 2)
        if len(set(verts[a]) & set(verts[b])) == k - 1
    ]
    return len(verts), edges


def _hamming(d, q):
    verts = list(itertools.product(range(q), repeat=d))
    edges = [
        (a, b)
        for a, b in itertools.combinations(range(len(verts)), 2)
        if sum(x != y for x, y in zip(verts[a], verts[b])) == 1
    ]
    return len(verts), edges


def _cycle(n):
    return n, [(v, (v + 1) % n) for v in range(n)]


def _path(n):
    return n, [(v, v + 1) for v in range(n - 1)]


def _free_ball(generators, radius):
    """Ball of the 2g-regular tree; vertex 0 is the root."""
    n, edges, frontier = 1, [], [(0, None)]
    for _ in range(radius):
        nxt = []
        for v, came_by in frontier:
            for letter in range(2 * generators):
                if came_by is not None and letter == came_by ^ 1:
                    continue  # would cancel the last letter
                edges.append((v, n))
                nxt.append((n, letter))
                n += 1
        frontier = nxt
    return n, edges


def _shape(name, built, max_len, **kw):
    n, edges = built
    return Shape(name, n, tuple(edges), kw.pop("base", 0), max_len, **kw)


def shapes() -> list[Shape]:
    line_r = 30
    line_n, line_edges = _path(2 * line_r + 1)
    return [
        # Vertex count.
        _shape("Q7", _cube(7), 2),
        _shape("J(9,4)", _johnson(9, 4), 2),
        _shape("free-ball(2,5)", _free_ball(2, 5), 3, window=5, transitive=False),
        # Sphere size, at word length 3.
        _shape("H(3,4)", _hamming(3, 4), 3),
        _shape("J(8,3)", _johnson(8, 3), 3),
        _shape("Q6", _cube(6), 3),
        # Diameter.
        _shape("C30", _cycle(30), 2, closed_form=cycle_constants(30)),
        _shape("C48", _cycle(48), 1, closed_form=cycle_constants(48)),
        Shape(f"Z-window({line_r})", line_n, tuple(line_edges), line_r, 2,
              window=line_r, transitive=False, closed_form=line_constants(line_r)),
        # Refusals: condition (S) fails at the star's centre, and a path
        # based at an end has empty spheres.
        _shape("K1,5", (6, [(0, v) for v in range(1, 6)]), 2, transitive=False,
               distance_regular=False, refusal="condition-s"),
        _shape("P8", _path(8), 2, transitive=False, distance_regular=False,
               refusal="empty-sphere"),
    ]


def _distances_from(n, edges, base) -> list[int]:
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    dist = [-1] * n
    dist[base] = 0
    queue = deque([base])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


@dataclass(frozen=True)
class Instance:
    shape: Shape
    labels: tuple[str, ...]
    edges: tuple[tuple[int, int], ...]
    base: int
    diameter: int  # largest base distance, from the benchmark's own BFS
    largest_sphere: int


def relabel(shape: Shape, rng: random.Random) -> Instance:
    """Seeded vertex relabelling; the base moves with its vertex."""
    perm = list(range(shape.n))
    rng.shuffle(perm)
    base = rng.randrange(shape.n) if shape.transitive else shape.base
    if shape.refusal == "empty-sphere" and rng.random() < 0.5:
        base = shape.n - 1  # the other end of the path
    edges = [(perm[u], perm[v]) if rng.random() < 0.5 else (perm[v], perm[u])
             for u, v in shape.edges]
    rng.shuffle(edges)
    dist = _distances_from(shape.n, shape.edges, base)
    diameter = max(dist)
    return Instance(
        shape=shape,
        labels=tuple(f"v{i}" for i in range(shape.n)),
        edges=tuple(edges),
        base=perm[base],
        diameter=diameter,
        largest_sphere=max(dist.count(r) for r in range(diameter + 1)),
    )


def run_instance(inst: Instance, call) -> list[str]:
    shape = inst.shape
    fails = []
    graph = call("graphs.pointed_graph", hw.pointed_graph, inst.labels, inst.edges,
                 inst.base, window_radius=shape.window)
    table = call("graphs.build_spheres", hw.build_spheres, graph)
    if table.index_set != tuple(range(inst.diameter + 1)):
        fails.append("index-set")
    # Distance-regular graphs satisfy condition (S); windows of the line and
    # of the tree do on the spheres inside the window.
    s_report = call("graphs.check_condition_s", hw.check_condition_s, table)
    if s_report.passed != (shape.refusal is None):
        fails.append("condition-s")
    if shape.window is None:
        dr = call("graphs.check_distance_regular", hw.check_distance_regular, table)
        if dr.passed != shape.distance_regular:
            fails.append("distance-regular")
    if shape.refusal == "empty-sphere":
        try:
            call("graphs.wildberger_tensor", hw.wildberger_tensor, table,
                 expect=(hw.EmptySphereError,))
        except hw.EmptySphereError:
            return fails
        return fails + ["refusal: wildberger_tensor did not raise EmptySphereError"]

    tensor = call("graphs.wildberger_tensor", hw.wildberger_tensor, table)
    if shape.closed_form is not None and rows_of(tensor) != shape.closed_form:
        fails.append("closed-form")
    sigma = call("hypergroups.derive_involution", hw.derive_involution, tensor, partial=True)
    # Distance constants are symmetric: every index is its own partner.
    if any(s is not None and s != i for i, s in enumerate(sigma)):
        fails.append("involution")
    report = call(
        "hypergroups.validate_hypergroup", hw.validate_hypergroup, tensor,
        tuple(range(tensor.size)),
        counts=lambda r: {"hypergroups.validate_hypergroup.skipped_triples": r.skipped_triples},
    )
    if not report.passed:
        fails.append("hypergroup")

    if shape.refusal == "condition-s":
        try:
            call("verify.verify_theorem_2_4", hw.verify_theorem_2_4, table, shape.max_len,
                 expect=(hw.ConditionSViolatedError,))
        except hw.ConditionSViolatedError:
            return fails
        return fails + ["refusal: verify_theorem_2_4 did not raise ConditionSViolatedError"]

    result = call(
        "verify.verify_theorem_2_4", hw.verify_theorem_2_4, table, shape.max_len,
        counts=lambda r: {"verify.theorem_2_4.cases": r.checked_cases},
    )
    # Theorem 2.4: on a condition-(S) graph path sums equal folds exactly,
    # for every word up to the length (within the window's budget).
    expected_cases = word_count(inst.diameter + 1, shape.max_len, shape.window)
    if not (result.passed and result.max_residual == 0):
        fails.append(f"theorem-2.4: {result}")
    if result.checked_cases != expected_cases:
        fails.append(f"theorem-2.4-cases: {result.checked_cases} != {expected_cases}")
    return fails


class Workload:
    name = NAME
    tail_cap = TAIL_CAP

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.seed = seed
        self.instances = []
        for shape in shapes():
            copies = COPIES.get(shape.name, 1)
            self.instances.extend(relabel(shape, rng) for _ in range(copies))
        self.ops = [Op(inst.shape.name, partial(run_instance, inst)) for inst in self.instances]

    def round(self, r: int) -> list[Op]:
        return shuffled(self.ops, self.seed, r)

    def warmup(self) -> list[Op]:
        return [op for op in self.ops if op.label in ("C30", "K1,5", "P8")]

    def descriptors(self) -> list[dict]:
        seen, out = set(), []
        for inst in self.instances:
            s = inst.shape
            if s.name in seen:
                continue
            seen.add(s.name)
            out.append({
                "instance": s.name,
                "copies": COPIES.get(s.name, 1),
                "vertices": s.n,
                "diameter": inst.diameter,
                "largest_sphere": inst.largest_sphere,
                "max_word_len": s.max_len,
                "windowed": s.window is not None,
                "refusal": s.refusal,
            })
        return out

    def close(self) -> None:
        pass
