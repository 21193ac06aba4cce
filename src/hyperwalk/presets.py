"""Named fixtures: small graphs, groups, and the worked Kraus families used
by the tests and by the command line ``gen`` command.

Everything here is deterministic and exact where the construction allows it.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import partial
from typing import Callable

import numpy as np

from .graphs import (
    PointedGraph,
    complete_graph,
    cycle_graph,
    free_ball_graph,
    hypercube_graph,
    line_window_graph,
    path_graph,
)
from .hypergroups import Hypergroup, StructureTensor, structure_tensor, hypergroup_from_group
from .oqrw import BlockState, KrausFamily, kraus_family, maximally_mixed_state, point_state

HALF = Fraction(1, 2)


def c4_graph() -> PointedGraph:
    return cycle_graph(4)


def c4_hypergroup() -> Hypergroup:
    """Distance hypergroup of the 4-cycle: x1 o x1 = (x0 + x2)/2, x2 o x2 = x0."""
    entries = [
        (0, 0, 0, 1), (0, 1, 1, 1), (0, 2, 2, 1),
        (1, 0, 1, 1), (2, 0, 2, 1),
        (1, 1, 0, HALF), (1, 1, 2, HALF),
        (1, 2, 1, 1), (2, 1, 1, 1),
        (2, 2, 0, 1),
    ]
    return Hypergroup.build(structure_tensor(3, entries))


def perturbed_c4_tensor() -> StructureTensor:
    """The 4-cycle constants with the (1,1) row tilted to (3/5, 2/5).

    Still row stochastic with the right zero-index supports, but the product
    is no longer associative.
    """
    entries = [
        (0, 0, 0, 1), (0, 1, 1, 1), (0, 2, 2, 1),
        (1, 0, 1, 1), (2, 0, 2, 1),
        (1, 1, 0, Fraction(3, 5)), (1, 1, 2, Fraction(2, 5)),
        (1, 2, 1, 1), (2, 1, 1, 1),
        (2, 2, 0, 1),
    ]
    return structure_tensor(3, entries)


def zlattice_hypergroup(radius: int) -> Hypergroup:
    """Distance hypergroup of the integer line, truncated at ``radius``.

    x_i o x_j puts half the mass at |i-j| and half at i+j; only the rows with
    i + j <= radius exist, everything else raises TruncationExceededError.
    """
    if radius < 1:
        raise ValueError("radius must be positive")
    entries: list[tuple[int, int, int, Fraction]] = []
    for i in range(radius + 1):
        for j in range(radius + 1 - i):
            if i == 0 or j == 0:
                entries.append((i, j, i + j, Fraction(1)))
            elif i == j:
                entries.append((i, j, 0, HALF))
                entries.append((i, j, 2 * i, HALF))
            else:
                entries.append((i, j, abs(i - j), HALF))
                entries.append((i, j, i + j, HALF))
    tensor = structure_tensor(radius + 1, entries, truncation_radius=radius)
    return Hypergroup.build(tensor, tuple(range(radius + 1)))


def cyclic_group_table(n: int) -> list[list[int]]:
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def z2_hypergroup() -> Hypergroup:
    return hypergroup_from_group(cyclic_group_table(2))


def z3_hypergroup() -> Hypergroup:
    return hypergroup_from_group(cyclic_group_table(3))


def s3_table() -> list[list[int]]:
    """Multiplication table of the symmetric group on three points.

    Elements are the permutation tuples in lexicographic order, which puts
    the identity first; the product p*q acts by (p*q)(x) = p(q(x)).
    """
    elements = sorted(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(elements)}
    return [
        [index[tuple(p[q[x]] for x in range(3))] for q in elements]
        for p in elements
    ]


def s3_hypergroup() -> Hypergroup:
    return hypergroup_from_group(s3_table())


def class_hypergroup(table: list[list[int]]) -> Hypergroup:
    """Conjugacy-class hypergroup of a finite group table.

    Basis elements are the uniform distributions on the conjugacy classes;
    the constants are the exact probabilities that a product of independent
    uniform picks from two classes lands in a third.
    """
    n = len(table)
    inverse = [next(j for j in range(n) if table[i][j] == 0) for i in range(n)]
    class_of = [-1] * n
    classes: list[list[int]] = []
    for g in range(n):
        if class_of[g] >= 0:
            continue
        orbit = sorted({table[table[h][g]][inverse[h]] for h in range(n)})
        for x in orbit:
            class_of[x] = len(classes)
        classes.append(orbit)
    size = len(classes)
    entries = []
    for a, b in itertools.product(range(size), repeat=2):
        row: dict[int, Fraction] = {}
        weight = Fraction(1, len(classes[a]) * len(classes[b]))
        for g, h in itertools.product(classes[a], classes[b]):
            k = class_of[table[g][h]]
            row[k] = row.get(k, Fraction(0)) + weight
        entries.extend((a, b, k, q) for k, q in row.items())
    tensor = structure_tensor(size, entries)
    sigma = tuple(class_of[inverse[cls[0]]] for cls in classes)
    return Hypergroup.build(tensor, sigma)


def s3_class_hypergroup() -> Hypergroup:
    return class_hypergroup(s3_table())


def lo2_tensor() -> StructureTensor:
    """Left zero semigroup of order two: x_i o x_j = x_i.

    Associative but not unital, so it is a structure tensor rather than a
    hypergroup; it is the reference tensor for the block-decomposition
    checks of the commuting-pair family below.
    """
    entries = [(i, j, i, 1) for i in range(2) for j in range(2)]
    return structure_tensor(2, entries)


# ---------------------------------------------------------------------------
# Kraus families.


def c4_qubit_family() -> KrausFamily:
    """Walk on the 4-cycle distance set {0,1,2} with a qubit degree of freedom.

    The only non-isometric blocks split a distance-1 jump out of position 1
    between the triangular matrices B (back to 0) and C (on to 2), with
    B^*B + C^*C = 1.
    """
    b = np.array([[1, 1], [0, 1]], dtype=complex) / np.sqrt(3)
    c = np.array([[1, 0], [-1, 1]], dtype=complex) / np.sqrt(3)
    eye = np.eye(2, dtype=complex)
    blocks: dict[tuple[int, int, int], np.ndarray] = {
        (0, 1, 1): b,
        (2, 1, 1): c,
        (1, 2, 1): eye,
        (1, 1, 2): eye,
        (0, 2, 2): eye,
    }
    for k in range(3):
        blocks[(k, 0, k)] = eye          # jumps out of the base position
    for j in range(3):
        blocks[(j, j, 0)] = eye          # distance-0 map holds still
    return kraus_family(3, 2, blocks)


def diagonal_qubit_state(x: float, d_size: int = 3, site: int = 0) -> BlockState:
    """diag(x, 1-x) concentrated at one position."""
    if not (0.0 <= x <= 1.0):
        raise ValueError("x must lie in [0, 1]")
    return point_state(np.diag([x, 1.0 - x]).astype(complex), site, d_size)


def zwindow_family(radius: int, h_dim: int = 1) -> KrausFamily:
    """Integer-line walk on distances {0..radius} with fair half/half jumps.

    From position j, a jump of distance k moves to j+k or |j-k| with Kraus
    weight 1/sqrt(2) each.  Rows that would leave the window reflect inward
    with a full isometry; they exist only to keep the maps trace preserving
    and are outside the certified (truncated) domain.
    """
    if radius < 1:
        raise ValueError("radius must be positive")
    eye = np.eye(h_dim, dtype=complex)
    half = eye / np.sqrt(2)
    blocks: dict[tuple[int, int, int], np.ndarray] = {}
    for k in range(radius + 1):
        blocks[(k, 0, k)] = eye
    for j in range(radius + 1):
        blocks[(j, j, 0)] = eye
    for j in range(1, radius + 1):
        for k in range(1, radius + 1):
            if j + k <= radius:
                blocks[(j + k, j, k)] = half
                blocks[(abs(j - k), j, k)] = half
            else:
                blocks[(abs(j - k), j, k)] = eye
    return kraus_family(radius + 1, h_dim, blocks, truncation_radius=radius)


def commuting_pair() -> tuple[np.ndarray, np.ndarray]:
    """Two commuting real symmetric matrices with A0^*A0 + A1^*A1 = 1.

    Neither is a scalar multiple of an isometry: their eigenvalue pairs are
    (1/sqrt2, 1/sqrt3) and (1/sqrt2, 2/sqrt6) on the common eigenbasis
    (1,1)/sqrt2, (1,-1)/sqrt2.
    """
    s2, s3 = np.sqrt(2.0), np.sqrt(3.0)
    a0 = np.array([[s3 + s2, s3 - s2], [s3 - s2, s3 + s2]], dtype=complex) / (2 * np.sqrt(6.0))
    a1 = np.array([[2 + s3, -2 + s3], [-2 + s3, 2 + s3]], dtype=complex) / (2 * np.sqrt(6.0))
    return a0, a1


def stationary_family() -> KrausFamily:
    """Every map equal: B[i,j;k] = A_i for the commuting pair above.

    All distance maps coincide, so every walk distribution equals the
    one-step distribution; the maps are trivially linearly dependent.
    """
    a = commuting_pair()
    blocks = {
        (i, j, k): a[i]
        for i, j, k in itertools.product(range(2), repeat=3)
    }
    return kraus_family(2, 2, blocks)


def left_zero_family() -> KrausFamily:
    """Distance-0 map applies the commuting pair, distance-1 map flattens.

    Satisfies the block-decomposition identity with the left-zero-semigroup
    constants even though no block is a scalar multiple of an isometry.
    """
    a0, a1 = commuting_pair()
    flat = np.eye(2, dtype=complex) / np.sqrt(2.0)
    blocks: dict[tuple[int, int, int], np.ndarray] = {}
    for j in range(2):
        blocks[(0, j, 0)] = a0
        blocks[(1, j, 0)] = a1
        blocks[(0, j, 1)] = flat
        blocks[(1, j, 1)] = flat
    return kraus_family(2, 2, blocks)


def stationary_start_state() -> BlockState:
    """Maximally mixed qubit at position 0 on the two-point distance set."""
    return maximally_mixed_state(2, 2, site=0)


# ---------------------------------------------------------------------------
# The command line ``gen`` registry.

# name -> (builder, the ``gen`` options passed to it positionally, in order).
FIXTURES: dict[str, tuple[Callable, tuple[str, ...]]] = {
    "c4": (c4_graph, ()),
    "k2": (partial(complete_graph, 2), ()),
    "p3": (partial(path_graph, 3), ()),
    "q3": (partial(hypercube_graph, 3), ()),
    "cycle": (cycle_graph, ("n",)),
    "complete": (complete_graph, ("n",)),
    "path": (path_graph, ("n",)),
    "hypercube": (hypercube_graph, ("d",)),
    "z-window": (line_window_graph, ("radius",)),
    "free-ball": (free_ball_graph, ("generators", "radius")),
    "c4-hypergroup": (c4_hypergroup, ()),
    "z-lattice": (zlattice_hypergroup, ("radius",)),
    "z2": (z2_hypergroup, ()),
    "z3": (z3_hypergroup, ()),
    "s3": (s3_hypergroup, ()),
    "s3-classes": (s3_class_hypergroup, ()),
    "lo2": (lo2_tensor, ()),
    "c4-perturbed": (perturbed_c4_tensor, ()),
    "ex44": (c4_qubit_family, ()),
    "ex44-state": (diagonal_qubit_state, ("x",)),
    "ex45": (zwindow_family, ("radius", "h_dim")),
    "ex55": (stationary_family, ()),
    "ex55-state": (stationary_start_state, ()),
    "ex56": (left_zero_family, ()),
    "mixed-state": (maximally_mixed_state, ("h_dim", "d_size", "site")),
}
