"""Workload quantum-realize: the realization route, one pipeline per instance.

Sparse families (about two nonzero blocks per (j, k)): realize with seeded
random isometries -> validate_kraus -> produced_tensor (against the input
constants, within 1e-9) -> check_hb -> walk_distribution against
mixture_distribution on seeded words -> verify_theorem_5_1.  They come from
truncated z-lattice hypergroups and from untruncated distance hypergroups of
Q6, Q8 and C16, at h_dim 1 and 3.

Dense families are seeded random Kraus families paired with their own
produced constants: check_hb fails on them, so Theorem 5.1 runs its
converse-witness branch.  Sparse beside dense blocks shows a dense-array
rewrite that wastes work or memory on sparse families.

The seed draws the isometries, the random states, the words and the
instance order; it never changes the amount of work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial

import numpy as np

import hyperwalk as hw
from hyperwalk import presets
from core import Op, shuffled
from oracles import (
    cycle_constants,
    fold_from_unit,
    line_constants,
    max_gap,
    max_row_difference,
    row_stochastic_gap,
    rows_of,
)

NAME = "quantum-realize"
TAIL_CAP = 75.0
TOL = 1e-9
T51_WORD_LEN = 2
T51_STATES = 2
N_WORDS = 3


@dataclass(frozen=True)
class Sparse:
    name: str
    tensor: object  # StructureTensor, built at set-up
    expected_rows: dict  # constants the walk must reproduce
    h_dim: int
    isometries: dict
    words: tuple
    random_state: object  # BlockState, or None on truncated families
    t51_seed: int

    @property
    def truncated(self) -> bool:
        return self.tensor.truncation_radius is not None


@dataclass(frozen=True)
class Dense:
    name: str
    family: object  # KrausFamily
    state: object  # BlockState the constants were produced from
    constants: object  # StructureTensor paired with the family at set-up
    words: tuple
    t51_seed: int


def _unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _full_support_state(h_dim: int, d: int, rng: np.random.Generator):
    blocks = []
    for _ in range(d):
        a = rng.standard_normal((h_dim, h_dim)) + 1j * rng.standard_normal((h_dim, h_dim))
        blocks.append(a @ a.conj().T)
    total = sum(float(b.trace().real) for b in blocks)
    return hw.block_state([b / total for b in blocks])


def _words(size: int, budget: int | None, rng: random.Random) -> tuple:
    """Seeded words of length 2 and 3 whose letter sum stays within budget."""
    out = []
    while len(out) < N_WORDS:
        word = tuple(rng.randrange(size) for _ in range(2 + len(out) % 2))
        if budget is None or sum(word) <= budget:
            out.append(word)
    return tuple(out)


def _distance_tensor(graph):
    return hw.Hypergroup.build(hw.wildberger_tensor(graph)).tensor


def _sparse(name, tensor, expected_rows, h_dim, rng, nprng) -> Sparse:
    iso = {}
    for k, j in sorted(tensor.defined_pairs()):
        for i in sorted(tensor.row(k, j)):
            iso[(i, j, k)] = _unitary(h_dim, nprng)
    truncated = tensor.truncation_radius is not None
    return Sparse(
        name=f"{name} h{h_dim}",
        tensor=tensor,
        expected_rows=expected_rows,
        h_dim=h_dim,
        isometries=iso,
        words=_words(tensor.size, tensor.truncation_radius, rng),
        random_state=None if truncated else _full_support_state(h_dim, tensor.size, nprng),
        t51_seed=rng.randrange(2**31),
    )


def _dense(d, h_dim, rng) -> Dense:
    seed = rng.randrange(2**31)
    family = hw.random_kraus_family(d, h_dim, seed)
    state = hw.maximally_mixed_state(h_dim, d, 0)
    return Dense(
        name=f"dense d{d} h{h_dim}",
        family=family,
        state=state,
        constants=hw.produced_tensor(family, state),
        words=_words(d, None, rng),
        t51_seed=rng.randrange(2**31),
    )


def _check_walks(call, family, tensor, state, words, expected=None) -> list[str]:
    fails = []
    for word in words:
        walked = call("oqrw.walk_distribution", hw.walk_distribution, family, word, state)
        mixed = call("oqrw.mixture_distribution", hw.mixture_distribution,
                     family, tensor, word, state)
        if max_gap(walked, mixed) > TOL:
            fails.append(f"walk-vs-mixture: {word}")
        if expected is not None and max_gap(walked, expected(word)) > TOL:
            fails.append(f"walk-vs-fold: {word}")
    return fails


def run_sparse(inst: Sparse, call) -> list[str]:
    fails = []
    family, state = call("oqrw.realize", hw.realize, inst.tensor, h_dim=inst.h_dim,
                         isometries=inst.isometries)
    if not call("oqrw.validate_kraus", hw.validate_kraus, family).passed:
        fails.append("completeness")
    produced = call("oqrw.produced_tensor", hw.produced_tensor, family, state)
    if max_row_difference(rows_of(produced), inst.expected_rows) > TOL:
        fails.append("produced-constants")
    # Realized constants of an associative tensor satisfy the block identity.
    hb = call("oqrw.check_hb", hw.check_hb, family, inst.tensor, counts=_hb_counts)
    if not hb.passed:
        fails.append(f"hb: {hb}")
    # From the realized start (position 0) every certified word follows the
    # fold of the constants; a full-support state is certified only when
    # nothing is truncated.
    fails += _check_walks(
        call, family, inst.tensor, state, inst.words,
        expected=lambda w: fold_from_unit(inst.expected_rows, inst.tensor.size, w),
    )
    if inst.random_state is not None:
        fails += _check_walks(call, family, inst.tensor, inst.random_state, inst.words)
    report = call("verify.verify_theorem_5_1", hw.verify_theorem_5_1, family, inst.tensor,
                  max_word_len=T51_WORD_LEN, n_states=T51_STATES, seed=inst.t51_seed,
                  counts=_t51_counts)
    if not report.passed:
        fails.append(f"theorem-5.1: {report}")
    return fails


def run_dense(inst: Dense, call) -> list[str]:
    fails = []
    if not call("oqrw.validate_kraus", hw.validate_kraus, inst.family).passed:
        fails.append("completeness")
    produced = call("oqrw.produced_tensor", hw.produced_tensor, inst.family, inst.state)
    rows = rows_of(produced)
    if row_stochastic_gap(rows) > TOL:
        fails.append("produced-stochastic")
    if max_row_difference(rows, rows_of(inst.constants)) > TOL:
        fails.append("produced-constants")
    # Random dense blocks are not scalar isometries: the identity fails.
    hb = call("oqrw.check_hb", hw.check_hb, inst.family, inst.constants, counts=_hb_counts)
    if hb.passed:
        fails.append("hb-unexpected-pass")
    for word in inst.words:
        walked = call("oqrw.walk_distribution", hw.walk_distribution,
                      inst.family, word, inst.state)
        if abs(float(np.sum(walked)) - 1.0) > TOL or float(np.min(walked)) < -TOL:
            fails.append(f"walk-not-a-distribution: {word}")
        call("oqrw.mixture_distribution", hw.mixture_distribution,
             inst.family, inst.constants, word, inst.state)
    # Theorem 5.1, converse: a failed identity shows in some distribution.
    report = call("verify.verify_theorem_5_1", hw.verify_theorem_5_1, inst.family,
                  inst.constants, max_word_len=T51_WORD_LEN, n_states=T51_STATES,
                  seed=inst.t51_seed, counts=_t51_counts)
    if not report.passed:
        fails.append(f"theorem-5.1: {report}")
    return fails


def _hb_counts(report) -> dict:
    return {"oqrw.check_hb.checked": report.checked, "oqrw.check_hb.skipped": report.skipped}


def _t51_counts(report) -> dict:
    return {"verify.theorem_5_1.cases": report.checked_cases}


class Workload:
    name = NAME
    tail_cap = TAIL_CAP

    def __init__(self, seed: int):
        rng = random.Random(seed)
        nprng = np.random.default_rng(seed)
        self.seed = seed
        zl = {r: presets.zlattice_hypergroup(r).tensor for r in (10, 12)}
        graphs = {
            "Q6": (_distance_tensor(hw.hypercube_graph(6)), None),
            "Q8": (_distance_tensor(hw.hypercube_graph(8)), None),
            "C16": (_distance_tensor(hw.cycle_graph(16)), cycle_constants(16)),
        }
        self.sparse = [
            _sparse("z-lattice(10)", zl[10], line_constants(10), 1, rng, nprng),
            _sparse("z-lattice(12)", zl[12], line_constants(12), 3, rng, nprng),
        ]
        # Q6 at h_dim 3 comes three times, each with its own isometries: the
        # median falls inside that block of like-sized samples, not on the
        # step between two instances of different cost.
        for name, h_dims in (("Q6", (1, 3, 3, 3)), ("Q8", (3,)), ("C16", (1,))):
            tensor, closed = graphs[name]
            expected = closed if closed is not None else rows_of(tensor)
            self.sparse += [_sparse(name, tensor, expected, h, rng, nprng) for h in h_dims]
        self.dense = [_dense(d, h, rng) for d, h in ((4, 1), (4, 3), (5, 2), (6, 2), (8, 1))]
        self.ops = [
            Op(inst.name, partial(run_sparse, inst),
               defect="t51-truncated" if inst.truncated else None,
               defect_checks=frozenset({"theorem-5.1"}))
            for inst in self.sparse
        ] + [Op(inst.name, partial(run_dense, inst)) for inst in self.dense]

    def round(self, r: int) -> list[Op]:
        return shuffled(self.ops, self.seed, r)

    def warmup(self) -> list[Op]:
        return [op for op in self.ops if op.label in ("Q6 h1", "dense d4 h1")]

    def descriptors(self) -> list[dict]:
        out = []
        for inst in self.sparse:
            t = inst.tensor
            # realize() stores one block per nonzero constant of a certified
            # row and one completion block per uncertified (j, k).
            blocks = sum(len(t.row(k, j)) for k, j in t.defined_pairs())
            blocks += t.size ** 2 - sum(1 for _ in t.defined_pairs())
            out.append(self._descriptor(inst.name, t.size, inst.h_dim, blocks, inst.truncated))
        for inst in self.dense:
            f = inst.family
            out.append(self._descriptor(inst.name, f.d_size, f.h_dim, len(f.blocks), False))
        return out

    @staticmethod
    def _descriptor(name, d, h_dim, blocks, truncated) -> dict:
        return {
            "instance": name,
            "d": d,
            "h_dim": h_dim,
            "nonzero_block_share": round(blocks / d**3, 4),
            "truncated": truncated,
        }

    def close(self) -> None:
        pass
