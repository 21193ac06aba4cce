"""Frozen reference copy of the per-block random isometry draws.

``random_unitary`` draws and factors one block at a time, and
``random_isometries`` calls it once per block that ``realize`` builds, in
sorted (k, j), then sorted i order.  The library now draws every block in
one call and factors them as one stack; these copies are the oracle that
its draws stay bit for bit the same.  Do not optimise this file.
"""

from __future__ import annotations

import numpy as np


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases


def random_isometries(tensor, h_dim: int, seed) -> dict[tuple[int, int, int], np.ndarray]:
    rng = np.random.default_rng(seed)
    return {
        (i, j, k): random_unitary(h_dim, rng)
        for k, j in sorted(tensor.defined_pairs())
        for i in sorted(tensor.row(k, j))
    }
