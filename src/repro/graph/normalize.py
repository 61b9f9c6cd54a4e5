"""Adjacency normalization for graph message passing.

The paper's mixhop encoder (Sec III-C) uses "a Laplacian-normalized adjacency
matrix with a self-loop, following [LightGCN]", i.e. the symmetric
normalization ``D^{-1/2} (A + I) D^{-1/2}`` over the unified user+item node
set.  Helpers are also provided for the plain LightGCN normalization without
self-loops and for normalizing *weighted* augmented adjacencies from raw edge
weights (used by the learnable augmentor, where the degrees are recomputed
from the current soft edge weights).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
import scipy.sparse as sp


def symmetric_normalize(adj: sp.spmatrix, add_self_loops: bool = True,
                        eps: float = 1e-12) -> sp.csr_matrix:
    """Return ``D^{-1/2} (A [+ I]) D^{-1/2}`` as CSR."""
    matrix = sp.csr_matrix(adj, dtype=np.float64)
    if add_self_loops:
        matrix = (matrix + sp.identity(matrix.shape[0],
                                       format="csr")).tocsr()
    degrees = np.asarray(matrix.sum(axis=1)).ravel()
    inv_sqrt = 1.0 / np.sqrt(np.maximum(degrees, eps))
    inv_sqrt[degrees == 0] = 0.0
    scale = sp.diags(inv_sqrt)
    return (scale @ matrix @ scale).tocsr()


def row_normalize(adj: sp.spmatrix, eps: float = 1e-12) -> sp.csr_matrix:
    """Return ``D^{-1} A`` (random-walk normalization)."""
    matrix = sp.csr_matrix(adj, dtype=np.float64)
    degrees = np.asarray(matrix.sum(axis=1)).ravel()
    inv = 1.0 / np.maximum(degrees, eps)
    inv[degrees == 0] = 0.0
    return (sp.diags(inv) @ matrix).tocsr()


def normalized_edge_weights(rows: np.ndarray, cols: np.ndarray,
                            weights: np.ndarray, num_nodes: int,
                            eps: float = 1e-12) -> np.ndarray:
    """Symmetrically normalize per-edge weights: ``w / sqrt(d_r * d_c)``.

    Degrees are the weighted degrees induced by ``weights`` over the COO
    pattern.  This is how the augmented graphs ``G'``/``G''`` are normalized:
    degrees are computed from the *current* (detached) soft edge weights so
    gradients flow through the edge weights but not the normalizer, which
    the backward pass treats as a constant.
    """
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    weights = np.asarray(weights)
    if weights.dtype not in (np.float32, np.float64):
        weights = weights.astype(np.float64)
    degrees = np.zeros(num_nodes, dtype=weights.dtype)
    np.add.at(degrees, rows, weights)
    np.add.at(degrees, cols, weights)
    inv_sqrt = 1.0 / np.sqrt(np.maximum(degrees, eps))
    inv_sqrt[degrees <= eps] = 0.0
    return weights * inv_sqrt[rows] * inv_sqrt[cols]


def adjacency_power_apply(norm_adj: sp.csr_matrix, features: np.ndarray,
                          power: int) -> np.ndarray:
    """Compute ``A^m @ X`` iteratively as ``A(A(...(AX)))`` (paper Sec III-E).

    Never materializes ``A^m``, matching the paper's memory argument.
    """
    if power < 0:
        raise ValueError("power must be non-negative")
    out = features
    for _ in range(power):
        out = norm_adj @ out
    return out
