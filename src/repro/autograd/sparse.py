"""Sparse matrix multiplication with autograd support.

Two primitives cover everything the graph encoders need:

* :func:`spmm` — a *constant* scipy sparse matrix times a dense
  :class:`~repro.autograd.tensor.Tensor`.  Gradient flows only into the dense
  operand.  This is the LightGCN / NGCF style propagation where the adjacency
  is fixed.
* :func:`weighted_spmm` — a sparse matrix whose *values are themselves a
  Tensor* (fixed sparsity pattern given by COO ``rows``/``cols``) times a
  dense Tensor.  Gradient flows both into the dense operand and into the edge
  weights.  This is what makes the paper's learnable augmentor trainable
  end-to-end: edge keep-probabilities parameterize the augmented adjacency
  and receive gradients through message passing.

Both are registered primitives (:mod:`repro.autograd.primitives`): their
forwards and VJPs live in the same registry as the dense ops, so the
per-primitive profiler covers them, and the fused ``light_propagate``
kernel (:mod:`repro.autograd.fused`) builds on the same caches.

Operand caching
---------------
Both primitives sit on the training hot path, called once per layer per
batch per backward pass, so repeated format conversions dominate epoch
time if done naively:

* :func:`spmm` caches ``(CSR, CSR^T)`` per adjacency object (keyed by
  identity with weakref eviction, one variant per dtype).  The adjacency
  is assumed constant — mutating a matrix in place after its first
  ``spmm`` call requires :func:`clear_sparse_caches`.  The VJP looks the
  pair up again at backward time: identity-keyed hits, deterministic.
* :func:`weighted_spmm` caches the *structure* (CSR index arrays and the
  COO→CSR permutation, forward and transposed) per ``(rows, cols, shape)``
  pattern, so each call only gathers the current values into the cached
  layout instead of re-running the full COO→CSR conversion.  Patterns with
  duplicate coordinates fall back to the exact scipy conversion (which
  sums duplicates).

:data:`SPMM_PRIMITIVES` names the sparse-matmul family whose
per-primitive profile entries ``FitResult.spmm_seconds`` sums.
"""

from __future__ import annotations

import weakref
from typing import Dict, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from .primitives import defvjp, primitive
from .tensor import Tensor, as_tensor

#: primitives whose wall-clock ``FitResult.spmm_seconds`` sums
SPMM_PRIMITIVES = ("spmm", "weighted_spmm", "light_propagate")


# --------------------------------------------------------------------- #
# constant-adjacency cache (spmm)
# --------------------------------------------------------------------- #

# id(matrix) -> (weakref(matrix), {dtype: (csr, csr_T)})
_adjacency_cache: Dict[int, tuple] = {}

# (id(rows), id(cols), shape) -> pattern entry dict
_pattern_cache: Dict[tuple, dict] = {}


def clear_sparse_caches() -> None:
    """Drop every cached sparse operand (after in-place matrix mutation)."""
    _adjacency_cache.clear()
    _pattern_cache.clear()


def _adjacency_entry(matrix) -> tuple:
    key = id(matrix)
    entry = _adjacency_cache.get(key)
    if entry is not None and entry[0]() is matrix:
        return entry

    def _evict(ref, _key=key):
        current = _adjacency_cache.get(_key)
        if current is not None and current[0] is ref:
            del _adjacency_cache[_key]

    entry = (weakref.ref(matrix, _evict), {})
    _adjacency_cache[key] = entry
    return entry


def _cached_csr_pair(matrix, dtype) -> Tuple[sp.csr_matrix, sp.csr_matrix]:
    """CSR and transposed-CSR views of ``matrix`` in ``dtype``, cached."""
    dtype = np.dtype(dtype)
    variants = _adjacency_entry(matrix)[1]
    pair = variants.get(dtype)
    if pair is None:
        csr = matrix.tocsr()
        if csr is matrix:
            # re-wrap so the cache holds no strong reference to the key
            # object (otherwise the weakref eviction could never fire)
            csr = sp.csr_matrix((csr.data, csr.indices, csr.indptr),
                                shape=csr.shape, copy=False)
        csr = csr.astype(dtype, copy=False)
        pair = (csr, csr.T.tocsr())
        variants[dtype] = pair
    return pair


_spmm = primitive("spmm")(
    lambda matrix, dense: _cached_csr_pair(matrix, dense.dtype)[0] @ dense)
defvjp("spmm", None,
       lambda g, ans, matrix, dense:
       _cached_csr_pair(matrix, dense.dtype)[1] @ g)


def spmm(matrix: sp.spmatrix, dense: Tensor) -> Tensor:
    """Multiply a constant sparse ``matrix`` by a dense tensor.

    Backward: ``d dense = matrix.T @ grad``.  The CSR form and its
    transpose are cached per adjacency and reused across every batch and
    backward pass (the VJP's cache lookup is an identity-keyed hit).
    """
    return _spmm(matrix, as_tensor(dense))


# --------------------------------------------------------------------- #
# fixed-pattern cache (weighted_spmm)
# --------------------------------------------------------------------- #

def _build_pattern(rows: np.ndarray, cols: np.ndarray,
                   shape: Tuple[int, int]) -> Optional[dict]:
    """Derive the CSR layout of a COO pattern (or None when duplicated).

    Tagging trick: convert a matrix whose values are ``1..n`` through
    scipy's own COO→CSR path; the converted ``data`` then *is* the
    permutation from input order to canonical CSR slots, and ``nnz < n``
    detects duplicate coordinates (scipy sums them).
    """
    n = rows.shape[0]
    tags = np.arange(1, n + 1, dtype=np.float64)
    fwd = sp.csr_matrix((tags, (rows, cols)), shape=shape)
    if fwd.nnz != n:
        return None
    bwd = fwd.T.tocsr()
    return {
        "fwd_order": fwd.data.astype(np.int64) - 1,
        "fwd_indices": fwd.indices, "fwd_indptr": fwd.indptr,
        "fwd_counts": np.diff(fwd.indptr).astype(np.int64),
        "bwd_order": bwd.data.astype(np.int64) - 1,
        "bwd_indices": bwd.indices, "bwd_indptr": bwd.indptr,
    }


def _cached_pattern(rows: np.ndarray, cols: np.ndarray,
                    shape: Tuple[int, int]) -> Optional[dict]:
    key = (id(rows), id(cols), shape)
    entry = _pattern_cache.get(key)
    if (entry is not None and entry["rows_ref"]() is rows
            and entry["cols_ref"]() is cols):
        return entry["pattern"]

    def _evict(ref, _key=key):
        current = _pattern_cache.get(_key)
        if current is not None and (current["rows_ref"] is ref
                                    or current["cols_ref"] is ref):
            del _pattern_cache[_key]

    pattern = _build_pattern(rows, cols, shape)
    _pattern_cache[key] = {
        "rows_ref": weakref.ref(rows, _evict),
        "cols_ref": weakref.ref(cols, _evict),
        "pattern": pattern,
    }
    return pattern


def _weighted_csr(rows, cols, vals, shape, pattern):
    """Assemble the forward CSR from a cached pattern (or exact scipy)."""
    if pattern is None:  # duplicate coordinates: exact scipy conversion
        return sp.csr_matrix((vals, (rows, cols)), shape=shape)
    return sp.csr_matrix((vals[pattern["fwd_order"]],
                          pattern["fwd_indices"], pattern["fwd_indptr"]),
                         shape=shape, copy=False)


def _weighted_spmm_fwd(rows, cols, vals, dense, shape):
    pattern = _cached_pattern(rows, cols, shape)
    return _weighted_csr(rows, cols, vals, shape, pattern) @ dense


def _vjp_weighted_values(g, ans, rows, cols, vals, dense, shape):
    # d value[e] = <g[row_e], X[col_e]>
    pattern = _cached_pattern(rows, cols, shape)
    if pattern is None:
        return np.einsum("ed,ed->e", g[rows], dense[cols])
    # segment form over the cached CSR layout: expand g by
    # row-run-lengths (sequential, vs the random g[rows] gather) and
    # read X in the already-sorted slot order, then permute the
    # per-slot dots back to input order
    g_rows = np.repeat(g, pattern["fwd_counts"], axis=0)
    slot_dots = np.einsum("ed,ed->e", g_rows,
                          dense[pattern["fwd_indices"]])
    grad_vals = np.empty_like(slot_dots)
    grad_vals[pattern["fwd_order"]] = slot_dots
    return grad_vals


def _vjp_weighted_dense(g, ans, rows, cols, vals, dense, shape):
    pattern = _cached_pattern(rows, cols, shape)
    if pattern is None:
        csr_t = _weighted_csr(rows, cols, vals, shape, pattern).T.tocsr()
    else:
        csr_t = sp.csr_matrix(
            (vals[pattern["bwd_order"]],
             pattern["bwd_indices"], pattern["bwd_indptr"]),
            shape=(shape[1], shape[0]), copy=False)
    return csr_t @ g


_weighted_spmm = primitive("weighted_spmm")(_weighted_spmm_fwd)
defvjp("weighted_spmm", None, None,
       _vjp_weighted_values, _vjp_weighted_dense)


def weighted_spmm(rows: np.ndarray,
                  cols: np.ndarray,
                  values: Tensor,
                  shape: Tuple[int, int],
                  dense: Tensor) -> Tensor:
    """Multiply a sparse matrix with *learnable values* by a dense tensor.

    Parameters
    ----------
    rows, cols:
        COO coordinates of the non-zeros (constant integer arrays).
    values:
        1-D tensor of edge weights, one per coordinate pair.  May require
        grad; the backward pass computes ``d values[e] =
        grad[rows[e]] . dense[cols[e]]``.
    shape:
        ``(n_rows, n_cols)`` of the sparse operand.
    dense:
        Dense right-hand operand of shape ``(n_cols, d)``.
    """
    values = as_tensor(values)
    dense = as_tensor(dense)
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    if values.data.ndim != 1 or values.data.shape[0] != rows.shape[0]:
        raise ValueError("values must be 1-D with one entry per coordinate")
    return _weighted_spmm(rows, cols, values, dense,
                          shape=(int(shape[0]), int(shape[1])))


def coo_from_scipy(matrix: sp.spmatrix):
    """Return ``(rows, cols, values, shape)`` from any scipy sparse matrix."""
    coo = matrix.tocoo()
    return (coo.row.astype(np.int64), coo.col.astype(np.int64),
            coo.data.astype(np.float64), coo.shape)
