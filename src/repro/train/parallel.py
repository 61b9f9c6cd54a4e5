"""The amortized-propagation training schedule (stale windows).

Every mini-batch of the classic loop recomputes the full multi-layer
``propagate()`` forward *and* backward.  This module amortizes that cost
without giving up the repo's determinism invariant.

The stale-window schedule (``TrainConfig.propagate_every = K``)
----------------------------------------------------------------
Each epoch is cut into windows of ``K`` batches:

* the **refresh batch** (first of the window) trains exactly like today —
  full ``model.loss`` through a live ``propagate()``, SSL terms and all —
  and then freezes a snapshot of the propagated tables
  (:meth:`Recommender.refresh_propagation`);
* the following ``K-1`` **stale batches** train a BPR + L2 objective
  directly on the frozen tables (:func:`stale_batch_grads`): the forward
  reads stale rows, and the gradient is scattered back onto the ego
  embedding tables through the tape's own ``take_rows`` scatter
  (:func:`repro.autograd.scatter_rows`), as if the final embeddings were
  the ego embeddings plus a constant propagation offset.  Non-embedding
  parameters (e.g. NGCF's layer weights) and SSL terms update only on
  refresh batches.

Because a stale batch's objective depends *only* on the frozen tables —
never on parameters updated inside the window — the window's gradients
are mutually independent: the trainer computes and applies them one by
one, in batch order, inside the window.

``K = 1`` (the default) never enters this module: the trainer runs the
classic loop unchanged, bit-identical to every previous release.  The
schedule requires the inherited embedding-dot ``score_users`` (see
:meth:`Recommender.supports_amortized_propagation`); custom-scorer models
(ncf, autorec, biasmf) reject it loudly.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..autograd import (Tensor, fused_bpr_loss, fused_kernels_enabled,
                        scatter_rows, functional as F)


def stale_batch_grads(user_rows: np.ndarray, pos_rows: np.ndarray,
                      neg_rows: np.ndarray, reg_weight: float
                      ) -> Tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """Loss and per-row gradients of one stale batch.

    ``user_rows`` / ``pos_rows`` / ``neg_rows`` are rows gathered from
    the *frozen* propagated tables.  The objective mirrors the exact
    path's BPR + batch-wise L2 (same fused-kernel gating), computed
    entirely on the stale rows — by construction it never reads live
    parameters, which is what makes window gradients mutually
    independent.  Returns ``(loss, d/d_user_rows, d/d_pos_rows,
    d/d_neg_rows)``; the caller scatters them onto the ego tables.
    """
    u = Tensor(user_rows, requires_grad=True)
    vp = Tensor(pos_rows, requires_grad=True)
    vn = Tensor(neg_rows, requires_grad=True)
    if fused_kernels_enabled("fused_bpr_loss"):
        loss = fused_bpr_loss(u, vp, vn)
    else:
        pos_scores = (u * vp).sum(axis=1)
        neg_scores = (u * vn).sum(axis=1)
        loss = F.bpr_loss(pos_scores, neg_scores)
    if reg_weight:
        total = (u * u).sum() + (vp * vp).sum() + (vn * vn).sum()
        loss = loss + total * (reg_weight / max(1, user_rows.shape[0]))
    loss.backward()
    return float(loss.item()), u.grad, vp.grad, vn.grad


def apply_stale_gradients(model, optimizer, users: np.ndarray,
                          pos: np.ndarray, neg: np.ndarray,
                          gu: np.ndarray, gp: np.ndarray, gn: np.ndarray,
                          ego_columns: slice = slice(None)) -> None:
    """Scatter per-row stale gradients onto the ego tables and step.

    ``ego_columns`` restricts the scatter to the identity-rooted block
    of the propagated width (:meth:`Recommender.amortized_ego_columns`;
    the full width for LightGCN-style models).  Uses the tape's own
    dtype-preserving segment-sum scatter
    (:func:`repro.autograd.scatter_rows`) — one scatter per ``take_rows``
    occurrence, accumulated exactly like ``backward()`` would.
    """
    uw = model.user_emb.weight
    iw = model.item_emb.weight
    users = np.asarray(users, dtype=np.int64)
    pos = np.asarray(pos, dtype=np.int64)
    neg = np.asarray(neg, dtype=np.int64)
    optimizer.zero_grad()
    uw.grad = scatter_rows(
        np.ascontiguousarray(gu[:, ego_columns], dtype=uw.data.dtype),
        users, uw.data.shape[0])
    item_grad = scatter_rows(
        np.ascontiguousarray(gp[:, ego_columns], dtype=iw.data.dtype),
        pos, iw.data.shape[0])
    item_grad += scatter_rows(
        np.ascontiguousarray(gn[:, ego_columns], dtype=iw.data.dtype),
        neg, iw.data.shape[0])
    iw.grad = item_grad
    optimizer.step()
