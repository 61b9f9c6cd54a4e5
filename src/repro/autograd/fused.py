"""Fused hot-path kernels registered through the primitive registry.

The bench artifact says where GNN training time goes: the spmm
propagation loop and the BPR loss pipeline.  This module collapses each
into a single tape node — one forward, one VJP dispatch, no intermediate
tensors — registered via the same :func:`~repro.autograd.primitives
.primitive`/:func:`~repro.autograd.primitives.defvjp` mechanism as every
other op, which is exactly the extension point the registry refactor
exists to provide.

All three kernels are **opt-in**: the default tape keeps the composed
(bit-reproducible) graph, and high-level consumers
(``Recommender.bpr_loss``, ``light_gcn_propagate``,
``functional.bpr_loss``) switch to the fused nodes only inside
:func:`~repro.autograd.primitives.fused_kernels` — which
``TrainConfig(autograd_backend="fused")`` enters for a fit.  Forward
values match the composed path bit-for-bit (:func:`light_propagate`)
or to float tolerance (the BPR kernels reorder the dot-product
reduction); gradients differ only by accumulation order, which is why
selecting them is spec-visible rather than silent.

Why fusing helps without leaving numpy: the composed BPR graph runs
~14 elementwise tape nodes over batch-sized temporaries (two mul+sum
score reductions, neg/softplus/mean and their VJPs, each a python
dispatch plus an allocation); the fused kernel is two einsums forward
and three scaled outer products backward, with the shared logistic
coefficient computed once as a residual.  ``light_propagate`` removes
the per-layer tape nodes and list-sum intermediates, keeping only the
unavoidable csr matvecs (forward) and transposed csr matvecs (VJP).
"""

from __future__ import annotations

import numpy as np

from .primitives import defvjp, primitive
from .sparse import _cached_csr_pair
from .tensor import Tensor, as_tensor


def _logistic(x: np.ndarray) -> np.ndarray:
    """Numerically stable sigmoid (shared by the BPR kernel VJPs)."""
    return np.where(x >= 0,
                    1.0 / (1.0 + np.exp(-np.clip(x, 0, None))),
                    np.exp(np.clip(x, None, 0)) /
                    (1.0 + np.exp(np.clip(x, None, 0))))


# --------------------------------------------------------------------- #
# fused BPR loss
# --------------------------------------------------------------------- #

def _fused_bpr_loss_fwd(u, vp, vn):
    x = np.einsum("nd,nd->n", u, vp) - np.einsum("nd,nd->n", u, vn)
    loss = np.logaddexp(0.0, -x).mean()
    # dloss/dx, shared by all three VJPs; computing it here (the
    # residuals hook) is the fusion win: backward is three scaled
    # outer products instead of replaying the elementwise chain
    coef = -_logistic(-x) / x.shape[0]
    return np.asarray(loss, dtype=u.dtype), coef.astype(u.dtype, copy=False)


_fused_bpr_loss = primitive("fused_bpr_loss", residuals=True)(
    _fused_bpr_loss_fwd)
defvjp("fused_bpr_loss",
       lambda g, ans, coef, u, vp, vn: (g * coef)[:, None] * (vp - vn),
       lambda g, ans, coef, u, vp, vn: (g * coef)[:, None] * u,
       lambda g, ans, coef, u, vp, vn: (-g * coef)[:, None] * u)


def fused_bpr_loss(user: Tensor, pos_item: Tensor, neg_item: Tensor) -> Tensor:
    """BPR loss + grad over embedding triplets as one tape node.

    ``mean(softplus(-(u·vp - u·vn)))`` for row-aligned ``(n, d)``
    embedding batches.  Equivalent to the composed
    ``F.bpr_loss((u * vp).sum(1), (u * vn).sum(1))`` graph within float
    tolerance (the einsum reduction reorders the dot products).

    >>> import numpy as np
    >>> from repro.autograd import Tensor, fused_bpr_loss
    >>> u = Tensor(np.full((2, 3), 0.1), requires_grad=True)
    >>> loss = fused_bpr_loss(u, Tensor(np.ones((2, 3))),
    ...                       Tensor(np.zeros((2, 3))))
    >>> round(loss.item(), 4)   # softplus(-0.3)
    0.5544
    >>> loss.backward()
    >>> u.grad.shape
    (2, 3)
    """
    return _fused_bpr_loss(as_tensor(user), as_tensor(pos_item),
                           as_tensor(neg_item))


def _fused_bpr_scores_fwd(pos, neg):
    x = pos - neg
    loss = np.logaddexp(0.0, -x).mean()
    coef = -_logistic(-x) / x.size
    return np.asarray(loss, dtype=pos.dtype), coef.astype(pos.dtype,
                                                          copy=False)


_fused_bpr_scores = primitive("fused_bpr_scores", residuals=True)(
    _fused_bpr_scores_fwd)
defvjp("fused_bpr_scores",
       lambda g, ans, coef, pos, neg: g * coef,
       lambda g, ans, coef, pos, neg: -g * coef)


def fused_bpr_scores(pos_scores: Tensor, neg_scores: Tensor) -> Tensor:
    """Score-level fused BPR: ``mean(softplus(neg - pos))`` in one node.

    The drop-in fused form of :func:`repro.autograd.functional.bpr_loss`
    for models that already hold score vectors rather than embedding
    triplets.
    """
    return _fused_bpr_scores(as_tensor(pos_scores), as_tensor(neg_scores))


# --------------------------------------------------------------------- #
# fused propagate-and-pool
# --------------------------------------------------------------------- #

def _light_propagate_fwd(adjacency, ego, num_layers):
    csr, _ = _cached_csr_pair(adjacency, ego.dtype)
    out = ego
    h = ego
    for _ in range(num_layers):
        h = csr @ h
        out = out + h
    return out * (1.0 / (num_layers + 1))


def _vjp_light_propagate(g, ans, adjacency, ego, num_layers):
    _, csr_t = _cached_csr_pair(adjacency, ego.dtype)
    scaled = g * (1.0 / (num_layers + 1))
    total = scaled
    acc = scaled
    for _ in range(num_layers):
        acc = csr_t @ acc
        total = total + acc
    return total


_light_propagate = primitive("light_propagate")(_light_propagate_fwd)
defvjp("light_propagate", None, _vjp_light_propagate)


def light_propagate(adjacency, ego: Tensor, num_layers: int) -> Tensor:
    """LightGCN propagation + mean-pool as one tape node.

    Forward equals ``mean_k(A^k ego, k=0..num_layers)`` with the exact
    accumulation order of the composed spmm loop (bit-identical output);
    the VJP runs the transposed csr matvec chain
    ``sum_k (A^T)^k g / (L+1)`` without materializing per-layer tape
    nodes, so gradient accumulation order (only) differs from the
    composed graph.  Counts toward the spmm profile family.

    >>> import numpy as np, scipy.sparse as sp
    >>> from repro.autograd import Tensor, light_propagate
    >>> adj = sp.eye(3, format="csr") * 2.0
    >>> ego = Tensor(np.ones((3, 1)), requires_grad=True)
    >>> light_propagate(adj, ego, 2).data.ravel()  # (1 + 2 + 4) / 3
    array([2.33333333, 2.33333333, 2.33333333])
    """
    return _light_propagate(adjacency, as_tensor(ego),
                            num_layers=int(num_layers))
