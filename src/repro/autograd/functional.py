"""Neural-network functional building blocks used across the models.

Everything here is a thin composition of :class:`~repro.autograd.tensor.Tensor`
operations, so gradients are exact.  These are the losses and similarity
functions the paper's framework (Sec III-D) and all baselines share: BPR
(Eq 15), InfoNCE (Eq 14), Gaussian KL for the GIB bound (Eq 9) and the usual
normalization helpers.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .fused import fused_bpr_scores
from .primitives import fused_kernels_enabled
from .tensor import Tensor, as_tensor, cast_like, concat


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    return (x - x.logsumexp(axis=axis, keepdims=True)).exp()


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    return x - x.logsumexp(axis=axis, keepdims=True)


def l2_normalize(x: Tensor, axis: int = -1, eps: float = 1e-12) -> Tensor:
    """Normalize rows to unit L2 norm (the cosine-similarity workhorse)."""
    norm = ((x * x).sum(axis=axis, keepdims=True) + eps).sqrt()
    return x / norm


def cosine_similarity_matrix(a: Tensor, b: Tensor) -> Tensor:
    """Pairwise cosine similarities: rows of ``a`` against rows of ``b``."""
    return l2_normalize(a) @ l2_normalize(b).T


def bpr_loss(pos_scores: Tensor, neg_scores: Tensor) -> Tensor:
    """Bayesian Personalized Ranking loss (paper Eq 15).

    ``-mean(log sigmoid(pos - neg))`` over sampled ``(u, v+, v-)`` triplets.
    Routes through the one-node :func:`repro.autograd.fused
    .fused_bpr_scores` kernel inside :func:`~repro.autograd.primitives
    .fused_kernels` (equal within float tolerance; the composed graph
    stays the default).
    """
    if fused_kernels_enabled():
        return fused_bpr_scores(pos_scores, neg_scores)
    return -(pos_scores - neg_scores).logsigmoid().mean()


def infonce_loss(view_a: Tensor, view_b: Tensor,
                 temperature: float = 0.5) -> Tensor:
    """InfoNCE contrastive loss between two aligned views (paper Eq 14).

    Row ``i`` of ``view_a`` and row ``i`` of ``view_b`` form the positive
    pair; every other row of ``view_b`` is a negative.  Cosine similarities
    are scaled by ``1 / temperature``.
    """
    sims = cosine_similarity_matrix(view_a, view_b) / temperature
    n = sims.shape[0]
    pos = sims[np.arange(n), np.arange(n)]
    return (sims.logsumexp(axis=1) - pos).mean()


def decomposed_infonce_loss(view_a: Tensor, view_b: Tensor,
                            temperature: float = 0.5,
                            negative_weight: float = 1.0) -> Tensor:
    """InfoNCE split into positive and negative terms (paper Sec III-D.1).

    The paper: "The final training objective is the summation of the
    positive and negative terms, with the negative term weighted by a
    negative sample ratio denoted as r."  With ``negative_weight = 1`` this
    is exactly :func:`infonce_loss`; smaller values soften the repulsion of
    in-batch negatives — essential at miniature dataset scale, where most
    in-batch "negatives" share the positive pair's latent interest group
    and full-strength repulsion fights the ranking objective.
    """
    sims = cosine_similarity_matrix(view_a, view_b) * (1.0 / temperature)
    n = sims.shape[0]
    pos = sims[np.arange(n), np.arange(n)]
    positive_term = -pos.mean()
    negative_term = sims.logsumexp(axis=1).mean()
    return positive_term + negative_weight * negative_term


def alignment_loss(view_a: Tensor, view_b: Tensor) -> Tensor:
    """Mean squared distance between normalized positive pairs."""
    diff = l2_normalize(view_a) - l2_normalize(view_b)
    return (diff * diff).sum(axis=1).mean()


def uniformity_loss(x: Tensor, t: float = 2.0) -> Tensor:
    """Wang & Isola uniformity: log mean exp(-t * pdist^2) on the sphere.

    Lower (more negative) = more uniform.  Used to quantify Figure 7.
    """
    z = l2_normalize(x)
    sq_dists = (-2.0 * (z @ z.T) + 2.0).clamp(low=0.0)
    n = z.shape[0]
    mask = ~np.eye(n, dtype=bool)
    flat = (-t * sq_dists)[mask]
    return flat.logsumexp(axis=0) - float(np.log(mask.sum()))


def gaussian_kl(mu: Tensor, log_var: Tensor) -> Tensor:
    """KL( N(mu, diag(exp(log_var))) || N(0, I) ), averaged over rows.

    This is the tractable form of the paper's upper bound on ``I(Z'; A)``
    (Lemma 1 / Eq 9) with the variational marginal ``r(Z')`` taken to be a
    standard normal.
    """
    var = log_var.exp()
    per_dim = 0.5 * (var + mu * mu - 1.0 - log_var)
    return per_dim.sum(axis=-1).mean()


def mse_loss(pred: Tensor, target: Tensor) -> Tensor:
    """Mean squared error against a constant target."""
    diff = pred - as_tensor(target)
    return (diff * diff).mean()


def binary_cross_entropy_with_logits(logits: Tensor,
                                     targets: np.ndarray) -> Tensor:
    """Stable BCE on raw logits with constant 0/1 targets."""
    targets = cast_like(targets, logits)
    # max(x, 0) - x*t + log(1 + exp(-|x|))
    positive_part = logits.clamp(low=0.0)
    return (positive_part - logits * targets
            + (-logits.abs()).softplus()).mean()


def l2_regularization(params, weight: float = 1.0) -> Tensor:
    """Frobenius-norm weight decay term (paper Eq 16, ``||Theta||_F^2``)."""
    total: Optional[Tensor] = None
    for param in params:
        term = (param * param).sum()
        total = term if total is None else total + term
    if total is None:
        raise ValueError("no parameters given")
    return total * weight


def dropout(x: Tensor, rate: float, rng: np.random.Generator,
            training: bool = True) -> Tensor:
    """Inverted dropout (identity when not training or rate == 0)."""
    if not training or rate <= 0.0:
        return x
    keep = 1.0 - rate
    mask = cast_like((rng.random(x.shape) < keep) / keep, x)
    return x * mask


def gumbel_sigmoid(logits: Tensor, rng: np.random.Generator,
                   temperature: float = 0.5) -> Tensor:
    """Reparameterized relaxed-Bernoulli sample (paper Eq 5).

    ``sigmoid((logits + log eps - log(1-eps)) / temperature)`` where
    ``eps ~ Uniform(0, 1)`` gives Logistic noise — the binary analogue of the
    Gumbel-softmax trick.  Differentiable w.r.t. ``logits``.
    """
    eps = rng.uniform(1e-10, 1.0 - 1e-10, size=logits.shape)
    noise = cast_like(np.log(eps) - np.log1p(-eps), logits)
    return ((logits + noise) * (1.0 / temperature)).sigmoid()
