"""The shared recommender interface and graph-encoder building blocks.

Every baseline and the paper's GraphAug implement this contract so the
:class:`repro.train.Trainer`, the evaluation protocol and all benchmark
harnesses can drive any of them interchangeably:

* ``loss(users, pos_items, neg_items)`` — scalar training loss on a BPR
  batch, *including* the model's own SSL / regularization terms;
* ``propagate()`` — final user and item embedding tensors;
* ``score_users(user_ids)`` — ``(len(user_ids), num_items)`` preference
  block for a subset of users (the inference contract, below);
* ``score_all_users()`` — dense ``(num_users, num_items)`` preference
  matrix; a thin compatibility wrapper over ``score_users``;
* ``node_embeddings()`` — stacked user+item embeddings (MAD / Fig 7 probes).

Scoring contract
----------------
The chunked ranking engine (:mod:`repro.eval.protocol`) drives inference
exclusively through ``score_users`` so peak memory stays at ``chunk_size
x num_items`` instead of the all-pairs matrix:

* ``score_users(user_ids)`` returns scores for exactly those users, in
  order; ``score_users(None)`` means *all* users and is what
  ``score_all_users()`` forwards to.
* The default implementation derives scores from ``propagate()`` as a
  user-block/item dot product.  Models whose scores are *not* an
  embedding dot product (``ncf``, ``autorec``, ``biasmf``) override
  ``score_users`` — never ``score_all_users``.
* ``inference_cache()`` is a context manager that memoizes one
  ``propagate()`` across repeated ``score_users`` calls; evaluators hold
  it open for the duration of one evaluation pass.  Outside the context
  every call re-propagates, so training never sees stale embeddings.

Snapshot / serving state contract
---------------------------------
The serving tier (:mod:`repro.serve`) persists and restores models
without their training pipeline.  Three guarantees make that possible:

* ``propagate()`` (and therefore ``score_users``) is **deterministic
  given the parameters and the training graph** — structural randomness
  (augmented views, noise propagations, EM steps) lives in ``loss`` /
  ``on_epoch_start`` only.  A model rebuilt from the registry with the
  same dataset graph, ``state_dict`` and parameter dtype reproduces its
  inference scores bit-for-bit.
* ``self.seed`` records the construction seed, so registry round-trips
  rebuild construction-time structural state (e.g. GraphAug's candidate
  edge set) identically.
* ``serving_embeddings()`` returns the propagated ``(user, item)``
  arrays when ``score_users`` is the inherited embedding dot product —
  a complete, model-free serving state — and ``None`` for models with a
  custom scorer (``ncf``, ``autorec``, ``biasmf``), which serving
  restores through the registry and drives via ``score_users``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Optional, Tuple

import numpy as np
import scipy.sparse as sp

from ..autograd import (Embedding, Module, Tensor, fused_bpr_loss,
                        fused_kernels_enabled, light_propagate, no_grad, spmm,
                        functional as F)
from ..data import InteractionDataset
from ..graph import symmetric_normalize
from ..train.config import ModelConfig
from ..utils import spawn_rngs


class Recommender(Module):
    """Base class: id embeddings + BPR loss + full-matrix scoring."""

    name = "base"

    def __init__(self, dataset: InteractionDataset,
                 config: Optional[ModelConfig] = None, seed: int = 0):
        super().__init__()
        self.dataset = dataset
        self.config = config or ModelConfig()
        self.seed = seed
        self.num_users = dataset.num_users
        self.num_items = dataset.num_items
        # independent generators: parameter init / structural sampling
        self.init_rng, self.aug_rng = spawn_rngs(seed, 2)
        dim = self.config.embedding_dim
        self.user_emb = Embedding(self.num_users, dim, self.init_rng)
        self.item_emb = Embedding(self.num_items, dim, self.init_rng)
        self._inference_caching = False
        self._inference_embeddings: Optional[Tuple[np.ndarray,
                                                   np.ndarray]] = None
        self._propagation_cache: Optional[Tuple[np.ndarray,
                                                np.ndarray]] = None

    # ------------------------------------------------------------------ #
    # embedding production
    # ------------------------------------------------------------------ #
    def propagate(self) -> Tuple[Tensor, Tensor]:
        """Return final (user, item) embedding tensors.

        The base implementation is pure matrix factorization (no message
        passing); graph models override this.
        """
        return self.user_emb.all(), self.item_emb.all()

    @contextmanager
    def inference_cache(self):
        """Share one ``propagate()`` across many ``score_users`` calls.

        Chunked evaluation calls ``score_users`` once per user block;
        holding this context open makes all blocks read the same final
        embeddings instead of re-running message passing per block.  The
        cache dies with the context, so parameter updates after it are
        always reflected.
        """
        outer = self._inference_caching
        self._inference_caching = True
        try:
            yield self
        finally:
            self._inference_caching = outer
            if not outer:
                self._inference_embeddings = None

    def _final_embeddings(self) -> Tuple[np.ndarray, np.ndarray]:
        """Propagated (user, item) arrays, memoized under inference_cache."""
        if self._inference_embeddings is not None:
            return self._inference_embeddings
        with no_grad():
            users, items = self.propagate()
        pair = (users.data, items.data)
        if self._inference_caching:
            self._inference_embeddings = pair
        return pair

    # ------------------------------------------------------------------ #
    # training-time propagation cache (the amortized schedule)
    # ------------------------------------------------------------------ #
    def supports_amortized_propagation(self) -> bool:
        """Whether the stale-propagation training schedule applies.

        The amortized scheduler (:mod:`repro.train.parallel`) trains
        stale batches against frozen ``propagate()`` tables, which is
        only meaningful when scores *are* that embedding dot product —
        the same eligibility rule ``serving_embeddings`` uses.  Models
        overriding ``score_users`` with a custom scorer (ncf, autorec,
        biasmf) return False and must train with ``propagate_every=1``.
        """
        return type(self).score_users is Recommender.score_users

    def refresh_propagation(self) -> Tuple[np.ndarray, np.ndarray]:
        """Recompute and cache the propagated ``(user, item)`` tables.

        The trainer calls this at every refresh batch of the amortized
        schedule (``TrainConfig.propagate_every`` > 1); the returned
        arrays are **copies**, frozen snapshots of the current
        parameters — later optimizer steps never leak into them, which
        is what makes a stale window's gradients independent of the
        updates applied inside it.  Unlike ``inference_cache`` — whose
        cache dies with its context so *evaluation* always sees live
        parameters — this cache lives until the next refresh or
        :meth:`invalidate_propagation` (structural resampling).
        """
        with no_grad():
            users, items = self.propagate()
        self._propagation_cache = (users.data.copy(), items.data.copy())
        return self._propagation_cache

    def propagation_cache(self) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """The frozen tables from the last refresh (None = invalidated)."""
        return self._propagation_cache

    def amortized_ego_columns(self, final_dim: int) -> slice:
        """Columns of ``propagate()`` output scattered back onto ego tables.

        The stale schedule treats the frozen tables as *ego + constant
        propagation offset*, so a stale gradient flows back through an
        identity scatter — valid only for columns whose dependence on
        the ego tables really is identity-rooted.  When the propagated
        width equals the ego width (LightGCN-style mean pooling) that is
        every column; models that concatenate layers (NGCF) override
        this to name their raw layer-0 block.
        """
        dim = self.user_emb.weight.data.shape[1]
        if final_dim == dim:
            return slice(0, dim)
        raise ValueError(
            f"model {self.name!r} propagates {final_dim}-wide tables over "
            f"{dim}-wide ego embeddings; override amortized_ego_columns "
            "to name the identity-rooted block (or train it with "
            "propagate_every=1)")

    def invalidate_propagation(self) -> None:
        """Drop the stale tables; the next window must re-propagate.

        Models that resample structure in ``on_epoch_start`` (SGL / NCL
        / DGCL views, EM steps) call this so a cache computed on the old
        structure is never trained against.
        """
        self._propagation_cache = None

    def score_users(self, user_ids: Optional[np.ndarray] = None
                    ) -> np.ndarray:
        """``(len(user_ids), num_items)`` preference block (inference).

        ``None`` scores every user.  See the module docstring for the
        full scoring contract.
        """
        users, items = self._final_embeddings()
        if user_ids is None:
            return users @ items.T
        return users[np.asarray(user_ids, dtype=np.int64)] @ items.T

    def serving_embeddings(self) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """Propagated ``(user, item)`` arrays iff they fully determine scores.

        Part of the snapshot/serving contract (module docstring): when
        ``score_users`` is the inherited embedding dot product, the final
        propagated arrays are a complete serving state — a snapshot can
        score from them without rebuilding the model.  Models overriding
        ``score_users`` with a non-dot scorer return ``None`` here (the
        default below detects the override), and the serving tier falls
        back to a registry-restored live model.
        """
        if type(self).score_users is not Recommender.score_users:
            return None
        users, items = self._final_embeddings()
        return users.copy(), items.copy()

    def score_all_users(self) -> np.ndarray:
        """Dense preference scores for every user-item pair.

        Compatibility wrapper: prefer ``score_users`` blocks (via
        ``repro.eval.evaluate_model``) when the all-pairs matrix is not
        actually needed.
        """
        return self.score_users()

    def node_embeddings(self) -> np.ndarray:
        """Stacked (num_users + num_items, d) final embeddings."""
        with no_grad():
            users, items = self.propagate()
            return np.vstack([users.data, items.data])

    # ------------------------------------------------------------------ #
    # losses
    # ------------------------------------------------------------------ #
    def bpr_loss(self, user_final: Tensor, item_final: Tensor,
                 users: np.ndarray, pos: np.ndarray,
                 neg: np.ndarray) -> Tensor:
        """Pairwise ranking loss (paper Eq 15) on propagated embeddings.

        Routes the whole triplet pipeline through the one-node
        :func:`repro.autograd.fused.fused_bpr_loss` kernel when its
        ``fused`` backend is selected (spec-visible via
        ``TrainConfig.autograd_backend``); the composed score graph
        stays the bit-reproducible default.
        """
        u = user_final.take_rows(users)
        vp = item_final.take_rows(pos)
        vn = item_final.take_rows(neg)
        if fused_kernels_enabled("fused_bpr_loss"):
            return fused_bpr_loss(u, vp, vn)
        pos_scores = (u * vp).sum(axis=1)
        neg_scores = (u * vn).sum(axis=1)
        return F.bpr_loss(pos_scores, neg_scores)

    def embedding_reg(self, users: np.ndarray, pos: np.ndarray,
                      neg: np.ndarray) -> Tensor:
        """Batch-wise L2 on the *ego* embeddings involved in the batch.

        This is the standard practical form of the paper's
        ``beta3 ||Theta||_F^2`` term: regularizing the full table every step
        would swamp tiny datasets.
        """
        u = self.user_emb.all().take_rows(users)
        vp = self.item_emb.all().take_rows(pos)
        vn = self.item_emb.all().take_rows(neg)
        total = (u * u).sum() + (vp * vp).sum() + (vn * vn).sum()
        return total * (self.config.reg_weight / max(1, len(users)))

    def loss(self, users: np.ndarray, pos: np.ndarray,
             neg: np.ndarray) -> Tensor:
        user_final, item_final = self.propagate()
        return (self.bpr_loss(user_final, item_final, users, pos, neg)
                + self.embedding_reg(users, pos, neg))


class GraphRecommender(Recommender):
    """Adds the precomputed normalized bipartite adjacency used by GNN models.

    ``self.norm_adj`` is ``D^{-1/2} A D^{-1/2}`` over the unified
    ``(I+J)`` node set, *without* self loops (the LightGCN convention);
    models that want self loops (the paper's mixhop encoder) normalize their
    own variant.
    """

    def __init__(self, dataset: InteractionDataset,
                 config: Optional[ModelConfig] = None, seed: int = 0,
                 add_self_loops: bool = False):
        super().__init__(dataset, config, seed)
        self.adjacency = dataset.train.bipartite_adjacency()
        self.norm_adj = symmetric_normalize(self.adjacency,
                                            add_self_loops=add_self_loops)
        # node index arrays are constant; build once instead of per batch
        self._user_node_idx = np.arange(self.num_users, dtype=np.int64)
        self._item_node_idx = np.arange(self.num_users,
                                        self.num_users + self.num_items,
                                        dtype=np.int64)

    def ego_embeddings(self) -> Tensor:
        """Concatenate user and item tables into one (I+J, d) tensor."""
        from ..autograd import concat
        return concat([self.user_emb.all(), self.item_emb.all()], axis=0)

    def split_nodes(self, embeddings: Tensor) -> Tuple[Tensor, Tensor]:
        """Split a unified node tensor back into (users, items)."""
        return (embeddings.take_rows(self._user_node_idx),
                embeddings.take_rows(self._item_node_idx))


def light_gcn_propagate(norm_adj: sp.csr_matrix, ego: Tensor,
                        num_layers: int) -> Tensor:
    """LightGCN propagation: mean of the per-layer embeddings.

    ``E_final = mean(E^0, A E^0, A^2 E^0, ..., A^L E^0)`` with no transforms
    or nonlinearity — the workhorse encoder for LightGCN, SGL, NCL, HCCF
    and the "w/o Mixhop" GraphAug ablation.

    When the ``fused`` backend is selected for ``light_propagate`` the
    loop collapses into that single propagate-and-pool tape node
    (bit-identical forward; gradient accumulation order differs, which
    is why it is opt-in).
    """
    if fused_kernels_enabled("light_propagate"):
        return light_propagate(norm_adj, ego, num_layers)
    layers = [ego]
    current = ego
    for _ in range(num_layers):
        current = spmm(norm_adj, current)
        layers.append(current)
    return sum(layers[1:], layers[0]) * (1.0 / len(layers))
