"""Approximate top-k retrieval: an IVF index over the item embeddings.

The exact serving path scores a request block with one GEMM against
*every* item — fine at gowalla scale, a dead end at millions of items
under heavy traffic.  :class:`IVFIndex` is the approximate alternative
behind ``RecommenderService(backend="ann")``:

* **Build** (at snapshot time, or on the fly for ``include_ann=False``
  snapshots):
  seeded Lloyd k-means partitions the item embeddings into ``nlist``
  clusters; the index stores the centroid table plus a CSR-style member
  list (``indptr`` / ``items``).  Everything is deterministic given
  ``(item_embeddings, ANNConfig)``, so an index rebuilt from a snapshot
  equals the one stored in it.
* **Search**: a request block scores its users against the centroids
  (one small GEMM), probes the best clusters per user, and computes
  exact dot products only for the member items of the probed clusters —
  the returned block is a full-width score matrix with ``-inf`` outside
  the candidate set, so ranking, seen-item masking and tie handling go
  through the very same :func:`repro.eval.rank_items_block` kernel the
  exact path uses.
* **Adaptive probing**: clusters are probed deepest-first until the
  candidate pool covers ``max(min_candidates, k + max seen items in the
  block)``.  The floor guarantees two things: at small catalogs the
  index degrades gracefully toward exact scanning (an approximation is
  pointless below ~``min_candidates`` items), and after masking there
  are always at least ``k`` finite candidates per user, so an ANN top-k
  can never leak a seen item ahead of a real candidate.  Users whose
  probed pool still falls short (pathological cluster skew) fall back to
  an exact full-width row — correctness never depends on cluster
  balance.
* **Probe cache**: the per-user "which clusters to probe" row depends
  only on the user's embedding and the centroids, so repeat queries for
  hot users skip the centroid GEMM.  Cache rows are stamped with the
  index **generation**; ``invalidate()`` bumps the generation, which
  atomically invalidates every cached row — this is how
  ``partial_update``'s fold-in (which moves user vectors) keeps the
  index from answering with pre-update probes.  Writers stamp rows with
  the generation they captured *before* computing, so a fold-in racing
  a request can never resurrect a stale row.

Recall is pinned by tests, not hope: the bench asserts recall@20 >=
:data:`DEFAULT_RECALL_BUDGET` against the exact path on the gowalla
profile, the property suite (``tests/test_property_serve.py``) checks
the containment/exclusion invariants on random snapshots, and the
latency load test records exact-vs-ANN percentiles in
``BENCH_hotpath.json``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

#: recall@k parity budget the ANN backend commits to against the exact
#: path (asserted by the serving benches and the million-user load test)
DEFAULT_RECALL_BUDGET = 0.95

#: widest per-user probe row the cache will hold; deeper probes are
#: computed fresh (and not cached) — keeps the cache O(16 ints)/user
DEFAULT_PROBE_CACHE_WIDTH = 16

#: the probe cache is skipped entirely above this user count (the table
#: would cost more resident memory than the centroid GEMMs it saves)
MAX_PROBE_CACHE_USERS = 4_000_000


@dataclass(frozen=True)
class ANNConfig:
    """Build/search knobs for :class:`IVFIndex`.

    ``nlist=None`` sizes the cluster count as ``round(sqrt(num_items))``
    (the classic IVF balance point: probing cost ~ scanning cost);
    ``min_candidates=None`` floors the per-query candidate pool at
    ``max(128, 14 * k)`` — sized so the default clears the recall@20
    budget with margin on trained gowalla-scale embeddings, and below
    that many items the index degrades to an exact scan by
    construction, which is what makes tiny catalogs safe.
    """

    nlist: Optional[int] = None
    nprobe: int = 1
    min_candidates: Optional[int] = None
    kmeans_iters: int = 8
    seed: int = 0

    def resolve_nlist(self, num_items: int) -> int:
        """Cluster count actually used for a catalog of ``num_items``."""
        nlist = self.nlist
        if nlist is None:
            nlist = int(round(np.sqrt(num_items)))
        return max(1, min(int(nlist), int(num_items)))

    def resolve_min_candidates(self, k: int) -> int:
        """Candidate-pool floor for a top-``k`` query."""
        if self.min_candidates is not None:
            return max(int(self.min_candidates), int(k))
        return max(128, 14 * int(k))

    def to_meta(self) -> Dict:
        """JSON-ready form stored in the snapshot ``meta_json``."""
        return {"nlist": self.nlist, "nprobe": self.nprobe,
                "min_candidates": self.min_candidates,
                "kmeans_iters": self.kmeans_iters, "seed": self.seed}

    @classmethod
    def from_meta(cls, payload: Optional[Dict]) -> "ANNConfig":
        """Inverse of :meth:`to_meta` (missing/None payload = defaults)."""
        payload = payload or {}
        known = {f: payload[f] for f in ("nlist", "nprobe",
                                         "min_candidates", "kmeans_iters",
                                         "seed") if f in payload
                 and payload[f] is not None}
        return cls(**known)


def _kmeans(points: np.ndarray, nlist: int, iters: int,
            rng: np.random.Generator) -> np.ndarray:
    """Seeded Lloyd k-means; returns ``(nlist, dim)`` centroids.

    Deterministic given ``(points, nlist, iters, rng state)``.  Empty
    clusters keep their previous centroid (they simply hold no members
    and are never probed), so the iteration never diverges on degenerate
    inputs.
    """
    n = len(points)
    centroids = points[rng.choice(n, size=nlist, replace=False)].copy()
    if nlist == 1:
        return points.mean(axis=0, keepdims=True).astype(points.dtype)
    for _ in range(max(0, int(iters))):
        # argmin ||x - c||^2 == argmin (||c||^2 - 2 x.c); ||x||^2 is
        # constant per row and drops out
        affinity = points @ centroids.T
        norms = np.einsum("ij,ij->i", centroids, centroids)
        assign = np.argmax(affinity - 0.5 * norms[None, :], axis=1)
        counts = np.bincount(assign, minlength=nlist)
        sums = np.zeros_like(centroids, dtype=np.float64)
        np.add.at(sums, assign, points.astype(np.float64, copy=False))
        occupied = counts > 0
        centroids[occupied] = (sums[occupied]
                               / counts[occupied, None]).astype(
                                   centroids.dtype)
    return centroids


def _assign_members(item_embeddings: np.ndarray, centroids: np.ndarray):
    """Final cluster assignment as a CSR member list ``(indptr, items)``."""
    norms = np.einsum("ij,ij->i", centroids, centroids)
    assign = np.argmax(item_embeddings @ centroids.T
                       - 0.5 * norms[None, :], axis=1)
    order = np.argsort(assign, kind="stable")
    counts = np.bincount(assign, minlength=len(centroids))
    indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    return indptr, order.astype(np.int64)


class IVFIndex:
    """Inverted-file ANN index over item embeddings (module docstring).

    Construct with :meth:`build` (runs k-means) or :meth:`from_arrays`
    (restores the arrays a snapshot stored).  The index holds only the
    centroid table and the member CSR — item vectors themselves are
    passed at query time, so a memory-mapped item table stays zero-copy.
    """

    def __init__(self, centroids: np.ndarray, indptr: np.ndarray,
                 items: np.ndarray, config: ANNConfig):
        self.centroids = np.ascontiguousarray(centroids)
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.items = np.asarray(items, dtype=np.int64)
        self.sizes = np.diff(self.indptr)
        self.config = config
        self.num_items = int(len(self.items))
        #: bumped by :meth:`invalidate`; probe-cache rows from an older
        #: generation are dead (see the module docstring's race note)
        self.generation = 0
        self._cache_ids: Optional[np.ndarray] = None
        self._cache_gen: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def build(cls, item_embeddings: np.ndarray,
              config: Optional[ANNConfig] = None) -> "IVFIndex":
        """K-means the item table into an index (deterministic per config)."""
        config = config or ANNConfig()
        item_embeddings = np.ascontiguousarray(item_embeddings)
        nlist = config.resolve_nlist(len(item_embeddings))
        rng = np.random.default_rng(config.seed)
        centroids = _kmeans(item_embeddings, nlist, config.kmeans_iters,
                            rng)
        indptr, items = _assign_members(item_embeddings, centroids)
        return cls(centroids, indptr, items, config)

    @classmethod
    def from_arrays(cls, centroids: np.ndarray, indptr: np.ndarray,
                    items: np.ndarray,
                    config: Optional[ANNConfig] = None) -> "IVFIndex":
        """Restore an index from snapshot arrays (no k-means)."""
        return cls(centroids, indptr, items, config or ANNConfig())

    def arrays(self) -> Dict[str, np.ndarray]:
        """The persistable arrays (snapshot entries ``ann::<name>``)."""
        return {"centroids": self.centroids, "indptr": self.indptr,
                "items": self.items}

    @property
    def nlist(self) -> int:
        """Number of clusters (including empty ones)."""
        return int(len(self.centroids))

    # ------------------------------------------------------------------ #
    # probe cache
    # ------------------------------------------------------------------ #
    def enable_probe_cache(self, num_users: int) -> None:
        """Allocate the per-user probe cache (no-op above the size cap)."""
        if num_users <= 0 or num_users > MAX_PROBE_CACHE_USERS:
            return
        width = min(self.nlist, DEFAULT_PROBE_CACHE_WIDTH)
        self._cache_ids = np.zeros((int(num_users), width), dtype=np.int32)
        self._cache_gen = np.full(int(num_users), -1, dtype=np.int64)

    def invalidate(self) -> None:
        """Drop every cached probe row (user embeddings changed).

        A single generation bump: rows written by requests that captured
        the old generation can never validate again, even if their write
        lands after this call.
        """
        self.generation += 1

    @property
    def probe_cache_enabled(self) -> bool:
        """Whether the per-user probe cache is allocated."""
        return self._cache_ids is not None

    # ------------------------------------------------------------------ #
    # search
    # ------------------------------------------------------------------ #
    def _probe_ids(self, user_vecs: np.ndarray, user_ids: np.ndarray,
                   probes: int, generation: int) -> np.ndarray:
        """Top-``probes`` cluster ids per user, cache-assisted.

        ``generation`` is the index generation captured with the
        embedding tables at request start; cache rows are only read and
        written under that stamp.
        """
        cache_ids, cache_gen = self._cache_ids, self._cache_gen
        cacheable = (cache_ids is not None
                     and probes <= cache_ids.shape[1])
        if cacheable:
            fresh = cache_gen[user_ids] != generation
        else:
            fresh = np.ones(len(user_ids), dtype=bool)
        sel = np.empty((len(user_ids), probes), dtype=np.int64)
        if cacheable and not fresh.all():
            sel[~fresh] = cache_ids[user_ids[~fresh], :probes]
        if fresh.any():
            vecs = user_vecs[fresh]
            scores = vecs @ self.centroids.T
            depth = (min(self.nlist, cache_ids.shape[1]) if cacheable
                     else probes)
            depth = max(depth, probes)
            order = np.argsort(-scores, kind="stable", axis=1)[:, :depth]
            sel[fresh] = order[:, :probes]
            if cacheable:
                rows = user_ids[fresh]
                cache_ids[rows, :order.shape[1]] = order
                # stamp only after the row content is in place; an
                # invalidate() racing this write bumped the index
                # generation already, so this stamp stays dead
                cache_gen[rows] = generation
        return sel

    def candidate_scores(self, user_embeddings: np.ndarray,
                         item_embeddings: np.ndarray,
                         user_ids: np.ndarray, k: int,
                         seen_counts: Optional[np.ndarray] = None,
                         generation: Optional[int] = None) -> np.ndarray:
        """``(len(user_ids), num_items)`` scores, ``-inf`` off-candidate.

        ``seen_counts`` (per-user exclusion sizes for the block) widens
        the pool so masking can never starve the top-k; ``generation``
        is the stamp captured with the embedding tables (defaults to the
        current one).  The returned block feeds straight into
        :func:`repro.eval.rank_items_block`.
        """
        if generation is None:
            generation = self.generation
        user_ids = np.asarray(user_ids, dtype=np.int64)
        batch = len(user_ids)
        dtype = user_embeddings.dtype
        out = np.full((batch, self.num_items), -np.inf, dtype=dtype)
        if batch == 0:
            return out
        user_vecs = np.ascontiguousarray(user_embeddings[user_ids])

        k = int(k)
        need = self.config.resolve_min_candidates(k)
        max_seen = int(np.max(seen_counts)) if seen_counts is not None \
            and len(seen_counts) else 0
        need = max(need, k + max_seen)
        if need >= self.num_items:
            # the floor covers the catalog: exact scan, not approximation
            out[:] = user_vecs @ item_embeddings.T
            return out

        avg = max(1.0, self.num_items / max(1, self.nlist))
        probes = int(np.ceil(need / avg)) + 1
        probes = min(self.nlist, max(probes, int(self.config.nprobe)))

        sel = self._probe_ids(user_vecs, user_ids, probes, generation)
        lens = self.sizes[sel.ravel()]                    # (batch*probes,)
        per_user = lens.reshape(batch, probes).sum(axis=1)
        total = int(lens.sum())
        if total:
            starts = self.indptr[sel.ravel()]
            bounds = np.concatenate([[0], np.cumsum(lens)])
            flat = (np.arange(total)
                    - np.repeat(bounds[:-1], lens)
                    + np.repeat(starts, lens))
            cols = self.items[flat]
            rows = np.repeat(np.arange(batch), per_user)
            vals = np.einsum("nd,nd->n", user_vecs[rows],
                             item_embeddings[cols])
            out[rows, cols] = vals

        floor = k + (np.asarray(seen_counts, dtype=np.int64)
                     if seen_counts is not None else 0)
        short = np.flatnonzero(per_user < floor)
        if len(short):
            # cluster skew starved these users' pools; exact rows keep
            # the never-leak-a-seen-item guarantee unconditional
            out[short] = user_vecs[short] @ item_embeddings.T
        return out

    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, object]:
        """Operational summary (surfaces in ``RecommenderService.stats``)."""
        occupied = int(np.count_nonzero(self.sizes))
        return {"nlist": self.nlist, "occupied_clusters": occupied,
                "num_items": self.num_items,
                "probe_cache": self.probe_cache_enabled,
                "generation": self.generation}


def recall_at_k(approx: np.ndarray, exact: np.ndarray) -> float:
    """Mean fraction of the exact top-k recovered by the approximate lists.

    Both arguments are ``(num_users, k)`` item-id arrays (same k); this
    is the recall@k parity metric the ANN budget is asserted on.
    """
    approx = np.asarray(approx)
    exact = np.asarray(exact)
    if approx.shape != exact.shape:
        raise ValueError(f"shape mismatch {approx.shape} vs {exact.shape}")
    if approx.size == 0:
        return 1.0
    hits = 0
    for row_a, row_e in zip(approx, exact):
        hits += len(np.intersect1d(row_a, row_e, assume_unique=False))
    return hits / exact.size
