"""``repro.serve`` — the online recommendation-serving subsystem.

Training produces parameters; this package turns them into a service:
persist a trained model as a **snapshot**, stand a
:class:`RecommenderService` up from it without the training pipeline,
answer ``recommend(user_ids, k)`` requests through the chunked
block-ranking kernels, shard request batches across a worker pool, and
fold new interactions in online via ``partial_update``.

Snapshot format (``repro-serve-snapshot/v1``)
---------------------------------------------
One ``.npz`` artifact — **uncompressed** from format v3, which is what
makes ``load_snapshot(path, mmap=True)`` zero-copy (see
:mod:`repro.serve.snapshot`):

====================  ===================================================
entry                 contents
====================  ===================================================
``meta_json``         JSON: schema id, ``format_version`` (see
                      :data:`SNAPSHOT_FORMAT_VERSION`; any other
                      version is rejected on load), model registry
                      name, :class:`~repro.train.ModelConfig` fields,
                      construction seed, parameter dtype,
                      ``num_users`` / ``num_items``, dataset name, and
                      the ``ann`` build config (v3 embedding snapshots)
``param::<name>``     every ``state_dict`` array of the model
``train_indptr`` /    the train-positive CSR — seen-item exclusion at
``train_indices``     serving time *and* the graph for registry rebuilds
``user_embeddings``,  final propagated arrays; present iff the model's
``item_embeddings``   scores are their dot product
                      (``serving_embeddings()`` in
                      :mod:`repro.models.base`)
``ann::centroids``,   the IVF retrieval index built from the embeddings
``ann::indptr``,      at snapshot time (v3 embedding snapshots); lets
``ann::items``        ``backend="ann"`` services skip the k-means
                      rebuild — ``include_ann=False`` saves rebuild it
                      on the fly
====================  ===================================================

Any of the registered models round-trips: snapshots with embeddings are
served from the arrays alone (no model object), and custom-scorer models
(``ncf``, ``autorec``, ``biasmf``) are rebuilt from the registry under
the saved dtype/seed and driven through ``score_users`` — in both cases
``RecommenderService.recommend`` reproduces ``top_k_lists`` of the live
model exactly.

Service / shard contract
------------------------
* ``recommend(user_ids, k, exclude_seen=True)`` returns a
  ``(len(user_ids), k)`` array of item ids, best first, with each user's
  seen items masked; ranking runs through
  :func:`repro.eval.rank_items_block`, the same kernel the chunked
  evaluator uses.
* Requests are partitioned into contiguous user-id chunks sized by the
  evaluator's memory-budget rule (:func:`repro.eval.auto_chunk_size`)
  and mapped over a :class:`ShardedExecutor` thread pool.  Chunk
  boundaries are independent of worker count, so N workers return
  bit-identical lists to 1 worker; workers scale throughput because the
  shard work is GIL-releasing numpy.
* ``partial_update(users, items)`` is idempotent, thread-safe against
  concurrent ``recommend`` calls, always extends the exclusion CSR, and
  on the embeddings backend refreshes affected users' cached vectors by
  a degree-weighted fold-in (documented in
  :mod:`repro.serve.service`).

Typical round trip::

    from repro.serve import RecommenderService, save_snapshot

    fit_model(model, dataset, config)           # or load a checkpoint
    save_snapshot(model, dataset, "model.npz")

    service = RecommenderService.from_snapshot("model.npz",
                                               num_workers=4)
    topk = service.recommend([3, 14, 15], k=20)
    service.partial_update([3], [topk[0, 0]])   # user 3 consumed an item
"""

from .ann import ANNConfig, IVFIndex, DEFAULT_RECALL_BUDGET, recall_at_k
from .snapshot import (SNAPSHOT_SCHEMA, SNAPSHOT_FORMAT_VERSION, Snapshot,
                       load_snapshot, resolve_snapshot_path,
                       save_embedding_snapshot, save_snapshot)
from .service import RecommenderService
from .sharding import ShardedExecutor, partition_users
from .front import AsyncRequestFront, BackpressureError

__all__ = [
    "SNAPSHOT_SCHEMA", "SNAPSHOT_FORMAT_VERSION", "Snapshot",
    "load_snapshot", "resolve_snapshot_path", "save_snapshot",
    "save_embedding_snapshot",
    "ANNConfig", "IVFIndex", "DEFAULT_RECALL_BUDGET", "recall_at_k",
    "AsyncRequestFront", "BackpressureError",
    "RecommenderService", "ShardedExecutor", "partition_users",
]
