"""Tests for the approximate serving backend and snapshot format v3.

Covers the IVF index itself (determinism, coverage guarantees, the
probe cache), the ``backend="exact"|"ann"`` service knob, zero-copy
``mmap`` snapshot loading, rejection of every format version but v3,
and the stale-index regression: a
``partial_update`` fold-in must never leave ``recommend`` answering
from pre-update probe state.
"""

import glob
import json
import os

import numpy as np
import pytest
import scipy.sparse as sp

from repro.data import tiny_dataset
from repro.serve import (ANNConfig, AsyncRequestFront, BackpressureError,
                         IVFIndex, RecommenderService,
                         SNAPSHOT_FORMAT_VERSION, load_snapshot,
                         recall_at_k, save_embedding_snapshot,
                         save_snapshot)
from repro.train import ModelConfig

K = 10


def clustered_embeddings(num_users=300, num_items=2000, dim=16,
                         centers=25, seed=0, dtype=np.float32):
    """User/item tables with real cluster structure (IVF's home turf)."""
    rng = np.random.default_rng(seed)
    c = rng.standard_normal((centers, dim)) * 3.0
    item = (c[rng.integers(0, centers, num_items)]
            + rng.standard_normal((num_items, dim)) * 0.4)
    user = (c[rng.integers(0, centers, num_users)]
            + rng.standard_normal((num_users, dim)) * 0.4)
    return user.astype(dtype), item.astype(dtype)


def random_train(num_users, num_items, per_user=5, seed=0):
    """A random seen-items CSR with ``per_user`` positives per user."""
    rng = np.random.default_rng(seed)
    rows = np.repeat(np.arange(num_users), per_user)
    cols = rng.integers(0, num_items, num_users * per_user)
    mat = sp.csr_matrix((np.ones(len(rows)), (rows, cols)),
                        shape=(num_users, num_items))
    mat.data[:] = 1
    mat.sort_indices()
    return mat


def exact_topk(user, item, k, exclusion=None):
    """Reference top-k by full GEMM + explicit masking."""
    scores = user @ item.T
    if exclusion is not None:
        scores = scores.copy()
        coo = exclusion.tocoo()
        scores[coo.row, coo.col] = -np.inf
    return np.argsort(-scores, kind="stable", axis=1)[:, :k]


@pytest.fixture(scope="module")
def dataset():
    return tiny_dataset(seed=17)


@pytest.fixture(scope="module")
def model_config():
    return ModelConfig(embedding_dim=16, num_layers=2)


@pytest.fixture(scope="module")
def trained(dataset, model_config):
    from repro.models import build_model
    from repro.train import TrainConfig, fit_model
    model = build_model("lightgcn", dataset, model_config, seed=4)
    fit_model(model, dataset, TrainConfig(epochs=2, batch_size=128))
    return model


# --------------------------------------------------------------------- #
# the IVF index itself
# --------------------------------------------------------------------- #

class TestIVFIndex:
    def test_build_is_deterministic(self):
        _, item = clustered_embeddings()
        a = IVFIndex.build(item, ANNConfig(seed=3))
        b = IVFIndex.build(item, ANNConfig(seed=3))
        assert np.array_equal(a.centroids, b.centroids)
        assert np.array_equal(a.indptr, b.indptr)
        assert np.array_equal(a.items, b.items)

    def test_members_partition_the_catalog(self):
        _, item = clustered_embeddings()
        index = IVFIndex.build(item)
        assert index.indptr[0] == 0
        assert index.indptr[-1] == len(item)
        assert np.array_equal(np.sort(index.items), np.arange(len(item)))

    def test_tiny_catalog_degrades_to_exact(self):
        # below the candidate floor the index scans everything: scores
        # are bitwise the full GEMM, so recall is 1.0 by construction
        user, item = clustered_embeddings(num_users=40, num_items=60)
        index = IVFIndex.build(item)
        scores = index.candidate_scores(user, item, np.arange(40), k=K)
        assert np.isfinite(scores).all()
        assert np.array_equal(scores, user @ item.T)

    def test_large_catalog_is_approximate(self):
        user, item = clustered_embeddings()
        index = IVFIndex.build(item)
        scores = index.candidate_scores(user, item, np.arange(50), k=K)
        assert np.isinf(scores).any()           # actually pruned
        finite = np.isfinite(scores).sum(axis=1)
        assert (finite >= K).all()              # but never starved

    def test_recall_budget_on_clustered_embeddings(self):
        from repro.serve import DEFAULT_RECALL_BUDGET
        user, item = clustered_embeddings()
        index = IVFIndex.build(item)
        scores = index.candidate_scores(user, item, np.arange(len(user)),
                                        k=20)
        approx = np.argsort(-scores, axis=1)[:, :20]
        exact = exact_topk(user, item, 20)
        assert recall_at_k(approx, exact) >= DEFAULT_RECALL_BUDGET

    def test_seen_counts_widen_the_pool(self):
        user, item = clustered_embeddings(num_users=20)
        index = IVFIndex.build(item)
        seen = np.full(20, 150)
        scores = index.candidate_scores(user, item, np.arange(20), k=K,
                                        seen_counts=seen)
        finite = np.isfinite(scores).sum(axis=1)
        assert (finite >= K + 150).all()

    def test_probe_cache_does_not_change_results(self):
        user, item = clustered_embeddings()
        cold = IVFIndex.build(item)
        warm = IVFIndex.build(item)
        warm.enable_probe_cache(len(user))
        ids = np.arange(len(user))
        reference = cold.candidate_scores(user, item, ids, k=K)
        first = warm.candidate_scores(user, item, ids, k=K)
        second = warm.candidate_scores(user, item, ids, k=K)  # cache hit
        assert np.array_equal(first, reference)
        assert np.array_equal(second, reference)

    def test_invalidate_bumps_generation(self):
        _, item = clustered_embeddings()
        index = IVFIndex.build(item)
        gen = index.generation
        index.invalidate()
        assert index.generation == gen + 1

    def test_recall_at_k_metric(self):
        lists = np.array([[1, 2, 3], [4, 5, 6]])
        assert recall_at_k(lists, lists) == 1.0
        assert recall_at_k(lists, lists + 100) == 0.0
        assert recall_at_k(lists, lists[:, ::-1]) == 1.0  # order-free
        with pytest.raises(ValueError, match="shape"):
            recall_at_k(lists, lists[:, :2])


# --------------------------------------------------------------------- #
# the service backend knob
# --------------------------------------------------------------------- #

class TestServiceBackendKnob:
    def test_invalid_backend_rejected(self, trained, dataset):
        with pytest.raises(ValueError, match="backend"):
            RecommenderService.from_model(trained, dataset,
                                          backend="faiss")

    def test_ann_requires_embeddings(self, dataset, model_config):
        from repro.models import build_model
        ncf = build_model("ncf", dataset, model_config, seed=4)
        with pytest.raises(ValueError, match="ann"):
            RecommenderService.from_model(ncf, dataset, backend="ann")

    def test_ann_on_tiny_catalog_matches_exact(self, trained, dataset):
        # 50 items < the candidate floor: ANN degrades to the exact scan
        with RecommenderService.from_model(trained, dataset) as exact, \
                RecommenderService.from_model(trained, dataset,
                                              backend="ann") as ann:
            assert ann.backend == "ann"
            assert "ann" in ann.stats()
            assert np.array_equal(ann.recommend(k=K), exact.recommend(k=K))

    def test_worker_count_invariance(self, tmp_path):
        user, item = clustered_embeddings()
        path = save_embedding_snapshot(str(tmp_path / "c.npz"), user, item,
                                       train_matrix=random_train(300, 2000))
        with RecommenderService.from_snapshot(path, backend="ann") as one, \
                RecommenderService.from_snapshot(path, backend="ann",
                                                 num_workers=4) as four:
            assert np.array_equal(one.recommend(k=K), four.recommend(k=K))

    def test_ann_excludes_seen_items(self, tmp_path):
        user, item = clustered_embeddings()
        train = random_train(300, 2000, per_user=8)
        path = save_embedding_snapshot(str(tmp_path / "c.npz"), user, item,
                                       train_matrix=train)
        with RecommenderService.from_snapshot(path,
                                              backend="ann") as service:
            lists = service.recommend(k=K)
            for u in range(300):
                seen = set(service.seen_items_of(u))
                assert not seen.intersection(lists[u])

    def test_service_recall_budget(self, tmp_path):
        from repro.serve import DEFAULT_RECALL_BUDGET
        user, item = clustered_embeddings()
        train = random_train(300, 2000, per_user=8)
        path = save_embedding_snapshot(str(tmp_path / "c.npz"), user, item,
                                       train_matrix=train)
        with RecommenderService.from_snapshot(path) as exact, \
                RecommenderService.from_snapshot(path,
                                                 backend="ann") as ann:
            assert recall_at_k(ann.recommend(k=20), exact.recommend(k=20)) \
                >= DEFAULT_RECALL_BUDGET


# --------------------------------------------------------------------- #
# snapshot format v3: stored index, mmap, version rejection
# --------------------------------------------------------------------- #

class TestSnapshotV3:
    def test_save_stores_index_arrays_and_config(self, tmp_path):
        user, item = clustered_embeddings()
        path = save_embedding_snapshot(str(tmp_path / "c.npz"), user, item)
        snap = load_snapshot(path)
        assert snap.meta["format_version"] == SNAPSHOT_FORMAT_VERSION == 3
        assert snap.has_ann
        assert "ann" in snap.meta
        rebuilt = IVFIndex.build(item, snap.ann_config)
        assert np.array_equal(snap.ann_centroids, rebuilt.centroids)
        assert np.array_equal(snap.ann_items, rebuilt.items)

    def test_include_ann_false_rebuilds_on_demand(self, tmp_path):
        user, item = clustered_embeddings()
        path = save_embedding_snapshot(str(tmp_path / "c.npz"), user, item,
                                       include_ann=False)
        snap = load_snapshot(path)
        assert not snap.has_ann
        index = snap.build_ann_index()      # deterministic rebuild
        assert np.array_equal(index.centroids,
                              IVFIndex.build(item).centroids)

    def test_model_snapshot_carries_index(self, trained, dataset,
                                          tmp_path):
        path = save_snapshot(trained, dataset, str(tmp_path / "m"))
        snap = load_snapshot(path)
        assert snap.has_ann

    def test_custom_scorer_snapshot_has_no_index(self, dataset,
                                                 model_config, tmp_path):
        from repro.models import build_model
        ncf = build_model("ncf", dataset, model_config, seed=4)
        snap = load_snapshot(save_snapshot(ncf, dataset,
                                           str(tmp_path / "ncf")))
        assert not snap.has_ann
        with pytest.raises(ValueError, match="embeddings"):
            snap.build_ann_index()

    def test_save_leaves_no_temp_files(self, trained, dataset, tmp_path):
        save_snapshot(trained, dataset, str(tmp_path / "m"))
        assert not glob.glob(str(tmp_path / "*.tmp*"))

    def test_mmap_load_is_zero_copy_and_bit_identical(self, tmp_path):
        user, item = clustered_embeddings()
        train = random_train(300, 2000)
        path = save_embedding_snapshot(str(tmp_path / "c.npz"), user, item,
                                       train_matrix=train)
        plain = load_snapshot(path)
        mapped = load_snapshot(path, mmap=True)
        assert isinstance(mapped.user_embeddings, np.memmap)
        assert isinstance(mapped.item_embeddings, np.memmap)
        assert isinstance(mapped.ann_centroids, np.memmap)
        assert not mapped.user_embeddings.flags.writeable
        assert np.array_equal(np.asarray(mapped.user_embeddings),
                              plain.user_embeddings)
        assert np.array_equal(np.asarray(mapped.item_embeddings),
                              plain.item_embeddings)
        with RecommenderService.from_snapshot(plain) as a, \
                RecommenderService.from_snapshot(path, mmap=True) as b:
            assert np.array_equal(a.recommend(k=K), b.recommend(k=K))

    def test_mmap_service_matches_for_ann_backend(self, tmp_path):
        user, item = clustered_embeddings()
        path = save_embedding_snapshot(str(tmp_path / "c.npz"), user, item)
        with RecommenderService.from_snapshot(path, backend="ann") as a, \
                RecommenderService.from_snapshot(path, backend="ann",
                                                 mmap=True) as b:
            assert np.array_equal(a.recommend(k=K), b.recommend(k=K))

    def test_mmap_of_compressed_artifact_rejected(self, tmp_path):
        user, item = clustered_embeddings(num_users=50, num_items=80)
        path = save_embedding_snapshot(str(tmp_path / "c.npz"), user, item)
        blob = dict(np.load(path, allow_pickle=False))
        legacy = str(tmp_path / "legacy.npz")
        np.savez_compressed(legacy, **blob)
        with pytest.raises(ValueError, match="mmap"):
            load_snapshot(legacy, mmap=True)
        assert load_snapshot(legacy).has_embeddings  # eager load still fine

    def test_mmap_flag_requires_mapped_snapshot_object(self, tmp_path):
        user, item = clustered_embeddings(num_users=50, num_items=80)
        path = save_embedding_snapshot(str(tmp_path / "c.npz"), user, item)
        snap = load_snapshot(path)                   # not mapped
        with pytest.raises(ValueError, match="mmap"):
            RecommenderService.from_snapshot(snap, mmap=True)

    # ----------------------------------------------------------------- #
    # versioning: only format v3 loads
    # ----------------------------------------------------------------- #

    def _as_legacy(self, path, out, version):
        """Rewrite a v3 artifact as a compressed pre-v3 one."""
        blob = dict(np.load(path, allow_pickle=False))
        for name in [n for n in blob if n.startswith("ann::")]:
            del blob[name]
        meta = json.loads(str(blob["meta_json"]))
        meta.pop("ann", None)
        if version is None:
            meta.pop("format_version", None)
        else:
            meta["format_version"] = version
        blob["meta_json"] = np.array(json.dumps(meta))
        np.savez_compressed(out, **blob)
        return out

    @pytest.mark.parametrize("version", [None, 2])
    def test_legacy_artifact_rejected(self, tmp_path, version):
        user, item = clustered_embeddings(num_users=30, num_items=40)
        path = save_embedding_snapshot(str(tmp_path / "v3.npz"), user,
                                       item)
        legacy = self._as_legacy(path, str(tmp_path / "old.npz"), version)
        named = ("no format_version" if version is None
                 else f"format_version {version}")
        with pytest.raises(ValueError, match=named):
            load_snapshot(legacy)
        with pytest.raises(ValueError, match=named):
            RecommenderService.from_snapshot(legacy, backend="ann")

    def test_newer_writer_rejected_by_name(self, tmp_path):
        user, item = clustered_embeddings(num_users=30, num_items=40)
        path = save_embedding_snapshot(str(tmp_path / "c.npz"), user, item)
        blob = dict(np.load(path, allow_pickle=False))
        meta = json.loads(str(blob["meta_json"]))
        meta["format_version"] = SNAPSHOT_FORMAT_VERSION + 1
        blob["meta_json"] = np.array(json.dumps(meta))
        np.savez(path, **blob)
        with pytest.raises(ValueError,
                           match=f"format_version "
                                 f"{SNAPSHOT_FORMAT_VERSION + 1}"):
            load_snapshot(path)

    def test_embedding_snapshot_validation(self, tmp_path):
        user, item = clustered_embeddings(num_users=30, num_items=40)
        with pytest.raises(ValueError, match="shared"):
            save_embedding_snapshot(str(tmp_path / "bad.npz"), user,
                                    item[:, :-1])
        with pytest.raises(ValueError, match="train matrix"):
            save_embedding_snapshot(str(tmp_path / "bad.npz"), user, item,
                                    train_matrix=sp.csr_matrix((3, 3)))


# --------------------------------------------------------------------- #
# partial_update vs the index (the stale-index regression)
# --------------------------------------------------------------------- #

class TestPartialUpdateInvalidation:
    def _fresh_reference(self, service):
        """An ANN service built from ``service``'s *current* state.

        Its probe cache starts empty, so its answers are by construction
        free of pre-update state — the reference the updated service
        must match.
        """
        index = IVFIndex.build(np.asarray(service._item_emb),
                               service._ann_index.config)
        return RecommenderService(
            num_users=service.num_users, num_items=service.num_items,
            exclusion=service._exclusion,
            user_embeddings=service._user_emb,
            item_embeddings=service._item_emb,
            model_name=service.model_name, backend="ann",
            ann_index=index)

    def test_fold_in_never_serves_stale_probes(self, tmp_path):
        user, item = clustered_embeddings()
        train = random_train(300, 2000, per_user=4)
        path = save_embedding_snapshot(str(tmp_path / "c.npz"), user, item,
                                       train_matrix=train)
        with RecommenderService.from_snapshot(path,
                                              backend="ann") as service:
            users = np.arange(64)
            before = service.recommend(users, k=K)   # warms the cache
            # fold a burst of cross-cluster interactions into user 3 —
            # enough to move its vector into a different probe region
            target = int(before[10, 0])
            moved = np.full(40, 3)
            items = np.arange(target, target + 40) % service.num_items
            service.partial_update(moved, items)
            after = service.recommend(users, k=K)
            with self._fresh_reference(service) as reference:
                assert np.array_equal(after,
                                      reference.recommend(users, k=K))

    def test_updated_item_excluded_immediately(self, tmp_path):
        user, item = clustered_embeddings()
        path = save_embedding_snapshot(str(tmp_path / "c.npz"), user, item,
                                       train_matrix=random_train(300, 2000))
        with RecommenderService.from_snapshot(path,
                                              backend="ann") as service:
            top = service.recommend([7], k=K)[0]
            service.partial_update([7], [int(top[0])])
            assert int(top[0]) not in service.recommend([7], k=K)[0]

    def test_fold_in_bumps_index_generation(self, tmp_path):
        user, item = clustered_embeddings()
        path = save_embedding_snapshot(str(tmp_path / "c.npz"), user, item,
                                       train_matrix=random_train(300, 2000))
        with RecommenderService.from_snapshot(path,
                                              backend="ann") as service:
            gen = service.stats()["ann"]["generation"]
            service.partial_update([1], [5])
            assert service.stats()["ann"]["generation"] == gen + 1
            # exclusion-only updates leave user vectors (and probes) alone
            service.partial_update([1], [6], refresh_embeddings=False)
            assert service.stats()["ann"]["generation"] == gen + 1

    def test_mmap_partial_update_is_copy_on_write(self, tmp_path):
        user, item = clustered_embeddings()
        path = save_embedding_snapshot(str(tmp_path / "c.npz"), user, item,
                                       train_matrix=random_train(300, 2000))
        with RecommenderService.from_snapshot(path, backend="ann",
                                              mmap=True) as service:
            service.partial_update([2], [9])
            # the mutation landed on a private copy ...
            assert not isinstance(service._user_emb, np.memmap)
        # ... and the artifact on disk is untouched
        assert np.array_equal(
            np.asarray(load_snapshot(path, mmap=True).user_embeddings),
            user)


# --------------------------------------------------------------------- #
# the async request front
# --------------------------------------------------------------------- #

class TestAsyncRequestFront:
    def test_batches_match_direct_answers(self, tmp_path):
        user, item = clustered_embeddings()
        path = save_embedding_snapshot(str(tmp_path / "c.npz"), user, item,
                                       train_matrix=random_train(300, 2000))
        with RecommenderService.from_snapshot(path,
                                              backend="ann") as service:
            direct = service.recommend(np.arange(60), k=K)
            with AsyncRequestFront(service, window_ms=1.0, k=K) as front:
                futures = [front.submit([i, i + 1])
                           for i in range(0, 60, 2)]
                got = np.concatenate([f.result(timeout=30)
                                      for f in futures])
                assert np.array_equal(got, direct)
                assert front.pending_users == 0
                # empty submits resolve immediately
                assert front.submit([]).result().shape == (0, K)

    def test_backpressure_and_close(self, tmp_path):
        user, item = clustered_embeddings(num_users=50, num_items=200)
        path = save_embedding_snapshot(str(tmp_path / "c.npz"), user, item)
        with RecommenderService.from_snapshot(path) as service:
            front = AsyncRequestFront(service, window_ms=200.0,
                                      max_pending_users=10, k=5)
            try:
                with pytest.raises(BackpressureError):
                    for _ in range(4):
                        front.submit(np.arange(4))
            finally:
                front.close()
            # requests accepted before close were still answered
            with pytest.raises(RuntimeError, match="closed"):
                front.submit([0])

    def test_propagates_service_errors(self, tmp_path):
        user, item = clustered_embeddings(num_users=50, num_items=200)
        path = save_embedding_snapshot(str(tmp_path / "c.npz"), user, item)
        with RecommenderService.from_snapshot(path) as service:
            with AsyncRequestFront(service, window_ms=0.0, k=5) as front:
                future = front.submit([10_000])      # out of range
                with pytest.raises(ValueError, match="out of range"):
                    future.result(timeout=30)
                assert front.pending_users == 0
