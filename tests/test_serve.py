"""Tests for the online serving subsystem (``repro.serve``).

The acceptance contract: ``RecommenderService.recommend`` over a loaded
snapshot reproduces ``top_k_lists`` of the live model **exactly**, for
every registered model; the N-worker sharded path is bit-identical to
the single-worker path; ``partial_update`` excludes new interactions
immediately.
"""

import os

import numpy as np
import pytest
import scipy.sparse as sp

from repro.data import tiny_dataset
from repro.eval import auto_chunk_size, rank_items_block, top_k_lists
from repro.models import available_models, build_model
from repro.serve import (RecommenderService, ShardedExecutor, Snapshot,
                         load_snapshot, partition_users, save_snapshot)
from repro.train import ModelConfig, TrainConfig, fit_model

ALL_MODELS = available_models()
K = 10


@pytest.fixture(scope="module")
def dataset():
    return tiny_dataset(seed=17)


@pytest.fixture(scope="module")
def model_config():
    return ModelConfig(embedding_dim=16, num_layers=2)


def _build(name, dataset, model_config, seed=4):
    return build_model(name, dataset, model_config, seed=seed)


# --------------------------------------------------------------------- #
# serving parity (acceptance criterion)
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("name", ALL_MODELS)
class TestServingParity:
    def test_live_service_matches_top_k_lists(self, name, dataset,
                                              model_config):
        model = _build(name, dataset, model_config)
        expected = top_k_lists(model, dataset, k=K)
        service = RecommenderService.from_model(model, dataset)
        assert np.array_equal(service.recommend(k=K), expected)

    def test_snapshot_roundtrip_matches_live_model(self, name, dataset,
                                                   model_config, tmp_path):
        model = _build(name, dataset, model_config)
        expected = top_k_lists(model, dataset, k=K)
        path = save_snapshot(model, dataset, str(tmp_path / name))
        service = RecommenderService.from_snapshot(path)
        assert np.array_equal(service.recommend(k=K), expected)


def test_sharded_path_identical_to_single_worker(dataset, model_config):
    model = _build("lightgcn", dataset, model_config)
    # chunk_size=7 forces many shards; worker count must not matter
    single = RecommenderService.from_model(model, dataset,
                                           num_workers=1, chunk_size=7)
    sharded = RecommenderService.from_model(model, dataset,
                                            num_workers=4, chunk_size=7)
    users = np.arange(dataset.num_users)
    expected = single.recommend(users, k=K)
    assert np.array_equal(sharded.recommend(users, k=K), expected)
    sharded.close()
    single.close()


def test_sharded_model_backend_keeps_autograd_mode(dataset, model_config):
    """Concurrent model-backend shards must not corrupt the global
    autograd flag (score_users enters no_grad; entries are serialized)."""
    from repro.autograd import is_grad_enabled
    model = _build("ncf", dataset, model_config)
    service = RecommenderService.from_model(model, dataset,
                                            num_workers=4, chunk_size=5)
    users = np.arange(dataset.num_users)
    expected = top_k_lists(model, dataset, k=K, users=users)
    for _ in range(3):
        assert np.array_equal(service.recommend(users, k=K), expected)
        assert is_grad_enabled()
    service.close()


def test_user_subset_and_ordering(dataset, model_config):
    model = _build("gccf", dataset, model_config)
    users = np.array([31, 2, 17, 2])  # shuffled, with a repeat
    service = RecommenderService.from_model(model, dataset)
    got = service.recommend(users, k=5)
    expected = top_k_lists(model, dataset, k=5, users=users)
    assert np.array_equal(got, expected)


def test_exclude_seen_toggle(dataset, model_config):
    model = _build("lightgcn", dataset, model_config)
    service = RecommenderService.from_model(model, dataset)
    user = int(np.argmax(np.diff(dataset.train.matrix.indptr)))
    seen = set(dataset.train_items_of(user))
    masked = service.recommend(np.array([user]), k=K)[0]
    assert not seen.intersection(masked)
    unmasked = service.recommend(np.array([user]),
                                 k=dataset.num_items,
                                 exclude_seen=False)[0]
    assert seen.issubset(set(unmasked.tolist()))


def test_recommend_validates_inputs(dataset, model_config):
    service = RecommenderService.from_model(
        _build("biasmf", dataset, model_config), dataset)
    with pytest.raises(ValueError):
        service.recommend(k=0)
    with pytest.raises(ValueError):
        service.recommend(k=dataset.num_items + 1)
    with pytest.raises(ValueError):
        service.recommend(np.array([dataset.num_users]), k=1)
    assert service.recommend(np.array([], dtype=np.int64), k=3).shape \
        == (0, 3)


# --------------------------------------------------------------------- #
# snapshots
# --------------------------------------------------------------------- #

class TestSnapshot:
    def test_artifact_contents(self, dataset, model_config, tmp_path):
        model = _build("lightgcn", dataset, model_config)
        path = save_snapshot(model, dataset, str(tmp_path / "snap"))
        assert path.endswith(".npz")
        snap = load_snapshot(path)
        assert snap.model_name == "lightgcn"
        assert snap.num_users == dataset.num_users
        assert snap.num_items == dataset.num_items
        assert snap.has_embeddings
        assert snap.user_embeddings.shape[0] == dataset.num_users
        assert snap.train_matrix.nnz == dataset.train.matrix.nnz
        assert set(snap.state) == set(model.state_dict())

    def test_custom_scorer_has_no_embeddings(self, dataset, model_config,
                                             tmp_path):
        model = _build("ncf", dataset, model_config)
        snap = load_snapshot(save_snapshot(model, dataset,
                                           str(tmp_path / "ncf")))
        assert not snap.has_embeddings
        rebuilt = snap.build_model()
        users = np.arange(8)
        assert np.array_equal(rebuilt.score_users(users),
                              model.score_users(users))

    def test_registry_roundtrip_restores_dataset(self, dataset,
                                                 model_config, tmp_path):
        model = _build("ngcf", dataset, model_config)
        snap = load_snapshot(save_snapshot(model, dataset,
                                           str(tmp_path / "ngcf")))
        rebuilt_ds = snap.build_dataset()
        assert rebuilt_ds.num_users == dataset.num_users
        assert (rebuilt_ds.train.matrix != dataset.train.matrix).nnz == 0

    def test_float32_roundtrip(self, dataset, model_config, tmp_path):
        from repro.autograd import default_dtype
        with default_dtype("float32"):
            model = _build("lightgcn", dataset, model_config)
        expected = top_k_lists(model, dataset, k=K)
        path = save_snapshot(model, dataset, str(tmp_path / "f32"))
        snap = load_snapshot(path)
        assert snap.meta["dtype"] == "float32"
        assert np.array_equal(
            RecommenderService.from_snapshot(path).recommend(k=K),
            expected)

    def test_rejects_non_snapshot(self, tmp_path):
        path = str(tmp_path / "not_a_snapshot.npz")
        np.savez(path, foo=np.arange(3))
        with pytest.raises(ValueError, match="meta_json"):
            load_snapshot(path)

    def test_rejects_unknown_schema(self, dataset, model_config, tmp_path):
        model = _build("lightgcn", dataset, model_config)
        path = save_snapshot(model, dataset, str(tmp_path / "snap"))
        blob = dict(np.load(path, allow_pickle=False))
        blob["meta_json"] = np.array('{"schema": "bogus/v9"}')
        np.savez(path, **blob)
        with pytest.raises(ValueError, match="schema"):
            load_snapshot(path)

    # ----------------------------------------------------------------- #
    # format versioning (rolling-deployment contract)
    # ----------------------------------------------------------------- #

    def _rewrite_meta(self, path, mutate):
        import json
        blob = dict(np.load(path, allow_pickle=False))
        meta = json.loads(str(blob["meta_json"]))
        mutate(meta)
        blob["meta_json"] = np.array(json.dumps(meta))
        np.savez(path, **blob)

    def test_save_stamps_current_format_version(self, dataset,
                                                model_config, tmp_path):
        from repro.serve import SNAPSHOT_FORMAT_VERSION
        model = _build("lightgcn", dataset, model_config)
        path = save_snapshot(model, dataset, str(tmp_path / "snap"))
        snap = load_snapshot(path)
        assert snap.meta["format_version"] == SNAPSHOT_FORMAT_VERSION

    def test_version_absent_artifact_rejected(self, dataset, model_config,
                                              tmp_path):
        # an artifact without a format_version field predates versioning
        # (version 1); it is rejected by name rather than migrated
        model = _build("lightgcn", dataset, model_config)
        path = save_snapshot(model, dataset, str(tmp_path / "snap"))
        self._rewrite_meta(path, lambda m: m.pop("format_version"))
        with pytest.raises(ValueError, match="no format_version"):
            load_snapshot(path)
        with pytest.raises(ValueError, match="no format_version"):
            RecommenderService.from_snapshot(path)

    def test_future_format_version_rejected(self, dataset, model_config,
                                            tmp_path):
        model = _build("lightgcn", dataset, model_config)
        path = save_snapshot(model, dataset, str(tmp_path / "snap"))
        self._rewrite_meta(path,
                           lambda m: m.update(format_version=99))
        with pytest.raises(ValueError, match="format_version 99"):
            load_snapshot(path)

    def test_invalid_format_version_rejected(self, dataset, model_config,
                                             tmp_path):
        model = _build("lightgcn", dataset, model_config)
        path = save_snapshot(model, dataset, str(tmp_path / "snap"))
        self._rewrite_meta(path,
                           lambda m: m.update(format_version="two"))
        with pytest.raises(ValueError, match="invalid snapshot"):
            load_snapshot(path)


def test_trainer_end_of_fit_snapshot(dataset, tmp_path):
    path = str(tmp_path / "fit-snap.npz")
    model = _build("biasmf", dataset, ModelConfig(embedding_dim=8))
    fit_model(model, dataset,
              TrainConfig(epochs=2, batch_size=128, eval_every=2,
                          snapshot_path=path), seed=0)
    service = RecommenderService.from_snapshot(path)
    assert np.array_equal(service.recommend(k=K),
                          top_k_lists(model, dataset, k=K))


# --------------------------------------------------------------------- #
# partial updates
# --------------------------------------------------------------------- #

class TestPartialUpdate:
    def _service(self, dataset, model_config, name="lightgcn"):
        model = _build(name, dataset, model_config)
        return RecommenderService.from_model(model, dataset)

    def test_new_interactions_are_excluded(self, dataset, model_config):
        service = self._service(dataset, model_config)
        user = 5
        top = service.recommend(np.array([user]), k=3)[0]
        report = service.partial_update(np.full(3, user), top)
        assert report == {"new_edges": 3, "refreshed_users": 1}
        after = service.recommend(np.array([user]), k=dataset.num_items)[0]
        finite = after[:dataset.num_items - len(
            service.seen_items_of(user))]
        assert not set(top.tolist()).intersection(finite.tolist())
        assert set(top.tolist()).issubset(service.seen_items_of(user))

    def test_idempotent_and_known_edges_ignored(self, dataset,
                                                model_config):
        service = self._service(dataset, model_config)
        user = 9
        known_item = int(dataset.train_items_of(user)[0])
        assert service.partial_update([user], [known_item]) == {
            "new_edges": 0, "refreshed_users": 0}
        new_item = int(service.recommend(np.array([user]), k=1)[0, 0])
        first = service.partial_update([user, user],
                                       [new_item, new_item])
        assert first == {"new_edges": 1, "refreshed_users": 1}
        again = service.partial_update([user], [new_item])
        assert again == {"new_edges": 0, "refreshed_users": 0}

    def test_embedding_fold_in_moves_user_vector(self, dataset,
                                                 model_config):
        service = self._service(dataset, model_config)
        user = 12
        before = service._user_emb[user].copy()
        item = int(service.recommend(np.array([user]), k=1)[0, 0])
        service.partial_update([user], [item])
        after = service._user_emb[user]
        assert not np.allclose(before, after)
        # fold-in is a convex combination: the vector moved toward the
        # item's embedding
        item_vec = service._item_emb[item]
        assert (np.linalg.norm(after - item_vec)
                < np.linalg.norm(before - item_vec))

    def test_refresh_can_be_disabled(self, dataset, model_config):
        service = self._service(dataset, model_config)
        user = 12
        before = service._user_emb[user].copy()
        item = int(service.recommend(np.array([user]), k=1)[0, 0])
        report = service.partial_update([user], [item],
                                        refresh_embeddings=False)
        assert report["refreshed_users"] == 0
        assert np.array_equal(before, service._user_emb[user])

    def test_model_backend_updates_exclusion_only(self, dataset,
                                                  model_config):
        service = self._service(dataset, model_config, name="ncf")
        user = 3
        item = int(service.recommend(np.array([user]), k=1)[0, 0])
        report = service.partial_update([user], [item])
        assert report == {"new_edges": 1, "refreshed_users": 0}
        after = service.recommend(np.array([user]), k=K)[0]
        assert item not in after

    def test_update_validates_inputs(self, dataset, model_config):
        service = self._service(dataset, model_config)
        with pytest.raises(ValueError):
            service.partial_update([0, 1], [2])
        with pytest.raises(ValueError):
            service.partial_update([dataset.num_users], [0])
        with pytest.raises(ValueError):
            service.partial_update([0], [dataset.num_items])
        assert service.partial_update([], []) == {"new_edges": 0,
                                                  "refreshed_users": 0}


# --------------------------------------------------------------------- #
# sharding / chunk sizing
# --------------------------------------------------------------------- #

class TestSharding:
    def test_auto_chunk_size_formula(self):
        assert auto_chunk_size(1000, itemsize=8,
                               budget_bytes=8_000_000) == 1000
        assert auto_chunk_size(10, itemsize=4, budget_bytes=400) == 10
        # floor of one user even under absurdly small budgets
        assert auto_chunk_size(10_000_000, budget_bytes=1) == 1

    def test_auto_chunk_size_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHUNK_BUDGET_BYTES", "800")
        assert auto_chunk_size(10, itemsize=8) == 10

    def test_shard_boundaries_ignore_worker_count(self):
        users = np.arange(103)
        one = ShardedExecutor(num_workers=1, chunk_size=10)
        four = ShardedExecutor(num_workers=4, chunk_size=10)
        for a, b in zip(one.shard(users, 50), four.shard(users, 50)):
            assert np.array_equal(a, b)

    def test_map_chunks_preserves_order(self):
        users = np.arange(57)
        with ShardedExecutor(num_workers=4, chunk_size=5) as pool:
            out = pool.map_chunks(lambda chunk: chunk * 2, users, 50)
        assert np.array_equal(np.concatenate(out), users * 2)

    def test_invalid_workers_rejected(self):
        with pytest.raises(ValueError):
            ShardedExecutor(num_workers=0)

    def test_partition_users(self):
        shards = partition_users(np.arange(10), 4)
        assert sum(len(s) for s in shards) == 10
        assert np.array_equal(np.concatenate(shards), np.arange(10))
        with pytest.raises(ValueError):
            partition_users(np.arange(4), 0)


def test_rank_items_block_unmasked():
    scores = np.array([[0.1, 0.9, 0.5], [0.7, 0.2, 0.3]])
    ranked = rank_items_block(scores, None, k=2)
    assert ranked.tolist() == [[1, 2], [0, 2]]


# --------------------------------------------------------------------- #
# batched NCF scoring (satellite)
# --------------------------------------------------------------------- #

class TestBatchedNCF:
    def test_matches_per_pair_reference(self, dataset, model_config):
        from repro.autograd import no_grad
        model = _build("ncf", dataset, model_config)
        users = np.array([0, 3, 59, 3])
        batched = model.score_users(users)
        all_items = np.arange(dataset.num_items)
        with no_grad():
            for row, user in enumerate(users):
                reference = model._pair_scores(
                    np.full(dataset.num_items, user, dtype=np.int64),
                    all_items).data
                np.testing.assert_allclose(batched[row], reference,
                                           rtol=0, atol=1e-10)

    def test_tiny_pair_budget_matches(self, dataset, model_config):
        model = _build("ncf", dataset, model_config)
        users = np.arange(13)
        expected = model.score_users(users)
        model.score_pair_budget = 1  # one user row per slice
        # slice boundaries change BLAS kernel shapes, so agreement is to
        # float rounding rather than bitwise
        np.testing.assert_allclose(model.score_users(users), expected,
                                   rtol=0, atol=1e-12)


def test_service_stats(dataset, model_config):
    model = _build("lightgcn", dataset, model_config)
    service = RecommenderService.from_model(model, dataset, num_workers=2)
    stats = service.stats()
    assert stats["model"] == "lightgcn"
    assert stats["backend"] == "embeddings"
    assert stats["num_workers"] == 2
    assert stats["seen_interactions"] == dataset.train.matrix.nnz
    service.partial_update([0], [int(service.recommend(
        np.array([0]), k=1)[0, 0])])
    assert service.stats()["seen_interactions"] \
        == dataset.train.matrix.nnz + 1


def test_snapshot_dataclass_exported():
    assert Snapshot.__doc__
