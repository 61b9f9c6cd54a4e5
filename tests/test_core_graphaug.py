"""Tests for the assembled GraphAug model (paper Sec III / Algorithm 1)."""

import numpy as np
import pytest

from repro.core import GraphAug, make_graphaug_variant
from repro.data import tiny_dataset
from repro.eval import evaluate_scores, mean_average_distance
from repro.models import build_model
from repro.train import ModelConfig, TrainConfig, fit_model


@pytest.fixture(scope="module")
def dataset():
    return tiny_dataset(seed=61)


@pytest.fixture(scope="module")
def config():
    return ModelConfig(embedding_dim=16, num_layers=2)


class TestConstruction:
    def test_registered(self, dataset, config):
        model = build_model("graphaug", dataset, config)
        assert isinstance(model, GraphAug)

    def test_flags(self, dataset, config):
        model = GraphAug(dataset, config, use_mixhop=False, use_gib=False,
                         use_cl=False)
        assert not model.use_mixhop

    def test_variant_factory(self, dataset, config):
        for variant, attr in (("full", None), ("wo_mixhop", "use_mixhop"),
                              ("wo_gib", "use_gib"), ("wo_cl", "use_cl")):
            model = make_graphaug_variant(variant)(dataset, config, seed=0)
            if attr is not None:
                assert not getattr(model, attr)

    def test_unknown_variant_raises(self):
        with pytest.raises(KeyError):
            make_graphaug_variant("wo_everything")


class TestForward:
    def test_loss_components_all_contribute(self, dataset, config):
        rng = np.random.default_rng(0)
        users = rng.integers(0, dataset.num_users, size=32)
        pos = np.array([dataset.train_items_of(u)[0] for u in users])
        neg = rng.integers(0, dataset.num_items, size=32)

        losses = {}
        for variant in ("full", "wo_gib", "wo_cl"):
            model = make_graphaug_variant(variant)(dataset, config, seed=0)
            losses[variant] = model.loss(users, pos, neg).item()
        # the full loss includes strictly more (positive) terms
        assert losses["full"] > losses["wo_gib"] or \
            losses["full"] > losses["wo_cl"]

    def test_loss_backward_reaches_augmentor(self, dataset, config):
        model = GraphAug(dataset, config, seed=0)
        rng = np.random.default_rng(1)
        users = rng.integers(0, dataset.num_users, size=16)
        pos = np.array([dataset.train_items_of(u)[0] for u in users])
        neg = rng.integers(0, dataset.num_items, size=16)
        model.loss(users, pos, neg).backward()
        aug_params = list(model.augmentor.parameters())
        assert any(p.grad is not None and np.abs(p.grad).sum() > 0
                   for p in aug_params)

    def test_views_sampled_fresh(self, dataset, config):
        model = GraphAug(dataset, config, seed=0)
        emb = model._encode_original()
        a1, b1 = model.sample_augmented_views(emb)
        assert not np.array_equal(a1.keep_mask, b1.keep_mask)

    def test_edge_keep_probabilities(self, dataset, config):
        model = GraphAug(dataset, config, seed=0)
        probs = model.edge_keep_probabilities()
        assert probs.shape == (len(model.candidates),)
        assert ((probs >= 0) & (probs <= 1)).all()


class TestTraining:
    def test_improves_over_initialization(self, dataset, config):
        model = build_model("graphaug", dataset, config, seed=0)
        before = evaluate_scores(model.score_all_users(), dataset, ks=(5,),
                                 metrics=("recall",))
        cfg = TrainConfig(epochs=12, batch_size=128, eval_every=6,
                          eval_ks=(5,), eval_metrics=("recall",),
                          early_stop_metric="recall@5")
        result = fit_model(model, dataset, cfg, seed=0)
        assert result.best_metrics["recall@5"] > before["recall@5"]

    def test_threshold_zero_keeps_every_candidate(self, dataset):
        cfg = ModelConfig(embedding_dim=16, edge_threshold=0.0)
        model = GraphAug(dataset, cfg, seed=0)
        emb = model._encode_original()
        view, _ = model.sample_augmented_views(emb)
        assert view.keep_mask.all()

    def test_mixhop_architecture_resists_deep_smoothing(self, dataset):
        """Table III's architectural claim: at depth, the Eq-11 mixhop
        encoder keeps node embeddings more distinct (higher MAD) than pure
        vanilla propagation of the same depth.

        Measured on the *encoder output* (not trained models): on miniature
        trained models the raw MAD is dominated by the popularity cone the
        ranking objective itself induces, so it says little about the
        encoder.
        """
        import numpy as np
        from repro.autograd import Tensor, spmm
        from repro.core import MixhopEncoder
        from repro.graph import symmetric_normalize
        from repro.models import light_gcn_propagate

        rng = np.random.default_rng(0)
        ego = rng.normal(size=(dataset.train.num_nodes, 18))
        depth = 6
        adj = symmetric_normalize(dataset.train.bipartite_adjacency(),
                                  add_self_loops=True)
        vanilla_adj = symmetric_normalize(dataset.train
                                          .bipartite_adjacency(),
                                          add_self_loops=False)
        vanilla = light_gcn_propagate(vanilla_adj, Tensor(ego), depth)
        encoder = MixhopEncoder(18, depth, (0, 1, 2),
                                np.random.default_rng(1), mode="dense")
        mixed = encoder(Tensor(ego), lambda h: spmm(adj, h))
        assert mean_average_distance(mixed.data) > \
            mean_average_distance(vanilla.data)
