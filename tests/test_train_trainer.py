"""Tests for the shared training loop."""

import numpy as np
import pytest

from repro.models import build_model
from repro.train import ModelConfig, TrainConfig, Trainer, fit_model


class TestTrainer:
    def test_history_length(self, small_dataset, fast_model_config):
        model = build_model("lightgcn", small_dataset, fast_model_config)
        cfg = TrainConfig(epochs=4, batch_size=64, eval_every=2)
        result = fit_model(model, small_dataset, cfg, seed=0)
        assert len(result.history) == 4
        assert all(rec.epoch == i + 1 for i, rec in
                   enumerate(result.history))

    def test_eval_cadence(self, small_dataset, fast_model_config):
        model = build_model("lightgcn", small_dataset, fast_model_config)
        cfg = TrainConfig(epochs=6, batch_size=64, eval_every=3)
        result = fit_model(model, small_dataset, cfg, seed=0)
        evaluated = [rec.epoch for rec in result.history if rec.metrics]
        assert evaluated == [3, 6]

    def test_loss_decreases(self, small_dataset, fast_model_config):
        model = build_model("biasmf", small_dataset, fast_model_config)
        cfg = TrainConfig(epochs=10, batch_size=128, eval_every=10)
        result = fit_model(model, small_dataset, cfg, seed=0)
        first = np.mean([r.loss for r in result.history[:3]])
        last = np.mean([r.loss for r in result.history[-3:]])
        assert last < first

    def test_training_beats_random_scores(self, small_dataset,
                                          fast_model_config):
        # recall@5: on the 50-item tiny catalogue random@20 is ~0.5, so the
        # discriminative cut-off has to be small
        from repro.eval import evaluate_scores
        model = build_model("lightgcn", small_dataset, fast_model_config)
        cfg = TrainConfig(epochs=30, batch_size=128, eval_every=10,
                          eval_ks=(5,), eval_metrics=("recall",),
                          early_stop_metric="recall@5")
        result = fit_model(model, small_dataset, cfg, seed=0)
        rng = np.random.default_rng(0)
        random_recalls = []
        for _ in range(5):  # average several draws: single draws are noisy
            random_scores = rng.normal(size=(small_dataset.num_users,
                                             small_dataset.num_items))
            random_recalls.append(evaluate_scores(
                random_scores, small_dataset, ks=(5,),
                metrics=("recall",))["recall@5"])
        assert result.best_metrics["recall@5"] > np.mean(random_recalls)

    def test_wall_time_monotone(self, small_dataset, fast_model_config):
        model = build_model("biasmf", small_dataset, fast_model_config)
        cfg = TrainConfig(epochs=3, batch_size=64, eval_every=3)
        result = fit_model(model, small_dataset, cfg, seed=0)
        times = [rec.wall_time for rec in result.history]
        assert times == sorted(times)
        assert result.train_seconds >= times[-1] - 1e-9

    def test_early_stopping(self, small_dataset, fast_model_config):
        model = build_model("biasmf", small_dataset, fast_model_config)
        cfg = TrainConfig(epochs=50, batch_size=64, eval_every=1,
                          early_stop_patience=2)
        result = fit_model(model, small_dataset, cfg, seed=0)
        assert len(result.history) < 50

    def test_metric_curve(self, small_dataset, fast_model_config):
        model = build_model("lightgcn", small_dataset, fast_model_config)
        cfg = TrainConfig(epochs=4, batch_size=64, eval_every=2)
        result = fit_model(model, small_dataset, cfg, seed=0)
        curve = result.metric_curve("recall@20")
        assert len(curve) == 2

    def test_final_metrics_nonempty(self, small_dataset, fast_model_config):
        model = build_model("lightgcn", small_dataset, fast_model_config)
        cfg = TrainConfig(epochs=2, batch_size=64, eval_every=1)
        result = fit_model(model, small_dataset, cfg, seed=0)
        assert "recall@20" in result.final_metrics()

    def test_eval_never_during_training_still_reports(self, small_dataset,
                                                      fast_model_config):
        model = build_model("biasmf", small_dataset, fast_model_config)
        cfg = TrainConfig(epochs=2, batch_size=64, eval_every=100)
        result = fit_model(model, small_dataset, cfg, seed=0)
        assert result.best_metrics  # fallback evaluation at the end

    def test_deterministic_given_seed(self, small_dataset,
                                      fast_model_config):
        results = []
        for _ in range(2):
            model = build_model("lightgcn", small_dataset,
                                fast_model_config, seed=3)
            cfg = TrainConfig(epochs=3, batch_size=64, eval_every=3)
            results.append(fit_model(model, small_dataset, cfg, seed=3))
        assert results[0].best_metrics == results[1].best_metrics
        assert [r.loss for r in results[0].history] == \
            [r.loss for r in results[1].history]


class TestHotpathTimings:
    def test_sampler_seconds_recorded(self, small_dataset,
                                      fast_model_config):
        model = build_model("biasmf", small_dataset, fast_model_config,
                            seed=0)
        cfg = TrainConfig(epochs=2, batch_size=64, eval_every=2)
        result = fit_model(model, small_dataset, cfg, seed=0)
        assert result.sampler_seconds > 0.0
        assert result.sampler_seconds <= result.train_seconds

    def test_spmm_seconds_zero_without_profiling(self, small_dataset,
                                                 fast_model_config):
        model = build_model("lightgcn", small_dataset, fast_model_config,
                            seed=0)
        cfg = TrainConfig(epochs=1, batch_size=64, eval_every=1)
        result = fit_model(model, small_dataset, cfg, seed=0)
        assert result.spmm_seconds == 0.0

    def test_spmm_seconds_with_profiling(self, small_dataset,
                                         fast_model_config):
        from repro.autograd import enable_primitive_profiling
        model = build_model("lightgcn", small_dataset, fast_model_config,
                            seed=0)
        cfg = TrainConfig(epochs=1, batch_size=64, eval_every=1)
        enable_primitive_profiling(True)
        try:
            result = fit_model(model, small_dataset, cfg, seed=0)
        finally:
            enable_primitive_profiling(False)
        assert result.spmm_seconds > 0.0


class TestConfigs:
    def test_with_overrides(self):
        cfg = ModelConfig().with_overrides(embedding_dim=8)
        assert cfg.embedding_dim == 8
        assert ModelConfig().embedding_dim == 32  # original untouched

    def test_train_config_overrides(self):
        cfg = TrainConfig().with_overrides(epochs=99)
        assert cfg.epochs == 99
