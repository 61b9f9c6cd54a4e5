"""Tests for the amortized-propagation schedule (``repro.train.parallel``).

Acceptance contract of the schedule:

* ``propagate_every=1`` (the default) runs the classic loop — bit-
  identical to every previous release (also re-certified by the golden
  fingerprints in ``test_autograd_registry_parity.py``);
* a stale window is exactly "refresh, then per batch
  :func:`stale_batch_grads` + :func:`apply_stale_gradients` in batch
  order", and its results are pinned by golden ``run_dir_fingerprint``
  values for lightgcn / sgl / ngcf;
* staleness is spec-visible: ``propagate_every > 1`` changes results
  *and* the fingerprint;
* resampling models (SGL, NCL) invalidate the frozen tables at every
  ``on_epoch_start``, and the schedule composes with early stopping;
* the stale batches' primitive seconds land in
  ``FitResult.primitive_seconds``.
"""

import numpy as np
import pytest

from repro.api import Experiment, ExperimentSpec, run_dir_fingerprint
from repro.autograd import Adam
from repro.data import BPRSampler
from repro.models import build_model
from repro.train import (ModelConfig, TrainConfig, Trainer,
                         config_from_dict, config_to_dict, fit_model)
from repro.train.parallel import apply_stale_gradients, stale_batch_grads

FAST = dict(epochs=2, batch_size=128, eval_every=2)
MODEL_CFG = {"embedding_dim": 16, "num_layers": 2}

#: run_dir_fingerprint of a ``propagate_every=3`` FAST run on ``tiny``
STALE_GOLDEN_FINGERPRINTS = {
    "lightgcn": ("88c30bd627341e89df560b9f591f4e72"
                 "4306571d68189d1b18db125b12afb209"),
    "sgl": ("68360dba363aefdfd00e3737660bb662"
            "3d4a811e2978a2e9577e815ff171c151"),
    "ngcf": ("201145cba1d67ec44ccacfcb3a2b7810"
             "e2462b57a1423a93b8ec13b84c7d3377"),
}


def _fit_tables(model_name, dataset, *, seed=0, **train_overrides):
    """Fit and return (FitResult, user table, item table)."""
    model = build_model(model_name, dataset,
                        ModelConfig(**MODEL_CFG), seed=seed)
    cfg = TrainConfig(**{**FAST, **train_overrides})
    result = fit_model(model, dataset, cfg, seed=seed)
    return result, model.user_emb.weight.data, model.item_emb.weight.data


# --------------------------------------------------------------------- #
# the stale-window schedule
# --------------------------------------------------------------------- #

class TestStaleSchedule:
    def test_default_propagate_every_is_classic_loop(self, small_dataset):
        """``propagate_every=1`` (explicit or default) is one code path."""
        base, u0, i0 = _fit_tables("lightgcn", small_dataset)
        expl, u1, i1 = _fit_tables("lightgcn", small_dataset,
                                   propagate_every=1)
        np.testing.assert_array_equal(u0, u1)
        np.testing.assert_array_equal(i0, i1)
        assert [r.loss for r in base.history] == \
            [r.loss for r in expl.history]

    def test_staleness_changes_results(self, small_dataset):
        """K > 1 is a different (spec-visible) objective, not a no-op."""
        _, u1, _ = _fit_tables("lightgcn", small_dataset)
        _, u3, _ = _fit_tables("lightgcn", small_dataset,
                               propagate_every=3)
        assert not np.array_equal(u1, u3)

    def test_stale_window_matches_manual_schedule(self, small_dataset):
        """One trainer epoch == the schedule written out by hand."""
        k, num_batches, batch_size = 3, 7, 64
        cfg = TrainConfig(epochs=1, batch_size=batch_size,
                          batches_per_epoch=num_batches, eval_every=1,
                          propagate_every=k)
        trained = build_model("lightgcn", small_dataset,
                              ModelConfig(**MODEL_CFG), seed=0)
        Trainer(trained, small_dataset, cfg, seed=0).fit()

        model = build_model("lightgcn", small_dataset,
                            ModelConfig(**MODEL_CFG), seed=0)
        sampler = BPRSampler(small_dataset.train, np.random.default_rng(0))
        optimizer = Adam(model.parameters(), lr=cfg.learning_rate)
        reg = model.config.reg_weight
        for start in range(0, num_batches, k):
            users, pos, neg = sampler.sample(batch_size)
            loss = model.loss(users, pos, neg)
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
            window = min(k - 1, num_batches - start - 1)
            if window < 1:
                continue
            su, si = model.refresh_propagation()
            for _ in range(window):
                users, pos, neg = sampler.sample(batch_size)
                _, gu, gp, gn = stale_batch_grads(su[users], si[pos],
                                                  si[neg], reg)
                apply_stale_gradients(model, optimizer, users, pos, neg,
                                      gu, gp, gn)
        np.testing.assert_array_equal(model.user_emb.weight.data,
                                      trained.user_emb.weight.data)
        np.testing.assert_array_equal(model.item_emb.weight.data,
                                      trained.item_emb.weight.data)

    def test_stale_grads_read_only_frozen_rows(self, small_dataset):
        """The stale objective never touches live parameters."""
        model = build_model("lightgcn", small_dataset,
                            ModelConfig(**MODEL_CFG), seed=0)
        su, si = model.refresh_propagation()
        users = np.arange(8)
        loss_a = stale_batch_grads(su[users], si[users], si[users + 1],
                                   model.config.reg_weight)
        # mangle the live parameters: frozen-row grads must not move
        model.user_emb.weight.data[...] += 100.0
        loss_b = stale_batch_grads(su[users], si[users], si[users + 1],
                                   model.config.reg_weight)
        assert loss_a[0] == loss_b[0]
        np.testing.assert_array_equal(loss_a[1], loss_b[1])


# --------------------------------------------------------------------- #
# pinned results (acceptance)
# --------------------------------------------------------------------- #

def _spec(model, **train_overrides):
    return ExperimentSpec(model=model, dataset="tiny",
                          model_config=dict(MODEL_CFG),
                          train_config={**FAST, **train_overrides})


class TestStaleGoldenFingerprints:
    @pytest.mark.parametrize("model_name",
                             sorted(STALE_GOLDEN_FINGERPRINTS))
    def test_fingerprint_is_pinned(self, model_name, tmp_path):
        run_dir = str(tmp_path / model_name)
        Experiment(_spec(model_name, propagate_every=3)).run(
            run_dir=run_dir)
        assert run_dir_fingerprint(run_dir) == \
            STALE_GOLDEN_FINGERPRINTS[model_name]


class TestFingerprintSemantics:
    def test_propagate_every_is_fingerprint_visible(self, tmp_path):
        """Staleness changes the math, so it must change the print."""
        a, b = str(tmp_path / "k1"), str(tmp_path / "k3")
        Experiment(_spec("lightgcn")).run(run_dir=a)
        Experiment(_spec("lightgcn", propagate_every=3)).run(run_dir=b)
        assert run_dir_fingerprint(a) != run_dir_fingerprint(b)

    def test_observability_knobs_are_normalized(self):
        """trace / heartbeat_seconds leave the print; K stays in it."""
        from repro.api.rundir import _schedule_free_spec
        spec = _spec("lightgcn", propagate_every=3, trace=True,
                     heartbeat_seconds=5.0).to_dict()
        stripped = _schedule_free_spec(spec)
        assert "trace" not in stripped["train_config"]
        assert "heartbeat_seconds" not in stripped["train_config"]
        assert stripped["train_config"]["propagate_every"] == 3
        # no schedule knob present -> the dict passes through untouched
        plain = _spec("lightgcn").to_dict()
        assert _schedule_free_spec(plain) is plain


# --------------------------------------------------------------------- #
# knob validation
# --------------------------------------------------------------------- #

class TestValidation:
    def test_custom_scorer_models_reject_staleness(self, small_dataset):
        model = build_model("ncf", small_dataset,
                            ModelConfig(**MODEL_CFG), seed=0)
        with pytest.raises(ValueError, match="ncf"):
            Trainer(model, small_dataset,
                    TrainConfig(**FAST, propagate_every=3))

    def test_propagate_every_must_be_positive(self, small_dataset):
        model = build_model("lightgcn", small_dataset,
                            ModelConfig(**MODEL_CFG), seed=0)
        with pytest.raises(ValueError, match="propagate_every"):
            Trainer(model, small_dataset,
                    TrainConfig(**FAST, propagate_every=0))


class TestSpecRoundTrip:
    def test_train_config_round_trips_scheduler_knobs(self):
        cfg = TrainConfig(**FAST, propagate_every=4)
        clone = config_from_dict(TrainConfig, config_to_dict(cfg))
        assert clone.propagate_every == 4
        assert clone == cfg

    def test_experiment_spec_round_trips_scheduler_knobs(self):
        spec = _spec("lightgcn", propagate_every=4)
        clone = ExperimentSpec.from_dict(spec.to_dict())
        assert clone == spec
        assert clone.to_dict()["train_config"]["propagate_every"] == 4


# --------------------------------------------------------------------- #
# epoch hooks: resampling models, early stopping
# --------------------------------------------------------------------- #

class TestScheduleInteractions:
    @pytest.mark.parametrize("model_name", ["sgl", "ncl"])
    def test_resampling_models_invalidate_stale_cache(self, model_name,
                                                      small_dataset):
        """SGL/NCL rebuild structures per epoch -> frozen tables die."""
        model = build_model(model_name, small_dataset,
                            ModelConfig(**MODEL_CFG), seed=0)
        model.refresh_propagation()
        assert model.propagation_cache() is not None
        model.on_epoch_start(2, np.random.default_rng(0))
        assert model.propagation_cache() is None

    def test_resampling_model_trains_stale(self, small_dataset):
        """Multi-epoch SGL under K > 1: every epoch re-propagates the
        freshly resampled views before freezing (would crash or silently
        reuse stale graphs without the on_epoch_start invalidation)."""
        result, u, _ = _fit_tables("sgl", small_dataset, epochs=3,
                                   propagate_every=3)
        assert len(result.history) == 3
        assert np.isfinite(u).all()

    def test_early_stopping_under_stale_schedule(self, small_dataset):
        model = build_model("lightgcn", small_dataset,
                            ModelConfig(**MODEL_CFG), seed=0)
        cfg = TrainConfig(epochs=50, batch_size=128, eval_every=1,
                          early_stop_patience=2, propagate_every=3)
        result = Trainer(model, small_dataset, cfg, seed=0).fit()
        assert len(result.history) < 50


class TestProfileAggregation:
    def test_stale_fit_reports_primitive_seconds(self, small_dataset):
        from repro.autograd import enable_primitive_profiling
        enable_primitive_profiling(True)
        try:
            result, _, _ = _fit_tables("lightgcn", small_dataset,
                                       propagate_every=3)
        finally:
            enable_primitive_profiling(False)
        # exact and stale batches (softplus inside bpr) and the
        # refreshes (spmm) all run in this process
        assert result.primitive_seconds.get("softplus", 0.0) > 0.0
        assert result.primitive_seconds.get("spmm", 0.0) > 0.0
        assert result.spmm_seconds > 0.0
