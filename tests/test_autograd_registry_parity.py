"""End-to-end parity and fused-switch contracts for the registry tape.

Three guarantees the autograd refactor must keep:

* **Bit-identity of the default path** — committed golden
  ``run_dir_fingerprint`` values, captured on the pre-registry closure
  tape, must be reproduced exactly by the registry-based tape (same
  float ops in the same order, VJPs included).
* **Fused-kernel equivalence** — the opt-in fused BPR / propagate
  kernels match the composed graphs (bit-identical forward for
  ``light_propagate``, float tolerance elsewhere) and train to the same
  place.
* **Fused-switch semantics** — ``fused_kernels`` scopes and restores
  the switch, and ``TrainConfig.autograd_backend`` accepts only
  ``None`` or ``"fused"``.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.api import Experiment, ExperimentSpec, run_dir_fingerprint
from repro.autograd import (Tensor, enable_primitive_profiling,
                            fused_bpr_loss, fused_bpr_scores,
                            fused_kernels, fused_kernels_enabled,
                            light_propagate, functional as F)
from repro.data import tiny_dataset
from repro.models import build_model
from repro.models.base import light_gcn_propagate
from repro.train import ModelConfig, TrainConfig, fit_model

#: fingerprints of 5-epoch gowalla runs captured on the pre-refactor
#: closure-based tape (seed 0, d=16, L=2, batch 256).  The registry tape
#: must reproduce them bit-for-bit: spec echo, per-epoch losses, metrics
#: and probe outputs all hash in.
GOLDEN_FINGERPRINTS = {
    "lightgcn": ("9f018e3f8018074708708920764b25b7"
                 "0aae66fc106ef881a266f8080e310db7"),
    "sgl": ("06538d6d51508b0bceb02ce10d5bedd2"
            "5982ae1b1b3b06eca6846dfb81a5a52d"),
    "ngcf": ("9703ee99eeffb8d1e9cf797b14b7eda4"
             "9972d118f08124ab2c4cd595b3295d22"),
}


class TestGoldenFingerprints:
    @pytest.mark.parametrize("model", sorted(GOLDEN_FINGERPRINTS))
    def test_registry_tape_is_bit_identical_to_closure_tape(self, model,
                                                            tmp_path):
        spec = ExperimentSpec(
            model=model, dataset="gowalla", seed=0,
            model_config={"embedding_dim": 16, "num_layers": 2},
            train_config={"epochs": 5, "batch_size": 256, "eval_every": 5})
        result = Experiment(spec).run(run_dir=str(tmp_path / model))
        assert run_dir_fingerprint(result.run_dir) == \
            GOLDEN_FINGERPRINTS[model]


def _triplet(seed, n=32, d=8):
    rng = np.random.default_rng(seed)
    return tuple(Tensor(rng.normal(size=(n, d)), requires_grad=True)
                 for _ in range(3))


class TestFusedParity:
    def test_fused_bpr_loss_matches_composed(self):
        u, vp, vn = _triplet(0)
        composed = F.bpr_loss((u * vp).sum(axis=1), (u * vn).sum(axis=1))
        composed.backward()
        expected = (u.grad.copy(), vp.grad.copy(), vn.grad.copy())
        for t in (u, vp, vn):
            t.zero_grad()
        fused = fused_bpr_loss(u, vp, vn)
        fused.backward()
        np.testing.assert_allclose(fused.data, composed.data, rtol=1e-12)
        for got, want in zip((u.grad, vp.grad, vn.grad), expected):
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)

    def test_fused_bpr_scores_matches_composed(self):
        rng = np.random.default_rng(3)
        pos = Tensor(rng.normal(size=64), requires_grad=True)
        neg = Tensor(rng.normal(size=64), requires_grad=True)
        composed = F.bpr_loss(pos, neg)
        composed.backward()
        expected = (pos.grad.copy(), neg.grad.copy())
        pos.zero_grad(), neg.zero_grad()
        fused = fused_bpr_scores(pos, neg)
        fused.backward()
        np.testing.assert_allclose(fused.data, composed.data, rtol=1e-12)
        for got, want in zip((pos.grad, neg.grad), expected):
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)

    def test_light_propagate_forward_bit_identical(self):
        adj = sp.random(10, 10, density=0.3, random_state=5, format="csr")
        ego = Tensor(np.random.default_rng(5).normal(size=(10, 4)),
                     requires_grad=True)
        composed = light_gcn_propagate(adj, ego, 3)
        fused = light_propagate(adj, ego, 3)
        # same csr matvecs in the same order: bit-for-bit, not just close
        np.testing.assert_array_equal(fused.data, composed.data)

    def test_light_propagate_backward_matches_composed(self):
        adj = sp.random(10, 10, density=0.3, random_state=6, format="csr")
        data = np.random.default_rng(6).normal(size=(10, 4))
        head = np.random.default_rng(7).normal(size=(10, 4))
        ego_a = Tensor(data.copy(), requires_grad=True)
        (light_gcn_propagate(adj, ego_a, 3) * Tensor(head)).sum().backward()
        ego_b = Tensor(data.copy(), requires_grad=True)
        (light_propagate(adj, ego_b, 3) * Tensor(head)).sum().backward()
        np.testing.assert_allclose(ego_b.grad, ego_a.grad,
                                   rtol=1e-9, atol=1e-12)

    def test_training_with_fused_backend_matches_reference(self):
        dataset = tiny_dataset(seed=2)
        losses = {}
        metrics = {}
        for backend in (None, "fused"):
            model = build_model("lightgcn", dataset,
                                ModelConfig(embedding_dim=8, num_layers=2),
                                seed=2)
            cfg = TrainConfig(epochs=3, batch_size=128, eval_every=3,
                              autograd_backend=backend)
            fit = fit_model(model, dataset, cfg, seed=2)
            losses[backend] = [rec.loss for rec in fit.history]
            metrics[backend] = fit.best_metrics
        # gradient accumulation order differs, float values must not
        np.testing.assert_allclose(losses["fused"], losses[None],
                                   rtol=1e-6)
        assert metrics["fused"].keys() == metrics[None].keys()
        for key, want in metrics[None].items():
            assert metrics["fused"][key] == pytest.approx(want, abs=1e-6)


class TestFusedSwitch:
    def test_fused_kernels_scoped_and_restored(self):
        assert not fused_kernels_enabled()
        with fused_kernels():
            assert fused_kernels_enabled()
            with fused_kernels(False):
                assert not fused_kernels_enabled()
            assert fused_kernels_enabled()
        assert not fused_kernels_enabled()
        with pytest.raises(RuntimeError):
            with fused_kernels():
                raise RuntimeError("boom")
        assert not fused_kernels_enabled()

    def test_unknown_autograd_backend_rejected(self):
        dataset = tiny_dataset(seed=1)
        model = build_model("lightgcn", dataset,
                            ModelConfig(embedding_dim=8, num_layers=1),
                            seed=1)
        cfg = TrainConfig(epochs=1, batch_size=128,
                          autograd_backend="fuesd")
        with pytest.raises(ValueError, match="'fuesd'"):
            fit_model(model, dataset, cfg, seed=1)


class TestTrainerIntegration:
    def test_fused_fit_reports_primitive_seconds(self):
        dataset = tiny_dataset(seed=4)
        model = build_model("lightgcn", dataset,
                            ModelConfig(embedding_dim=8, num_layers=2),
                            seed=4)
        cfg = TrainConfig(epochs=2, batch_size=128, eval_every=2,
                          autograd_backend="fused")
        enable_primitive_profiling(True)
        try:
            fit = fit_model(model, dataset, cfg, seed=4)
        finally:
            enable_primitive_profiling(False)
        assert not fused_kernels_enabled()  # restored
        # the fused kernels actually ran ...
        assert "light_propagate" in fit.primitive_seconds
        assert "fused_bpr_loss" in fit.primitive_seconds
        # ... and spmm_seconds is the derived family sum
        family = sum(fit.primitive_seconds.get(name, 0.0)
                     for name in ("spmm", "weighted_spmm",
                                  "light_propagate"))
        assert fit.spmm_seconds == pytest.approx(family, rel=1e-6)

    def test_default_fit_records_composed_primitives(self):
        dataset = tiny_dataset(seed=5)
        model = build_model("lightgcn", dataset,
                            ModelConfig(embedding_dim=8, num_layers=2),
                            seed=5)
        enable_primitive_profiling(True)
        try:
            fit = fit_model(model, dataset,
                            TrainConfig(epochs=1, batch_size=128,
                                        eval_every=1), seed=5)
        finally:
            enable_primitive_profiling(False)
        assert "spmm" in fit.primitive_seconds
        assert "light_propagate" not in fit.primitive_seconds
        assert fit.spmm_seconds == pytest.approx(
            fit.primitive_seconds["spmm"], rel=1e-6)
