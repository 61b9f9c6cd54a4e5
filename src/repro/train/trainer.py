"""The shared training loop.

All 18 models train through this one loop so comparisons are apples-to-
apples: same sampler, same optimizer family, same evaluation cadence, same
early stopping.  The loop also records per-epoch history (loss, metrics,
cumulative wall-clock), which directly feeds the paper's convergence figure
(Fig 4) and cost table (Table VI).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from .config import TrainConfig
from .parallel import apply_stale_gradients, stale_batch_grads
from ..autograd import (Adam, ExponentialLR, SPMM_PRIMITIVES, no_grad,
                        primitive_profile, primitive_profiling_enabled,
                        use_backend)
from ..data import BPRSampler, InteractionDataset
from ..eval import evaluate_model
from ..obs import (console, counter, counter_event, gauge, histogram, span,
                   trace_scope, tracing_enabled)
from ..utils import Timer


@dataclass
class EpochRecord:
    """One row of training history."""

    epoch: int
    loss: float
    wall_time: float                      # cumulative seconds of training
    metrics: Dict[str, float] = field(default_factory=dict)


@dataclass
class FitResult:
    """Everything a benchmark needs after training finishes."""

    history: List[EpochRecord]
    best_metrics: Dict[str, float]
    best_epoch: int
    train_seconds: float
    sampler_seconds: float = 0.0          # wall-clock inside BPR sampling
    spmm_seconds: float = 0.0             # wall-clock inside the spmm
                                          # primitive family, derived from
                                          # primitive_seconds (0 unless
                                          # profiling is on); kept as its
                                          # own field for bench-schema
                                          # compatibility
    eval_seconds: float = 0.0             # wall-clock inside chunked
                                          # ranking evaluation
    primitive_seconds: Dict[str, float] = field(default_factory=dict)
                                          # per-primitive fwd+bwd wall-
                                          # clock during this fit (empty
                                          # unless profiling is on)

    def metric_curve(self, key: str) -> List[float]:
        """Per-evaluation series of one metric (for convergence plots)."""
        return [rec.metrics[key] for rec in self.history if rec.metrics]

    def final_metrics(self) -> Dict[str, float]:
        for rec in reversed(self.history):
            if rec.metrics:
                return rec.metrics
        return {}


class Trainer:
    """Mini-batch BPR-style training driver around a model.

    The model contract (see :class:`repro.models.base.Recommender`):

    * ``model.loss(users, pos_items, neg_items) -> Tensor`` — scalar batch
      loss including the model's own regularizers / SSL terms;
    * ``model.parameters()`` — trainable tensors;
    * ``model.score_users(user_ids) -> ndarray`` — chunked preference
      scores (objects exposing only the legacy ``score_all_users()`` still
      work: evaluation falls back to one dense materialization);
    * optional ``model.inference_cache()`` — context manager sharing one
      propagation across the evaluation's score chunks;
    * optional ``model.on_epoch_start(epoch, rng)`` — hook used by models
      that resample augmented structures each epoch (SGL, GraphAug, NCL's
      EM step, ...).

    Evaluation runs through the chunked ranking engine
    (:func:`repro.eval.evaluate_model`), so the trainer never allocates
    the dense ``(num_users, num_items)`` score matrix; its wall-clock is
    recorded in ``FitResult.eval_seconds``.

    When ``TrainConfig.snapshot_path`` is set, the final parameters are
    persisted as a serving snapshot (:mod:`repro.serve`) after the last
    epoch, ready for ``RecommenderService.from_snapshot``.

    ``TrainConfig.propagate_every`` > 1 switches each epoch onto the
    amortized stale-window schedule (see :mod:`repro.train.parallel`).
    It requires the model's inherited embedding-dot ``score_users``
    (``supports_amortized_propagation``); the default
    ``propagate_every=1`` runs the classic loop unchanged.
    """

    def __init__(self, model, dataset: InteractionDataset,
                 config: Optional[TrainConfig] = None,
                 seed: int = 0, epoch_hook=None):
        self.model = model
        self.dataset = dataset
        self.config = config or TrainConfig()
        # called with each EpochRecord right after it lands in history;
        # the experiment layer uses it to stream crash-safe metrics.jsonl
        # rows and status.json heartbeats.  A plain constructor argument
        # (not a TrainConfig field) so configs stay JSON-round-trippable
        self.epoch_hook = epoch_hook
        self._validate_schedule(model, self.config)
        self.rng = np.random.default_rng(seed)
        self.sampler = BPRSampler(dataset.train, self.rng)
        self.optimizer = Adam(model.parameters(),
                              lr=self.config.learning_rate)
        self.scheduler = ExponentialLR(self.optimizer,
                                       gamma=self.config.lr_decay)

    @staticmethod
    def _validate_schedule(model, cfg: TrainConfig) -> None:
        """Reject inconsistent scheduler knobs up front, loudly."""
        if cfg.propagate_every < 1:
            raise ValueError(
                f"propagate_every must be >= 1, got {cfg.propagate_every}")
        if cfg.propagate_every > 1:
            supports = getattr(model, "supports_amortized_propagation",
                               None)
            if not (supports and supports()):
                raise ValueError(
                    f"model {getattr(model, 'name', type(model).__name__)!r}"
                    " does not support amortized propagation "
                    "(custom score_users): train it with "
                    "propagate_every=1")

    # ------------------------------------------------------------------ #
    def fit(self) -> FitResult:
        """Train to completion under the configured autograd backend.

        ``TrainConfig.autograd_backend`` (when set) scopes the primitive
        backend selection — e.g. the fused hot-path kernels — to this
        fit and is restored afterwards.  ``TrainConfig.trace`` likewise
        scopes ``repro.obs`` tracing to this fit (and never force-
        disables tracing a caller already enabled).
        """
        with trace_scope(self.config.trace):
            if self.config.autograd_backend:
                with use_backend(self.config.autograd_backend):
                    return self._fit()
            return self._fit()

    @staticmethod
    def _emit_primitive_counters(profile_at_start) -> None:
        """Re-expose the autograd profiler as trace counter tracks.

        When both tracing and per-primitive profiling are on, each epoch
        drops one Chrome ``"C"`` sample per primitive with the seconds
        accumulated since fit start — a plottable time series of where
        the tape spends its time.  No-op otherwise.
        """
        if not (tracing_enabled() and primitive_profiling_enabled()):
            return
        for name, entry in primitive_profile().items():
            delta = entry["seconds"] - profile_at_start.get(
                name, {}).get("seconds", 0.0)
            if delta > 0.0:
                counter_event(f"autograd.{name}", seconds=delta,
                              calls=entry["calls"])

    def _fit(self) -> FitResult:
        cfg = self.config
        num_batches = cfg.batches_per_epoch
        if num_batches is None:
            num_batches = max(
                1, math.ceil(self.dataset.num_train_interactions
                             / cfg.batch_size))
        history: List[EpochRecord] = []
        timer = Timer()
        sampler_timer = Timer()
        eval_timer = Timer()
        profile_at_start = primitive_profile()
        best_value = -np.inf
        best_metrics: Dict[str, float] = {}
        best_epoch = -1
        stale_evals = 0
        propagate_every = max(1, cfg.propagate_every)
        self._ego_columns = slice(None)
        if propagate_every > 1:
            # probe the propagated width once: it may exceed the ego
            # width (layer-concat models), and the model then names the
            # identity-rooted block the stale scatter may use
            with no_grad():
                users_t, _ = self.model.propagate()
            self._ego_columns = self.model.amortized_ego_columns(
                users_t.data.shape[1])
        for epoch in range(1, cfg.epochs + 1):
            epoch_started = timer.total
            with span("train.epoch", epoch=epoch), timer:
                if hasattr(self.model, "on_epoch_start"):
                    self.model.on_epoch_start(epoch, self.rng)
                if propagate_every == 1:
                    # the classic exact loop, operation-for-operation the
                    # pre-scheduler trainer (bit-identical by construction)
                    epoch_loss = 0.0
                    for _ in range(num_batches):
                        with span("train.batch"):
                            with sampler_timer:
                                users, pos, neg = self.sampler.sample(
                                    cfg.batch_size)
                            loss = self.model.loss(users, pos, neg)
                            self.optimizer.zero_grad()
                            loss.backward()
                            self.optimizer.step()
                            epoch_loss += loss.item()
                else:
                    epoch_loss = self._amortized_epoch(
                        num_batches, propagate_every, sampler_timer)
                self.scheduler.step()
            epoch_loss /= num_batches

            metrics: Dict[str, float] = {}
            if epoch % cfg.eval_every == 0 or epoch == cfg.epochs:
                with span("train.eval", epoch=epoch), eval_timer:
                    metrics = evaluate_model(
                        self.model, self.dataset, ks=cfg.eval_ks,
                        metrics=cfg.eval_metrics,
                        chunk_size=cfg.eval_chunk_size)
                tracked = metrics.get(cfg.early_stop_metric)
                if tracked is not None:
                    if tracked > best_value:
                        best_value = tracked
                        best_metrics = dict(metrics)
                        best_epoch = epoch
                        stale_evals = 0
                    else:
                        stale_evals += 1
            if cfg.verbose:
                msg = f"epoch {epoch:3d} loss {epoch_loss:.4f}"
                if metrics:
                    msg += "  " + "  ".join(f"{k}={v:.4f}"
                                            for k, v in metrics.items())
                console(msg)

            counter("train.epochs",
                    help="completed training epochs").inc()
            counter("train.batches",
                    help="gradient batches applied").inc(num_batches)
            gauge("train.loss", help="last epoch's mean loss").set(epoch_loss)
            histogram("train.epoch_seconds",
                      help="wall-clock per training epoch").observe(
                timer.total - epoch_started)
            self._emit_primitive_counters(profile_at_start)

            history.append(EpochRecord(epoch=epoch, loss=epoch_loss,
                                       wall_time=timer.total,
                                       metrics=metrics))
            if self.epoch_hook is not None:
                self.epoch_hook(history[-1])
            kill_after = os.environ.get("REPRO_FAULT_KILL_AFTER_EPOCH")
            if kill_after is not None and epoch >= int(kill_after):
                # the hard half of the fault-injection surface: unlike
                # fail_after_epoch (a catchable raise), this is a
                # process death no except/finally can intercept — the
                # crash/retry path the dispatch chaos tests exercise.
                # An env var (not a config field) on purpose: it kills
                # whichever *process* carries it, never changes a
                # spec's identity, and composes with any spec
                os._exit(137)
            if (cfg.fail_after_epoch is not None
                    and epoch >= cfg.fail_after_epoch):
                # fault-injection hook (see TrainConfig.fail_after_epoch):
                # a deliberate mid-fit crash for failure-isolation tests
                raise RuntimeError(
                    f"injected training failure after epoch {epoch} "
                    "(TrainConfig.fail_after_epoch)")
            if (cfg.early_stop_patience is not None
                    and stale_evals >= cfg.early_stop_patience):
                break

        if not best_metrics and history:
            # no eval ever ran (eval_every > epochs); evaluate once at end
            with eval_timer:
                best_metrics = evaluate_model(
                    self.model, self.dataset, ks=cfg.eval_ks,
                    metrics=cfg.eval_metrics,
                    chunk_size=cfg.eval_chunk_size)
            best_epoch = history[-1].epoch
        if cfg.snapshot_path:
            # end-of-fit serving snapshot of the final parameters
            from .callbacks import ServingSnapshot
            ServingSnapshot(cfg.snapshot_path)(self.model, self.dataset)
        primitive_seconds = {}
        for name, entry in primitive_profile().items():
            delta = entry["seconds"] - profile_at_start.get(
                name, {}).get("seconds", 0.0)
            if delta > 0.0:
                primitive_seconds[name] = delta
        return FitResult(history=history, best_metrics=best_metrics,
                         best_epoch=best_epoch, train_seconds=timer.total,
                         sampler_seconds=sampler_timer.total,
                         spmm_seconds=sum(primitive_seconds.get(name, 0.0)
                                          for name in SPMM_PRIMITIVES),
                         eval_seconds=eval_timer.total,
                         primitive_seconds=primitive_seconds)

    def _amortized_epoch(self, num_batches: int, propagate_every: int,
                         sampler_timer: Timer) -> float:
        """One epoch of the stale-window schedule (see train.parallel).

        Every window: one exact batch (live ``model.loss``), a frozen
        table refresh, then up to ``propagate_every - 1`` stale batches,
        each sampled, differentiated against the frozen tables and
        applied in batch order.
        """
        model, cfg = self.model, self.config
        reg_weight = model.config.reg_weight
        epoch_loss = 0.0
        batch = 0
        while batch < num_batches:
            with span("train.batch", exact=True):
                with sampler_timer:
                    users, pos, neg = self.sampler.sample(cfg.batch_size)
                loss = model.loss(users, pos, neg)
                self.optimizer.zero_grad()
                loss.backward()
                self.optimizer.step()
                epoch_loss += loss.item()
            batch += 1
            window = min(propagate_every - 1, num_batches - batch)
            if window < 1:
                continue
            with span("train.refresh", batch=batch):
                stale_users, stale_items = model.refresh_propagation()
            with span("train.window", size=window):
                for _ in range(window):
                    with sampler_timer:
                        users, pos, neg = self.sampler.sample(cfg.batch_size)
                    loss_value, gu, gp, gn = stale_batch_grads(
                        stale_users[users], stale_items[pos],
                        stale_items[neg], reg_weight)
                    apply_stale_gradients(model, self.optimizer,
                                          users, pos, neg, gu, gp, gn,
                                          ego_columns=self._ego_columns)
                    epoch_loss += loss_value
            batch += window
        return epoch_loss


def fit_model(model, dataset: InteractionDataset,
              config: Optional[TrainConfig] = None, seed: int = 0
              ) -> FitResult:
    """One-call convenience wrapper: build a Trainer and fit."""
    return Trainer(model, dataset, config=config, seed=seed).fit()
