"""Hyperparameter configuration shared by every model in the zoo.

One flat dataclass keeps the registry simple: each model reads the fields it
needs and ignores the rest.  Defaults follow the paper's parameter settings
(Sec IV-A.3) scaled to this reproduction's dataset sizes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Dict, Optional, Sequence, Tuple

from ..eval.protocol import DEFAULT_CHUNK_SIZE  # noqa: F401 (re-export;
                                                # kept for callers that
                                                # pin the legacy block)


@dataclass
class ModelConfig:
    """Model hyperparameters (paper Sec IV-A.3 names in comments)."""

    embedding_dim: int = 32          # d; paper reports final results at 32
    num_layers: int = 2              # message-passing iterations L in [1,2,3]
    leaky_slope: float = 0.5         # LeakyReLU slope (fixed at 0.5)
    reg_weight: float = 1e-4         # beta3 * ||Theta||^2 (batch-wise L2)
    temperature: float = 0.5         # tau for InfoNCE, in [0.1 .. 0.9]
    ssl_weight: float = 0.3          # beta2-style weight on L_CL
    negative_weight: float = 0.0     # r, the negative-sample ratio of
                                     # Sec III-D.1; 1.0 = plain InfoNCE.
                                     # 0 (alignment-only) is required at
                                     # miniature scale — see DESIGN.md
    dropout: float = 0.1             # structure/feature corruption rate
    # --- GraphAug specific -------------------------------------------- #
    gib_weight: float = 1e-5         # beta1; the paper's best (Fig 5a)
    edge_threshold: float = 0.2      # xi, graph-sampling threshold (Table IV)
    gumbel_temperature: float = 0.5  # tau1 in Eq 5
    mixhop_hops: Tuple[int, ...] = (0, 1, 2)  # M, the hop set
    mixhop_mode: str = "light"       # "light" (mixing gates) or "dense" (Eq 11)
    # --- model-family knobs ------------------------------------------- #
    num_factors: int = 4             # disentangled latent intents (DGCF/DGCL)
    num_hyperedges: int = 16         # HCCF / MHCN hypergraph width
    num_clusters: int = 8            # NCL EM prototype count
    hidden_dim: int = 64             # NCF / AutoRec hidden width

    def with_overrides(self, **kwargs) -> "ModelConfig":
        return replace(self, **kwargs)


@dataclass
class TrainConfig:
    """Optimization loop settings."""

    epochs: int = 40
    batch_size: int = 512
    batches_per_epoch: Optional[int] = None   # default: ceil(|E| / batch)
    learning_rate: float = 1e-3               # iota
    lr_decay: float = 0.96                    # per-epoch exponential decay
    eval_every: int = 5                       # epochs between evaluations
    eval_ks: Sequence[int] = (20, 40)
    eval_metrics: Sequence[str] = ("recall", "ndcg")
    eval_chunk_size: Optional[int] = None     # users ranked per eval
                                              # block; bounds eval memory
                                              # at chunk x num_items scores.
                                              # None auto-sizes from the
                                              # memory budget (see
                                              # eval.auto_chunk_size)
    snapshot_path: Optional[str] = None       # write a serving snapshot
                                              # (repro.serve) of the final
                                              # parameters here after fit
    autograd_backend: Optional[str] = None    # primitive-implementation
                                              # backend selected for the
                                              # whole fit (e.g. "fused"
                                              # routes BPR loss + LightGCN
                                              # propagation through the
                                              # one-node fused kernels).
                                              # None = the bit-reproducible
                                              # reference tape.  Spec-
                                              # visible on purpose: fused
                                              # gradients differ from the
                                              # composed graph by float
                                              # accumulation order
    propagate_every: int = 1                  # K, the amortized-propagation
                                              # period (repro.train.parallel):
                                              # 1 (default) = today's exact
                                              # loop, bit-identical; K>1
                                              # re-propagates on every K-th
                                              # batch and trains the K-1
                                              # batches in between against
                                              # the frozen propagated tables
                                              # (stale-embedding schedule).
                                              # Spec-visible on purpose: the
                                              # staleness changes gradients;
                                              # its quality delta is measured
                                              # per model in BENCH_hotpath
                                              # (staleness_quality extras).
                                              # Requires the inherited
                                              # embedding-dot score_users
                                              # (GNN zoo); custom-scorer
                                              # models raise
    early_stop_patience: Optional[int] = None  # evals w/o improvement
    early_stop_metric: str = "recall@20"
    verbose: bool = False
    trace: bool = False                       # record repro.obs spans for
                                              # this fit (epochs, batches,
                                              # refreshes, stale windows)
                                              # and, via the experiment
                                              # layer, export a Chrome-
                                              # trace trace.json into the
                                              # run dir.  Observability
                                              # only: never changes the
                                              # math, and run_dir
                                              # fingerprints normalize it
                                              # out.
                                              # Off by default; the
                                              # disabled path is a no-op
                                              # fast path asserted by the
                                              # hot-path bench
    heartbeat_seconds: Optional[float] = None  # minimum seconds between
                                              # status.json heartbeat
                                              # stamps (repro.api.rundir.
                                              # write_heartbeat).  None =
                                              # the REPRO_HEARTBEAT_SECONDS
                                              # env var, else 0 = stamp on
                                              # every epoch (the classic
                                              # behaviour).  Throttling is
                                              # measured on the monotonic
                                              # clock.  Schedule-only: the
                                              # run_dir fingerprint
                                              # normalizes it out like
                                              # trace
    fail_after_epoch: Optional[int] = None    # fault-injection hook: raise
                                              # RuntimeError once this many
                                              # epochs completed.  Exists so
                                              # the sweep engine's failure-
                                              # isolation / resume paths are
                                              # testable with a real mid-fit
                                              # crash (spec-addressable even
                                              # in spawned workers); never
                                              # set in production configs

    def with_overrides(self, **kwargs) -> "TrainConfig":
        return replace(self, **kwargs)


def config_to_dict(config) -> Dict:
    """Plain-JSON dict of a config dataclass (tuples become lists)."""
    return {f.name: (list(v) if isinstance(v := getattr(config, f.name),
                                           tuple) else v)
            for f in fields(config)}


def config_from_dict(cls, payload: Dict, context: str = ""):
    """Strict inverse of :func:`config_to_dict`.

    Unknown keys are an error naming the bad field (and, when given,
    the ``context`` it appeared under) — a typo in a spec file must not
    silently fall back to a default.  Lists are converted back to tuples
    for fields whose defaults are tuples (``eval_ks``, ``mixhop_hops``,
    ...), so a JSON round trip is lossless.
    """
    spec_fields = {f.name: f for f in fields(cls)}
    kwargs = {}
    for key, value in payload.items():
        if key not in spec_fields:
            where = f" in {context}" if context else ""
            raise ValueError(
                f"unknown {cls.__name__} field {key!r}{where}; "
                f"known fields: {sorted(spec_fields)}")
        default = spec_fields[key].default
        if isinstance(value, list) and isinstance(default, tuple):
            value = tuple(value)
        kwargs[key] = value
    return cls(**kwargs)


def fast_test_configs() -> Tuple[ModelConfig, TrainConfig]:
    """Small budgets for unit tests (seconds, not minutes)."""
    model = ModelConfig(embedding_dim=16, num_layers=2)
    train = TrainConfig(epochs=6, batch_size=256, eval_every=3)
    return model, train
