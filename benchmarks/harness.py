"""Shared infrastructure for the experiment benchmarks.

Every table and figure in the paper's evaluation section has one bench
module in this directory; they all train through this harness so budgets,
configs and caching are uniform.  Results are memoized per pytest session
(the Table II sweep is reused by the cost-time and MAD benches) and each
bench prints the same rows/series the paper reports, so the bench output
*is* the reproduced table.

Budgets are sized for one CPU core: ~60 training epochs per model on
~400-node datasets.  Absolute metric values therefore differ from the
paper; each bench asserts the paper's *shape* (orderings and
directions), not its absolute numbers.

Bench precision (re-baselined at float32)
-----------------------------------------
Since the chunked-evaluation PR the whole bench suite trains in
**float32** (``BENCH_DTYPE``): :func:`run_model` wraps model
construction, training and probe extraction in
``default_dtype(BENCH_DTYPE)``.  float32 is the production hot-path mode
the hot-path PR introduced; float64 remains the library default so
gradcheck-grade tests keep full precision.  Re-baselining shifts
absolute metric values by O(1e-6) relative on the miniature profiles —
well inside the run-to-run seed noise — so the paper-vs-measured deltas
recorded for the float64 runs carry over unchanged; timing rows in the
artifact below are float32 and are NOT comparable to pre-PR-1 float64
rows (the ``dtype`` field keys that).

Since the autograd-registry PR the bench suite additionally trains with
the **fused** kernel backend (``BENCH_TRAIN_CONFIG.autograd_backend``):
the fused BPR-loss and propagate-and-pool tape nodes replace the
composed elementwise graphs on the hot path.  Forward propagation is
bit-identical; gradients differ only by accumulation order, which moves
metrics well inside seed noise (the registry parity tests bound it).
The artifact was re-baselined at that point — the ``config`` digest
changed (``TrainConfig`` gained the field) so old rows could not match
anyway — and each record now carries ``autograd_backend`` plus the
registry profiler's per-primitive breakdown, with before/after numbers
kept in ``docs/BENCHMARKS.md``.

Perf artifact: ``BENCH_hotpath.json``
-------------------------------------
Every run that trains through :func:`run_model` also appends a hot-path
timing record, and the bench session writes them to
``benchmarks/BENCH_hotpath.json`` (override the directory with the
``BENCH_ARTIFACT_DIR`` environment variable).  Schema (version
``bench-hotpath/v1``)::

    {
      "schema": "bench-hotpath/v1",
      "dtype": "float32",               # the bench suite's BENCH_DTYPE
      "records": [
        {
          "model": "lightgcn",          # registry name of the model
          "dataset": "gowalla",         # dataset profile name
          "dtype": "float32",           # dtype the run trained in
          "config": "1a2b3c4d5e",       # digest of the model/train config
                                        # (distinguishes hparam-sweep rows)
          "epochs": 60,                 # epochs actually trained
          "train_seconds": 1.23,        # total wall-clock of training
          "epoch_seconds_mean": 0.02,   # train_seconds / epochs
          "sampler_seconds": 0.04,      # wall-clock inside BPR sampling
          "spmm_seconds": 0.56,         # wall-clock inside sparse matmuls
                                        # (the spmm primitive family:
                                        # spmm / weighted_spmm /
                                        # light_propagate, fwd + VJP)
          "eval_seconds": 0.08,         # wall-clock inside chunked
                                        # ranking evaluation
          "autograd_backend": "fused",  # TrainConfig.autograd_backend the
                                        # run trained under (null = the
                                        # composed reference graph)
          "primitive_seconds": {...}    # per-primitive fwd+VJP wall-clock
                                        # from the registry profiler
        }, ...
      ],
      "extras": {...}                   # free-form, e.g. the sampler /
                                        # evaluator microbenchmark numbers
    }

The vectorized-sampler / cached-spmm / chunked-evaluator speedups are
measured by ``benchmarks/test_hotpath.py``, which emits the artifact
directly.  :func:`check_hotpath_trend` compares a session's records
against the committed artifact and reports per-row regressions beyond a
tolerance — the hot-path bench fails on them, which keeps the committed
``BENCH_hotpath.json`` an enforced floor rather than a stale note.

The trend check is part of every bench invocation: ``pytest benchmarks``
(any subset) runs :func:`check_hotpath_trend` over the session's records
at session end (``conftest.pytest_sessionfinish``) and prints the
regression report before writing the artifact, so a slowdown surfaces
even when ``test_hotpath.py`` itself was not selected.

The full harness contract — artifact schema, trend-check semantics, the
``BENCH_TREND_TOLERANCE`` / ``REPRO_CHUNK_BUDGET_BYTES`` environment
knobs and the PR-by-PR performance trajectory — is documented in
``docs/BENCHMARKS.md``.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.autograd import (default_dtype, enable_primitive_profiling,
                            get_default_dtype, primitive_profiling_enabled)
from repro.core import make_graphaug_variant
from repro.data import InteractionDataset, load_profile
from repro.eval import mean_average_distance
from repro.models import build_model
from repro.train import FitResult, ModelConfig, TrainConfig, fit_model

#: datasets in the paper's Table I order
DATASETS = ("gowalla", "retail_rocket", "amazon")

#: evaluation cut-offs used throughout the paper
KS = (20, 40)

#: the shared model hyperparameters (paper Sec IV-A.3, final d=32)
BENCH_MODEL_CONFIG = ModelConfig(embedding_dim=32, num_layers=3,
                                 ssl_weight=1.0)

#: the shared optimization budget.  ``autograd_backend="fused"`` selects
#: the fused BPR / propagate tape nodes for every bench training run —
#: the production hot-path configuration since the registry PR
#: re-baselined the artifact (see "Bench precision" above); the choice
#: is spec-visible in the config digest and the per-record
#: ``autograd_backend`` field.
BENCH_TRAIN_CONFIG = TrainConfig(epochs=60, batch_size=512, eval_every=20,
                                 autograd_backend="fused")

#: precision every bench run trains in (see "Bench precision" above)
BENCH_DTYPE = "float32"

_dataset_cache: Dict[Tuple[str, int], InteractionDataset] = {}
_run_cache: Dict[tuple, "RunResult"] = {}

#: accumulated BENCH_hotpath.json records for this bench session
_hotpath_records: list = []
_hotpath_extras: dict = {}


def _config_digest(model_config, train_config, extra: tuple) -> str:
    """Short stable id of a run configuration (for the artifact merge key)."""
    text = f"{model_config!r}|{train_config!r}|{extra!r}"
    return hashlib.sha1(text.encode()).hexdigest()[:10]


def record_hotpath(model_name: str, dataset_name: str, fit: FitResult,
                   config: str = "default",
                   autograd_backend: Optional[str] = None) -> None:
    """Append one hot-path timing record (see module docstring schema)."""
    epochs = len(fit.history)
    _hotpath_records.append({
        "model": model_name,
        "dataset": dataset_name,
        "dtype": np.dtype(get_default_dtype()).name,
        "config": config,
        "epochs": epochs,
        "train_seconds": fit.train_seconds,
        "epoch_seconds_mean": fit.train_seconds / max(1, epochs),
        "sampler_seconds": fit.sampler_seconds,
        "spmm_seconds": fit.spmm_seconds,
        "eval_seconds": fit.eval_seconds,
        "autograd_backend": autograd_backend,
        "primitive_seconds": {name: round(seconds, 6) for name, seconds
                              in sorted(fit.primitive_seconds.items())},
    })


def record_hotpath_extra(key: str, value) -> None:
    """Attach a free-form entry to the artifact's ``extras`` section."""
    _hotpath_extras[key] = value


def write_hotpath_artifact(path: Optional[str] = None) -> Optional[str]:
    """Write ``BENCH_hotpath.json``; returns the path (None if no records).

    A partial bench run merges into an existing artifact instead of
    clobbering it: records from this session replace same
    ``(model, dataset, dtype, config)`` rows, other rows and extras are
    kept.
    """
    if not _hotpath_records and not _hotpath_extras:
        return None
    if path is None:
        out_dir = os.environ.get("BENCH_ARTIFACT_DIR",
                                 os.path.dirname(os.path.abspath(__file__)))
        path = os.path.join(out_dir, "BENCH_hotpath.json")
    records = list(_hotpath_records)
    extras = dict(_hotpath_extras)
    if os.path.exists(path):
        try:
            with open(path) as fh:
                existing = json.load(fh)
        except (OSError, ValueError):
            existing = {}
        if existing.get("schema") == "bench-hotpath/v1":
            fresh = {(r.get("model"), r.get("dataset"), r.get("dtype"),
                      r.get("config")) for r in records}
            kept = [r for r in existing.get("records", ())
                    if (r.get("model"), r.get("dataset"), r.get("dtype"),
                        r.get("config")) not in fresh]
            records = kept + records
            extras = {**existing.get("extras", {}), **extras}
    payload = {
        "schema": "bench-hotpath/v1",
        "dtype": np.dtype(BENCH_DTYPE).name,
        "records": records,
        "extras": extras,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


#: default headroom allowed over the committed baseline before the trend
#: check calls a timing a regression (shared one-core machines are noisy)
TREND_TOLERANCE = float(os.environ.get("BENCH_TREND_TOLERANCE", "1.5"))

#: absolute headroom added on top of the ratio tolerance for
#: latency-style ("lower" direction) gated extras: millisecond-scale
#: p95s double under scheduler jitter, so the ratio alone would flake
LATENCY_SLACK_SECONDS = 0.025


def load_committed_hotpath(path: Optional[str] = None) -> dict:
    """The committed ``BENCH_hotpath.json`` payload ({} when absent)."""
    if path is None:
        path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "BENCH_hotpath.json")
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, ValueError):
        return {}
    if payload.get("schema") != "bench-hotpath/v1":
        return {}
    return payload


def check_hotpath_trend(records: Optional[list] = None,
                        baseline_path: Optional[str] = None,
                        tolerance: Optional[float] = None,
                        extras: Optional[dict] = None) -> list:
    """Compare timing records against the committed artifact.

    Returns one message per record whose ``epoch_seconds_mean`` exceeds
    the committed row (matched on ``(model, dataset, dtype, config)``)
    by more than ``tolerance``x.  Records with no committed counterpart
    are skipped — new configurations baseline themselves on first
    commit.  The hot-path bench asserts the returned list is empty, so a
    perf regression fails the bench instead of silently rolling into a
    worse committed baseline.

    The serving, sweep and training-scheduler tiers are gated through
    ``extras`` the same way: when both this session and the committed
    artifact carry the entry, its throughput metric (higher is better)
    must not fall below the committed number by more than ``tolerance``x
    — ``serving_microbenchmark.users_per_second_batched`` for the
    serving tier, ``sweep_microbenchmark.cells_per_second_sequential``
    for the sweep engine and
    ``parallel_train_microbenchmark.stale_epochs_per_second`` for the
    amortized training schedule and
    ``dispatch_microbenchmark.broker_cycles_per_second`` for the
    filesystem broker's pure enqueue->claim->ack overhead (dispatched
    sweep wall time is recorded but not gated: it includes worker
    subprocess startup, which varies with machine load).  Latency-style
    extras gate in the opposite direction (lower is better): the
    serving load test's ``serving_load_test.p95_seconds_exact`` /
    ``p95_seconds_ann`` percentiles must not exceed the committed
    numbers by more than ``tolerance``x *plus*
    :data:`LATENCY_SLACK_SECONDS` — single-digit-millisecond p95s
    double under ordinary scheduler jitter, so a pure ratio would flake;
    the absolute slack absorbs that while still failing loudly when a
    percentile regresses to human-visible latency.
    """
    if tolerance is None:
        tolerance = TREND_TOLERANCE
    if records is None:
        records = _hotpath_records
    if extras is None:
        extras = _hotpath_extras
    committed = load_committed_hotpath(baseline_path)
    baseline = {
        (r.get("model"), r.get("dataset"), r.get("dtype"), r.get("config")):
        r for r in committed.get("records", ())
    }
    def tracked(row):
        out = {"epoch_seconds_mean": row.get("epoch_seconds_mean", 0.0)}
        if "eval_seconds" in row:  # end-to-end: training plus evaluations
            out["train+eval_per_epoch"] = (
                (row.get("train_seconds", 0.0) + row["eval_seconds"])
                / max(1, row.get("epochs", 1)))
        return out

    regressions = []
    for rec in records:
        key = (rec.get("model"), rec.get("dataset"), rec.get("dtype"),
               rec.get("config"))
        base = baseline.get(key)
        if base is None:
            continue
        now, then = tracked(rec), tracked(base)
        for name in now.keys() & then.keys():
            if then[name] > 0 and now[name] > then[name] * tolerance:
                regressions.append(
                    f"{rec['model']}/{rec['dataset']} ({rec['dtype']}) "
                    f"{name}: {now[name] * 1e3:.1f}ms vs committed "
                    f"{then[name] * 1e3:.1f}ms (> {tolerance:.2f}x)")

    # (label, extras entry, metric key, direction): "higher" gates
    # throughput-style metrics (now must not fall below committed /
    # tolerance), "lower" gates latency-style metrics (now must not
    # exceed committed * tolerance)
    gated_extras = (
        ("serving", "serving_microbenchmark", "users_per_second_batched",
         "higher"),
        ("serving_load", "serving_load_test", "p95_seconds_exact",
         "lower"),
        ("serving_load", "serving_load_test", "p95_seconds_ann",
         "lower"),
        ("sweep", "sweep_microbenchmark", "cells_per_second_sequential",
         "higher"),
        ("parallel_train", "parallel_train_microbenchmark",
         "stale_epochs_per_second", "higher"),
        ("dispatch", "dispatch_microbenchmark",
         "broker_cycles_per_second", "higher"),
    )
    for label, entry, key, direction in gated_extras:
        now_entry = (extras or {}).get(entry)
        then_entry = committed.get("extras", {}).get(entry)
        if not (now_entry and then_entry):
            continue
        now_val, then_val = now_entry.get(key), then_entry.get(key)
        if not (now_val and then_val):
            continue
        if direction == "higher" and now_val * tolerance < then_val:
            regressions.append(
                f"{label} {key}: {now_val:,.1f}/s vs committed "
                f"{then_val:,.1f}/s (> {tolerance:.2f}x slower)")
        elif (direction == "lower"
              and now_val > then_val * tolerance + LATENCY_SLACK_SECONDS):
            regressions.append(
                f"{label} {key}: {now_val * 1e3:.2f}ms vs committed "
                f"{then_val * 1e3:.2f}ms (> {tolerance:.2f}x slower)")
    return regressions


@dataclass
class RunResult:
    """Everything the bench tables need from one training run."""

    model_name: str
    dataset_name: str
    metrics: Dict[str, float]
    train_seconds: float
    fit: FitResult
    node_embeddings: np.ndarray
    scores: np.ndarray

    @property
    def mad(self) -> float:
        return mean_average_distance(self.node_embeddings)


def get_dataset(name: str, seed: int = 0) -> InteractionDataset:
    key = (name, seed)
    if key not in _dataset_cache:
        _dataset_cache[key] = load_profile(name, seed=seed)
    return _dataset_cache[key]


def run_model(model_name: str, dataset_name: str, seed: int = 0,
              model_config: Optional[ModelConfig] = None,
              train_config: Optional[TrainConfig] = None,
              builder: Optional[Callable] = None,
              dataset: Optional[InteractionDataset] = None,
              cache_key_extra: tuple = ()) -> RunResult:
    """Train one model on one dataset and collect every probe the benches use.

    Results are memoized on ``(model, dataset, seed, configs, extra)`` so
    e.g. the Table VI cost rows reuse the Table II runs.
    """
    model_config = model_config or BENCH_MODEL_CONFIG
    train_config = train_config or BENCH_TRAIN_CONFIG
    key = (model_name, dataset_name, seed, repr(model_config),
           repr(train_config), np.dtype(BENCH_DTYPE).name,
           cache_key_extra)
    if key in _run_cache:
        return _run_cache[key]

    data = dataset if dataset is not None else get_dataset(dataset_name,
                                                           seed=seed)
    was_profiling = primitive_profiling_enabled()
    enable_primitive_profiling(True)
    try:
        # the whole bench suite trains at the production float32 precision
        # (see "Bench precision" in the module docstring)
        with default_dtype(BENCH_DTYPE):
            if builder is not None:
                model = builder(data, model_config, seed=seed)
            else:
                model = build_model(model_name, data, model_config,
                                    seed=seed)
            fit = fit_model(model, data, train_config, seed=seed)
            record_hotpath(model_name, dataset_name, fit,
                           config=_config_digest(model_config, train_config,
                                                 cache_key_extra),
                           autograd_backend=train_config.autograd_backend)
            result = RunResult(
                model_name=model_name, dataset_name=dataset_name,
                metrics=dict(fit.best_metrics),
                train_seconds=fit.train_seconds,
                fit=fit, node_embeddings=model.node_embeddings(),
                scores=model.score_all_users())
    finally:
        enable_primitive_profiling(was_profiling)
    if dataset is None:  # only cache runs on the canonical datasets
        _run_cache[key] = result
    return result


def run_graphaug_variant(variant: str, dataset_name: str, seed: int = 0,
                         model_config: Optional[ModelConfig] = None,
                         train_config: Optional[TrainConfig] = None
                         ) -> RunResult:
    """Train one of the paper's ablation variants (Fig 2 / Table III)."""
    return run_model(f"graphaug[{variant}]", dataset_name, seed=seed,
                     model_config=model_config, train_config=train_config,
                     builder=make_graphaug_variant(variant))


def format_table(headers, rows, title: str = "") -> str:
    """Fixed-width table formatting for bench stdout."""
    widths = [max(len(str(h)), *(len(str(r[i])) for r in rows))
              for i, h in enumerate(headers)]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(str(h).rjust(w) for h, w in zip(headers,
                                                           widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(str(c).rjust(w) for c, w in zip(row,
                                                               widths)))
    return "\n".join(lines)


def fmt(value: float, digits: int = 4) -> str:
    return f"{value:.{digits}f}"


def once(benchmark, func):
    """Run an experiment exactly once under pytest-benchmark timing.

    The paper's experiments are training runs, not microbenchmarks;
    repeating them for statistical timing would multiply the suite's cost
    for no insight.
    """
    return benchmark.pedantic(func, rounds=1, iterations=1,
                              warmup_rounds=0)
