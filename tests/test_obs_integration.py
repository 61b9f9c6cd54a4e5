"""End-to-end tests of the unified observability layer (``repro.obs``).

Acceptance contract of the observability PR:

* a traced ``propagate_every=2`` run writes a schema-valid
  Chrome-format ``trace.json`` with a ``train.refresh`` and a
  ``train.window`` span per stale window and unique span ids — also on
  the crash and early-stop paths;
* sweep traces merge across processes: sequential cells' spans land in
  the parent buffer directly, parallel cells ship theirs through the
  result payload and are absorbed only at collection — either way each
  cell's ``experiment.run`` span appears exactly once in the sweep's
  merged ``trace.json``;
* tracing is observability-only: a traced run's
  ``run_dir_fingerprint`` equals the untraced run's;
* ``metrics.jsonl`` streams crash-safely (epoch events written +
  fsynced as they happen survive a mid-fit crash) and ``status.json``
  carries ``last_heartbeat`` / ``epoch`` through every lifecycle state,
  including terminal ones.
"""

import collections
import json
import os

import pytest

from repro.api import (Experiment, ExperimentSpec, run_dir_fingerprint,
                       run_sweep)
from repro.api.experiment import run_cell
from repro.api.rundir import read_status
from repro.obs import validate_chrome_trace

FAST = {"epochs": 2, "batch_size": 128, "eval_every": 2, "verbose": False}
MODEL_CFG = {"embedding_dim": 8, "num_layers": 2}


def _spec(model="lightgcn", **train_overrides):
    return ExperimentSpec(model=model, dataset="tiny",
                          model_config=dict(MODEL_CFG),
                          train_config={**FAST, **train_overrides})


def _load_trace(path):
    with open(path) as handle:
        payload = json.load(handle)
    assert validate_chrome_trace(payload) == []
    return payload


def _spans(payload, name=None):
    events = [e for e in payload["traceEvents"] if e["ph"] == "X"]
    if name is not None:
        events = [e for e in events if e["name"] == name]
    return events


def _assert_span_ids_unique(payload):
    """Globally unique span ids == every span merged exactly once."""
    ids = [(e["pid"], e["args"]["span_id"]) for e in _spans(payload)
           if "span_id" in e.get("args", {})]
    dupes = [k for k, n in collections.Counter(ids).items() if n > 1]
    assert not dupes, f"spans merged more than once: {dupes}"


# --------------------------------------------------------------------- #
# stale-window training spans
# --------------------------------------------------------------------- #

def _assert_window_spans(events):
    """Refresh + window spans present, all from this one process."""
    windows = [e for e in events if e.get("name") == "train.window"]
    refreshes = [e for e in events if e.get("name") == "train.refresh"]
    assert windows and refreshes
    assert {e["pid"] for e in windows + refreshes} == {os.getpid()}


class TestStaleWindowTrace:
    def test_traced_stale_run_records_window_spans(self, tmp_path):
        """A traced ``propagate_every=2`` run traces every window."""
        run_dir = str(tmp_path / "run")
        Experiment(_spec(trace=True, propagate_every=2)).run(
            run_dir=run_dir)
        payload = _load_trace(os.path.join(run_dir, "trace.json"))
        _assert_window_spans(_spans(payload))
        # one refresh opens every window
        assert len(_spans(payload, "train.window")) == \
            len(_spans(payload, "train.refresh"))
        _assert_span_ids_unique(payload)

    def test_crash_path_keeps_window_spans(self, tmp_path):
        """A mid-fit crash still ships the partial trace (run_cell)."""
        spec = _spec(trace=True, propagate_every=2, fail_after_epoch=1)
        run_dir = str(tmp_path / "run")
        result = run_cell(spec.to_dict(), run_dir=run_dir)
        assert result["status"] == "failed"
        events = result["trace_events"]
        assert events  # partial trace travels with the failure summary
        _assert_window_spans(events)
        keys = [(e["pid"], e["args"]["span_id"]) for e in events
                if e.get("ph") == "X" and "span_id" in e.get("args", {})]
        assert len(keys) == len(set(keys))

    def test_early_stop_path_keeps_unique_spans(self, tmp_path):
        run_dir = str(tmp_path / "run")
        Experiment(_spec(trace=True, propagate_every=2, epochs=6,
                         eval_every=1,
                         early_stop_patience=1)).run(run_dir=run_dir)
        payload = _load_trace(os.path.join(run_dir, "trace.json"))
        _assert_window_spans(_spans(payload))
        _assert_span_ids_unique(payload)


# --------------------------------------------------------------------- #
# cross-process trace merge: sweep cells
# --------------------------------------------------------------------- #

class TestSweepTraceMerge:
    def test_parallel_sweep_merges_each_cell_once(self, tmp_path):
        base_dir = str(tmp_path / "sweep")
        specs = [ExperimentSpec(model="biasmf", dataset="tiny", seed=s,
                                model_config=dict(MODEL_CFG),
                                train_config={**FAST, "trace": True})
                 for s in (0, 1)]
        results = run_sweep(specs, base_dir=base_dir, workers=2)
        assert [r.status for r in results] == ["completed"] * 2
        payload = _load_trace(os.path.join(base_dir, "trace.json"))
        runs = _spans(payload, "experiment.run")
        assert len(runs) == 2  # one per cell, never duplicated
        # cells ran in spawned worker processes, parent ran the sweep
        parent_pid = next(e["pid"] for e in _spans(payload,
                                                   "sweep.claim"))
        assert all(e["pid"] != parent_pid for e in runs)
        _assert_span_ids_unique(payload)

    def test_sequential_sweep_merges_each_cell_once(self, tmp_path):
        base_dir = str(tmp_path / "sweep")
        specs = [ExperimentSpec(model="biasmf", dataset="tiny", seed=s,
                                model_config=dict(MODEL_CFG),
                                train_config={**FAST, "trace": True})
                 for s in (0, 1)]
        results = run_sweep(specs, base_dir=base_dir)
        assert [r.status for r in results] == ["completed"] * 2
        payload = _load_trace(os.path.join(base_dir, "trace.json"))
        runs = _spans(payload, "experiment.run")
        assert len(runs) == 2
        # in-process cells share the sweep's pid
        parent_pid = next(e["pid"] for e in _spans(payload,
                                                   "sweep.claim"))
        assert all(e["pid"] == parent_pid for e in runs)
        _assert_span_ids_unique(payload)

    def test_untraced_sweep_writes_no_trace(self, tmp_path):
        base_dir = str(tmp_path / "sweep")
        specs = [ExperimentSpec(model="biasmf", dataset="tiny", seed=0,
                                model_config=dict(MODEL_CFG),
                                train_config=dict(FAST))]
        run_sweep(specs, base_dir=base_dir)
        assert not os.path.exists(os.path.join(base_dir, "trace.json"))


# --------------------------------------------------------------------- #
# observability never changes the math
# --------------------------------------------------------------------- #

class TestTraceIsObservabilityOnly:
    def test_traced_run_fingerprint_matches_untraced(self, tmp_path):
        plain_dir = str(tmp_path / "plain")
        traced_dir = str(tmp_path / "traced")
        Experiment(_spec()).run(run_dir=plain_dir)
        Experiment(_spec(trace=True)).run(run_dir=traced_dir)
        assert run_dir_fingerprint(plain_dir) == \
            run_dir_fingerprint(traced_dir)
        # ... even though only the traced dir has the trace artifact
        assert os.path.exists(os.path.join(traced_dir, "trace.json"))
        assert not os.path.exists(os.path.join(plain_dir, "trace.json"))

    def test_run_result_carries_trace_events(self, tmp_path):
        result = Experiment(_spec(trace=True)).run(
            run_dir=str(tmp_path / "run"))
        names = {e["name"] for e in result.trace_events}
        assert {"experiment.run", "experiment.dataset",
                "experiment.model", "train.epoch"} <= names
        untraced = Experiment(_spec()).run()
        assert untraced.trace_events is None


# --------------------------------------------------------------------- #
# crash-safe metrics stream + heartbeats
# --------------------------------------------------------------------- #

class TestMetricsStreamAndHeartbeat:
    def test_metrics_jsonl_survives_crash(self, tmp_path):
        """Epoch 1's streamed record outlives the epoch-2 crash."""
        run_dir = str(tmp_path / "run")
        result = run_cell(_spec("biasmf",
                                fail_after_epoch=1).to_dict(),
                          run_dir=run_dir)
        assert result["status"] == "failed"
        path = os.path.join(run_dir, "metrics.jsonl")
        assert os.path.exists(path)
        with open(path) as handle:
            records = [json.loads(line) for line in handle]
        epochs = [r for r in records if r.get("event") == "epoch"]
        assert [r["epoch"] for r in epochs] == [1]
        assert "loss" in epochs[0]

    def test_failed_status_keeps_last_heartbeat(self, tmp_path):
        run_dir = str(tmp_path / "run")
        run_cell(_spec("biasmf", fail_after_epoch=1).to_dict(),
                 run_dir=run_dir)
        status = read_status(run_dir)
        assert status["status"] == "failed"
        assert status["epoch"] == 1  # last epoch that proved liveness
        assert status["last_heartbeat"] > 0

    def test_completed_status_keeps_last_heartbeat(self, tmp_path):
        run_dir = str(tmp_path / "run")
        Experiment(_spec("biasmf")).run(run_dir=run_dir)
        status = read_status(run_dir)
        assert status["status"] == "completed"
        assert status["epoch"] == FAST["epochs"]
        assert status["last_heartbeat"] > 0

    def test_completed_run_rewrites_canonical_stream(self, tmp_path):
        """On success the canonical writer replaces the streamed file:
        one record per epoch plus the terminal ``best`` record."""
        run_dir = str(tmp_path / "run")
        Experiment(_spec("biasmf")).run(run_dir=run_dir)
        with open(os.path.join(run_dir, "metrics.jsonl")) as handle:
            records = [json.loads(line) for line in handle]
        assert [r["event"] for r in records] == \
            ["epoch"] * FAST["epochs"] + ["best"]

    def test_run_dir_gets_metrics_json_snapshot(self, tmp_path):
        """The registry snapshot (counters/gauges/histograms) lands in
        the run dir alongside the per-epoch stream."""
        run_dir = str(tmp_path / "run")
        Experiment(_spec("biasmf")).run(run_dir=run_dir)
        with open(os.path.join(run_dir, "metrics.json")) as handle:
            snapshot = json.load(handle)
        names = set(snapshot["metrics"])
        assert {"train.epochs", "train.loss",
                "train.epoch_seconds"} <= names
