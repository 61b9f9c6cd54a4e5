"""The run-directory contract: every run is replayable from its artifact.

:func:`write_run_dir` lays one experiment's outputs down as

::

    <run_dir>/
      spec.json          # exact ExperimentSpec echo (from_dict loads it)
      status.json        # {"status": "completed"} — or "failed" with the
                         # error + traceback when the cell crashed
      metrics.jsonl      # one JSON object per event: every epoch record
                         # ({"event": "epoch", ...}) and the final best
                         # ({"event": "best", ...}); streamed crash-safe
                         # during the fit (flush + fsync per epoch via
                         # MetricsStreamWriter), canonicalized at the end
      timing.json        # train/sampler/spmm/eval wall-clock seconds
      environment.json   # python/numpy/scipy versions, platform,
                         # repro version, autograd default dtype
      probes.json        # probe outputs (only when probes ran)
      history.csv        # plot-ready per-epoch curve (train runs only)
      metrics.json       # repro.obs metrics-registry snapshot (only when
                         # any metric was recorded in this process)
      trace.json         # Chrome-trace span export (only for runs with
                         # TrainConfig.trace on)
      <artifacts>        # checkpoint / snapshot / ... as the spec asked

While a fit is in flight, ``status.json`` reads ``{"status": "running",
"last_heartbeat": <unix time>}`` — re-stamped every epoch
(:func:`write_heartbeat`) so operators and the future dispatch layer can
tell a hung cell from a slow one.  The terminal write then replaces it
with ``completed`` / ``failed``.

``spec.json`` is the replay key: ``Experiment.from_run_dir(run_dir)``
reconstructs the exact experiment, and re-running it with the same seed
reproduces the recorded metrics bit-identically.  The other files are
the record of what this run measured and under which toolchain.

A run that *crashed* still leaves a valid record: ``spec.json`` plus a
``status.json`` carrying ``{"status": "failed", "error": ...,
"traceback": ...}`` (:func:`write_failed_run_dir`).  The sweep engine
(:mod:`repro.api.sweep`) leans on this: :func:`run_dir_is_complete`
decides which cells a resumed sweep may skip, and
:func:`run_dir_fingerprint` hashes the *deterministic* content of a run
directory — everything except wall-clock fields — so N-worker and
sequential sweeps can be compared bit-for-bit.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import sys
import time
from typing import Callable, Dict, List, Optional

SPEC_FILE = "spec.json"
STATUS_FILE = "status.json"
METRICS_FILE = "metrics.jsonl"
TIMING_FILE = "timing.json"
ENVIRONMENT_FILE = "environment.json"
PROBES_FILE = "probes.json"
HISTORY_FILE = "history.csv"
METRICS_JSON_FILE = "metrics.json"
TRACE_FILE = "trace.json"

#: terminal states a ``status.json`` may record
STATUS_COMPLETED = "completed"
STATUS_FAILED = "failed"
#: the in-flight state stamped by the per-epoch heartbeat
STATUS_RUNNING = "running"


def environment_stamp() -> Dict[str, str]:
    """Toolchain fingerprint stored with every run (reproducibility aid)."""
    import numpy
    import scipy

    from .. import __version__
    from ..autograd import get_default_dtype

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "repro": __version__,
        "default_dtype": numpy.dtype(get_default_dtype()).name,
    }


def _write_json(path: str, payload) -> str:
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


class MetricsStreamWriter:
    """Crash-safe ``metrics.jsonl`` streaming: flush + fsync per event.

    The experiment layer opens one of these at fit start and appends
    each epoch record the moment it exists, so a worker killed mid-fit
    (OOM, preemption, SIGKILL) leaves a run dir holding every *completed*
    epoch — the buffered single-pass write used to drop the whole tail.
    :func:`write_run_dir` rewrites the canonical file on success, so a
    finished run's content (and its fingerprint) is unchanged by the
    streaming.  Usable as a context manager; ``close`` is idempotent.
    """

    def __init__(self, run_dir: str):
        os.makedirs(run_dir, exist_ok=True)
        self.path = os.path.join(run_dir, METRICS_FILE)
        self._handle = open(self.path, "w")

    def write_event(self, event: Dict) -> None:
        """Append one JSON event and force it to disk."""
        if self._handle is None:
            raise ValueError("MetricsStreamWriter is closed")
        self._handle.write(json.dumps(event, sort_keys=True) + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def close(self) -> None:
        """Close the stream (idempotent)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "MetricsStreamWriter":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False


def write_run_dir(run_dir: str, spec, fit=None,
                  metrics: Optional[Dict[str, float]] = None,
                  best_epoch: int = -1,
                  timing: Optional[Dict[str, float]] = None,
                  probes: Optional[Dict] = None,
                  trace_events: Optional[List[Dict]] = None
                  ) -> Dict[str, str]:
    """Write the run-directory files; returns ``{file role: path}``.

    ``trace_events`` (when given) lands as a Chrome-trace ``trace.json``;
    a ``metrics.json`` snapshot of the :mod:`repro.obs` metrics registry
    is written whenever any metric has been recorded in this process.
    Neither artifact feeds :func:`run_dir_fingerprint` — they are
    wall-clock observability data, not replayable results.
    """
    os.makedirs(run_dir, exist_ok=True)
    paths = {
        "spec": spec.save(os.path.join(run_dir, SPEC_FILE)),
        "environment": _write_json(os.path.join(run_dir, ENVIRONMENT_FILE),
                                   environment_stamp()),
    }

    events = []
    if fit is not None:
        for record in fit.history:
            events.append({"event": "epoch", "epoch": record.epoch,
                           "loss": record.loss,
                           "wall_time": record.wall_time,
                           "metrics": record.metrics})
    events.append({"event": "best", "epoch": int(best_epoch),
                   "metrics": dict(metrics or {})})
    metrics_path = os.path.join(run_dir, METRICS_FILE)
    with open(metrics_path, "w") as handle:
        for event in events:
            handle.write(json.dumps(event, sort_keys=True) + "\n")
    paths["metrics"] = metrics_path

    if timing is None and fit is not None:
        timing = {"train_seconds": fit.train_seconds,
                  "sampler_seconds": fit.sampler_seconds,
                  "spmm_seconds": fit.spmm_seconds,
                  "eval_seconds": fit.eval_seconds}
    paths["timing"] = _write_json(os.path.join(run_dir, TIMING_FILE),
                                  dict(timing or {}))

    if probes:
        paths["probes"] = _write_json(os.path.join(run_dir, PROBES_FILE),
                                      probes)
    if fit is not None:
        from ..train import history_to_csv
        history_path = os.path.join(run_dir, HISTORY_FILE)
        history_to_csv(fit, history_path)
        paths["history"] = history_path

    from ..obs import export_trace, metrics_snapshot, write_metrics
    if metrics_snapshot()["metrics"]:
        paths["obs_metrics"] = write_metrics(
            os.path.join(run_dir, METRICS_JSON_FILE))
    if trace_events:
        paths["trace"] = export_trace(os.path.join(run_dir, TRACE_FILE),
                                      trace_events)
    paths["status"] = write_status(run_dir, STATUS_COMPLETED,
                                   extra=_carry_heartbeat(run_dir))
    return paths


def write_status(run_dir: str, status: str, error: Optional[str] = None,
                 traceback: Optional[str] = None,
                 extra: Optional[Dict] = None) -> str:
    """Write ``status.json`` (the run's current state); returns its path.

    ``extra`` merges additional fields (heartbeat timestamps, epoch
    counters) into the payload; the reserved ``status`` / ``error`` /
    ``traceback`` keys always win.
    """
    payload: Dict = dict(extra or {})
    payload["status"] = status
    if error is not None:
        payload["error"] = error
    if traceback is not None:
        payload["traceback"] = traceback
    return _write_json(os.path.join(run_dir, STATUS_FILE), payload)


def _carry_heartbeat(run_dir: str) -> Dict:
    """Heartbeat fields of the current ``status.json``, for carrying
    into a terminal status — a completed/failed record keeps the last
    time (and epoch at which) the run proved liveness."""
    status = read_status(run_dir) or {}
    return {key: status[key]
            for key in ("last_heartbeat", "heartbeat_monotonic", "epoch")
            if key in status}


#: default heartbeat cadence in seconds; 0 = stamp on every epoch (the
#: historical behaviour).  Overridable per process via the
#: ``REPRO_HEARTBEAT_SECONDS`` environment variable and per spec via
#: ``TrainConfig.heartbeat_seconds``.
DEFAULT_HEARTBEAT_SECONDS = 0.0

#: registered ``fn(run_dir, epoch)`` callbacks invoked after every
#: heartbeat stamp (see :func:`add_heartbeat_listener`)
_HEARTBEAT_LISTENERS: List[Callable[[str, Optional[int]], None]] = []


def heartbeat_cadence(configured: Optional[float] = None) -> float:
    """Resolve the heartbeat cadence for a run, in seconds.

    Precedence: an explicit ``TrainConfig.heartbeat_seconds`` value,
    then the ``REPRO_HEARTBEAT_SECONDS`` environment variable, then
    :data:`DEFAULT_HEARTBEAT_SECONDS`.  ``0`` means "stamp on every
    epoch"; larger values rate-limit the ``status.json`` rewrite (and
    any registered listeners) to at most one per cadence window —
    measured on the *monotonic* clock, so a wall-clock jump can neither
    flood nor suppress heartbeats.
    """
    if configured is not None:
        return max(0.0, float(configured))
    env = os.environ.get("REPRO_HEARTBEAT_SECONDS")
    if env is not None:
        try:
            return max(0.0, float(env))
        except ValueError:
            raise ValueError(
                f"REPRO_HEARTBEAT_SECONDS={env!r} is not a number")
    return DEFAULT_HEARTBEAT_SECONDS


def add_heartbeat_listener(fn: Callable[[str, Optional[int]], None]
                           ) -> Callable:
    """Register ``fn(run_dir, epoch)`` to run after each heartbeat stamp.

    This is the hook the dispatch layer (:mod:`repro.dispatch`) renews
    its queue leases from: proving liveness to the run directory and to
    the broker are the same event, so a worker that stops heartbeating
    loses its lease exactly when its cell looks hung.  Returns ``fn``
    so the caller can hand it straight to
    :func:`remove_heartbeat_listener`.
    """
    _HEARTBEAT_LISTENERS.append(fn)
    return fn


def remove_heartbeat_listener(fn: Callable) -> None:
    """Unregister a :func:`add_heartbeat_listener` callback (idempotent)."""
    try:
        _HEARTBEAT_LISTENERS.remove(fn)
    except ValueError:
        pass


def write_heartbeat(run_dir: str, epoch: Optional[int] = None) -> str:
    """Stamp ``status.json`` as running, with a fresh ``last_heartbeat``.

    Called by the experiment layer on the :func:`heartbeat_cadence`
    schedule: a cell whose heartbeat is stale is hung, one whose
    heartbeat is fresh is merely slow.  The stamp is a *pair* of
    timestamps — ``last_heartbeat`` (wall clock, human-readable) and
    ``heartbeat_monotonic`` (``time.monotonic()``) — so liveness checks
    comparing two stamps from the same process never trust the wall
    clock alone (NTP steps / clock skew cannot fake or hide progress;
    the dispatch broker additionally arbitrates lease staleness on the
    shared filesystem's own mtime clock).  Only the status *value*
    feeds :func:`run_dir_fingerprint`, so the stamps never break
    determinism comparisons — and a killed run's leftover ``running``
    state correctly fails :func:`run_dir_is_complete`, forcing a re-run
    on resume.  Registered heartbeat listeners fire after the stamp.
    """
    extra: Dict = {"last_heartbeat": time.time(),
                   "heartbeat_monotonic": time.monotonic()}
    if epoch is not None:
        extra["epoch"] = int(epoch)
    path = write_status(run_dir, STATUS_RUNNING, extra=extra)
    for listener in list(_HEARTBEAT_LISTENERS):
        listener(run_dir, epoch)
    return path


def read_status(run_dir: str) -> Optional[Dict[str, str]]:
    """The ``status.json`` payload, or ``None`` when the file is absent
    (run directories written before status stamping existed)."""
    path = os.path.join(run_dir, STATUS_FILE)
    if not os.path.exists(path):
        return None
    with open(path) as handle:
        return json.load(handle)


def write_failed_run_dir(run_dir: str, spec, error: str,
                         traceback_text: str) -> Dict[str, str]:
    """Record a crashed run: spec echo + ``status: failed`` + traceback.

    This is the failure half of the run-directory contract — a sweep
    cell that raises mid-fit must leave enough behind that (a) the
    failure is diagnosable (``error`` / ``traceback``) and (b) a resumed
    sweep recognizes the cell as needing a re-run.  ``spec`` may be an
    ``ExperimentSpec`` or a plain dict — the latter covers cells whose
    spec never parsed (the raw payload is still echoed for diagnosis).
    """
    os.makedirs(run_dir, exist_ok=True)
    spec_path = os.path.join(run_dir, SPEC_FILE)
    if isinstance(spec, dict):
        _write_json(spec_path, spec)
    else:
        spec.save(spec_path)
    return {
        "spec": spec_path,
        "status": write_status(run_dir, STATUS_FAILED, error=error,
                               traceback=traceback_text,
                               extra=_carry_heartbeat(run_dir)),
    }


def run_dir_is_complete(run_dir: str, spec=None) -> bool:
    """Whether ``run_dir`` holds a finished run (resume skips these).

    A directory validates when its ``spec.json`` parses, its
    ``status.json`` says ``completed`` — directories from before status
    stamping validate through a recorded best epoch instead — and, when
    ``spec`` is given, the recorded spec matches it exactly (a cell
    whose definition changed must re-run, not be skipped).
    """
    try:
        payload = read_run_dir(run_dir)
    except FileNotFoundError:
        return False
    if spec is not None:
        expected = spec if isinstance(spec, dict) else spec.to_dict()
        if payload["spec"] != expected:
            return False
    status = read_status(run_dir)
    if status is not None:
        return status.get("status") == STATUS_COMPLETED
    return payload["best_epoch"] >= 0


def _strip_wall_time(event: Dict) -> Dict:
    return {k: v for k, v in event.items() if k != "wall_time"}

#: train_config keys that choose *how* a fit is observed, never *what*
#: it computes: ``trace`` only records spans (tested observationally
#: inert), and ``heartbeat_seconds`` only rate-limits the status.json
#: liveness stamp.  ``propagate_every`` DOES change the math and stays
#: in the hash.
_SCHEDULE_ONLY_TRAIN_KEYS = ("trace", "heartbeat_seconds")


def _schedule_free_spec(spec: Dict) -> Dict:
    train = spec.get("train_config")
    if not isinstance(train, dict) or not any(
            k in train for k in _SCHEDULE_ONLY_TRAIN_KEYS):
        return spec
    spec = dict(spec)
    spec["train_config"] = {k: v for k, v in train.items()
                            if k not in _SCHEDULE_ONLY_TRAIN_KEYS}
    return spec


def run_dir_fingerprint(run_dir: str) -> str:
    """SHA-256 over the *deterministic* content of a run directory.

    Two runs of the same spec under the same toolchain produce the same
    fingerprint no matter how they were scheduled or observed —
    sequentially or on any worker of a process-parallel sweep, traced or
    not (the observability-only knobs are normalized out of the spec
    echo before hashing).  Covered: the spec echo, the
    status, every ``metrics.jsonl`` event, ``probes.json``,
    ``history.csv`` and the set of timing keys.  Excluded (the only
    nondeterministic fields a run records): wall-clock values —
    ``timing.json`` values, the ``wall_time`` of each epoch event, and
    the ``wall_time`` column of ``history.csv``.
    """
    digest = hashlib.sha256()

    def feed(tag: str, payload) -> None:
        digest.update(tag.encode())
        digest.update(json.dumps(payload, sort_keys=True).encode())

    payload = read_run_dir(run_dir)
    feed("spec", _schedule_free_spec(payload["spec"]))
    feed("probes", payload["probes"])
    status = read_status(run_dir)
    feed("status", (status or {}).get("status"))
    feed("timing_keys", sorted(payload["timing"]))

    metrics_path = os.path.join(run_dir, METRICS_FILE)
    if os.path.exists(metrics_path):
        with open(metrics_path) as handle:
            events = [_strip_wall_time(json.loads(line))
                      for line in handle if line.strip()]
        feed("events", events)

    history_path = os.path.join(run_dir, HISTORY_FILE)
    if os.path.exists(history_path):
        import csv
        with open(history_path, newline="") as handle:
            rows = list(csv.reader(handle))
        if rows:
            keep = [i for i, name in enumerate(rows[0])
                    if name != "wall_time"]
            rows = [[row[i] for i in keep] for row in rows]
        feed("history", rows)
    return digest.hexdigest()


def read_run_dir(run_dir: str) -> Dict:
    """Load the replayable pieces of a run directory back.

    Returns ``{"spec": dict, "metrics": dict, "best_epoch": int,
    "timing": dict, "probes": dict, "environment": dict}``; raises
    ``FileNotFoundError`` when ``run_dir`` holds no ``spec.json``.
    """
    spec_path = os.path.join(run_dir, SPEC_FILE)
    if not os.path.exists(spec_path):
        raise FileNotFoundError(f"{run_dir!r} is not a run directory "
                                f"(no {SPEC_FILE})")
    with open(spec_path) as handle:
        spec = json.load(handle)

    metrics: Dict[str, float] = {}
    best_epoch = -1
    metrics_path = os.path.join(run_dir, METRICS_FILE)
    if os.path.exists(metrics_path):
        with open(metrics_path) as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                event = json.loads(line)
                if event.get("event") == "best":
                    metrics = event.get("metrics", {})
                    best_epoch = int(event.get("epoch", -1))

    def _load(name, default):
        path = os.path.join(run_dir, name)
        if not os.path.exists(path):
            return default
        with open(path) as handle:
            return json.load(handle)

    return {"spec": spec, "metrics": metrics, "best_epoch": best_epoch,
            "timing": _load(TIMING_FILE, {}),
            "probes": _load(PROBES_FILE, {}),
            "environment": _load(ENVIRONMENT_FILE, {})}
