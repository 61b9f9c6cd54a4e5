"""The sweep engine: process-parallel, fault-tolerant, resumable grids.

PR 4 made every sweep cell a self-contained, replayable
:class:`~repro.api.ExperimentSpec`; this module turns that property into
an execution engine.  :class:`SweepRunner` drives a grid of specs

* **in parallel** over a ``ProcessPoolExecutor`` (``workers=N``; the
  default ``workers=None`` keeps the classic sequential in-process
  path).  Specs cross the process boundary as plain dicts through the
  strict JSON round trip — the engine is spawn-safe by construction —
  and each worker holds one dataset cache (:func:`_worker_init`), so a
  ``models x seeds`` grid loads every dataset once per worker, not once
  per cell;
* **with per-cell failure isolation**: a cell that raises anywhere —
  spec resolution, dataset loading, mid-fit — records ``status: failed``
  plus the traceback in its run directory
  (:func:`repro.api.rundir.write_failed_run_dir`) and the rest of the
  grid keeps running.  The returned :class:`~repro.api.RunResult` list
  always has one entry per spec, in order, with ``result.failed``
  marking the crashes;
* **resumably**: every sweep with a base directory writes a
  ``sweep.json`` manifest (cell names + spec echoes) first, and
  :meth:`SweepRunner.resume` re-reads it, skips cells whose run dirs
  validate (``status: completed`` and a matching spec echo), and
  re-runs exactly the failed/missing ones;
* **without write races**: run-directory names are claimed atomically
  (:func:`claim_run_dir`, an ``os.mkdir``-based claim), so two cells —
  or two whole sweeps — racing to the same name get distinct
  directories instead of interleaved writes.  A sweep reusing an
  earlier sweep's base directory merges the existing manifest into its
  own (the earlier cells keep their entries), so resume and
  aggregation keep covering everything the directory holds.

Scheduling never changes results: training is seeded per spec, so an
N-worker sweep produces run directories bit-identical to the sequential
path (everything except wall-clock timings; certified by
:func:`repro.api.rundir.run_dir_fingerprint` in
``tests/test_api_sweep.py`` and benched in
``benchmarks/test_hotpath.py``).

After a sweep finishes, :func:`aggregate_results` folds the run
directories into a tidy per-cell metrics table and writes
``results.csv`` + a ``leaderboard.md`` ranking the completed cells.
The CLI exposes all of it: ``repro run spec.json --sweep-models ...
--workers 4 --run-dir runs/sweep`` and ``repro run --resume runs/sweep``.
"""

from __future__ import annotations

import csv
import io
import json
import multiprocessing
import os
import shutil
import traceback as _traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import product
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .experiment import Experiment, RunResult, run_cell
from .rundir import (STATUS_COMPLETED, STATUS_FAILED, STATUS_RUNNING,
                     TRACE_FILE, read_run_dir, read_status,
                     run_dir_is_complete, write_failed_run_dir)
from .spec import ExperimentSpec
from ..obs import (absorb_events, current_seq, events_since, export_trace,
                   span, trace_scope)
from ..utils.threads import (apply_blas_thread_limit, blas_thread_budget,
                             blas_thread_limit)

#: the sweep-level manifest written into the base directory
SWEEP_MANIFEST = "sweep.json"
SWEEP_SCHEMA = "sweep/v1"

#: aggregation artifacts (:func:`aggregate_results`)
LEADERBOARD_FILE = "leaderboard.md"
RESULTS_CSV_FILE = "results.csv"

#: multiprocessing start method for the worker pool; ``spawn`` gives
#: every worker a clean interpreter (no inherited locks / RNG state), so
#: cells behave identically no matter which process runs them
MP_START_METHOD = "spawn"


# --------------------------------------------------------------------- #
# grid expansion
# --------------------------------------------------------------------- #

def expand_grid(base, models: Optional[Sequence[str]] = None,
                datasets: Optional[Sequence[str]] = None,
                seeds: Optional[Sequence[int]] = None
                ) -> List[ExperimentSpec]:
    """Grid-expand a base spec over models x datasets x seeds.

    Every cell is the base spec with the axis fields replaced (and its
    ``name`` cleared, so each cell gets its own derived ``run_name``).
    Axes default to the base spec's own value.

    Example::

        >>> from repro.api import ExperimentSpec, expand_grid
        >>> base = ExperimentSpec(model="biasmf", dataset="tiny")
        >>> specs = expand_grid(base, models=["biasmf", "lightgcn"],
        ...                     seeds=[0, 1])
        >>> [s.run_name for s in specs]
        ['biasmf-tiny-seed0', 'biasmf-tiny-seed1', 'lightgcn-tiny-seed0', 'lightgcn-tiny-seed1']
    """
    if isinstance(base, dict):
        base = ExperimentSpec.from_dict(base)
    models = tuple(models) if models else (base.model,)
    datasets = tuple(datasets) if datasets else (base.dataset,)
    seeds = tuple(seeds) if seeds else (base.seed,)
    return [base.with_overrides(model=model, dataset=dataset, seed=seed,
                                name=None)
            for model, dataset, seed in product(models, datasets, seeds)]


# --------------------------------------------------------------------- #
# atomic run-directory claims
# --------------------------------------------------------------------- #

def claim_run_dir(base_dir: str, name: str) -> Tuple[str, str]:
    """Atomically claim ``<base_dir>/<name>``; returns ``(name, path)``.

    The claim is one ``os.mkdir`` — it either creates the directory (the
    caller now owns it exclusively) or raises ``FileExistsError``, in
    which case the name gets a numeric suffix (``name-2``, ``name-3``,
    ...) and the claim retries.  Two processes racing to the same name
    therefore always end up with two distinct directories; interleaved
    writes into one run dir cannot happen.
    """
    os.makedirs(base_dir, exist_ok=True)
    count = 1
    candidate = name
    while True:
        path = os.path.join(base_dir, candidate)
        try:
            os.mkdir(path)
            return candidate, path
        except FileExistsError:
            count += 1
            candidate = f"{name}-{count}"


def assign_cell_names(specs: Sequence[ExperimentSpec]
                      ) -> List[Tuple[str, ExperimentSpec]]:
    """Deterministic per-cell names: run_name plus in-sweep collision
    suffixes (``-2``, ``-3``, ... — repeated cells never share a dir).

    Public because every sweep *engine* must agree on this mapping: the
    dispatch coordinator (:mod:`repro.dispatch`) names its queue cells
    through the same function, which is what makes a dispatched sweep's
    run directories line up one-to-one with a sequential sweep's.
    """
    used: Dict[str, int] = {}
    cells = []
    for spec in specs:
        name = spec.run_name
        count = used.get(name, 0)
        used[name] = count + 1
        if count:
            name = f"{name}-{count + 1}"
        cells.append((name, spec))
    return cells


# --------------------------------------------------------------------- #
# the manifest
# --------------------------------------------------------------------- #

def write_sweep_manifest(sweep_dir: str, cells: List[Dict],
                         workers: Optional[int]) -> str:
    """Write ``sweep.json``: the sweep's cell list as a replay key.

    ``cells`` is a list of ``{"name", "spec", "status", "error"}``
    dicts.  Statuses recorded here are advisory progress notes — the
    run directories are the source of truth :meth:`SweepRunner.resume`
    validates against (a killed sweep leaves ``pending`` entries behind;
    resume re-checks the dirs, not the manifest).  The write goes
    through a temp file + ``os.replace`` so readers never see a torn
    manifest.
    """
    payload = {"schema": SWEEP_SCHEMA, "workers": workers, "cells": cells}
    path = os.path.join(sweep_dir, SWEEP_MANIFEST)
    tmp_path = path + ".tmp"
    with open(tmp_path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    os.replace(tmp_path, path)
    return path


def merge_sweep_manifest(sweep_dir: str, cells: List[Dict],
                         workers: Optional[int]) -> str:
    """Read-merge-write ``sweep.json`` under an advisory file lock.

    Cells already recorded under *other* names (an earlier or concurrent
    sweep sharing this base directory) are preserved; ``cells`` replace
    entries with the same name.  The merge re-reads the manifest at
    write time inside an ``flock`` (where available), so two sweeps
    finishing in any order keep the union instead of the last writer
    erasing the other's cells.
    """
    lock_path = os.path.join(sweep_dir, SWEEP_MANIFEST + ".lock")
    with open(lock_path, "w") as lock:
        try:
            import fcntl
            fcntl.flock(lock, fcntl.LOCK_EX)
        except ImportError:          # non-POSIX: best-effort, unlocked
            pass
        our_names = {cell["name"] for cell in cells}
        try:
            existing = read_sweep_manifest(sweep_dir)
            foreign = [cell for cell in existing.get("cells", ())
                       if cell.get("name") not in our_names]
        except (FileNotFoundError, ValueError, KeyError):
            foreign = []
        return write_sweep_manifest(sweep_dir, foreign + cells, workers)


def read_sweep_manifest(sweep_dir: str) -> Dict:
    """Load and schema-check ``<sweep_dir>/sweep.json``."""
    path = os.path.join(sweep_dir, SWEEP_MANIFEST)
    if not os.path.exists(path):
        raise FileNotFoundError(
            f"{sweep_dir!r} is not a sweep directory (no {SWEEP_MANIFEST})")
    with open(path) as handle:
        payload = json.load(handle)
    if payload.get("schema") != SWEEP_SCHEMA:
        raise ValueError(f"unsupported sweep manifest schema "
                         f"{payload.get('schema')!r} (expected "
                         f"{SWEEP_SCHEMA!r})")
    return payload


# --------------------------------------------------------------------- #
# worker-side plumbing (must be module-level: pickled by qualified name)
# --------------------------------------------------------------------- #

_WORKER_DATASET_CACHE: Optional[Dict] = None


def _worker_init(blas_threads: int = 0) -> None:
    """Pool initializer: one dataset cache per worker process, so every
    ``(dataset, seed, options)`` cell is loaded once per worker; also
    pins the worker's BLAS pool to its share of the machine
    (:mod:`repro.utils.threads`) so N cells don't oversubscribe cores."""
    global _WORKER_DATASET_CACHE
    _WORKER_DATASET_CACHE = {}
    if blas_threads:
        apply_blas_thread_limit(blas_threads)


def _run_cell_task(spec_dict: Dict, run_dir: Optional[str],
                   verbose: Optional[bool]) -> Dict:
    """The unit of work a pool worker executes (see ``run_cell``)."""
    global _WORKER_DATASET_CACHE
    if _WORKER_DATASET_CACHE is None:
        _WORKER_DATASET_CACHE = {}
    return run_cell(spec_dict, run_dir=run_dir, verbose=verbose,
                    dataset_cache=_WORKER_DATASET_CACHE)


# --------------------------------------------------------------------- #
# the engine
# --------------------------------------------------------------------- #

class SweepRunner:
    """Execute a grid of experiment specs — parallel, isolated, resumable.

    Parameters
    ----------
    specs:
        The cells (``ExperimentSpec`` objects or plain spec dicts).
    base_dir:
        When set, every cell writes a replayable run directory
        ``<base_dir>/<cell name>`` and the sweep writes its
        ``sweep.json`` manifest plus aggregation artifacts there.
    workers:
        ``None`` (or ``0``) runs cells sequentially in-process — the
        classic path, whose results carry the full ``fit`` history.
        ``N >= 1`` runs cells on an ``N``-worker spawn-based process
        pool; results then carry the persisted summary (``fit=None``),
        exactly like results reloaded from disk.  Output is
        bit-identical either way (modulo wall-clock timings).
    verbose:
        Per-cell training verbosity override (``None`` keeps each
        spec's own setting).

    Example::

        >>> import tempfile
        >>> from repro.api import ExperimentSpec, SweepRunner, expand_grid
        >>> base = ExperimentSpec(model="biasmf", dataset="tiny",
        ...                       model_config={"embedding_dim": 8},
        ...                       train_config={"epochs": 1})
        >>> sweep_dir = tempfile.mkdtemp()
        >>> runner = SweepRunner(expand_grid(base, seeds=[0, 1]),
        ...                      base_dir=sweep_dir)
        >>> [r.status for r in runner.run()]
        ['completed', 'completed']
        >>> # everything validates, so resume re-runs nothing:
        >>> [r.status for r in SweepRunner.resume(sweep_dir)]
        ['completed', 'completed']
    """

    def __init__(self, specs: Iterable, base_dir: Optional[str] = None,
                 workers: Optional[int] = None,
                 verbose: Optional[bool] = None):
        self.specs = [spec if isinstance(spec, ExperimentSpec)
                      else ExperimentSpec.from_dict(spec)
                      for spec in specs]
        if not self.specs:
            raise ValueError("SweepRunner needs at least one spec")
        self.base_dir = base_dir
        self.workers = workers or None
        self.verbose = verbose
        #: final ``(name, spec)`` per cell; names are claimed run-dir
        #: basenames once :meth:`run` has started
        self.cells = assign_cell_names(self.specs)
        #: the :class:`SweepReport` aggregated at the end of :meth:`run`
        #: (``None`` before run, or when ``base_dir`` is unset)
        self.report: Optional[SweepReport] = None
        self._skip_complete = False    # True on the resume path
        #: tracing is sweep-wide when any cell asks for it: the parent
        #: records claim/cell/persist lifecycle spans, absorbs worker
        #: spans from cell summaries, and exports the merged
        #: ``<base_dir>/trace.json``.  Checked on the raw override dict
        #: so a cell with an invalid train_config still fails in its own
        #: cell (isolation), not here
        self._trace = any(isinstance(spec.train_config, dict)
                          and bool(spec.train_config.get("trace"))
                          for spec in self.specs)

    # ------------------------------------------------------------------ #
    @classmethod
    def resume(cls, sweep_dir: str, workers: Optional[int] = None,
               verbose: Optional[bool] = None) -> List[RunResult]:
        """Finish a partially-run sweep; returns all cells' results.

        Reads the ``sweep.json`` manifest, loads every cell whose run
        directory validates (``status: completed`` with a matching spec
        echo — those cells are *not* re-executed), and re-runs exactly
        the failed, missing or invalid ones.  ``workers`` defaults to
        the manifest's recorded worker count.
        """
        manifest = read_sweep_manifest(sweep_dir)
        cells = [(cell["name"], ExperimentSpec.from_dict(cell["spec"]))
                 for cell in manifest["cells"]]
        if workers is None:
            workers = manifest.get("workers")
        runner = cls([spec for _, spec in cells], base_dir=sweep_dir,
                     workers=workers, verbose=verbose)
        runner.cells = cells            # pin the manifest's dir names
        runner._skip_complete = True
        return runner.run()

    # ------------------------------------------------------------------ #
    def run(self) -> List[RunResult]:
        """Execute (or finish) the sweep; one ``RunResult`` per cell.

        When any cell's spec turns ``TrainConfig.trace`` on, the whole
        sweep runs traced: the parent spans the cell lifecycle (claim ->
        run -> persist), worker-side spans come back in each cell's
        summary and are absorbed exactly once, and the merged trace is
        exported as ``<base_dir>/trace.json``.
        """
        trace_start = current_seq()
        with trace_scope(self._trace):
            results = self._run(trace_start)
        if self._trace and self.base_dir is not None:
            # exported after the scope closes so the sweep's own
            # lifecycle spans appear alongside the absorbed worker spans
            export_trace(os.path.join(self.base_dir, TRACE_FILE),
                         events_since(trace_start))
        return results

    def _run(self, trace_start: int) -> List[RunResult]:
        n = len(self.cells)
        results: List[Optional[RunResult]] = [None] * n
        run_dirs: List[Optional[str]] = [None] * n

        if self.base_dir is not None:
            os.makedirs(self.base_dir, exist_ok=True)
            with span("sweep.claim", cells=n):
                for i, (name, spec) in enumerate(self.cells):
                    path = os.path.join(self.base_dir, name)
                    if self._skip_complete:
                        if run_dir_is_complete(path, spec):
                            results[i] = RunResult.load(path)
                            continue
                        # invalid / failed / half-written: clear and
                        # re-claim the exact manifest name (resume never
                        # renames)
                        if os.path.isdir(path):
                            shutil.rmtree(path)
                        os.mkdir(path)
                    else:
                        name, path = claim_run_dir(self.base_dir, name)
                        self.cells[i] = (name, spec)
                    run_dirs[i] = path
                self._write_manifest(results)

        pending = [i for i in range(n) if results[i] is None]
        if self.workers and self.workers >= 1:
            self._run_parallel(pending, run_dirs, results)
        else:
            self._run_sequential(pending, run_dirs, results)

        if self.base_dir is not None:
            with span("sweep.persist"):
                self._write_manifest(results)
                self.report = aggregate_results(self.base_dir)
        return results

    # ------------------------------------------------------------------ #
    def _write_manifest(self, results) -> None:
        """Record this sweep's cells, preserving any other sweep's.

        Goes through :func:`merge_sweep_manifest`, which re-reads the
        manifest at write time under a lock — a fresh sweep reusing (or
        racing into) an earlier sweep's base directory keeps the union
        of cells visible to resume and aggregation.
        """
        ours = [{"name": name, "spec": spec.to_dict(),
                 "status": (results[i].status if results[i] is not None
                            else "pending"),
                 "error": (results[i].error if results[i] is not None
                           else None)}
                for i, (name, spec) in enumerate(self.cells)]
        merge_sweep_manifest(self.base_dir, ours, self.workers)

    # ------------------------------------------------------------------ #
    def _run_sequential(self, pending, run_dirs, results) -> None:
        """The classic in-process path: shared dataset cache, live fit."""
        dataset_cache: Dict = {}
        for i in pending:
            name, spec = self.cells[i]
            try:
                # in-process: the cell's spans land directly in this
                # process's buffer, so nothing needs absorbing here
                with span("sweep.cell", cell=name):
                    results[i] = Experiment(spec).run(
                        run_dir=run_dirs[i], dataset_cache=dataset_cache,
                        verbose=self.verbose)
            except Exception as exc:       # noqa: BLE001 — cell isolation
                results[i] = self._record_failure(spec, run_dirs[i], exc)

    def _run_parallel(self, pending, run_dirs, results) -> None:
        """Fan pending cells out over a spawn-based process pool."""
        if not pending:
            return
        context = multiprocessing.get_context(MP_START_METHOD)
        max_workers = min(self.workers, len(pending))
        blas_threads = blas_thread_budget(max_workers)
        with blas_thread_limit(blas_threads), \
                ProcessPoolExecutor(max_workers=max_workers,
                                    mp_context=context,
                                    initializer=_worker_init,
                                    initargs=(blas_threads,)) as pool:
            futures = {i: pool.submit(_run_cell_task,
                                      self.cells[i][1].to_dict(),
                                      run_dirs[i], self.verbose)
                       for i in pending}
            for i, future in futures.items():
                name, spec = self.cells[i]
                try:
                    with span("sweep.collect", cell=name):
                        payload = future.result()
                except Exception as exc:   # worker process died outright
                    results[i] = self._record_failure(spec, run_dirs[i],
                                                      exc)
                    continue
                trace_events = payload.get("trace_events")
                if trace_events:
                    # worker spans crossed the process boundary in the
                    # summary; absorbing them here (and only here) keeps
                    # the parent's merged trace exactly-once
                    absorb_events(trace_events)
                results[i] = RunResult(
                    spec=spec, metrics=payload["metrics"],
                    best_epoch=payload["best_epoch"],
                    timing=payload["timing"], probes=payload["probes"],
                    artifacts=payload["artifacts"],
                    run_dir=payload["run_dir"],
                    status=payload["status"], error=payload.get("error"),
                    trace_events=trace_events)

    def _record_failure(self, spec, run_dir, exc) -> RunResult:
        """Convert an in-parent exception into a failed cell record."""
        error = f"{type(exc).__name__}: {exc}"
        tb = _traceback.format_exc()
        status = read_status(run_dir) if run_dir is not None else None
        # only a *terminal* status already on disk wins; a leftover
        # heartbeat ("running") means the cell died mid-fit and the
        # failure record is ours to write
        if run_dir is not None and (
                status is None or status.get("status") == STATUS_RUNNING):
            write_failed_run_dir(run_dir, spec, error, tb)
        return RunResult(spec=spec, metrics={}, run_dir=run_dir,
                         status=STATUS_FAILED, error=error)


def run_sweep(specs: Iterable, base_dir: Optional[str] = None,
              verbose: Optional[bool] = None,
              workers: Optional[int] = None) -> List[RunResult]:
    """Run many specs with shared dataset loading (see `SweepRunner`).

    Each ``(dataset, seed, options)`` cell is resolved once per process
    and reused by every spec that names it.  With ``base_dir`` set,
    every run writes a replayable run directory ``<base_dir>/<run_name>``
    (name collisions get a numeric suffix through an atomic
    ``os.mkdir`` claim, so repeated cells never clobber each other),
    plus the sweep manifest and aggregation artifacts.  ``workers=N``
    executes cells on an ``N``-worker process pool; crashed cells
    record ``status: failed`` instead of raising.  Returns one
    :class:`RunResult` per spec, in order.

    Example::

        >>> import tempfile
        >>> from repro.api import ExperimentSpec, expand_grid, run_sweep
        >>> base = ExperimentSpec(model="biasmf", dataset="tiny",
        ...                       model_config={"embedding_dim": 8},
        ...                       train_config={"epochs": 1})
        >>> results = run_sweep(expand_grid(base, seeds=[0, 1]),
        ...                     base_dir=tempfile.mkdtemp())
        >>> [(r.spec.seed, r.status) for r in results]
        [(0, 'completed'), (1, 'completed')]
    """
    return SweepRunner(specs, base_dir=base_dir, workers=workers,
                       verbose=verbose).run()


# --------------------------------------------------------------------- #
# aggregation
# --------------------------------------------------------------------- #

@dataclass
class SweepReport:
    """The aggregated view of one sweep directory.

    ``rows`` is the tidy per-cell table (one dict per cell: identity
    columns, ``status``, metric columns, timing columns, ``error``);
    ``artifacts`` maps role to written file path (``results.csv``,
    ``leaderboard.md``) when :func:`aggregate_results` wrote them.
    """

    sweep_dir: str
    rows: List[Dict]
    metric: Optional[str] = None
    artifacts: Dict[str, str] = field(default_factory=dict)

    #: identity/bookkeeping columns, in table order (metrics follow)
    BASE_COLUMNS = ("name", "model", "dataset", "seed", "status",
                    "best_epoch", "train_seconds", "eval_seconds", "error")

    @property
    def metric_columns(self) -> List[str]:
        """Every metric key any cell reported, sorted."""
        return sorted({key for row in self.rows
                       for key in row if key not in self.BASE_COLUMNS})

    @property
    def completed(self) -> List[Dict]:
        """Completed rows, best first by the ranking metric."""
        rows = [r for r in self.rows if r["status"] == STATUS_COMPLETED]
        if self.metric:
            rows.sort(key=lambda r: r.get(self.metric, float("-inf")),
                      reverse=True)
        return rows

    @property
    def failed(self) -> List[Dict]:
        """Rows whose cell crashed (or left no run directory behind)."""
        return [r for r in self.rows if r["status"] != STATUS_COMPLETED]

    def to_csv(self) -> str:
        """The tidy table as CSV text (one row per cell, spec order)."""
        columns = list(self.BASE_COLUMNS) + self.metric_columns
        out = io.StringIO()
        writer = csv.DictWriter(out, fieldnames=columns, restval="")
        writer.writeheader()
        for row in self.rows:
            writer.writerow(row)
        return out.getvalue()

    def to_markdown(self) -> str:
        """A leaderboard: completed cells ranked by the primary metric."""
        lines = [f"# Sweep leaderboard — `{os.path.basename(self.sweep_dir) or self.sweep_dir}`",
                 ""]
        metrics = self.metric_columns
        if self.metric:
            lines.append(f"Ranked by **{self.metric}** "
                         f"({len(self.completed)} completed, "
                         f"{len(self.failed)} failed of "
                         f"{len(self.rows)} cells).")
            lines.append("")
        header = ["rank", "cell", "model", "dataset", "seed"] + metrics
        lines.append("| " + " | ".join(header) + " |")
        lines.append("|" + "---|" * len(header))
        for rank, row in enumerate(self.completed, start=1):
            cells = [str(rank), row["name"], row["model"], row["dataset"],
                     str(row["seed"])]
            cells += [f"{row[m]:.4f}" if m in row else ""
                      for m in metrics]
            lines.append("| " + " | ".join(cells) + " |")
        if self.failed:
            lines.append("")
            lines.append("## Failed cells")
            lines.append("")
            for row in self.failed:
                error = (row.get("error") or "").splitlines()
                lines.append(f"- `{row['name']}` — "
                             f"{error[0] if error else 'unknown error'}")
        return "\n".join(lines) + "\n"


def aggregate_results(sweep_dir: str, metric: Optional[str] = None,
                      write: bool = True) -> SweepReport:
    """Fold a sweep directory into a tidy table + leaderboard artifact.

    Reads every cell named by the ``sweep.json`` manifest (falling back
    to scanning subdirectories holding a ``spec.json`` for sweeps
    written before the manifest existed), and produces a
    :class:`SweepReport`.  With ``write=True`` the report is persisted
    next to the cells as ``results.csv`` (the tidy per-cell table) and
    ``leaderboard.md`` (completed cells ranked by ``metric``, failed
    cells listed with their error).

    ``metric`` defaults to ``recall@<smallest k>`` when any cell reports
    one, else the first metric key in sorted order.
    """
    try:
        manifest = read_sweep_manifest(sweep_dir)
        names = [cell["name"] for cell in manifest["cells"]]
    except FileNotFoundError:
        names = sorted(
            entry for entry in os.listdir(sweep_dir)
            if os.path.exists(os.path.join(sweep_dir, entry, "spec.json")))

    rows: List[Dict] = []
    for name in names:
        run_dir = os.path.join(sweep_dir, name)
        row: Dict = {"name": name}
        try:
            payload = read_run_dir(run_dir)
        except FileNotFoundError:
            row.update(status="missing", error="no run directory")
            rows.append(row)
            continue
        spec = payload["spec"]
        status = read_status(run_dir) or {"status": STATUS_COMPLETED}
        row.update(model=spec.get("model"), dataset=spec.get("dataset"),
                   seed=spec.get("seed"),
                   status=status.get("status", STATUS_COMPLETED),
                   best_epoch=payload["best_epoch"],
                   train_seconds=payload["timing"].get("train_seconds"),
                   eval_seconds=payload["timing"].get("eval_seconds"),
                   error=status.get("error"))
        row.update(payload["metrics"])
        rows.append(row)

    if metric is None:
        metric_keys = sorted({key for row in rows
                              for key in row
                              if key not in SweepReport.BASE_COLUMNS})
        recalls = sorted((k for k in metric_keys
                          if k.startswith("recall@")),
                         key=lambda k: int(k.split("@")[1]))
        metric = recalls[0] if recalls else (metric_keys[0]
                                             if metric_keys else None)

    report = SweepReport(sweep_dir=sweep_dir, rows=rows, metric=metric)
    if write:
        csv_path = os.path.join(sweep_dir, RESULTS_CSV_FILE)
        with open(csv_path, "w", newline="") as handle:
            handle.write(report.to_csv())
        md_path = os.path.join(sweep_dir, LEADERBOARD_FILE)
        with open(md_path, "w") as handle:
            handle.write(report.to_markdown())
        report.artifacts = {"results_csv": csv_path,
                            "leaderboard": md_path}
    return report
