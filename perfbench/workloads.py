"""The benchmark's workloads, their output checks and their metrics.

Each workload builds its inputs from the seed, runs a fixed unit of work
repeatedly for its share of ``--seconds``, checks what the program
answered, and returns an :class:`Outcome`.  With ``trace`` on, the calls
into each layer's public functions are timed from here by
:class:`~timing.LayerTimer` (nothing inside ``src/`` changes), and the
outcome carries the per-layer metrics instead of the end-to-end ones.
Why each workload exists is in ``README.md``.
"""

from __future__ import annotations

import ctypes
import gc
import os
import threading
import time
from bisect import bisect_right
from collections import defaultdict
from typing import Callable, Dict, List

import numpy as np
import scipy.sparse as sp

import repro.autograd.functional as functional
import repro.core.graphaug as graphaug
import repro.serve as serve
import repro.train.trainer as trainer
from repro.api import Experiment, ExperimentSpec, expand_grid, run_sweep
from repro.api.spec import ArtifactSpec
from repro.autograd import (default_dtype, enable_primitive_profiling,
                            primitive_profile, reset_primitive_profile)
from repro.autograd.optim import Adam
from repro.autograd.tensor import Tensor
from repro.core.augmentor import LearnableAugmentor
from repro.core.mixhop import MixhopEncoder
from repro.data import resolve_dataset, save_npz
from repro.data.sampler import BPRSampler
from repro.eval import top_k_lists
from repro.models.registry import MODEL_REGISTRY
from repro.obs import get_metric, reset_metrics
from repro.serve import (AsyncRequestFront, RecommenderService,
                         recall_at_k, save_embedding_snapshot)

from hoststamp import usable_cores
from loadgen import (closed_loop, merge_results, open_loop, repeat_share,
                     zipf_requests)
from timing import LayerTimer, latency_summary, median, percentile

K = 20
REQUEST_USERS = 16
SETUP_REPEATS = 3
#: the paper's model configuration (Sec IV-A.3: d=32, L=3), as the
#: bench harness trains it
MODEL_CONFIG = {"embedding_dim": 32, "num_layers": 3, "ssl_weight": 1.0}
DTYPE = "float32"
BACKEND = "fused"
#: draw of the training graph; fixed, so that ``--seed`` varies what
#: the experiment draws, not how hard the graph happens to be (see
#: ``training_data``)
DATA_SEED = 0

#: per-primitive rows of the traced output
PRIMITIVES = ("weighted_spmm", "matmul", "mul", "logsumexp", "add",
              "take_rows", "light_propagate", "fused_bpr_loss")

#: layer spans whose self time is reported per unit of work
LAYER_SPANS = (
    ("data.sample_s", "data.sample"),
    ("core.augmentor_s", "core.augmentor"),
    ("core.sample_view_s", "core.sample_view"),
    ("core.encode_s", "core.encode"),
    ("core.gib_s", "core.gib"),
    ("autograd.infonce_s", "autograd.infonce"),
    ("models.loss_s", "models.loss"),
    ("autograd.backward_s", "autograd.backward"),
    ("optim.step_s", "optim.step"),
    ("eval.evaluate_s", "eval.evaluate"),
)

#: serving calls reported as seconds per call
SERVE_CALLS = (
    ("serve.snapshot_save_s", "serve.snapshot_save"),
    ("serve.snapshot_load_s", "serve.snapshot_load"),
    ("serve.recommend_s", "serve.recommend"),
    ("serve.partial_update_s", "serve.partial_update"),
)

END_TO_END_UNITS = {"setup_s": "s", "work_s": "s", "p50_ms": "ms",
                    "recall_at_20": "ratio", "peak_rss_mb": "MB"}


def per_layer_units() -> Dict[str, str]:
    """Unit of every per-layer metric, in output order."""
    units = {name: "s" for name, _ in LAYER_SPANS}
    units.update({"api.overhead_s": "s", "train.fit_s": "s",
                  "train.remainder_s": "s", "core.view_keep_frac": "ratio"})
    for prim in PRIMITIVES:
        units[f"autograd.prim.{prim}_s"] = "s"
        units[f"autograd.prim.{prim}_calls"] = "count"
    units.update({"autograd.nodes_per_batch": "count",
                  "autograd.unattributed_frac": "ratio"})
    units.update({name: "s" for name, _ in SERVE_CALLS})
    units.update({"serve.batch_users": "count", "serve.queue_wait_ms": "ms",
                  "load.late_p99_ms": "ms", "load.repeat_user_frac": "ratio",
                  "obs.trace_overhead_frac": "ratio"})
    return units


class Outcome:
    """Metrics, checks and operation counts of one workload run."""

    def __init__(self):
        self.metrics: Dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.notes: List[str] = []

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        """Count one output check; a failed one fails the run."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{name}: {detail}" if detail else name)

    def operations(self, attempted: int, failed: int, what: str) -> None:
        """Count operations of which ``failed`` failed (requests, writes)."""
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.failures.append(f"{failed} of {attempted} {what} failed")

    def note(self, text: str) -> None:
        self.notes.append(text)

    @property
    def correct(self) -> bool:
        return self.failed == 0


class Context:
    """Everything a workload needs from the command line."""

    def __init__(self, seed: int, seconds: float, trace: bool,
                 workdir: str, import_s: float):
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.workdir = workdir
        self.import_s = import_s
        self.cores = usable_cores()


# --------------------------------------------------------------------- #
# layer probes
# --------------------------------------------------------------------- #

class Probes:
    """The two timers a run uses.

    ``roots`` times only the outermost calls that end-to-end metrics need
    (one fit, one experiment run): a couple of clock reads per fit, so it
    stays installed in untraced runs.  ``layers`` times every layer's
    public calls and is installed only around traced units of work.
    """

    def __init__(self):
        self.roots = LayerTimer()
        self.layers = LayerTimer(roots=("train.fit",))
        self.cell_walls: List[tuple] = []     # (model, seconds) per cell
        self.keep_fracs: List[float] = []
        self.recommend_calls: List[tuple] = []

    def _patch_roots(self, timer: LayerTimer) -> None:
        def cell(start, end, args, result):
            self.cell_walls.append((result.spec.model, end - start))

        timer.patch(trainer.Trainer, "fit", "train.fit")
        timer.patch(Experiment, "run", "api.run", observe=cell)

    def _patch_layers(self, timer: LayerTimer) -> None:
        def keep(start, end, args, view):
            self.keep_fracs.append(float(np.mean(view.keep_mask)))

        def served(start, end, args, result):
            self.recommend_calls.append((end, end - start))

        timer.patch(BPRSampler, "sample", "data.sample")
        timer.patch(LearnableAugmentor, "edge_logits", "core.augmentor")
        # GraphAug binds these names at import, so they are timed where
        # it looks them up
        timer.patch(graphaug, "sample_view", "core.sample_view",
                    observe=keep)
        timer.patch(graphaug, "gib_prediction_term", "core.gib")
        timer.patch(graphaug, "gib_kl_term", "core.gib")
        timer.patch(MixhopEncoder, "forward", "core.encode")
        timer.patch(functional, "decomposed_infonce_loss",
                    "autograd.infonce")
        patched = set()
        for name in ("graphaug", "lightgcn", "sgl", "ngcf", "biasmf"):
            for klass in MODEL_REGISTRY.get(name).__mro__:
                if "loss" in vars(klass) and klass not in patched:
                    patched.add(klass)
                    timer.patch(klass, "loss", "models.loss")
        timer.patch(Tensor, "backward", "autograd.backward")
        timer.patch(Adam, "step", "optim.step")
        timer.patch(trainer, "evaluate_model", "eval.evaluate")
        # the snapshot callback imports save_snapshot from the package
        timer.patch(serve, "save_snapshot", "serve.snapshot_save")
        timer.patch(RecommenderService, "recommend", "serve.recommend",
                    observe=served)
        timer.patch(RecommenderService, "partial_update",
                    "serve.partial_update")

    def timer(self, traced: bool) -> LayerTimer:
        return self.layers if traced else self.roots

    def run(self, traced: bool, fn: Callable):
        """Call ``fn()`` with the roots or every layer timed."""
        timer = self.timer(traced)
        self._patch_roots(timer)
        if traced:
            reset_primitive_profile()
            enable_primitive_profiling(True)
            self._patch_layers(timer)
        try:
            return fn()
        finally:
            timer.restore()
            if traced:
                enable_primitive_profiling(False)


def layer_metrics(probes: Probes, units: int, profile: Dict,
                  overhead: float, extra: Dict[str, float]) -> Dict:
    """Every per-layer metric; a layer that did not run reads 0."""
    timer = probes.layers
    units = max(units, 1)
    out = {name: 0.0 for name in per_layer_units()}
    for name, span in LAYER_SPANS:
        out[name] = timer.self_time.get(span, 0.0) / units
    out["api.overhead_s"] = (timer.self_time.get("api.run", 0.0)
                             + timer.self_time.get("api.sweep", 0.0)) / units
    out["train.fit_s"] = timer.total.get("train.fit", 0.0) / units
    out["train.remainder_s"] = timer.self_time.get("train.fit", 0.0) / units
    if probes.keep_fracs:
        out["core.view_keep_frac"] = float(np.mean(probes.keep_fracs))
    prim_seconds = prim_calls = 0.0
    for name, entry in profile.items():
        prim_seconds += entry["seconds"]
        prim_calls += entry["calls"]
    for prim in PRIMITIVES:
        entry = profile.get(prim, {"seconds": 0.0, "calls": 0})
        out[f"autograd.prim.{prim}_s"] = entry["seconds"] / units
        out[f"autograd.prim.{prim}_calls"] = entry["calls"] / units
    batches = timer.calls.get("data.sample", 0)
    if batches:
        out["autograd.nodes_per_batch"] = prim_calls / batches
    fit_total = timer.total.get("train.fit", 0.0)
    if fit_total:
        out["autograd.unattributed_frac"] = 1.0 - prim_seconds / fit_total
    for name, span in SERVE_CALLS:
        calls = timer.calls.get(span, 0)
        if calls:
            out[name] = timer.total[span] / calls
    out["obs.trace_overhead_frac"] = overhead
    out.update(extra)
    return out


def note_fit_accounting(outcome: Outcome, timer: LayerTimer) -> None:
    """Print the fit's breakdown: layer self times inside ``Trainer.fit``
    plus its own remainder, which add up to it by construction."""
    total = timer.total.get("train.fit", 0.0)
    outcome.note("fit accounting: " + ", ".join(
        f"{name} {seconds:.4f}s" for name, seconds in sorted(
            timer.within["train.fit"].items(), key=lambda kv: -kv[1]))
        + f" = {total:.4f}s")


# --------------------------------------------------------------------- #
# shared pieces
# --------------------------------------------------------------------- #

def reset_peak_rss() -> None:
    """Start the interval :func:`peak_rss_mb` covers: the kernel's
    high-water mark (``VmHWM``) drops to the current resident size.

    The training workloads call it when set-up ends and the serving
    ones when each segment starts, so the peak is the one of the
    measured work, not of building its inputs.  Freed heap pages go
    back to the system first, so the interval starts from live memory
    rather than from whatever the allocator kept.
    """
    gc.collect()
    ctypes.CDLL("libc.so.6").malloc_trim(0)
    with open("/proc/self/clear_refs", "w") as handle:
        handle.write("5")


def peak_rss_mb() -> float:
    """Peak resident memory since :func:`reset_peak_rss`, in MB."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def timed(fn: Callable) -> tuple:
    start = time.perf_counter()
    value = fn()
    return time.perf_counter() - start, value


def repeat(budget: float, minimum: int, maximum: int,
           step: Callable[[int], float]) -> int:
    """Call ``step(i)`` at least ``minimum`` times, then while another
    call of the last one's length still fits in ``budget`` seconds."""
    start = time.perf_counter()
    done = 0
    last = 0.0
    while done < minimum or (done < maximum and time.perf_counter() - start
                             + last <= budget):
        last = step(done)
        done += 1
    return done


def latency_metrics(outcome: Outcome, name: str, seconds: List[float]
                    ) -> Dict[str, float]:
    """p50 in ms; p50 and p99 with their sample support go to the notes.

    p99 is printed, not returned: its run-to-run spread on a small shared
    host is wider than any bound a regression gate could use (README).
    """
    if not seconds:
        outcome.check(f"{name} has latency samples", False, "none answered")
        return {"p50_ms": float("nan")}
    summary = latency_summary(seconds)
    outcome.note(f"{name}: {summary['count']} samples, p50 "
                 f"{summary['p50'] * 1e3:.3f} ms, p99 "
                 f"{summary['p99'] * 1e3:.3f} ms with "
                 f"{summary['p99_beyond']} samples beyond it")
    return {"p50_ms": summary["p50"] * 1e3}


def stream_notes(outcome: Outcome, name: str, requests, result) -> Dict:
    """Generator lateness and the Zipf stream's measured repeat share."""
    share = repeat_share(requests)
    late = percentile(result.lateness, 99) * 1e3 if result.lateness else 0.0
    outcome.note(f"{name}: {len(requests)} requests, repeat-user share "
                 f"{share:.3f}, generator late p50 "
                 f"{percentile(result.lateness, 50) * 1e3:.3f} ms / p99 "
                 f"{late:.3f} ms / max {max(result.lateness) * 1e3:.3f} ms")
    return {"load.late_p99_ms": late, "load.repeat_user_frac": share}


def queue_wait_ms(result, recommend_calls: List[tuple]) -> float:
    """Median of each request's latency minus its batch's recommend time.

    A request's batch is the last ``recommend`` call that ended before
    the request was answered.
    """
    calls = sorted(recommend_calls)
    ends = [end for end, _ in calls]
    waits = []
    for due, done in zip(result.due, result.done):
        index = bisect_right(ends, done) - 1
        if index >= 0:
            waits.append((done - due) - calls[index][1])
    return median(waits) * 1e3 if waits else 0.0


class BatchTally:
    """Mean users per dispatched batch over several fronts, from each
    front's ``serve.front.batch_users`` obs histogram."""

    def __init__(self):
        self.users = 0.0
        self.batches = 0

    def add(self) -> None:
        """Count the batches since the last ``reset_metrics``."""
        hist = get_metric("serve.front.batch_users")
        self.users += hist.sum
        self.batches += hist.count

    @property
    def mean(self) -> float:
        return self.users / self.batches if self.batches else 0.0


def add_profile(total: Dict[str, Dict]) -> None:
    """Add the primitive profile of the last traced unit to ``total``."""
    for name, entry in primitive_profile().items():
        acc = total.setdefault(name, {"seconds": 0.0, "calls": 0})
        acc["seconds"] += entry["seconds"]
        acc["calls"] += entry["calls"]


def training_data(ctx: Context):
    """The gowalla profile the paper benches train on, as an ``.npz``.

    The data is the same for every ``--seed``: how hard a sampled
    400-user graph is varies so much between instances that recall would
    mostly measure the draw.  The seed sets everything the experiment
    itself draws (initialisation, BPR and view sampling, noise).
    """
    dataset = resolve_dataset("gowalla", seed=DATA_SEED)
    path = os.path.join(ctx.workdir, "gowalla.npz")
    save_npz(dataset, path)
    return path, dataset


def experiment_seeds(seed: int, count: int) -> List[int]:
    """``count`` experiment seeds for ``--seed``; two different
    ``--seed`` values share none, so runs stay independent."""
    return [seed * count + j for j in range(count)]


def warm_up_spec(spec):
    """``spec`` cut to one batch and one evaluation, without artifacts.

    Set-up runs it once so that first-call costs (lazy imports, caches)
    land in ``setup_s`` rather than in the first timed fit.
    """
    return spec.with_overrides(
        train_config={**spec.train_config, "epochs": 1, "eval_every": 1,
                      "batches_per_epoch": 1},
        artifacts=ArtifactSpec())


# --------------------------------------------------------------------- #
# graphaug-pipeline
# --------------------------------------------------------------------- #

GRAPHAUG_EPOCHS = 8
#: experiment seeds per run; recall@20 is averaged over them
GRAPHAUG_SEEDS = 3
PIPELINE_RATE = 250.0
PIPELINE_REQUESTS = 1000


def graphaug_pipeline(ctx: Context) -> Outcome:
    """Spec -> fit -> snapshot -> mmap load -> front, on the paper's model."""
    outcome, probes = Outcome(), Probes()

    def build():
        path, dataset = training_data(ctx)
        spec = ExperimentSpec(
            model="graphaug", dataset=path, seed=ctx.seed,
            model_config=dict(MODEL_CONFIG),
            train_config={"epochs": GRAPHAUG_EPOCHS, "batch_size": 512,
                          "eval_every": GRAPHAUG_EPOCHS,
                          "autograd_backend": BACKEND},
            artifacts={"snapshot": "snapshot.npz"})
        with default_dtype(DTYPE):
            Experiment(warm_up_spec(spec), dataset=dataset).run()
        return [spec.with_overrides(seed=seed) for seed in
                experiment_seeds(ctx.seed, GRAPHAUG_SEEDS)], dataset

    builds = [timed(build) for _ in range(SETUP_REPEATS)]
    specs, dataset = builds[-1][1]
    setup_s = ctx.import_s + median([b[0] for b in builds])
    reset_peak_rss()

    fits = {False: [], True: []}
    recalls: Dict[int, List[float]] = {spec.seed: [] for spec in specs}
    last: Dict[str, object] = {}
    profile: Dict[str, Dict] = {}

    def fit_once(i: int) -> float:
        # fits cycle over the seeds, so the first seed runs twice in the
        # minimum of len(specs) + 1 fits; traced runs time the middle two
        # of every four
        spec = specs[i % len(specs)]
        traced = ctx.trace and i % 4 in (1, 2)
        timer = probes.timer(traced)
        before = timer.total.get("train.fit", 0.0)
        experiment = Experiment(spec, dataset=dataset)
        run_dir = os.path.join(ctx.workdir, f"graphaug-{i}")

        def run():
            with default_dtype(DTYPE):
                return experiment.run(run_dir=run_dir)
        result = probes.run(traced, run)
        if traced:
            add_profile(profile)
        seconds = timer.total["train.fit"] - before
        fits[traced].append(seconds)
        outcome.check(f"fit {i} completed", result.status == "completed",
                      str(result.error))
        recalls[spec.seed].append(result.metrics["recall@20"])
        last.update(model=experiment.model,
                    snapshot=result.artifacts["snapshot"])
        return seconds

    repeat(0.6 * ctx.seconds, len(specs) + 1, 8, fit_once)
    for seed, values in recalls.items():
        if len(values) > 1:
            outcome.check(f"recall@20 identical across fits of seed {seed}",
                          len(set(values)) == 1, repr(values))
    recall = float(np.mean([values[0] for values in recalls.values()]))

    # the trained model's serving path
    expected = top_k_lists(last["model"], dataset, k=K)
    with probes.timer(ctx.trace).span("serve.snapshot_load"):
        service = RecommenderService.from_snapshot(last["snapshot"],
                                                   mmap=True)
    rng = np.random.default_rng(ctx.seed)
    requests = zipf_requests(rng, dataset.num_users, PIPELINE_REQUESTS,
                             REQUEST_USERS)
    try:
        service.recommend(requests[0], k=K)
        reset_metrics()   # front histograms cover one phase

        def serve_tail():
            with AsyncRequestFront(service, k=K) as front:
                users = np.arange(dataset.num_users)
                everyone = [front.submit(chunk) for chunk in
                            np.array_split(users, -(-len(users)
                                                    // REQUEST_USERS))]
                served = np.concatenate([f.result(timeout=60)
                                         for f in everyone])
                stream = open_loop(front.submit, requests, PIPELINE_RATE)
            return served, stream
        served, stream = probes.run(ctx.trace, serve_tail)
        batches = BatchTally()
        batches.add()
    finally:
        service.close()
    outcome.check("front lists of every user equal top_k_lists",
                  np.array_equal(served, expected))
    outcome.operations(len(requests), stream.failed, "requests")
    mismatched = sum(1 for req, answer in zip(requests, stream.answers)
                     if answer is not None
                     and not np.array_equal(answer, expected[req]))
    outcome.check("open-loop answers equal top_k_lists", mismatched == 0,
                  f"{mismatched} requests differ")
    latency = latency_metrics(outcome, "open-loop reads", stream.latencies)
    stream_extra = stream_notes(outcome, "open loop", requests, stream)
    by_seed = ", ".join(f"{seed}: {values[0]:.6f}"
                        for seed, values in recalls.items())
    outcome.note(f"fits: {len(fits[False]) + len(fits[True])} of "
                 f"{GRAPHAUG_EPOCHS} epochs each; recall@20 by seed "
                 f"{by_seed}")

    if ctx.trace:
        traced_fits = len(fits[True])
        note_fit_accounting(outcome, probes.layers)
        overhead = median(fits[True]) / median(fits[False]) - 1.0
        extra = dict(stream_extra)
        extra["serve.batch_users"] = batches.mean
        extra["serve.queue_wait_ms"] = queue_wait_ms(
            stream, probes.recommend_calls)
        outcome.metrics = layer_metrics(probes, traced_fits, profile,
                                        overhead, extra)
        return outcome
    outcome.metrics = {"setup_s": setup_s, "work_s": median(fits[False]),
                       **latency, "recall_at_20": recall,
                       "peak_rss_mb": peak_rss_mb()}
    return outcome


# --------------------------------------------------------------------- #
# zoo-sweep
# --------------------------------------------------------------------- #

ZOO_MODELS = ("lightgcn", "sgl", "ngcf", "biasmf")
ZOO_EPOCHS = 16
#: experiment seeds per model
ZOO_SEEDS = 3


def zoo_sweep(ctx: Context) -> Outcome:
    """Sequential run_sweep with run dirs over four zoo models x 3 seeds."""
    outcome, probes = Outcome(), Probes()

    def build():
        path, _ = training_data(ctx)
        base = ExperimentSpec(
            model=ZOO_MODELS[0], dataset=path,
            model_config=dict(MODEL_CONFIG),
            train_config={"epochs": ZOO_EPOCHS, "batch_size": 512,
                          "eval_every": ZOO_EPOCHS,
                          "autograd_backend": BACKEND})
        with default_dtype(DTYPE):
            run_sweep(expand_grid(warm_up_spec(base), models=list(ZOO_MODELS)))
        return expand_grid(base, models=list(ZOO_MODELS),
                           seeds=experiment_seeds(ctx.seed, ZOO_SEEDS))

    builds = [timed(build) for _ in range(SETUP_REPEATS)]
    specs = builds[-1][1]
    setup_s = ctx.import_s + median([b[0] for b in builds])
    reset_peak_rss()

    sweeps = {False: [], True: []}
    means: List[float] = []
    profile: Dict[str, Dict] = {}
    cells = {False: defaultdict(list), True: defaultdict(list)}

    def sweep_once(i: int) -> float:
        traced = ctx.trace and i % 2 == 1
        timer = probes.timer(traced)
        base_dir = os.path.join(ctx.workdir, f"sweep-{i}")
        first_cell = len(probes.cell_walls)

        def run():
            with timer.span("api.sweep"), default_dtype(DTYPE):
                return run_sweep(specs, base_dir=base_dir)
        start = time.perf_counter()
        results = probes.run(traced, run)
        seconds = time.perf_counter() - start
        if traced:
            add_profile(profile)
        sweeps[traced].append(seconds)
        for model, wall in probes.cell_walls[first_cell:]:
            cells[traced][model].append(wall)
        for result in results:
            outcome.check(f"sweep {i} cell {result.spec.run_name}",
                          result.status == "completed", str(result.error))
        means.append(float(np.mean([r.metrics.get("recall@20", np.nan)
                                    for r in results])))
        return seconds

    repeat(0.9 * ctx.seconds, 2, 8, sweep_once)
    outcome.check("mean recall@20 identical across sweeps",
                  len(set(means)) == 1, repr(means))
    outcome.note(f"sweeps: {len(sweeps[False]) + len(sweeps[True])} x "
                 f"{len(specs)} cells of {ZOO_EPOCHS} epochs; "
                 f"cells/s {len(specs) / median(sweeps[False]):.3f}; "
                 f"mean recall@20 {means[0]:.6f}")

    if ctx.trace:
        note_fit_accounting(outcome, probes.layers)
        overhead = median(sweeps[True]) / median(sweeps[False]) - 1.0
        outcome.metrics = layer_metrics(probes, len(sweeps[True]), profile,
                                        overhead, {})
        return outcome
    walls = cells[False]
    outcome.note("median cell latency: " + ", ".join(
        f"{model} {median(walls[model]) * 1e3:.1f} ms ({len(walls[model])} "
        "cells)" for model in ZOO_MODELS))
    # the mean over models of each model's median: a median over all
    # cells would sit on the gap between two models' speeds
    latency = {"p50_ms": float(np.mean([median(walls[model])
                                        for model in ZOO_MODELS])) * 1e3}
    outcome.metrics = {"setup_s": setup_s, "work_s": median(sweeps[False]),
                       **latency, "recall_at_20": means[0],
                       "peak_rss_mb": peak_rss_mb()}
    return outcome


# --------------------------------------------------------------------- #
# serve-read / serve-mixed
# --------------------------------------------------------------------- #

SERVE_USERS = 100_000
SERVE_ITEMS = 20_000
SERVE_DIM = 32
#: the clustered distribution of the hot-path serving bench
#: (``benchmarks/test_hotpath.py``): 150 centers of scale 3, member
#: noise 0.4
SERVE_CENTERS = 150
SERVE_SPREAD = 0.4
SERVE_SEEN_PER_USER = 4
#: open-loop read rate of both serving workloads.  Requests that arrive
#: one by one are batched far less than closed-loop ones, so a single
#: 16-user request costs 6-10 ms here and a rate near half the
#: closed-loop saturation keeps the service most of the time busy.
#: There queueing magnifies every change of the host's speed several
#: times over in the read latency.  At this rate the reads, and on
#: serve-mixed the writes, keep the service about a third busy.
READ_RATE = 40.0
WRITE_EVERY = 10            # one write per this many reads
WRITE_EDGES = 3
RECALL_SAMPLE = 5000
#: relative slack when comparing served scores with scores computed
#: here: float32 dot products of a few hundred differ by rounding only
SCORE_RTOL = 1e-5
WARM_REQUESTS = 300
#: open-loop segments of serve-read, each followed by closed-loop passes
SERVE_SEGMENTS = 10


def serving_inputs(seed: int):
    """Clustered user/item embeddings and a few seen items per user.

    ``seed`` draws the tables, from a stream of its own so that they do
    not share draws with the request streams of the same seed.
    """
    rng = np.random.default_rng([seed, 1])
    centers = rng.standard_normal((SERVE_CENTERS, SERVE_DIM)) * 3.0

    def table(count):
        return (centers[rng.integers(0, SERVE_CENTERS, count)]
                + rng.standard_normal((count, SERVE_DIM)) * SERVE_SPREAD
                ).astype(np.float32)
    items = table(SERVE_ITEMS)
    users = table(SERVE_USERS)
    rows = np.repeat(np.arange(SERVE_USERS), SERVE_SEEN_PER_USER)
    cols = rng.integers(0, SERVE_ITEMS, len(rows))
    seen = sp.csr_matrix((np.ones(len(rows)), (rows, cols)),
                         shape=(SERVE_USERS, SERVE_ITEMS))
    seen.data[:] = 1.0
    return users, items, seen


def serving_setup(ctx: Context, probes: Probes):
    """Inputs -> snapshot (with its IVF index) -> mmap exact service,
    warmed.

    Set up ``SETUP_REPEATS`` times, each service closed before the next
    is built; returns the last service, its snapshot path and the median
    set-up seconds (imports included).  The served backend is the exact
    scan: the ANN backend misses its recall budget on this distribution
    (README), so its query path is not benchmarked.
    """
    timer = probes.timer(ctx.trace)
    built: List[tuple] = []

    def once(i):
        if built:
            built.pop()[0].close()
        users, items, seen = serving_inputs(ctx.seed)
        path = os.path.join(ctx.workdir, f"serve-{i}.npz")
        with timer.span("serve.snapshot_save"):
            save_embedding_snapshot(path, users, items, train_matrix=seen,
                                    dataset_name="perfbench-serve")
        with timer.span("serve.snapshot_load"):
            service = RecommenderService.from_snapshot(path, mmap=True)
        service.recommend(np.arange(0, SERVE_USERS, SERVE_USERS // 256),
                          k=K)
        built.append((service, path))

    walls = [timed(lambda: once(i))[0] for i in range(SETUP_REPEATS)]
    service, path = built.pop()
    return service, path, ctx.import_s + median(walls)


def check_served_lists(outcome: Outcome, service, seed: int,
                       users: np.ndarray) -> float:
    """The service's lists of ``users`` against scores computed here
    from the inputs.

    Each list must hold ``K`` distinct unseen items, best first, none
    scoring below the ``K``-th best unseen item (to float32 rounding).
    Returns the recall of the lists against the top-``K`` computed here,
    which reads below 1 only where two scores tie at rank ``K``.
    """
    user_emb, item_emb, seen = serving_inputs(seed)
    served = service.recommend(users, k=K)
    wrong = hits = 0
    for start in range(0, len(users), 500):
        rows, lists = users[start:start + 500], served[start:start + 500]
        scores = user_emb[rows] @ item_emb.T
        masked = seen[rows].tocoo()
        scores[masked.row, masked.col] = -np.inf
        top = np.argpartition(-scores, K, axis=1)[:, :K]
        kth = np.take_along_axis(scores, top, axis=1).min(axis=1)
        got = np.take_along_axis(scores, lists, axis=1)
        slack = (SCORE_RTOL * (np.abs(kth) + 1.0))[:, None]
        distinct = np.all(np.diff(np.sort(lists, axis=1), axis=1) != 0,
                          axis=1)
        ordered = np.all(np.diff(got, axis=1) <= slack, axis=1)
        above = np.all(got >= kth[:, None] - slack, axis=1)
        wrong += int(np.sum(~(distinct & ordered & above)))
        hits += sum(len(np.intersect1d(a, b)) for a, b in zip(lists, top))
    outcome.check("served lists are the top-k of the input scores",
                  wrong == 0, f"{wrong} of {len(users)} users wrong")
    return hits / (len(users) * K)


def check_replica(outcome: Outcome, service, path: str, users: np.ndarray,
                  writes) -> float:
    """The service's lists against a fresh service fed the same writes
    one after another, with no reads in between."""
    with RecommenderService.from_snapshot(path, mmap=True) as replica:
        for write_users, write_items in writes:
            replica.partial_update(write_users, write_items)
        truth = replica.recommend(users, k=K)
    lists = service.recommend(users, k=K)
    outcome.check("lists after concurrent writes equal a replica's",
                  np.array_equal(lists, truth),
                  f"{int(np.sum(np.any(lists != truth, axis=1)))} users "
                  "differ")
    return recall_at_k(lists, truth)


def warm_up(service, rng: np.random.Generator) -> None:
    """Answer a Zipf stream untimed, so the hot users' pages are mapped
    in the way they are once a server has been up for a while."""
    for request in zipf_requests(rng, SERVE_USERS, WARM_REQUESTS,
                                 REQUEST_USERS):
        service.recommend(request, k=K)


def recall_users(rng: np.random.Generator, requests) -> np.ndarray:
    touched = np.unique(np.concatenate(requests))
    if len(touched) > RECALL_SAMPLE:
        touched = np.sort(rng.choice(touched, RECALL_SAMPLE, replace=False))
    return touched


def serve_read(ctx: Context) -> Outcome:
    """Open-loop reads at a fixed rate and closed-loop passes, in
    alternating segments so both spread over the whole run."""
    outcome, probes = Outcome(), Probes()
    service, path, setup_s = serving_setup(ctx, probes)
    rng = np.random.default_rng(ctx.seed)
    open_requests = zipf_requests(rng, SERVE_USERS,
                                  int(0.7 * ctx.seconds * READ_RATE),
                                  REQUEST_USERS)
    warm_up(service, rng)
    pass_requests = zipf_requests(rng, SERVE_USERS, 200, REQUEST_USERS)
    outstanding = 2 * ctx.cores
    passes = {False: [], True: []}
    segments = []
    peaks = []
    batches = BatchTally()

    def one_pass(front) -> float:
        index = len(passes[False]) + len(passes[True])
        traced = ctx.trace and index % 2 == 1
        result = probes.run(traced, lambda: closed_loop(
            front.submit, pass_requests, outstanding))
        outcome.operations(len(pass_requests), result.failed,
                           "closed-loop requests")
        passes[traced].append(result.wall)
        if index == 0:
            answered = [(req, ans) for req, ans in
                        zip(pass_requests, result.answers) if ans is not None]
            outcome.check("closed-loop answers equal direct recommend calls",
                          all(np.array_equal(ans, service.recommend(req, k=K))
                              for req, ans in answered))
        return result.wall

    try:
        for part in np.array_split(np.arange(len(open_requests)),
                                   SERVE_SEGMENTS):
            reset_metrics()   # the front's histograms cover one segment
            reset_peak_rss()
            with AsyncRequestFront(service, k=K) as front:
                segments.append(probes.run(ctx.trace, lambda: open_loop(
                    front.submit, [open_requests[i] for i in part],
                    READ_RATE)))
                repeat(0.35 * ctx.seconds / SERVE_SEGMENTS, 1, 40,
                       lambda i: one_pass(front))
                # open-loop requests come one at a time; the batching
                # is in the closed-loop passes
                batches.add()
            peaks.append(peak_rss_mb())
        stream = merge_results(segments)
        batch_users = batches.mean
        outcome.operations(len(open_requests), stream.failed, "requests")
        mismatched = 0
        for start in range(0, len(open_requests), 32):
            chunk = open_requests[start:start + 32]
            direct = service.recommend(np.concatenate(chunk), k=K)
            answered = np.concatenate(
                [a if a is not None else np.full((REQUEST_USERS, K), -1)
                 for a in stream.answers[start:start + 32]])
            mismatched += int(np.sum(np.any(answered != direct, axis=1)))
        outcome.check("front answers equal direct recommend calls",
                      mismatched == 0, f"{mismatched} user rows differ")
        recall = check_served_lists(outcome, service, ctx.seed,
                                    recall_users(rng, open_requests))
    finally:
        service.close()

    latency = latency_metrics(outcome, "open-loop reads", stream.latencies)
    extra = stream_notes(outcome, "open loop", open_requests, stream)
    sat = len(pass_requests) * REQUEST_USERS / median(passes[False])
    outcome.note(f"closed loop: {outstanding} outstanding, "
                 f"{len(passes[False]) + len(passes[True])} passes of "
                 f"{len(pass_requests)} requests, {sat:.0f} users/s; "
                 f"recall@20 against the reference {recall:.5f}; batch users "
                 f"{batch_users:.2f}")
    outcome.note("peak memory by segment: " + ", ".join(
        f"{peak:.1f}" for peak in peaks) + " MB")
    if ctx.trace:
        overhead = median(passes[True]) / median(passes[False]) - 1.0
        extra["serve.batch_users"] = batch_users
        extra["serve.queue_wait_ms"] = queue_wait_ms(stream,
                                                     probes.recommend_calls)
        outcome.metrics = layer_metrics(probes, 1, {}, overhead, extra)
        return outcome
    outcome.metrics = {"setup_s": setup_s, "work_s": median(passes[False]),
                       **latency, "recall_at_20": recall,
                       "peak_rss_mb": median(peaks)}
    return outcome


def serve_mixed(ctx: Context) -> Outcome:
    """The serve-read open loop plus partial_update writes on a schedule."""
    outcome, probes = Outcome(), Probes()
    service, path, setup_s = serving_setup(ctx, probes)
    rng = np.random.default_rng(ctx.seed)
    warm_up(service, rng)
    phases = (False, True) if ctx.trace else (False,)
    share = 0.8 * ctx.seconds / len(phases)
    writes: List[tuple] = []
    write_seconds = {False: [], True: []}
    streams = {}
    peaks = {}
    try:
        for traced in phases:
            requests = zipf_requests(rng, SERVE_USERS,
                                     int(share * READ_RATE), REQUEST_USERS)
            batch = [(rng.integers(0, SERVE_USERS, WRITE_EDGES),
                      rng.integers(0, SERVE_ITEMS, WRITE_EDGES))
                     for _ in range(len(requests) // WRITE_EVERY)]
            errors: List[BaseException] = []

            def segment(reads, updates):
                """One front and one writer thread over a slice of the
                stream; returns the reads' result and the peak memory."""
                def writer():
                    start = time.perf_counter()
                    for j, (users, items) in enumerate(updates):
                        wait_for = (start + j * WRITE_EVERY / READ_RATE
                                    - time.perf_counter())
                        if wait_for > 0:
                            time.sleep(wait_for)
                        began = time.perf_counter()
                        try:
                            service.partial_update(users, items)
                        except Exception as exc:  # noqa: BLE001 — counted
                            errors.append(exc)
                            continue
                        write_seconds[traced].append(
                            time.perf_counter() - began)

                reset_metrics()   # front histograms cover one segment
                reset_peak_rss()
                with AsyncRequestFront(service, k=K) as front:
                    thread = threading.Thread(target=writer,
                                              name="perfbench-writer")
                    thread.start()
                    try:
                        stream = open_loop(front.submit, reads, READ_RATE)
                    finally:
                        thread.join()
                batches.add()
                return stream, peak_rss_mb()

            batches = BatchTally()
            parts = [probes.run(traced, lambda: segment(
                [requests[i] for i in reads], [batch[i] for i in updates]))
                for reads, updates in zip(
                    np.array_split(np.arange(len(requests)), SERVE_SEGMENTS),
                    np.array_split(np.arange(len(batch)), SERVE_SEGMENTS))]
            stream = merge_results([stream for stream, _ in parts])
            peaks[traced] = [peak for _, peak in parts]
            streams[traced] = (requests, stream,
                               batches.mean)
            outcome.operations(len(batch), len(errors), "writes")
            outcome.operations(len(requests), stream.failed, "requests")
            writes.extend(batch)

        sample = rng.choice(len(writes), min(50, len(writes)),
                            replace=False)
        leaked = 0
        for j in sample:
            users, items = writes[j]
            lists = service.recommend(users, k=K)
            leaked += int(np.sum(lists == items[:, None]))
        outcome.check("written edges are excluded from answers",
                      leaked == 0, f"{leaked} written items served")
        touched = [req for phase in streams.values() for req in phase[0]]
        recall = check_replica(outcome, service, path,
                               recall_users(rng, touched), writes)
    finally:
        service.close()

    requests, stream, batch_users = streams[False]
    latency = latency_metrics(outcome, "open-loop reads", stream.latencies)
    extra = stream_notes(outcome, "open loop", requests, stream)
    write_ms = latency_summary(write_seconds[False])
    outcome.note(f"writes: {len(write_seconds[False])} of {WRITE_EDGES} "
                 f"edges, p50 {write_ms['p50'] * 1e3:.3f} ms, p99 "
                 f"{write_ms['p99'] * 1e3:.3f} ms; recall@20 against the "
                 f"replica {recall:.5f}")
    outcome.note("peak memory by segment: " + ", ".join(
        f"{peak:.1f}" for peak in peaks[False]) + " MB")
    if ctx.trace:
        traced_requests, traced_stream, traced_batch = streams[True]
        overhead = (median(write_seconds[True])
                    / median(write_seconds[False]) - 1.0)
        extra = stream_notes(outcome, "traced open loop", traced_requests,
                             traced_stream)
        extra["serve.batch_users"] = traced_batch
        extra["serve.queue_wait_ms"] = queue_wait_ms(
            traced_stream, probes.recommend_calls)
        outcome.metrics = layer_metrics(probes, 1, {}, overhead, extra)
        return outcome
    outcome.metrics = {"setup_s": setup_s,
                       "work_s": median(write_seconds[False]),
                       **latency, "recall_at_20": recall,
                       "peak_rss_mb": median(peaks[False])}
    return outcome


WORKLOADS = {
    "graphaug-pipeline": graphaug_pipeline,
    "zoo-sweep": zoo_sweep,
    "serve-read": serve_read,
    "serve-mixed": serve_mixed,
}
