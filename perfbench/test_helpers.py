"""Tests of the benchmark's own helpers (no program under test needed).

Run from the root of the checkout::

    python -m pytest perfbench/test_helpers.py -q
"""

from __future__ import annotations

import os
import sys
import threading
from concurrent.futures import Future
from queue import Queue

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from hoststamp import blas_from_config, cpu_model, host_stamp  # noqa: E402
from loadgen import (closed_loop, due_times, open_loop, repeat_share,  # noqa: E402
                     zipf_requests)
from timing import (LayerTimer, beyond, latency_summary, median,  # noqa: E402
                    percentile)


class FakeClock:
    """A clock that only moves when told to."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


def answered(value=None) -> Future:
    future = Future()
    future.set_result(value)
    return future


# --------------------------------------------------------------------- #
# percentiles with sample counts
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("q", [0, 10, 50, 90, 99, 99.9, 100])
def test_percentile_matches_numpy(q):
    values = np.random.default_rng(3).exponential(size=537)
    assert percentile(values, q) == pytest.approx(np.percentile(values, q))


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_latency_summary_counts_the_samples_beyond_each_percentile():
    values = [float(v) for v in range(1, 1001)]     # 1..1000
    summary = latency_summary(values)
    assert summary["count"] == 1000
    assert summary["p50"] == pytest.approx(500.5)
    assert summary["p50_beyond"] == 500
    # p99 of 1000 distinct values is supported by exactly ten above it
    assert summary["p99"] == pytest.approx(990.01)
    assert summary["p99_beyond"] == 10
    assert latency_summary(values[:999])["p99_beyond"] == 10
    assert latency_summary(values[:500])["p99_beyond"] == 5


def test_beyond_is_strict_and_median_is_p50():
    assert beyond([1, 2, 2, 3], 2) == 1
    assert median([4.0, 1.0, 3.0, 2.0]) == 2.5


# --------------------------------------------------------------------- #
# request streams
# --------------------------------------------------------------------- #

def test_zipf_requests_are_seeded_and_skewed():
    a = zipf_requests(np.random.default_rng(7), 1000, 200, 16)
    b = zipf_requests(np.random.default_rng(7), 1000, 200, 16)
    assert len(a) == 200 and all(r.shape == (16,) for r in a)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    users = np.concatenate(a)
    assert users.min() >= 0 and users.max() < 1000
    counts = np.bincount(users, minlength=1000)
    # the hottest user is requested far more often than a uniform draw
    assert counts.max() > 10 * len(users) / 1000
    uniform = np.random.default_rng(1)
    assert repeat_share(a) > repeat_share(
        [uniform.integers(0, 1000, 16) for _ in range(200)])


def test_repeat_share_counts_users_seen_earlier_in_the_stream():
    stream = [np.array([1, 2]), np.array([2, 3]), np.array([1, 1])]
    # six ids; 2 (second request), 1 and 1 (third) were seen before
    assert repeat_share(stream) == pytest.approx(3 / 6)
    assert repeat_share([]) == 0.0


def test_due_times_follow_the_rate():
    assert np.allclose(due_times(10.0, 4, 2.0), [10.0, 10.5, 11.0, 11.5])
    with pytest.raises(ValueError):
        due_times(0.0, 3, 0.0)


def test_open_loop_on_schedule_measures_from_due_time():
    clock = FakeClock()

    def submit(request):
        clock.now += 0.001            # answered 1 ms after sending
        return answered(request)
    requests = [np.array([i]) for i in range(5)]
    result = open_loop(submit, requests, rate=100.0, clock=clock,
                       sleep=clock.sleep)
    assert result.failed == 0
    assert result.lateness == pytest.approx([0.0] * 5)
    assert result.latencies == pytest.approx([0.001] * 5)
    assert [int(a[0]) for a in result.answers] == list(range(5))
    assert result.due == pytest.approx([0.0, 0.01, 0.02, 0.03, 0.04])


def test_open_loop_reports_a_late_generator_and_charges_its_requests():
    clock = FakeClock()

    def slow_submit(request):
        clock.now += 0.025            # sending takes longer than 10 ms
        return answered(request)
    result = open_loop(slow_submit, [np.array([i]) for i in range(4)],
                       rate=100.0, clock=clock, sleep=clock.sleep)
    # request i is sent at 25i ms but was due at 10i ms
    assert result.lateness == pytest.approx([0.0, 0.015, 0.030, 0.045])
    assert result.latencies == pytest.approx([0.025, 0.040, 0.055, 0.070])


def test_open_loop_counts_refused_and_failed_requests():
    def submit(request):
        if request[0] == 1:
            raise RuntimeError("backpressure")
        future = Future()
        if request[0] == 2:
            future.set_exception(ValueError("bad"))
        else:
            future.set_result(request)
        return future
    result = open_loop(submit, [np.array([i]) for i in range(4)],
                       rate=1e6)
    assert result.failed == 2
    assert result.answers[1] is None and result.answers[2] is None
    assert len(result.latencies) == 2


def test_open_loop_times_out_unanswered_requests():
    result = open_loop(lambda request: Future(), [np.array([0])],
                       rate=1e6, timeout=0.01)
    assert result.failed == 1 and result.latencies == []


def test_closed_loop_keeps_the_requested_number_in_flight():
    queue: "Queue[tuple]" = Queue()
    in_flight, peak, lock = [0], [0], threading.Lock()

    def submit(request):
        future = Future()
        with lock:
            in_flight[0] += 1
            peak[0] = max(peak[0], in_flight[0])
        queue.put((future, request))
        return future

    def answer():
        while True:
            item = queue.get(timeout=10)
            if item is None:
                return
            future, request = item
            with lock:
                in_flight[0] -= 1
            future.set_result(request)
    worker = threading.Thread(target=answer)
    worker.start()
    try:
        result = closed_loop(submit, [np.array([i]) for i in range(50)],
                             outstanding=3)
    finally:
        queue.put(None)
        worker.join(timeout=10)
    assert not worker.is_alive()
    assert result.failed == 0 and peak[0] <= 3
    assert [int(a[0]) for a in result.answers] == list(range(50))
    with pytest.raises(ValueError):
        closed_loop(submit, [], outstanding=0)


# --------------------------------------------------------------------- #
# self time
# --------------------------------------------------------------------- #

def test_self_time_subtracts_nested_spans():
    clock = FakeClock()
    timer = LayerTimer(roots=("fit",), clock=clock)
    with timer.span("fit"):
        clock.sleep(1.0)
        with timer.span("loss"):
            clock.sleep(2.0)
            with timer.span("encode"):
                clock.sleep(3.0)
        with timer.span("backward"):
            clock.sleep(4.0)
    assert timer.total["fit"] == pytest.approx(10.0)
    assert timer.self_time["fit"] == pytest.approx(1.0)
    assert timer.total["loss"] == pytest.approx(5.0)
    assert timer.self_time["loss"] == pytest.approx(2.0)
    assert timer.self_time["encode"] == pytest.approx(3.0)
    assert timer.self_time["backward"] == pytest.approx(4.0)
    # the self times of a root's subtree add up to the root
    assert sum(timer.within["fit"].values()) == pytest.approx(
        timer.total["fit"])


def test_reentered_span_is_counted_once():
    clock = FakeClock()
    timer = LayerTimer(clock=clock)
    with timer.span("loss"):
        clock.sleep(1.0)
        with timer.span("loss"):           # a subclass calling super()
            clock.sleep(2.0)
    assert timer.calls["loss"] == 1
    assert timer.total["loss"] == timer.self_time["loss"] == 3.0


def test_spans_outside_a_root_are_not_tallied_under_it():
    clock = FakeClock()
    timer = LayerTimer(roots=("fit",), clock=clock)
    with timer.span("save"):
        clock.sleep(1.0)
    with timer.span("fit"):
        clock.sleep(2.0)
    assert dict(timer.within["fit"]) == {"fit": 2.0}
    assert timer.total["save"] == 1.0


def test_threads_keep_separate_span_stacks():
    timer = LayerTimer()
    barrier = threading.Barrier(2)

    def work():
        with timer.span("outer"):
            barrier.wait(timeout=10)
    threads = [threading.Thread(target=work) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
    assert not any(thread.is_alive() for thread in threads)
    # both calls counted, neither nested inside the other
    assert timer.calls["outer"] == 2
    assert timer.self_time["outer"] == pytest.approx(timer.total["outer"])


class Base:
    def step(self, x):
        return x + 1


class Child(Base):
    pass


def test_patch_times_a_method_and_restore_puts_it_back():
    timer = LayerTimer()
    seen = []
    timer.patch(Base, "step", "optim.step",
                observe=lambda start, end, args, result: seen.append(result))
    timer.patch(Child, "step", "child.step")          # inherited attribute
    assert Child().step(1) == 2 and Base().step(2) == 3
    assert timer.calls["optim.step"] == 2 and timer.calls["child.step"] == 1
    assert seen == [2, 3]
    timer.restore()
    assert "step" not in vars(Child)
    assert Base.step.__name__ == "step" and not hasattr(Base.step,
                                                        "__wrapped__")
    assert timer.calls["optim.step"] == 2    # restored: no longer timed
    Base().step(0)
    assert timer.calls["optim.step"] == 2


# --------------------------------------------------------------------- #
# host stamp
# --------------------------------------------------------------------- #

def test_host_stamp_names_cores_cpu_and_versions():
    stamp = host_stamp()
    assert set(stamp) >= {"nproc", "cpu_model", "python", "numpy", "scipy",
                          "blas"}
    assert stamp["nproc"] >= 1
    assert stamp["numpy"] == np.__version__
    assert stamp["blas"] and stamp["cpu_model"]


def test_cpu_model_and_blas_parsing():
    text = "processor\t: 0\nmodel name\t: Example CPU @ 2.0GHz\nflags: x\n"
    assert cpu_model(text) == "Example CPU @ 2.0GHz"
    assert cpu_model("processor : 0\n")          # falls back, never empty
    config = {"Build Dependencies": {"blas": {"name": "openblas",
                                              "version": "0.3.1"}}}
    assert blas_from_config(config) == "openblas 0.3.1"
    assert blas_from_config({}) == "unknown"

