"""Request streams: Zipf-skewed users, an open loop and a closed loop.

The open loop sends request ``i`` at ``start + i / rate`` whatever the
service is doing, and times each request from that due time, so a stall
also counts against every request queued behind it.  It reports how late
the generator itself ran.  The closed loop keeps a fixed number of
requests outstanding and measures how fast they are answered.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import FIRST_COMPLETED, Future, wait
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np

#: classic Zipf: the user of popularity rank r is requested in
#: proportion to 1 / r
ZIPF_EXPONENT = 1.0


def zipf_requests(rng: np.random.Generator, num_users: int,
                  num_requests: int, request_users: int) -> List[np.ndarray]:
    """``num_requests`` arrays of ``request_users`` user ids.

    User popularity follows a bounded Zipf law (``ZIPF_EXPONENT``) over
    a random permutation of the ids, so the hot users are spread over
    the table rather than packed at its start.
    """
    ranks = np.arange(1, num_users + 1, dtype=np.float64)
    weights = ranks ** -ZIPF_EXPONENT
    cdf = np.cumsum(weights / weights.sum())
    cdf[-1] = 1.0
    draws = np.searchsorted(cdf, rng.random(num_requests * request_users),
                            side="right")
    users = rng.permutation(num_users)[draws].astype(np.int64)
    return list(users.reshape(num_requests, request_users))


def repeat_share(requests: Sequence[np.ndarray]) -> float:
    """Share of user ids in the stream already requested earlier in it."""
    seen = set()
    repeats = total = 0
    for request in requests:
        for user in request.tolist():
            total += 1
            if user in seen:
                repeats += 1
            else:
                seen.add(user)
    return repeats / total if total else 0.0


def due_times(start: float, count: int, rate: float) -> np.ndarray:
    """Send time of each request of a fixed-rate schedule."""
    if rate <= 0:
        raise ValueError(f"rate must be > 0, got {rate}")
    return start + np.arange(count, dtype=np.float64) / rate


@dataclass
class LoopResult:
    """What a load loop measured.  Times are in seconds."""

    latencies: List[float] = field(default_factory=list)
    lateness: List[float] = field(default_factory=list)
    #: due and answer clock readings of each answered request
    due: List[float] = field(default_factory=list)
    done: List[float] = field(default_factory=list)
    answers: List[object] = field(default_factory=list)
    failed: int = 0
    #: first send to last answer (closed loop)
    wall: float = 0.0


def open_loop(submit: Callable[[np.ndarray], Future],
              requests: Sequence[np.ndarray], rate: float,
              timeout: float = 60.0,
              clock: Callable[[], float] = time.perf_counter,
              sleep: Callable[[float], None] = time.sleep) -> LoopResult:
    """Send ``requests`` at ``rate`` per second; time each from its due time.

    A request refused at submit, answered with an exception, or not
    answered within ``timeout`` of the last send counts as failed and
    has no latency; its answer slot holds ``None``.
    """
    result = LoopResult()
    done_at: List[Optional[float]] = [None] * len(requests)
    futures: List[object] = [None] * len(requests)
    # wait() may return before a future's callbacks ran, so completion
    # is counted by the callbacks themselves
    stamped = threading.Condition()
    count = [0]

    def stamp(i):
        def record(_future):
            done_at[i] = clock()
            with stamped:
                count[0] += 1
                stamped.notify_all()
        return record

    start = clock()
    dues = due_times(start, len(requests), rate)
    for i, request in enumerate(requests):
        wait_for = dues[i] - clock()
        if wait_for > 0:
            sleep(wait_for)
        sent = clock()
        result.lateness.append(max(0.0, sent - dues[i]))
        try:
            future = submit(request)
        except Exception:                    # noqa: BLE001 — refused
            continue
        future.add_done_callback(stamp(i))
        futures[i] = future
    submitted = sum(f is not None for f in futures)
    with stamped:
        stamped.wait_for(lambda: count[0] >= submitted, timeout=timeout)
    for i, future in enumerate(futures):
        if done_at[i] is None or future.exception() is not None:
            result.failed += 1
            result.answers.append(None)
            continue
        result.answers.append(future.result())
        result.latencies.append(done_at[i] - dues[i])
        result.due.append(float(dues[i]))
        result.done.append(done_at[i])
    return result


def merge_results(results: Sequence[LoopResult]) -> LoopResult:
    """One open-loop result from consecutive segments, in order."""
    merged = LoopResult()
    for result in results:
        for name in ("latencies", "lateness", "due", "done", "answers"):
            getattr(merged, name).extend(getattr(result, name))
        merged.failed += result.failed
    return merged


def closed_loop(submit: Callable[[np.ndarray], Future],
                requests: Sequence[np.ndarray], outstanding: int,
                timeout: float = 60.0,
                clock: Callable[[], float] = time.perf_counter
                ) -> LoopResult:
    """Answer ``requests`` keeping ``outstanding`` of them in flight.

    ``wall`` is the time from the first send to the last answer.  A
    request refused, failed or unanswered within ``timeout`` of its
    wait counts as failed.
    """
    if outstanding < 1:
        raise ValueError("outstanding must be >= 1")
    result = LoopResult()
    answers: List[object] = [None] * len(requests)
    in_flight = {}
    next_index = 0
    start = clock()
    while next_index < len(requests) or in_flight:
        while next_index < len(requests) and len(in_flight) < outstanding:
            try:
                in_flight[submit(requests[next_index])] = next_index
            except Exception:                # noqa: BLE001 — refused
                result.failed += 1
            next_index += 1
        if not in_flight:
            continue
        done, _ = wait(list(in_flight), timeout=timeout,
                       return_when=FIRST_COMPLETED)
        if not done:
            result.failed += len(in_flight)
            in_flight.clear()
            break
        for future in done:
            index = in_flight.pop(future)
            if future.exception() is not None:
                result.failed += 1
            else:
                answers[index] = future.result()
    result.wall = clock() - start
    result.answers = answers
    return result
