"""Timing arithmetic: percentiles with their sample support, and layer
self time.

Nothing here imports the program under test, so the helpers are tested
on their own (``test_helpers.py``).
"""

from __future__ import annotations

import math
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, List, Optional, Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100), linearly interpolated.

    Same definition as ``numpy.percentile``'s default, so numbers read
    the same whichever one computed them.
    """
    data = sorted(values)
    if not data:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q}")
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def beyond(values: Sequence[float], threshold: float) -> int:
    """How many samples lie strictly above ``threshold``."""
    return sum(1 for v in values if v > threshold)


def latency_summary(values: Sequence[float]) -> Dict[str, float]:
    """``{"count", "p50", "p50_beyond", "p99", "p99_beyond"}``.

    ``pNN_beyond`` is the number of samples above that percentile: a
    tail percentile is supported by the sample only when at least ten
    samples lie beyond it.
    """
    p50, p99 = percentile(values, 50), percentile(values, 99)
    return {"count": len(values),
            "p50": p50, "p50_beyond": beyond(values, p50),
            "p99": p99, "p99_beyond": beyond(values, p99)}


def median(values: Sequence[float]) -> float:
    return percentile(values, 50)


# --------------------------------------------------------------------- #
# layer self time
# --------------------------------------------------------------------- #

class _Frame:
    __slots__ = ("name", "start", "child")

    def __init__(self, name: str, start: float):
        self.name = name
        self.start = start
        self.child = 0.0


class LayerTimer:
    """Times named spans and splits each into self time and child time.

    A span's *self time* is its duration minus the durations of the
    spans opened directly inside it on the same thread, so the self
    times of a span and of all its descendants add up to the span's
    duration.  A span re-entered while already open on the thread (a
    model's ``loss`` calling its parent class's ``loss``) is not opened
    again, so it is counted once.

    ``roots`` names spans whose subtree is tallied separately in
    :attr:`within`: ``within[root][name]`` is the self time ``name``
    spent inside ``root``, and ``sum(within[root].values())`` equals
    ``total[root]``.
    """

    def __init__(self, roots: Iterable[str] = (),
                 clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self._roots = frozenset(roots)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[tuple] = []
        self.total: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.within: Dict[str, Dict[str, float]] = defaultdict(
            lambda: defaultdict(float))

    def _stack(self) -> List[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        """Time the enclosed block as one call of ``name``."""
        stack = self._stack()
        if any(frame.name == name for frame in stack):
            yield
            return
        frame = _Frame(name, self._clock())
        stack.append(frame)
        try:
            yield
        finally:
            end = self._clock()
            stack.pop()
            duration = end - frame.start
            own = duration - frame.child
            if stack:
                stack[-1].child += duration
            roots = {f.name for f in stack if f.name in self._roots}
            if name in self._roots:
                roots.add(name)
            with self._lock:
                self.total[name] += duration
                self.self_time[name] += own
                self.calls[name] += 1
                for root in roots:
                    self.within[root][name] += own

    def wrap(self, fn: Callable, name: str,
             observe: Optional[Callable] = None) -> Callable:
        """``fn`` timed as ``name``; ``observe(start, end, args, result)``
        runs after each call, outside the timed interval."""
        timer = self

        def timed(*args, **kwargs):
            start = timer._clock()
            with timer.span(name):
                result = fn(*args, **kwargs)
            if observe is not None:
                observe(start, timer._clock(), args, result)
            return result

        timed.__wrapped__ = fn
        timed.__name__ = getattr(fn, "__name__", name)
        return timed

    def patch(self, owner, attr: str, name: str,
              observe: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` by its timed wrapper until :meth:`restore`."""
        own = attr in vars(owner)
        original = vars(owner)[attr] if own else getattr(owner, attr)
        if isinstance(original, (staticmethod, classmethod)):
            raise TypeError(f"cannot time {attr}: wrap the function instead")
        self._patches.append((owner, attr, original if own else None))
        setattr(owner, attr, self.wrap(original, name, observe))

    def restore(self) -> None:
        """Put back every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is None:        # was inherited: uncover it again
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
