"""Structured tracing: spans, counter events, and Chrome-trace export.

This module is the tracing half of :mod:`repro.obs`.  It records
wall-time **spans** (named intervals with parent links and free-form
attributes) into a fixed-capacity per-process ring buffer and exports
them in the Chrome trace event format understood by ``chrome://tracing``
and `Perfetto <https://ui.perfetto.dev>`_.

Design constraints, in order:

1. **Zero cost when disabled.**  Tracing is off by default.  A disabled
   ``span(...)`` call is one module-global check plus returning a shared
   no-op singleton -- no allocation, no locking, no timestamps.  The
   hot-path benchmark asserts this stays unmeasurable.
2. **Cross-process mergeable.**  Every event carries ``pid``/``tid`` and
   a timestamp anchored to the shared wall clock (``time.time``), so
   events recorded in spawn workers (process-parallel sweep cells) can
   be shipped back as plain dicts and absorbed into the parent's buffer
   with :func:`absorb_events`.
3. **Bounded memory.**  The buffer is a ring: once ``capacity`` events
   are held, the oldest are overwritten and counted in
   :func:`dropped_event_count`.

The public surface is re-exported by :mod:`repro.obs`; see
``docs/OBSERVABILITY.md`` for the artifact schema and a usage tour.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional

__all__ = [
    "TRACE_SCHEMA",
    "DEFAULT_TRACE_CAPACITY",
    "span",
    "traced",
    "counter_event",
    "instant_event",
    "set_process_label",
    "enable_tracing",
    "tracing_enabled",
    "trace_scope",
    "reset_tracing",
    "current_seq",
    "events_since",
    "snapshot_events",
    "absorb_events",
    "dropped_event_count",
    "chrome_trace",
    "export_trace",
    "validate_chrome_trace",
]

TRACE_SCHEMA = "chrome-trace/v1"
"""Schema tag stamped into exported ``trace.json`` payloads."""

DEFAULT_TRACE_CAPACITY = 65536
"""Default ring-buffer capacity (events per process)."""

_enabled = False
_lock = threading.RLock()
_capacity = DEFAULT_TRACE_CAPACITY
_ring: List[Any] = []  # entries are (seq, event) tuples
_next_slot = 0  # overwrite cursor, meaningful once the ring is full
_seq_counter = itertools.count(1)
_last_seq = 0
_dropped = 0

_span_ids = itertools.count(1)
_tls = threading.local()

# Anchor perf_counter to the wall clock once per process so timestamps
# from different processes land on one comparable timeline.
_ANCHOR = time.time() - time.perf_counter()


def _now_us() -> float:
    """Wall-clock-anchored timestamp in microseconds."""
    return (_ANCHOR + time.perf_counter()) * 1e6


def _append_event(event: Dict[str, Any]) -> None:
    global _next_slot, _dropped, _last_seq
    with _lock:
        seq = next(_seq_counter)
        _last_seq = seq
        if len(_ring) < _capacity:
            _ring.append((seq, event))
        else:
            _ring[_next_slot] = (seq, event)
            _next_slot = (_next_slot + 1) % _capacity
            _dropped += 1


def _ordered_entries() -> List[Any]:
    # insertion order: the ring is contiguous until full, then wraps
    if len(_ring) < _capacity or _next_slot == 0:
        return list(_ring)
    return _ring[_next_slot:] + _ring[:_next_slot]


class _NoopSpan:
    """Shared do-nothing span returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc: Any) -> bool:
        return False

    def set(self, **attrs: Any) -> "_NoopSpan":
        """Ignore attribute updates on the disabled fast path."""
        return self


_NOOP_SPAN = _NoopSpan()


class _Span:
    """A live span: records one complete ("X") trace event on exit."""

    __slots__ = ("name", "attrs", "span_id", "_t0", "_pushed")

    def __init__(self, name: str, attrs: Dict[str, Any]):
        self.name = name
        self.attrs = attrs
        self.span_id = next(_span_ids)
        self._t0 = 0.0
        self._pushed = False

    def set(self, **attrs: Any) -> "_Span":
        """Attach or update attributes while the span is open."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "_Span":
        stack = getattr(_tls, "stack", None)
        if stack is None:
            stack = _tls.stack = []
        stack.append(self.span_id)
        self._pushed = True
        self._t0 = _now_us()
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        t1 = _now_us()
        stack = _tls.stack
        if self._pushed:
            stack.pop()
            self._pushed = False
        args = dict(self.attrs)
        args["span_id"] = self.span_id
        args["parent_id"] = stack[-1] if stack else 0
        if exc_type is not None:
            args["error"] = exc_type.__name__
        _append_event(
            {
                "name": self.name,
                "cat": "repro",
                "ph": "X",
                "ts": self._t0,
                "dur": t1 - self._t0,
                "pid": os.getpid(),
                "tid": threading.get_ident(),
                "args": args,
            }
        )
        return False


def span(name: str, **attrs: Any):
    """Open a traced span: ``with span("train.epoch", epoch=3): ...``.

    Returns a shared no-op singleton when tracing is disabled, so the
    call costs one global check on the hot path.  When enabled, the
    span records a Chrome ``"X"`` (complete) event on exit, carrying
    ``pid``/``tid``, the given attributes, and a ``parent_id`` link to
    the enclosing span on the same thread.
    """
    if not _enabled:
        return _NOOP_SPAN
    return _Span(name, attrs)


def traced(name: Optional[str] = None, **attrs: Any) -> Callable:
    """Decorator form of :func:`span`, evaluated lazily per call.

    ``@traced("stage.load")`` wraps the function so each invocation runs
    under a span *iff tracing is enabled at call time* -- decorating at
    import time (when tracing is always off) still traces later runs.
    When ``name`` is omitted the function's qualified name is used.
    """

    def decorate(func: Callable) -> Callable:
        label = name or func.__qualname__

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not _enabled:
                return func(*args, **kwargs)
            with span(label, **attrs):
                return func(*args, **kwargs)

        return wrapper

    return decorate


def counter_event(name: str, **values: float) -> None:
    """Record a Chrome ``"C"`` counter sample (one series per kwarg).

    Used to re-expose cumulative gauges over time -- e.g. the autograd
    per-primitive profiler's seconds -- as plottable counter tracks.
    No-op while tracing is disabled.
    """
    if not _enabled:
        return
    _append_event(
        {
            "name": name,
            "cat": "repro",
            "ph": "C",
            "ts": _now_us(),
            "pid": os.getpid(),
            "tid": 0,
            "args": {key: float(value) for key, value in values.items()},
        }
    )


def instant_event(name: str, **attrs: Any) -> None:
    """Record a Chrome ``"i"`` instant event (a point-in-time marker)."""
    if not _enabled:
        return
    _append_event(
        {
            "name": name,
            "cat": "repro",
            "ph": "i",
            "s": "p",
            "ts": _now_us(),
            "pid": os.getpid(),
            "tid": threading.get_ident(),
            "args": dict(attrs),
        }
    )


def set_process_label(label: str) -> None:
    """Name this process in the trace viewer (an ``"M"`` metadata event).

    Workers call this right after enabling tracing so merged traces read
    ``dispatch-worker w1`` instead of bare pids.  No-op
    while tracing is disabled.
    """
    if not _enabled:
        return
    _append_event(
        {
            "name": "process_name",
            "ph": "M",
            "ts": 0,
            "pid": os.getpid(),
            "tid": 0,
            "args": {"name": str(label)},
        }
    )


def enable_tracing(enabled: bool = True) -> bool:
    """Turn tracing on/off process-wide; returns the previous state."""
    global _enabled
    with _lock:
        previous = _enabled
        _enabled = bool(enabled)
    return previous


def tracing_enabled() -> bool:
    """True when spans are currently being recorded in this process."""
    return _enabled


class _TraceScope:
    """Context manager that enables tracing and restores the prior state.

    When constructed with a falsy ``enabled`` it leaves the global state
    completely untouched (so a caller's already-enabled tracing is never
    force-disabled by a nested component whose config says ``False``).
    """

    __slots__ = ("_enable", "_previous")

    def __init__(self, enable: bool):
        self._enable = bool(enable)
        self._previous = False

    def __enter__(self) -> "_TraceScope":
        if self._enable:
            self._previous = enable_tracing(True)
        return self

    def __exit__(self, *exc: Any) -> bool:
        if self._enable:
            enable_tracing(self._previous)
        return False


def trace_scope(enabled: bool = True) -> _TraceScope:
    """Scoped :func:`enable_tracing`: ``with trace_scope(cfg.trace): ...``.

    Falsy ``enabled`` is a pure no-op (it does **not** disable tracing a
    caller already turned on); truthy enables tracing for the scope and
    restores the previous state on exit.
    """
    return _TraceScope(enabled)


def reset_tracing(capacity: Optional[int] = None) -> None:
    """Clear the event buffer (and optionally resize it).

    Leaves the enabled/disabled state alone; used by tests and at the
    start of traced runs that want a buffer of their own.
    """
    global _ring, _next_slot, _dropped, _capacity
    with _lock:
        if capacity is not None:
            if capacity < 1:
                raise ValueError("trace capacity must be >= 1")
            _capacity = int(capacity)
        _ring = []
        _next_slot = 0
        _dropped = 0


def current_seq() -> int:
    """Monotonic sequence number of the most recently recorded event.

    Capture it before a unit of work, then slice that unit's events out
    with :func:`events_since` -- the mechanism run/sweep layers use to
    attribute events to a cell without draining unrelated ones.
    """
    with _lock:
        return _last_seq


def events_since(seq: int) -> List[Dict[str, Any]]:
    """Events recorded after sequence point ``seq``, oldest first."""
    with _lock:
        return [event for s, event in _ordered_entries() if s > seq]


def snapshot_events() -> List[Dict[str, Any]]:
    """Copy of all buffered events, oldest first."""
    with _lock:
        return [event for _, event in _ordered_entries()]


def absorb_events(events: Iterable[Dict[str, Any]]) -> int:
    """Merge events recorded in another process into this buffer.

    Accepts the plain dicts produced by :func:`events_since` /
    :func:`snapshot_events`; entries without the minimal ``name``/``ph``
    keys are skipped.  Returns the number of events absorbed.  Works
    whether or not tracing is currently enabled, so a parent can collect
    worker traces even after its own scope closed.
    """
    absorbed = 0
    for event in events:
        if not isinstance(event, dict):
            continue
        if "name" not in event or "ph" not in event:
            continue
        _append_event(event)
        absorbed += 1
    return absorbed


def dropped_event_count() -> int:
    """Events overwritten because the ring buffer was full."""
    with _lock:
        return _dropped


def _synthesize_metadata(events: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Add ``process_name`` metadata for pids that never labelled themselves."""
    labelled = {
        event.get("pid")
        for event in events
        if event.get("ph") == "M" and event.get("name") == "process_name"
    }
    synthesized = []
    for pid in sorted({event.get("pid") for event in events} - labelled):
        if pid is None:
            continue
        synthesized.append(
            {
                "name": "process_name",
                "ph": "M",
                "ts": 0,
                "pid": pid,
                "tid": 0,
                "args": {"name": f"repro pid {pid}"},
            }
        )
    return synthesized


def chrome_trace(
    events: Optional[List[Dict[str, Any]]] = None,
) -> Dict[str, Any]:
    """Build a Chrome trace payload (``{"traceEvents": [...]}``).

    Uses the current buffer when ``events`` is None.  Metadata events
    sort first, the rest by timestamp, so the export is deterministic
    for a given event set.
    """
    if events is None:
        events = snapshot_events()
    events = list(events) + _synthesize_metadata(list(events))
    events.sort(key=lambda e: (e.get("ph") != "M", e.get("ts", 0)))
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"schema": TRACE_SCHEMA, "dropped_events": dropped_event_count()},
    }


def export_trace(
    path: str, events: Optional[List[Dict[str, Any]]] = None
) -> str:
    """Write :func:`chrome_trace` as JSON to ``path``; returns ``path``."""
    payload = chrome_trace(events)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
        handle.write("\n")
    return path


def validate_chrome_trace(payload: Dict[str, Any]) -> List[str]:
    """Check a trace payload against the Chrome trace event schema.

    Returns a list of human-readable problems (empty when valid).  This
    is the validator behind the acceptance test and ``repro trace``; it
    enforces the subset of the format this module emits: a
    ``traceEvents`` list whose entries all carry ``name``/``ph``/``pid``,
    with ``ts`` (numeric) on non-metadata events and ``dur`` on ``"X"``
    events.
    """
    problems: List[str] = []
    if not isinstance(payload, dict):
        return ["payload is not a JSON object"]
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return ["missing or non-list 'traceEvents'"]
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        for key in ("name", "ph", "pid"):
            if key not in event:
                problems.append(f"{where}: missing '{key}'")
        phase = event.get("ph")
        if phase != "M":
            if not isinstance(event.get("ts"), (int, float)):
                problems.append(f"{where}: non-numeric 'ts'")
        if phase == "X" and not isinstance(event.get("dur"), (int, float)):
            problems.append(f"{where}: 'X' event without numeric 'dur'")
        if phase == "C" and not isinstance(event.get("args"), dict):
            problems.append(f"{where}: 'C' event without args mapping")
    return problems
