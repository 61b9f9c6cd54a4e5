"""Unit tests for repro.obs tracing: spans, ring buffer, Chrome export."""

import json
import threading

import pytest

from repro import obs


@pytest.fixture(autouse=True)
def _clean_tracing():
    obs.enable_tracing(False)
    obs.reset_tracing(capacity=obs.DEFAULT_TRACE_CAPACITY)
    yield
    obs.enable_tracing(False)
    obs.reset_tracing(capacity=obs.DEFAULT_TRACE_CAPACITY)


class TestDisabledFastPath:
    def test_span_returns_shared_noop_singleton(self):
        assert obs.span("a") is obs.span("b", attr=1)

    def test_noop_span_supports_protocols(self):
        noop = obs.span("whatever")
        with noop as inner:
            assert inner is noop
            inner.set(key="value")

    def test_no_events_recorded_when_disabled(self):
        with obs.span("quiet"):
            pass
        obs.counter_event("c", value=1)
        obs.instant_event("i")
        obs.set_process_label("nope")
        assert obs.snapshot_events() == []

    def test_traced_decorator_passthrough_when_disabled(self):
        @obs.traced("work")
        def add(a, b):
            return a + b

        assert add(2, 3) == 5
        assert obs.snapshot_events() == []


class TestEnabledSpans:
    def test_complete_event_fields(self):
        obs.enable_tracing(True)
        with obs.span("train.epoch", epoch=3):
            pass
        (event,) = obs.snapshot_events()
        assert event["name"] == "train.epoch"
        assert event["ph"] == "X"
        assert event["pid"] > 0
        assert event["tid"] == threading.get_ident()
        assert event["dur"] >= 0
        assert isinstance(event["ts"], float)
        assert event["args"]["epoch"] == 3
        assert event["args"]["span_id"] > 0
        assert event["args"]["parent_id"] == 0

    def test_parent_links_nested_spans(self):
        obs.enable_tracing(True)
        with obs.span("outer") as outer:
            with obs.span("inner"):
                pass
        inner_event, outer_event = obs.snapshot_events()
        assert inner_event["name"] == "inner"
        assert inner_event["args"]["parent_id"] == outer.span_id
        assert outer_event["args"]["parent_id"] == 0

    def test_sibling_spans_share_parent(self):
        obs.enable_tracing(True)
        with obs.span("root") as root:
            with obs.span("a"):
                pass
            with obs.span("b"):
                pass
        events = {e["name"]: e for e in obs.snapshot_events()}
        assert events["a"]["args"]["parent_id"] == root.span_id
        assert events["b"]["args"]["parent_id"] == root.span_id

    def test_span_set_updates_attrs(self):
        obs.enable_tracing(True)
        with obs.span("work") as live:
            live.set(items=7)
        (event,) = obs.snapshot_events()
        assert event["args"]["items"] == 7

    def test_span_records_exception_type(self):
        obs.enable_tracing(True)
        with pytest.raises(ValueError):
            with obs.span("broken"):
                raise ValueError("boom")
        (event,) = obs.snapshot_events()
        assert event["args"]["error"] == "ValueError"

    def test_traced_decorator_lazy_enablement(self):
        @obs.traced("late.work", stage="x")
        def work():
            return 42

        assert work() == 42
        assert obs.snapshot_events() == []
        obs.enable_tracing(True)
        assert work() == 42
        (event,) = obs.snapshot_events()
        assert event["name"] == "late.work"
        assert event["args"]["stage"] == "x"

    def test_traced_default_name_is_qualname(self):
        obs.enable_tracing(True)

        @obs.traced()
        def named_thing():
            return None

        named_thing()
        (event,) = obs.snapshot_events()
        assert "named_thing" in event["name"]

    def test_thread_spans_carry_own_tid_and_stack(self):
        obs.enable_tracing(True)
        seen = {}

        def worker():
            with obs.span("thread.work"):
                pass
            seen["tid"] = threading.get_ident()

        with obs.span("main.work"):
            t = threading.Thread(target=worker)
            t.start()
            t.join()
        events = {e["name"]: e for e in obs.snapshot_events()}
        assert events["thread.work"]["tid"] == seen["tid"]
        # thread-local stacks: the thread's span has no parent
        assert events["thread.work"]["args"]["parent_id"] == 0


class TestCounterAndInstantEvents:
    def test_counter_event_shape(self):
        obs.enable_tracing(True)
        obs.counter_event("autograd.spmm", seconds=1.5, calls=3)
        (event,) = obs.snapshot_events()
        assert event["ph"] == "C"
        assert event["args"] == {"seconds": 1.5, "calls": 3.0}

    def test_instant_event_shape(self):
        obs.enable_tracing(True)
        obs.instant_event("refresh", epoch=2)
        (event,) = obs.snapshot_events()
        assert event["ph"] == "i"
        assert event["s"] == "p"
        assert event["args"]["epoch"] == 2

    def test_process_label_metadata(self):
        obs.enable_tracing(True)
        obs.set_process_label("train-worker-0")
        (event,) = obs.snapshot_events()
        assert event["ph"] == "M"
        assert event["name"] == "process_name"
        assert event["args"]["name"] == "train-worker-0"


class TestRingBuffer:
    def test_overwrites_oldest_and_counts_drops(self):
        obs.reset_tracing(capacity=4)
        obs.enable_tracing(True)
        for i in range(7):
            obs.instant_event(f"e{i}")
        names = [e["name"] for e in obs.snapshot_events()]
        assert names == ["e3", "e4", "e5", "e6"]
        assert obs.dropped_event_count() == 3

    def test_reset_clears_buffer_and_drop_count(self):
        obs.reset_tracing(capacity=2)
        obs.enable_tracing(True)
        for i in range(5):
            obs.instant_event(f"e{i}")
        obs.reset_tracing()
        assert obs.snapshot_events() == []
        assert obs.dropped_event_count() == 0

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            obs.reset_tracing(capacity=0)

    def test_events_since_slices_by_sequence(self):
        obs.enable_tracing(True)
        obs.instant_event("before")
        mark = obs.current_seq()
        obs.instant_event("after1")
        obs.instant_event("after2")
        names = [e["name"] for e in obs.events_since(mark)]
        assert names == ["after1", "after2"]

    def test_absorb_merges_foreign_events(self):
        foreign = [
            {"name": "w", "ph": "X", "ts": 1.0, "dur": 2.0, "pid": 999, "tid": 1},
            {"name": "bad"},  # missing ph -> skipped
            "not a dict",
        ]
        assert obs.absorb_events(foreign) == 1
        (event,) = obs.snapshot_events()
        assert event["pid"] == 999

    def test_absorb_works_while_disabled(self):
        assert not obs.tracing_enabled()
        assert obs.absorb_events([{"name": "w", "ph": "i", "ts": 0, "pid": 1}]) == 1


class TestScopes:
    def test_trace_scope_enables_and_restores(self):
        assert not obs.tracing_enabled()
        with obs.trace_scope(True):
            assert obs.tracing_enabled()
        assert not obs.tracing_enabled()

    def test_trace_scope_falsy_leaves_state_alone(self):
        obs.enable_tracing(True)
        with obs.trace_scope(False):
            assert obs.tracing_enabled()
        assert obs.tracing_enabled()

    def test_nested_scopes_restore_outer(self):
        with obs.trace_scope(True):
            with obs.trace_scope(True):
                assert obs.tracing_enabled()
            assert obs.tracing_enabled()
        assert not obs.tracing_enabled()

    def test_enable_returns_previous_state(self):
        assert obs.enable_tracing(True) is False
        assert obs.enable_tracing(False) is True


class TestChromeExport:
    def test_payload_shape_and_validation(self, tmp_path):
        obs.enable_tracing(True)
        with obs.span("a"):
            obs.counter_event("c", v=1)
        path = obs.export_trace(str(tmp_path / "trace.json"))
        payload = json.loads(open(path).read())
        assert payload["displayTimeUnit"] == "ms"
        assert payload["otherData"]["schema"] == obs.TRACE_SCHEMA
        assert obs.validate_chrome_trace(payload) == []

    def test_export_synthesizes_process_names(self):
        obs.absorb_events(
            [{"name": "w", "ph": "X", "ts": 5.0, "dur": 1.0, "pid": 4242, "tid": 7}]
        )
        payload = obs.chrome_trace()
        metadata = [e for e in payload["traceEvents"] if e["ph"] == "M"]
        assert any(e["pid"] == 4242 for e in metadata)

    def test_export_respects_explicit_labels(self):
        obs.enable_tracing(True)
        obs.set_process_label("the-main")
        with obs.span("a"):
            pass
        payload = obs.chrome_trace()
        labels = [
            e["args"]["name"]
            for e in payload["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        ]
        assert labels == ["the-main"]

    def test_metadata_sorts_first_then_by_ts(self):
        obs.absorb_events(
            [
                {"name": "late", "ph": "i", "ts": 100.0, "pid": 1, "tid": 0, "s": "p"},
                {"name": "early", "ph": "i", "ts": 1.0, "pid": 1, "tid": 0, "s": "p"},
            ]
        )
        payload = obs.chrome_trace()
        phases = [e["ph"] for e in payload["traceEvents"]]
        assert phases[0] == "M"
        names = [e["name"] for e in payload["traceEvents"] if e["ph"] == "i"]
        assert names == ["early", "late"]

    def test_validator_flags_problems(self):
        assert obs.validate_chrome_trace([]) != []
        assert obs.validate_chrome_trace({}) != []
        bad = {"traceEvents": [{"ph": "X", "pid": 1, "ts": 0.0}]}
        problems = obs.validate_chrome_trace(bad)
        assert any("missing 'name'" in p for p in problems)
        assert any("without numeric 'dur'" in p for p in problems)
        no_ts = {"traceEvents": [{"name": "a", "ph": "i", "pid": 1}]}
        assert any("non-numeric 'ts'" in p for p in obs.validate_chrome_trace(no_ts))

    def test_chrome_trace_accepts_explicit_event_list(self):
        events = [{"name": "w", "ph": "i", "ts": 0.0, "pid": 9, "tid": 0, "s": "p"}]
        payload = obs.chrome_trace(events)
        assert any(e["name"] == "w" for e in payload["traceEvents"])
        # the buffer itself stays untouched
        assert obs.snapshot_events() == []
