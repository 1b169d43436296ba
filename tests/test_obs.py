"""Unit tests for the repro.obs tracing/metrics subsystem."""

from __future__ import annotations

import json

import pytest

from repro.digest import fingerprint
from repro.errors import DataError, ObsError
from repro.obs import (
    Tracer,
    build_manifest,
    count,
    current_tracer,
    event,
    gauge_set,
    manifest_from_dict,
    manifest_path_for,
    read_manifest,
    read_trace,
    span,
    span_tree,
    summarize,
    top_spans,
    tracing,
    write_manifest,
)


class FakeClock:
    """Deterministic clock: each read advances by ``step`` seconds."""

    def __init__(self, step=1.0):
        self.now = 0.0
        self.step = step

    def __call__(self):
        value = self.now
        self.now += self.step
        return value


class TestSpans:
    def test_nesting_links_parent_ids(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        by_name = {s.name: s for s in tracer.spans}
        assert by_name["outer"].parent_id is None
        assert by_name["inner"].parent_id == by_name["outer"].span_id
        # Spans are recorded on close, so the inner span closes first.
        assert [s.name for s in tracer.spans] == ["inner", "outer"]

    def test_sibling_spans_share_a_parent(self):
        tracer = Tracer()
        with tracer.span("root"):
            with tracer.span("a"):
                pass
            with tracer.span("b"):
                pass
        by_name = {s.name: s for s in tracer.spans}
        assert by_name["a"].parent_id == by_name["root"].span_id
        assert by_name["b"].parent_id == by_name["root"].span_id

    def test_timing_is_monotone_and_nonnegative(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                sum(range(1000))
        by_name = {s.name: s for s in tracer.spans}
        for record in tracer.spans:
            assert record.wall >= 0.0
            assert record.cpu >= 0.0
            assert record.start >= 0.0
        # The child runs strictly inside the parent's window.
        assert by_name["inner"].start >= by_name["outer"].start
        assert by_name["inner"].wall <= by_name["outer"].wall

    def test_injected_clock_gives_exact_durations(self):
        tracer = Tracer(clock=FakeClock(step=1.0), cpu_clock=FakeClock(step=0.5))
        with tracer.span("timed"):
            pass
        (record,) = tracer.spans
        # Clock reads: epoch, start, stop -> wall = 1 step between reads... the
        # span reads the clock twice (open, close), each read advances 1s.
        assert record.wall == pytest.approx(1.0)
        assert record.cpu == pytest.approx(0.5)

    def test_annotate_and_error_attr(self):
        tracer = Tracer()
        with pytest.raises(DataError):
            with tracer.span("failing", stage=1) as handle:
                handle.annotate(extra="yes")
                raise DataError("boom")
        (record,) = tracer.spans
        assert record.attrs["stage"] == 1
        assert record.attrs["extra"] == "yes"
        assert record.attrs["error"] == "DataError"


class TestMetrics:
    def test_counter_totals_accumulate(self):
        tracer = Tracer()
        tracer.count("rows")
        tracer.count("rows", 41)
        tracer.gauge_set("final", 7)
        tracer.gauge_set("final", 3)
        assert tracer.metric_totals() == {"final": 3.0, "rows": 42.0}

    def test_events_attach_to_open_span(self):
        tracer = Tracer()
        with tracer.span("cell"):
            tracer.event("retry", attempt=1)
        (span_record,) = tracer.spans
        (event_record,) = tracer.events
        assert event_record.span_id == span_record.span_id
        assert event_record.attrs == {"attempt": 1}


class TestAmbientApi:
    def test_helpers_are_noops_without_tracer(self):
        assert current_tracer() is None
        with span("nothing") as handle:
            handle.annotate(ignored=True)
        count("nothing")
        gauge_set("nothing", 1.0)
        event("nothing")

    def test_helpers_hit_installed_tracer(self):
        tracer = Tracer()
        with tracing(tracer):
            assert current_tracer() is tracer
            with span("work", depth=1):
                count("units", 3)
                gauge_set("level", 2)
                event("tick")
        assert current_tracer() is None
        assert [s.name for s in tracer.spans] == ["work"]
        assert tracer.metric_totals() == {"level": 2.0, "units": 3.0}
        assert [e.name for e in tracer.events] == ["tick"]


class TestSerialisation:
    def make_tracer(self):
        tracer = Tracer(clock=FakeClock(), cpu_clock=FakeClock())
        with tracer.span("root", kind="test"):
            with tracer.span("leaf"):
                tracer.event("ping", n=1)
            tracer.count("widgets", 5)
            tracer.gauge_set("depth", 2)
        return tracer

    def test_jsonl_round_trip(self, tmp_path):
        tracer = self.make_tracer()
        path = tmp_path / "run.jsonl"
        tracer.write(path, manifest={"command": "test", "config_hash": "ff"})

        trace = read_trace(path)
        assert [s.name for s in trace.spans] == ["leaf", "root"]
        assert {s.span_id: s.parent_id for s in trace.spans} == {1: None, 2: 1}
        assert [e.name for e in trace.events] == ["ping"]
        assert trace.metrics == {"widgets": 5.0, "depth": 2.0}
        assert trace.manifest["command"] == "test"
        # Wall/cpu survive the round trip exactly (9-decimal rounding).
        by_name = {s.name: s for s in tracer.spans}
        for restored in trace.spans:
            assert restored.wall == pytest.approx(by_name[restored.name].wall)

    def test_every_line_is_valid_json_with_type(self, tmp_path):
        tracer = self.make_tracer()
        path = tmp_path / "run.jsonl"
        tracer.write(path)
        for line in path.read_text().splitlines():
            assert json.loads(line)["type"] in ("span", "event", "metric")

    def test_unserialisable_attr_raises_obs_error(self):
        tracer = Tracer()
        with tracer.span("bad", obj=object()):
            pass
        with pytest.raises(ObsError):
            tracer.to_jsonl()

    def test_malformed_trace_file_raises_obs_error(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "span"\n')
        with pytest.raises(ObsError):
            read_trace(path)


class TestSummary:
    def test_span_tree_renders_nesting_and_counts(self, tmp_path):
        tracer = Tracer(clock=FakeClock(), cpu_clock=FakeClock())
        with tracer.span("run"):
            for _ in range(3):
                with tracer.span("step"):
                    pass
        path = tmp_path / "run.jsonl"
        tracer.write(path)
        tree = span_tree(read_trace(path))
        assert "run" in tree
        # Same-named siblings aggregate into one line with a call count.
        assert "3x" in tree
        assert tree.index("run") < tree.index("step")

    def test_top_spans_orders_by_self_time(self, tmp_path):
        tracer = Tracer(clock=FakeClock(step=0.5), cpu_clock=FakeClock(step=0.1))
        with tracer.span("parent"):
            with tracer.span("child"):
                pass
        path = tmp_path / "run.jsonl"
        tracer.write(path)
        table = top_spans(read_trace(path), top=5)
        assert "parent" in table and "child" in table

    def test_summarize_includes_metrics_and_manifest(self, tmp_path):
        tracer = self.make_trace_file(tmp_path)
        text = summarize(read_trace(tracer))
        assert "span tree" in text
        assert "widgets" in text
        assert "config_hash=ff" in text

    def make_trace_file(self, tmp_path):
        tracer = Tracer(clock=FakeClock(), cpu_clock=FakeClock())
        with tracer.span("root"):
            tracer.count("widgets", 5)
        path = tmp_path / "run.jsonl"
        tracer.write(path, manifest={"command": "t", "config_hash": "ff"})
        return path


class TestManifest:
    def test_config_hash_is_order_insensitive(self):
        h1 = fingerprint({"a": 1, "b": 2})
        h2 = fingerprint({"b": 2, "a": 1})
        assert h1 == h2
        assert len(h1) == 16
        assert fingerprint({"a": 1, "b": 3}) != h1

    def test_build_and_round_trip(self, tmp_path):
        tracer = Tracer()
        with tracer.span("work"):
            tracer.count("rows", 10)
        manifest = build_manifest(
            command="identify", params={"tau_c": 0.1}, seed=3, tracer=tracer
        )
        assert manifest.command == "identify"
        assert manifest.seed == 3
        assert manifest.metrics == {"rows": 10.0}
        assert manifest.n_spans == 1
        assert "python" in manifest.versions

        path = manifest_path_for(tmp_path / "out.json")
        assert path.name == "out.json.manifest.json"
        write_manifest(manifest, path)
        restored = read_manifest(path)
        assert restored == manifest
        assert manifest_from_dict(manifest.to_dict()) == manifest
