"""Exporter tests: Chrome trace-event schema, tree rendering, and the
stats summary table."""

import json

from repro.obs import TraceRecorder
from repro.obs.export import (
    chrome_trace,
    render_stats,
    render_tree,
    span_aggregates,
    span_self_times,
    write_chrome_trace,
)

from .test_recorder import FakeClock


def sample_recorder():
    recorder = TraceRecorder(clock=FakeClock())
    with recorder.span("analyze"):
        with recorder.span("analyze.parse"):
            pass
        with recorder.span("analyze.symex", script="demo.sh"):
            with recorder.span("eval.SimpleCommand"):
                pass
            with recorder.span("eval.SimpleCommand"):
                pass
    recorder.count("symex.states_explored", 12)
    recorder.count("symex.truncations", 1)
    recorder.observe("rlang.dfa_states", 7)
    return recorder


class TestChromeTrace:
    def test_document_schema(self):
        doc = chrome_trace(sample_recorder())
        assert isinstance(doc["traceEvents"], list)
        assert doc["traceEvents"], "no events exported"
        for event in doc["traceEvents"]:
            assert event["ph"] in ("X", "C")
            assert isinstance(event["name"], str)
            assert isinstance(event["ts"], (int, float))
            assert "pid" in event
            if event["ph"] == "X":
                assert event["dur"] >= 0
                assert "tid" in event

    def test_span_and_counter_events_present(self):
        doc = chrome_trace(sample_recorder())
        names = {e["name"] for e in doc["traceEvents"]}
        assert {"analyze", "analyze.parse", "eval.SimpleCommand"} <= names
        counters = [e for e in doc["traceEvents"] if e["ph"] == "C"]
        by_name = {e["name"]: e["args"]["value"] for e in counters}
        assert by_name["symex.states_explored"] == 12
        assert by_name["symex.truncations"] == 1

    def test_timestamps_relative_to_origin(self):
        doc = chrome_trace(sample_recorder())
        complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert all(e["ts"] >= 0 for e in complete)

    def test_args_carry_span_attrs(self):
        doc = chrome_trace(sample_recorder())
        [symex] = [e for e in doc["traceEvents"] if e["name"] == "analyze.symex"]
        assert symex["args"] == {"script": "demo.sh"}

    def test_document_is_json_serialisable(self, tmp_path):
        recorder = sample_recorder()
        path = tmp_path / "trace.json"
        write_chrome_trace(recorder, str(path))
        loaded = json.loads(path.read_text())
        assert loaded["traceEvents"]
        assert loaded == chrome_trace(recorder)


class TestRenderTree:
    def test_nesting_shown(self):
        text = render_tree(sample_recorder())
        lines = text.splitlines()
        assert lines[0].startswith("analyze")
        parse_line = next(l for l in lines if "analyze.parse" in l)
        assert "─" in parse_line  # rendered as a child, not a root
        assert text.index("analyze.parse") < text.index("eval.SimpleCommand")

    def test_max_depth_caps_output(self):
        text = render_tree(sample_recorder(), max_depth=1)
        assert "eval.SimpleCommand" not in text
        assert "child span(s)" in text


class TestStats:
    def test_span_aggregates_group_by_name(self):
        totals = span_aggregates(sample_recorder())
        count, total_ns = totals["eval.SimpleCommand"]
        assert count == 2
        assert total_ns > 0

    def test_render_stats_sections(self):
        text = render_stats(sample_recorder())
        assert "counters" in text
        assert "histograms" in text
        assert "spans (wall time)" in text
        assert "symex.states_explored" in text
        assert "12" in text
        assert "rlang.dfa_states" in text

    def test_self_time_excludes_nested_spans(self):
        recorder = sample_recorder()
        own = span_self_times(recorder)
        totals = span_aggregates(recorder)
        # FakeClock ticks once per read: a leaf span lasts one tick
        assert own["eval.SimpleCommand"] == totals["eval.SimpleCommand"][1]
        assert own["analyze.symex"] < totals["analyze.symex"][1]
        [root] = recorder.roots
        assert sum(own.values()) == root.duration_ns

    def test_render_stats_orders_spans_by_self_time(self):
        text = render_stats(sample_recorder())
        spans = text.split("spans (wall time)\n", 1)[1].splitlines()
        own = span_self_times(sample_recorder())
        names = [line.split()[0] for line in spans]
        assert names == sorted(own, key=lambda n: (-own[n], n))
        assert all("self=" in line for line in spans)

    def test_empty_recorder(self):
        recorder = TraceRecorder(clock=FakeClock())
        assert render_stats(recorder) == "(no telemetry recorded)"
