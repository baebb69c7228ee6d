"""Span recorder, sinks and tree reconstruction."""

import json

import pytest

from repro.obs.spans import (
    JsonlSpanSink,
    MemorySpanSink,
    Span,
    SpanRecorder,
    SpanTree,
)


class FakeSim:
    def __init__(self):
        self.now = 0.0


class TestMemorySpanSink:
    def _sink(self):
        sink = MemorySpanSink()
        rec = SpanRecorder(sink)
        rec.begin_query(1)
        rec.event(1, "send", node=4)
        rec.event(2, "send", node=5)
        rec.event(1, "result", node=4)
        rec.finish_query(1)
        return sink

    def test_filters(self):
        sink = self._sink()
        assert {s.kind for s in sink.for_query(1)} == {"send", "result", "query"}
        assert len(sink.by_kind("send")) == 2
        assert sink.qids() == {1, 2}
        assert len(sink) == 4  # qid-2 root never finished nor flushed


class TestSpanRecorder:
    def test_parenting_via_stack_and_query_root(self):
        sink = MemorySpanSink()
        rec = SpanRecorder(sink)
        root = rec.begin_query(7)
        assert rec.begin_query(7) is root  # idempotent
        # no stack: parent defaults to the query root
        sid_a = rec.event(7, "send")
        assert sink.records[-1].parent == root.sid
        # with a pushed context the stack top wins
        rec.push(sid_a)
        try:
            rec.event(7, "route")
        finally:
            rec.pop()
        assert sink.records[-1].parent == sid_a
        assert rec.context(7) == root.sid
        rec.finish_query(7, status="complete")
        assert sink.records[-1].kind == "query"
        assert sink.records[-1].status == "complete"

    def test_timestamps_follow_bound_sim(self):
        sim = FakeSim()
        rec = SpanRecorder(MemorySpanSink())
        rec.bind(sim)
        sim.now = 4.5
        sid = rec.event(1, "send")
        span = rec.sinks[0].records[-1]
        assert span.sid == sid and span.start == 4.5 and span.end == 4.5

    def test_flush_open_emits_unfinished_spans(self):
        sink = MemorySpanSink()
        rec = SpanRecorder(sink)
        rec.begin_query(3)
        interval = rec.begin(3, "resolve")
        rec.close()  # flushes both open spans
        flushed = {s.kind: s for s in sink.records}
        assert flushed["query"].end is None
        assert flushed["resolve"].end is None
        # finishing after a flush is a no-op, not a duplicate emit
        rec.finish(interval)
        assert len(sink.records) == 2


class TestJsonlSpanSink:
    def test_writes_complete_file_even_on_error(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        with pytest.raises(RuntimeError):
            with JsonlSpanSink(path) as sink:
                sink.record(Span(sid=0, qid=1, kind="send"))
                raise RuntimeError("boom")
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["kind"] == "send"

    def test_close_idempotent_and_filelike_left_open(self, tmp_path):
        path = tmp_path / "s.jsonl"
        with open(path, "w") as fh:
            sink = JsonlSpanSink(fh)
            sink.record(Span(sid=0, qid=1, kind="x"))
            sink.close()
            sink.close()
            assert not fh.closed  # caller owns file-like targets


class TestSpanTree:
    def _records(self):
        return [
            {"sid": 0, "qid": 1, "kind": "query", "start": 0.0, "end": 2.0},
            {"sid": 1, "qid": 1, "kind": "send", "parent": 0, "start": 0.1,
             "end": 0.1, "node": 9, "attrs": {"msg_kind": "query:routing", "size": 40}},
            {"sid": 2, "qid": 1, "kind": "result", "parent": 1, "start": 1.0,
             "end": 1.0, "attrs": {"results": 3}},
            {"sid": 5, "qid": 2, "kind": "query", "start": 0.0, "end": 1.0},
        ]

    def test_from_records_filters_by_qid(self):
        tree = SpanTree.from_records(self._records(), qid=1)
        assert len(tree) == 3
        assert [r.sid for r in tree.roots()] == [0]
        assert [s.sid for s in tree.leaves()] == [2]
        assert len(tree.of_kind("send")) == 1

    def test_duplicate_sids_later_wins(self):
        recs = self._records() + [
            {"sid": 0, "qid": 1, "kind": "query", "start": 0.0, "end": 3.0,
             "status": "complete"},
        ]
        tree = SpanTree.from_records(recs, qid=1)
        assert len(tree) == 3
        assert tree.by_sid[0].status == "complete"

    def test_render_shows_tree_structure(self):
        tree = SpanTree.from_records(self._records(), qid=1)
        out = tree.render()
        assert "query" in out and "query:routing" in out and "3 results" in out
        assert "`--" in out  # ascii branches
        assert "40B" in out

    def test_render_truncates(self):
        tree = SpanTree.from_records(self._records(), qid=1)
        out = tree.render(max_spans=1)
        assert "more span(s)" in out

    def test_from_jsonl(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with open(path, "w") as fh:
            for r in self._records():
                fh.write(json.dumps(r) + "\n")
        tree = SpanTree.from_jsonl(path, qid=2)
        assert len(tree) == 1
