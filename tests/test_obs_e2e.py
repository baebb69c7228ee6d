"""End-to-end observability: a 50-query fault-injected run must yield
qid-correlated span trees whose leaf spans reconcile exactly with the
per-query message counters, and the CLI must render the recorded JSONL."""

import json

import pytest

from repro.cli import main as cli_main
from repro.eval.demo import run_demo
from repro.obs.spans import SpanTree


@pytest.fixture(scope="module")
def demo(tmp_path_factory):
    out = tmp_path_factory.mktemp("obsdemo")
    return run_demo(
        out, n_nodes=24, n_objects=800, n_queries=50, loss=0.05, seed=0)


class TestSpanStatConsistency:
    def test_every_query_has_a_span_tree(self, demo):
        obs, stats = demo["obs"], demo["stats"]
        assert len(stats) == 50
        qids = obs.span_memory.qids()
        assert qids == set(range(50))
        for qid in qids:
            tree = obs.span_tree(qid)
            roots = tree.roots()
            assert len(roots) == 1 and roots[0].kind == "query"
            assert all(s.qid == qid for s in tree.spans)

    def test_leaf_result_spans_match_query_stats(self, demo):
        """#result spans == QueryStats.result_messages, per query — the
        acceptance contract tying the trace stream to the cost counters."""
        obs, stats = demo["obs"], demo["stats"]
        for qid, qs in stats.queries.items():
            spans = obs.spans_for(qid)
            results = [s for s in spans if s.kind == "result"]
            assert len(results) == qs.result_messages, f"qid {qid}"

    def test_charged_send_spans_match_query_messages(self, demo):
        """Send spans flagged ``charged`` (size > 0, bytes recorded) are
        emitted per transmission attempt — exactly when the lifecycle
        engine bills a query message, retransmissions included."""
        obs, stats = demo["obs"], demo["stats"]
        for qid, qs in stats.queries.items():
            spans = obs.spans_for(qid)
            charged = [
                s for s in spans
                if s.kind == "send" and s.attrs.get("charged")
            ]
            assert len(charged) == qs.query_messages, f"qid {qid}"

    def test_faults_visible_in_spans_and_metrics(self, demo):
        """With 5% loss the run must show drops, and the drop spans must
        agree with the transport's drop counters."""
        obs = demo["obs"]
        drop_spans = obs.span_memory.by_kind("drop")
        assert drop_spans, "5% loss over 50 queries produced no drops?"
        dropped_total = sum(
            r["value"] for r in obs.metrics_snapshot()
            if r["name"] == "transport_dropped_total"
        )
        assert len(drop_spans) == dropped_total
        # retransmissions happened and were counted
        retrans = [r for r in obs.metrics_snapshot()
                   if r["name"] == "lifecycle_retransmissions_total"]
        assert retrans and retrans[0]["value"] > 0

    def test_all_queries_reached_terminal_state(self, demo):
        counts = demo["stats"].state_counts()
        assert sum(counts.values()) == 50
        assert set(counts) <= {"complete", "timed_out"}


class TestRecordedArtifacts:
    def test_jsonl_files_written_and_loadable(self, demo):
        paths = demo["paths"]
        tree = SpanTree.from_jsonl(paths["spans"], qid=0)
        assert len(tree) == len(demo["obs"].spans_for(0))
        with open(paths["metrics"]) as fh:
            names = {json.loads(line)["name"] for line in fh if line.strip()}
        assert "transport_sent_total" in names
        assert "routing_index_node_hops" in names
        assert "node_stored_entries" in names
        with open(paths["health"]) as fh:
            samples = [json.loads(line) for line in fh if line.strip()]
        assert samples and all("event_queue_depth" in s for s in samples)

    def test_cli_metrics_renders_recorded_jsonl(self, demo, capsys):
        rc = cli_main(["metrics", demo["paths"]["metrics"],
                       "--prefix", "transport_"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "transport_sent_total{proto=query}" in out

    def test_cli_trace_renders_recorded_jsonl(self, demo, capsys):
        rc = cli_main(["trace", "0", "--file", demo["paths"]["spans"]])
        out = capsys.readouterr().out
        assert rc == 0
        assert "query" in out and "|--" in out or "`--" in out
        # listing mode enumerates all 50 traced queries
        rc = cli_main(["trace", "--file", demo["paths"]["spans"]])
        out = capsys.readouterr().out
        assert rc == 0 and "50 traced queries" in out

    def test_cli_trace_missing_qid_fails_cleanly(self, demo, capsys):
        rc = cli_main(["trace", "9999", "--file", demo["paths"]["spans"]])
        assert rc == 1
        assert "no spans" in capsys.readouterr().out
