"""Command-line interface: regenerate any of the paper's experiments.

Usage::

    python -m repro fig2 [--scale bench|paper] [--nodes N] [--objects N]
                          [--queries N] [--out results.txt]
    python -m repro fig3 ...
    python -m repro fig4 ...
    python -m repro fig5 ...
    python -m repro fig6 ...
    python -m repro table1
    python -m repro table2 [--corpus-scale F]
    python -m repro quickstart
    python -m repro obs-demo [--out-dir DIR] [--queries N] [--loss P]
    python -m repro metrics DIR/metrics.jsonl [--prefix transport_]
    python -m repro trace QID --file DIR/spans.jsonl
    python -m repro replay BUNDLE.json [--differential] [--timeline]
    python -m repro fuzz [--runs N] [--ops N] [--loss P] [--out-dir DIR]
    python -m repro scale-smoke [--out-dir DIR] [--obs-overhead 0.10] [--slo]
    python -m repro top --health DIR/health.jsonl [--metrics DIR/metrics.jsonl]
    python -m repro slo [--nodes N] [--queries N] [--json]
    python -m repro serve --metrics DIR/metrics.jsonl --health DIR/health.jsonl
    python -m repro flight BUNDLE.json [--rerun]
    python -m repro node --name node-0 --data-dir ./data/node-0 [--port P]
                          [--bootstrap IP:PORT]
    python -m repro cluster [--nodes N] [--entries N] [--queries N] [--json]

The figure commands print the same tables the benchmark suite saves under
``benchmarks/results/``; ``--scale paper`` runs the authors' full parameters
(slow in pure Python).
"""

from __future__ import annotations

import argparse
import sys

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Landmark-based P2P similarity-search index (IPPS 2007) — experiment runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_experiment(name: str, help_: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_)
        p.add_argument("--scale", choices=("bench", "paper"), default="bench")
        p.add_argument("--nodes", type=int, default=None, help="override overlay size")
        p.add_argument("--objects", type=int, default=None, help="override dataset size")
        p.add_argument("--queries", type=int, default=None, help="override query count")
        p.add_argument("--corpus-scale", type=float, default=None, help="TREC corpus fraction")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", type=str, default=None, help="also write the table to this file")
        return p

    add_experiment("fig2", "synthetic sweep, no load balancing")
    add_experiment("fig3", "synthetic sweep, with dynamic load balancing")
    add_experiment("fig4", "load distribution on nodes (synthetic, with LB)")
    add_experiment("fig5", "TREC-like sweep, greedy vs k-means (with LB)")
    add_experiment("fig6", "TREC-like load distribution (with LB)")

    t1 = sub.add_parser("table1", help="synthetic dataset parameters")
    t1.add_argument("--objects", type=int, default=10_000)
    t1.add_argument("--out", type=str, default=None)

    t2 = sub.add_parser("table2", help="document vector size distribution")
    t2.add_argument("--corpus-scale", type=float, default=0.05)
    t2.add_argument("--out", type=str, default=None)

    sub.add_parser("quickstart", help="run the quickstart example")
    check = sub.add_parser("check", help="run the installation self-check battery")
    check.add_argument("--seed", type=int, default=0)

    mtr = sub.add_parser("metrics", help="render a recorded metrics snapshot (JSONL)")
    mtr.add_argument("file", help="metrics JSONL written by export_metrics / obs-demo")
    mtr.add_argument("--prefix", default="", help="only metrics whose name starts with this")
    mtr.add_argument("--out", type=str, default=None)

    tr = sub.add_parser("trace", help="render one query's span tree from a trace JSONL")
    tr.add_argument("qid", type=int, nargs="?", default=None,
                    help="query id; omit to list the qids in the file")
    tr.add_argument("--file", required=True,
                    help="spans JSONL written by Observability(trace_path=...) / obs-demo")
    tr.add_argument("--max-spans", type=int, default=400)
    tr.add_argument("--out", type=str, default=None)

    rp = sub.add_parser(
        "replay",
        help="re-execute a recorded replay log / repro bundle and verify the "
             "run is bit-identical to the recording",
    )
    rp.add_argument("file", help="replay log written by record_run or the pytest plugin")
    rp.add_argument("--differential", action="store_true",
                    help="also diff every query against the linear-scan oracle")
    rp.add_argument("--timeline", action="store_true", help="print the op timeline")

    fz = sub.add_parser(
        "fuzz",
        help="run seeded differential scenarios against the linear-scan "
             "oracle, recording a replay log per failure",
    )
    fz.add_argument("--runs", type=int, default=10, help="number of seeded scenarios")
    fz.add_argument("--ops", type=int, default=20, help="operations per scenario")
    fz.add_argument("--seed", type=int, default=0, help="base scenario seed")
    fz.add_argument("--loss", type=float, default=0.0, help="message loss rate")
    fz.add_argument("--jitter", type=float, default=0.0, help="mean delay jitter (s)")
    fz.add_argument("--out-dir", default=".repro-bundles",
                    help="where failing scenarios are written as replay logs")

    lint = sub.add_parser(
        "lint",
        help="run the determinism/architecture/async-safety static analysis "
             "(AST rules DET1xx/ARCH2xx/ASY4xx/PRO5xx; see docs/static-analysis.md)",
    )
    lint.add_argument("paths", nargs="*", default=None,
                      help="files or directories to lint (default: src/)")
    lint.add_argument("--format", choices=("text", "json"), default="text")
    lint.add_argument("--layers", default=None,
                      help="layering contract (default: the packaged layers.toml)")
    lint.add_argument("--select", default=None,
                      help="comma-separated rule ids to run (default: all)")
    lint.add_argument("--fix", action="store_true",
                      help="apply mechanical fixes (seeding, facade import moves)")
    lint.add_argument("--list-rules", action="store_true",
                      help="print the rule catalogue and exit")

    smoke = sub.add_parser(
        "scale-smoke",
        help="build a 10k-node compact ring, route 10k queries with invariant "
             "checks and health sampling, and fail over the wall-clock budget "
             "(the CI observability-at-scale job)",
    )
    smoke.add_argument("--nodes", type=int, default=10_000)
    smoke.add_argument("--queries", type=int, default=10_000)
    smoke.add_argument("--budget", type=float, default=120.0,
                       help="wall-clock budget in seconds (default 120)")
    smoke.add_argument("--seed", type=int, default=0)
    smoke.add_argument("--out-dir", default=None,
                       help="stream health/spans JSONL during the run and "
                            "write metrics.jsonl + prom.txt here")
    smoke.add_argument("--obs-overhead", type=float, default=None,
                       metavar="FRAC",
                       help="also run with NullRegistry and fail if the "
                            "instrumented run cost more than FRAC extra "
                            "(e.g. 0.10)")
    smoke.add_argument("--slo", action="store_true",
                       help="evaluate the default SLO catalogue over the run "
                            "and fail on burned budget")

    top = sub.add_parser(
        "top",
        help="terminal dashboard over a running (or finished) scale "
             "simulation's health/metrics JSONL artifacts",
    )
    top.add_argument("--health", required=True,
                     help="health JSONL (scale-smoke --out-dir writes one)")
    top.add_argument("--metrics", default=None, help="metrics JSONL (optional)")
    top.add_argument("--follow", action="store_true",
                     help="re-render every --interval seconds until Ctrl-C")
    top.add_argument("--interval", type=float, default=2.0)
    top.add_argument("--frames", type=int, default=None,
                     help="with --follow: stop after N frames (default: forever)")

    slo = sub.add_parser(
        "slo",
        help="run the default scale scenario and evaluate the SLO catalogue "
             "(burn-rate gate; exit 1 on burned budget)",
    )
    slo.add_argument("--nodes", type=int, default=2_000)
    slo.add_argument("--objects", type=int, default=None,
                     help="default: 10 objects per node")
    slo.add_argument("--queries", type=int, default=20_000)
    slo.add_argument("--seed", type=int, default=0)
    slo.add_argument("--json", action="store_true", help="machine-readable output")
    slo.add_argument("--out", type=str, default=None)

    srv = sub.add_parser(
        "serve",
        help="HTTP ops endpoint (/metrics Prometheus text, /health JSON) "
             "tailing recorded JSONL artifacts",
    )
    srv.add_argument("--metrics", default=None, help="metrics JSONL to serve")
    srv.add_argument("--health", default=None, help="health JSONL to serve")
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument("--port", type=int, default=9464)
    srv.add_argument("--duration", type=float, default=None,
                     help="serve for this many seconds then exit "
                          "(default: until Ctrl-C)")

    flt = sub.add_parser(
        "flight",
        help="render a flight-recorder bundle (written on invariant failure, "
             "deadline storm, or test crash); --rerun replays its config",
    )
    flt.add_argument("file", help="flight bundle JSON (.repro-bundles/flight-*.json)")
    flt.add_argument("--max-events", type=int, default=50)
    flt.add_argument("--rerun", action="store_true",
                     help="re-execute the embedded ScaleConfig deterministically "
                          "and re-check invariants")

    node = sub.add_parser(
        "node",
        help="run one live DHT node (asyncio TCP backend) until Ctrl-C; "
             "state persists under --data-dir and survives SIGKILL",
    )
    node.add_argument("--name", required=True, help="node name (hashed to its ring id)")
    node.add_argument("--data-dir", required=True, help="WAL/snapshot/meta directory")
    node.add_argument("--bind", default="127.0.0.1")
    node.add_argument("--port", type=int, default=0, help="0 = ephemeral")
    node.add_argument("--bootstrap", default=None,
                      help="ip:port of any ring member (omit to seed a new ring)")
    node.add_argument("--m", type=int, default=32, help="ring bits")
    node.add_argument("--k", type=int, default=2, help="index-space dimensions")
    node.add_argument("--bounds-low", type=float, default=0.0)
    node.add_argument("--bounds-high", type=float, default=1000.0)
    node.add_argument("--index-name", default="index")
    node.add_argument("--stabilize-interval", type=float, default=0.25)
    node.add_argument("--fmt", choices=("json",), default="json")
    node.add_argument("--fsync", action="store_true",
                      help="fsync every WAL append (power-loss durability; "
                           "SIGKILL durability needs only the default flush)")
    node.add_argument("--seed", type=int, default=0)

    clus = sub.add_parser(
        "cluster",
        help="live-cluster demo: boot N TCP nodes, insert + range-query a "
             "workload, kill one node, rejoin it, verify bit-identical "
             "recovery and recall parity",
    )
    clus.add_argument("--nodes", type=int, default=8)
    clus.add_argument("--entries", type=int, default=512)
    clus.add_argument("--queries", type=int, default=16)
    clus.add_argument("--m", type=int, default=32)
    clus.add_argument("--k", type=int, default=2)
    clus.add_argument("--seed", type=int, default=0)
    clus.add_argument("--data-root", default=None,
                      help="persistence root (default: a temp dir)")
    clus.add_argument("--json", action="store_true", help="machine-readable report")

    demo = sub.add_parser(
        "obs-demo",
        help="run a small fault-injected workload with full observability on, "
             "writing metrics/spans/health JSONL artifacts",
    )
    demo.add_argument("--out-dir", default="obs-demo-out")
    demo.add_argument("--queries", type=int, default=50)
    demo.add_argument("--nodes", type=int, default=32)
    demo.add_argument("--objects", type=int, default=2000)
    demo.add_argument("--loss", type=float, default=0.05)
    demo.add_argument("--seed", type=int, default=0)
    return parser


def _overrides(args) -> dict:
    out = {}
    if args.nodes is not None:
        out["n_nodes"] = args.nodes
    if args.objects is not None:
        out["n_objects"] = args.objects
    if args.queries is not None:
        out["n_queries"] = args.queries
    if getattr(args, "corpus_scale", None) is not None:
        out["corpus_scale"] = args.corpus_scale
    if args.seed is not None:
        out["seed"] = args.seed
    return out


def _emit(text: str, out_path: str | None) -> None:
    print(text)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"[written to {out_path}]")


def _run_figure(args) -> None:
    from repro.eval import experiments as ex
    from repro.eval.report import format_load_distribution, format_sweep
    from repro.eval.runner import run_experiment

    cfgf = {
        "fig2": ex.figure2_config,
        "fig3": ex.figure3_config,
        "fig4": ex.figure4_config,
        "fig5": ex.figure5_config,
        "fig6": ex.figure6_config,
    }[args.command]
    overrides = _overrides(args)
    if args.command in ("fig4", "fig6"):
        overrides.setdefault("range_factors", (0.05,))
    cfg = cfgf(scale=args.scale, **overrides)
    result = run_experiment(cfg)
    if args.command in ("fig4", "fig6"):
        text = format_load_distribution(result, top_n=10)
    else:
        text = format_sweep(result)
    _emit(f"[{args.command}] {cfgf.__doc__.strip().splitlines()[0]}\n\n{text}", args.out)


def _run_table1(args) -> None:

    from repro.datasets.synthetic import generate_clustered, paper_table1_config
    from repro.eval.report import format_table

    cfg = paper_table1_config(n_objects=args.objects)
    data, centers = generate_clustered(cfg, seed=0)
    rows = [
        ["Dimension", 100, data.shape[1]],
        ["Range of each dimension", "[0..100]", f"[{data.min():.0f}..{data.max():.0f}]"],
        ["Number of clusters", 10, centers.shape[0]],
        ["Deviation of each cluster", 20, round(float((data - centers[((data[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2).argmin(axis=1)]).std()), 1)],
        ["Objects", "1e5", data.shape[0]],
    ]
    _emit(format_table(["parameter", "paper", "measured"], rows, title="Table 1"), args.out)


def _run_table2(args) -> None:
    from repro.datasets.documents import (
        PAPER_TABLE2,
        SyntheticCorpusConfig,
        generate_corpus,
        vector_size_stats,
    )
    from repro.eval.report import format_table

    cfg = SyntheticCorpusConfig().scaled(args.corpus_scale)
    corpus = generate_corpus(cfg, seed=0)
    stats = vector_size_stats(corpus.doc_sizes)
    rows = [[k, PAPER_TABLE2[k], round(stats[k], 1)] for k in PAPER_TABLE2]
    _emit(format_table(["statistic", "paper", "measured"], rows, title="Table 2"), args.out)


def _run_metrics(args) -> None:
    from repro.obs.export import format_metrics_rows, read_metrics_jsonl

    rows = read_metrics_jsonl(args.file)
    _emit(format_metrics_rows(rows, prefix=args.prefix), args.out)


def _run_trace(args) -> int:
    import json

    from repro.obs.spans import SpanTree

    if args.qid is None:
        counts: dict[int, int] = {}
        with open(args.file) as fh:
            for line in fh:
                if not line.strip():
                    continue
                qid = json.loads(line).get("qid")
                if qid is not None:
                    counts[qid] = counts.get(qid, 0) + 1
        lines = [f"{len(counts)} traced queries in {args.file}"] + [
            f"  qid {qid}: {n} spans" for qid, n in sorted(counts.items())
        ]
        print("\n".join(lines))
        return 0
    tree = SpanTree.from_jsonl(args.file, qid=args.qid)
    if not len(tree):
        print(f"no spans recorded for qid {args.qid} in {args.file}")
        return 1
    _emit(f"query {args.qid}: {len(tree)} spans\n" + tree.render(args.max_spans),
          args.out)
    return 0


def _run_replay(args) -> int:
    from repro.eval.report import format_dict
    from repro.check.replay import replay_file

    identical, diffs, report = replay_file(args.file, differential=args.differential)
    if args.timeline:
        for i, line in enumerate(report.timeline):
            print(f"  op {i}: {line}")
        print()
    print(format_dict(
        {k: float(v) for k, v in report.checks.items()},
        title="[invariant checks]",
    ))
    fp = report.fingerprint
    print(f"\nevents={fp.events} schedule_digest={fp.schedule_digest:#010x} "
          f"draws_crc={fp.draw_crc:#010x} spans={fp.span_count}")
    if report.mismatches:
        print("\ndifferential mismatches:")
        for m in report.mismatches:
            print(f"  {m}")
    if identical:
        print("replay OK: bit-identical to the recording")
    else:
        print("replay MISMATCH versus the recording:")
        for d in diffs:
            print(f"  {d}")
    return 0 if identical and not report.mismatches else 1


def _run_fuzz(args) -> int:
    import os

    from repro.check.replay import random_scenario, execute_scenario, write_bundle

    failures = 0
    for i in range(args.runs):
        seed = args.seed + i
        scenario = random_scenario(
            seed, n_ops=args.ops,
            loss=args.loss, jitter=args.jitter, fault_seed=seed,
        )
        try:
            report = execute_scenario(scenario, differential=True)
            mismatches = report.mismatches
            error = None
        except Exception as exc:  # invariant violations surface here
            mismatches = [f"{type(exc).__name__}: {exc}"]
            error = str(exc)
            report = None
        if mismatches:
            failures += 1
            os.makedirs(args.out_dir, exist_ok=True)
            path = os.path.join(args.out_dir, f"fuzz-seed{seed}.json")
            write_bundle(
                path, scenario,
                fingerprint=report.fingerprint if report else None,
                error=error or "; ".join(mismatches),
            )
            print(f"seed {seed}: FAIL ({'; '.join(mismatches)[:160]})")
            print(f"  replay log: {path}")
        else:
            print(f"seed {seed}: ok ({len(scenario.ops)} ops, "
                  f"{report.fingerprint.events} events, "
                  f"{sum(v for k, v in report.checks.items() if k != 'violations')} checks)")
    print(f"\n{args.runs - failures}/{args.runs} scenarios clean")
    return 0 if failures == 0 else 1


def _run_lint(args) -> int:
    import json
    from pathlib import Path

    from repro.check.lint import (
        LayersConfig,
        all_rules,
        apply_fixes,
        find_repo_root,
        run_lint,
    )

    if args.list_rules:
        for r in all_rules():
            print(f"{r.id}  {r.name}\n    {r.rationale}")
        return 0

    paths = [Path(p) for p in args.paths] if args.paths else None
    if paths is None:
        root = find_repo_root(Path.cwd())
        paths = [root / "src"] if (root / "src").is_dir() else [root]
    root = find_repo_root(paths[0])
    layers = LayersConfig.load(args.layers) if args.layers else LayersConfig.load()
    select = args.select.split(",") if args.select else None
    result = run_lint(paths, root=root, layers=layers, select=select)

    if args.fix:
        applied = apply_fixes(result.findings, root)
        if applied:
            print(f"applied {applied} mechanical fix(es); re-linting")
            result = run_lint(paths, root=root, layers=layers, select=select)

    if args.format == "json":
        print(json.dumps({
            "files_scanned": result.files_scanned,
            "findings": [f.to_json() for f in result.findings],
            "errors": result.errors,
            "ok": result.ok,
        }, indent=2))
        return 0 if result.ok else 1

    for f in result.findings:
        print(f.render())
    for err in result.errors:
        print(f"parse error: {err}")
    print(f"{result.files_scanned} files: {len(result.findings)} finding(s)")
    return 0 if result.ok else 1


def _run_top(args) -> int:
    import time

    from repro.obs import read_health_jsonl, render_top
    from repro.obs.export import read_metrics_jsonl

    def frame() -> str:
        health = read_health_jsonl(args.health)
        metrics = read_metrics_jsonl(args.metrics) if args.metrics else None
        return render_top(health, metrics)

    if not args.follow:
        print(frame())
        return 0
    shown = 0
    try:
        while args.frames is None or shown < args.frames:
            print(frame())
            print()
            shown += 1
            if args.frames is not None and shown >= args.frames:
                break
            time.sleep(args.interval)
    except KeyboardInterrupt:
        pass
    return 0


def _run_slo(args) -> int:
    import json

    from repro.core.scale import ScaleConfig, ScaleSimulation
    from repro.obs import DEFAULT_SCALE_SLOS, evaluate_slos
    from repro.sim.king import king_coordinate_model

    n_objects = args.objects if args.objects is not None else 10 * args.nodes
    cfg = ScaleConfig(
        n_nodes=args.nodes,
        n_objects=n_objects,
        n_queries=args.queries,
        chunk=max(1, args.queries // 10),
        local_solve_sample=256,
        seed=args.seed,
    )
    sim = ScaleSimulation(
        cfg, latency=king_coordinate_model(n_hosts=args.nodes, seed=args.seed)
    )
    sim.run()
    report = evaluate_slos(DEFAULT_SCALE_SLOS, sim.slo_series())
    if args.json:
        _emit(json.dumps(report.to_dict(), indent=2), args.out)
    else:
        _emit(
            f"[slo] {args.nodes} nodes, {n_objects} objects, "
            f"{args.queries} queries (seed {args.seed})\n\n" + report.format(),
            args.out,
        )
    return 0 if report.ok else 1


def _run_serve(args) -> int:
    import time

    from repro.obs import serve_files

    if args.metrics is None and args.health is None:
        print("serve: need --metrics and/or --health")
        return 2
    server = serve_files(
        metrics_path=args.metrics,
        health_path=args.health,
        host=args.host,
        port=args.port,
    )
    with server:
        print(f"serving {server.url}/metrics and {server.url}/health "
              f"(Ctrl-C to stop)")
        try:
            if args.duration is not None:
                time.sleep(args.duration)
            else:
                while True:
                    time.sleep(3600.0)
        except KeyboardInterrupt:
            pass
    return 0


def _run_flight(args) -> int:
    from repro.obs import format_bundle, load_bundle

    bundle = load_bundle(args.file)
    print(format_bundle(bundle, max_events=args.max_events))
    if not args.rerun:
        return 0
    ctx = bundle.get("context") or {}
    cfg_dict = ctx.get("config")
    if not cfg_dict:
        print("\nrerun: bundle carries no replayable config")
        return 1
    from dataclasses import fields

    from repro.core.scale import ScaleConfig, ScaleSimulation

    # a bundle written before a config field was retired still replays
    known = {f.name for f in fields(ScaleConfig)}
    cfg = ScaleConfig(**{k: v for k, v in cfg_dict.items() if k in known})
    print(f"\nrerun: {cfg.n_nodes} nodes, {cfg.n_queries} queries, "
          f"seed {cfg.seed}")
    sim = ScaleSimulation(cfg)
    try:
        report = sim.run()
        sim.check_invariants()
    except AssertionError as exc:
        print(f"rerun reproduced the failure: {exc}")
        return 1
    print(f"rerun clean: mean hops {report.mean_hops:.2f}, "
          f"dropped {report.dropped}, {report.health_samples} health samples")
    return 0


def _run_node(args) -> int:
    import asyncio

    from repro.net.node import NodeConfig, NodeProcess

    async def serve() -> int:
        config = NodeConfig(
            name=args.name,
            data_dir=args.data_dir,
            m=args.m,
            k=args.k,
            bounds_low=args.bounds_low,
            bounds_high=args.bounds_high,
            index_name=args.index_name,
            bind=args.bind,
            port=args.port,
            bootstrap=args.bootstrap,
            stabilize_interval=args.stabilize_interval,
            fmt=args.fmt,
            seed=args.seed,
            fsync=args.fsync,
        )
        node = NodeProcess(config)
        addr = await node.start()
        print(f"[node {args.name}] id={node.id:#x} listening on {addr} "
              f"(data: {args.data_dir})", flush=True)
        try:
            while True:
                await asyncio.sleep(3600.0)
        except asyncio.CancelledError:  # pragma: no cover - loop teardown
            raise
        finally:
            await node.close()

    try:
        return asyncio.run(serve())
    except KeyboardInterrupt:  # pragma: no cover - interactive stop
        return 0


def _run_cluster(args) -> int:
    import asyncio
    import json

    from repro.eval.report import format_dict
    from repro.net.cluster import run_cluster_demo

    report = asyncio.run(run_cluster_demo(
        n_nodes=args.nodes,
        n_entries=args.entries,
        n_queries=args.queries,
        m=args.m,
        k=args.k,
        seed=args.seed,
        data_root=args.data_root,
    ))
    payload = {
        "nodes": report.n_nodes,
        "entries": report.n_entries,
        "queries": report.n_queries,
        "recall_before_kill": report.recall_before,
        "recall_after_rejoin": report.recall_after,
        "killed_node": report.killed_node,
        "shard_digest_match": report.digest_before == report.digest_after,
        "converged_after_kill": report.converged_after_kill,
        "converged_after_rejoin": report.converged_after_rejoin,
        "ok": report.ok,
    }
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(format_dict(
            {k: (float(v) if isinstance(v, (int, float)) and not isinstance(v, bool)
                 else v)
             for k, v in payload.items() if k != "killed_node"},
            title="[live cluster demo]",
        ))
        print(f"\nkilled and rejoined: {report.killed_node}")
        for note in report.notes:
            print(f"note: {note}")
        print("OK" if report.ok else "FAILED")
    return 0 if report.ok else 1


def _run_obs_demo(args) -> None:
    from repro.eval.report import format_dict
    from repro.eval.demo import run_demo
    from repro.obs import format_hotspot_report, format_metrics_table, hotspot_report

    result = run_demo(
        args.out_dir, n_nodes=args.nodes, n_objects=args.objects,
        n_queries=args.queries, loss=args.loss, seed=args.seed,
    )
    stats, obs = result["stats"], result["obs"]
    print(format_dict(stats.summary(), title="[workload summary]"))
    print()
    print(format_metrics_table(obs.registry, prefix="transport_"))
    print()
    print(format_metrics_table(obs.registry, prefix="lifecycle_"))
    print()
    loads = result["index"].load_distribution()
    print(format_hotspot_report(hotspot_report(loads), title="[stored-entry load]"))
    qids = sorted(obs.span_memory.qids()) if obs.span_memory else []
    if qids:
        print()
        tree = obs.span_tree(qids[0])
        print(f"[sample trace: qid {qids[0]}, {len(tree)} spans]")
        print(tree.render(max_spans=40))
    if result["paths"]:
        print()
        for kind, path in result["paths"].items():
            print(f"[{kind} written to {path}]")
        print(f"render with: repro metrics {result['paths']['metrics']}  |  "
              f"repro trace <qid> --file {result['paths']['spans']}")


def main(argv: list[str] | None = None) -> int:
    """Entry point (``python -m repro ...``)."""
    args = build_parser().parse_args(argv)
    if args.command in ("fig2", "fig3", "fig4", "fig5", "fig6"):
        _run_figure(args)
    elif args.command == "table1":
        _run_table1(args)
    elif args.command == "table2":
        _run_table2(args)
    elif args.command == "quickstart":
        import runpy
        from pathlib import Path

        script = Path(__file__).resolve().parents[2] / "examples" / "quickstart.py"
        runpy.run_path(str(script), run_name="__main__")
    elif args.command == "check":
        from repro.eval.validate import self_check

        result = self_check(seed=args.seed)
        print(result)
        return 0 if result.ok else 1
    elif args.command == "lint":
        return _run_lint(args)
    elif args.command == "metrics":
        _run_metrics(args)
    elif args.command == "trace":
        return _run_trace(args)
    elif args.command == "replay":
        return _run_replay(args)
    elif args.command == "fuzz":
        return _run_fuzz(args)
    elif args.command == "scale-smoke":
        from repro.check.scale_smoke import run_scale_smoke

        return run_scale_smoke(
            n_nodes=args.nodes,
            n_queries=args.queries,
            budget_s=args.budget,
            seed=args.seed,
            out_dir=args.out_dir,
            obs_overhead=args.obs_overhead,
            slo=args.slo,
        )
    elif args.command == "top":
        return _run_top(args)
    elif args.command == "slo":
        return _run_slo(args)
    elif args.command == "serve":
        return _run_serve(args)
    elif args.command == "flight":
        return _run_flight(args)
    elif args.command == "obs-demo":
        _run_obs_demo(args)
    elif args.command == "node":
        return _run_node(args)
    elif args.command == "cluster":
        return _run_cluster(args)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
