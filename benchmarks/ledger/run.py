"""The query ledger: one command, five workloads, two passes.

Contract form (what ``BENCHMARK.json`` names; one workload, one pass)::

    python3 benchmarks/ledger/run.py --workload sim_wide --seed 3 --seconds 12 --trace 0

prints every metric of the pass by name and unit and ends with one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` on the last line of
stdout.  ``--trace 0`` gives the end-to-end metrics; ``--trace 1`` installs
the wrappers of :mod:`benchmarks.ledger.trace` and gives the per-layer ledger.

Without ``--workload`` the command runs all five workloads, each pass in its
own subprocess, prints the whole ledger, writes ``ledger.json`` (the input of
``compare.py``) under ``--out`` and exits non-zero if any workload reports
``recall < 1`` or a failed operation.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if __name__ == "__main__":
    # the script directory holds trace.py, which must not shadow the stdlib's
    sys.path[:] = [p for p in sys.path if p and Path(p).resolve() != HERE]
for entry in (str(ROOT), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

# one generator process, one thread: BLAS worker threads would compete with
# the workload for the second core of a 2-core box and widen the spread
for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

import numpy as np  # noqa: E402

try:
    import repro  # noqa: E402
except ImportError:
    sys.exit(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")
if ROOT not in Path(repro.__file__).resolve().parents:
    sys.exit(f"benchmark must measure this checkout's src/, not {repro.__file__}")

from benchmarks.ledger.metrics import (  # noqa: E402
    END_TO_END, PER_LAYER, SPEC, end_to_end, per_layer,
)
from benchmarks.ledger import reference  # noqa: E402
from benchmarks.ledger.check import Verdict  # noqa: E402
from benchmarks.ledger.trace import Tracer  # noqa: E402
from benchmarks.ledger.workloads import WORKLOADS, LiveWorkload, Region, make_workload  # noqa: E402

#: an untraced run is this many rounds of set-up + timed region: ``setup_s`` and
#: ``ops_per_s`` are medians over the rounds
SETUP_REPEATS = 3
#: share of a traced run spent untraced first, for ``trace.overhead_ratio``
UNTRACED_SHARE = 0.3
#: single operations recorded as full span trees before the traced region
CAPTURE_OPS = 8


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


async def measure(name: str, seed: int, seconds: float, traced: bool, quick: bool,
                  out_dir: Path) -> dict[str, Any]:
    """Run one pass of one workload and return the contract's result object.

    The untraced pass is ``SETUP_REPEATS`` rounds of set-up, warm-up, a timed
    region of ``seconds / SETUP_REPEATS`` and the correctness gate; the traced
    pass is one round whose region is split into an untraced and a traced part.
    """
    workload = make_workload(name, quick, out_dir / f"cluster-{os.getpid()}")
    tracer = Tracer() if traced else None
    rounds = 1 if traced or quick else SETUP_REPEATS
    setup_s: list[float] = []
    regions: list[Region] = []
    verdict = Verdict()
    peak_rss_mb = 0.0
    try:
        for i in range(rounds):
            if i:
                # drop the previous instance for good (its reference cycles
                # need the collector), or peak_rss_mb is one or two instances
                # depending on when a generation-2 collection happens to run
                await workload.close()
                gc.collect()
            if tracer is not None:
                tracer.install()
            slow = reference.slowdown()
            t0, cpu0 = time.perf_counter(), time.process_time()
            await workload.setup(seed)
            wall, busy = time.perf_counter() - t0, time.process_time() - cpu0
            slow = (slow + reference.slowdown()) / 2
            # the busy part at reference speed, the waiting part (stabilisation
            # timers, the disk) as the clock read it
            setup_s.append(wall - busy + busy / slow)
            if tracer is not None:
                tracer.uninstall()
            await workload.warmup()
            if tracer is None:
                regions.append(Region())
                await workload.timed(seconds / rounds, regions[-1])
                if i == 0:
                    # a high-water mark: read it before the first gate runs,
                    # or the oracle's own arrays are counted from round 2 on
                    peak_rss_mb = _peak_rss_mb()
                verdict.merge(await workload.check())
        if tracer is None:
            metrics = end_to_end(setup_s, regions, peak_rss_mb)
            units = END_TO_END
            for i, r in enumerate(regions):
                print(f"  round {i}: set-up {setup_s[i]:.3f} s, {r.ops_per_s:.6g} ops/s at "
                      f"reference speed, box slowdown {r.busy_s / r.ref_busy_s:.3f}, "
                      f"waiting {1.0 - r.busy_s / r.wall_s:.3f} of the wall")
        else:
            setup_stats = tracer.take()
            untraced, traced_region = Region(), Region()
            await workload.timed(seconds * UNTRACED_SHARE, untraced)
            tracer.install()
            try:
                for op in range(CAPTURE_OPS):
                    tracer.capture_op = op
                    await workload.single_op()
                tracer.capture_op = None
                tracer.take()
                await workload.timed(seconds * (1.0 - UNTRACED_SHARE), traced_region, tracer)
                timed_stats = tracer.take()
            finally:
                tracer.capture_op = None
                tracer.uninstall()
            extras = await workload.extras(tracer)
            verdict = await workload.check()
            metrics = per_layer(workload, setup_stats, timed_stats, untraced, traced_region,
                                extras, verdict)
            tracer.write_jsonl(out_dir / f"trace-{name}-seed{seed}.jsonl", name)
            units = PER_LAYER
    finally:
        if tracer is not None:
            tracer.uninstall()
        await workload.close()
    for note in verdict.notes:
        print(f"  check: {note}")
    return {
        "correct": verdict.correct,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {n: {"value": float(metrics[n]), "unit": u} for n, u in units.items()},
    }


def environment() -> dict[str, Any]:
    """What the numbers were measured on (stated, never read as a parameter)."""
    sha = "unknown"
    if (ROOT / ".git").exists():   # the driver's checkout is not a repository
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "git_sha": sha,
        "live_codec_format": LiveWorkload.FMT, "live_wal_fsync": False,
        "live_transport": "loopback TCP, one process",
    }


def run_one(args: argparse.Namespace, out_dir: Path) -> int:
    result = asyncio.run(measure(
        args.workload, args.seed, args.seconds, bool(args.trace), args.quick, out_dir))
    pass_name = "per-layer (traced)" if args.trace else "end-to-end (untraced)"
    print(f"{args.workload}  seed={args.seed}  seconds={args.seconds:g}  {pass_name}"
          + ("  QUICK: smoke only, not a reportable number" if args.quick else ""))
    for name, m in result["metrics"].items():
        print(f"  {name:<42} {m['value']:>16.6g} {m['unit']}")
    recall = "" if not args.trace else f"  recall={result['metrics']['check.recall']['value']:g}"
    print(f"  attempted={result['attempted']} failed={result['failed']} "
          f"correct={result['correct']}{recall}")
    print(f"  env: {json.dumps(environment())}")
    print(json.dumps(result))
    return 0


def run_all(args: argparse.Namespace, out_dir: Path) -> int:
    ledger: dict[str, Any] = {
        "env": environment(), "seed": args.seed, "seconds": args.seconds,
        "quick": args.quick, "claim": None, "workloads": {},
    }
    ok = True
    for name in WORKLOADS:
        entry: dict[str, Any] = {}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace), "--out", str(out_dir)]
            if args.quick:
                cmd.append("--quick")
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            if proc.returncode != 0 or not lines:
                print(proc.stderr, file=sys.stderr)
                print(f"{name} --trace {trace}: exit status {proc.returncode}")
                ok = False
                continue
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            entry[key] = result["metrics"]
            entry[f"{key}_check"] = {k: result[k] for k in ("correct", "attempted", "failed")}
        ledger["workloads"][name] = entry
    path = out_dir / "ledger.json"
    path.write_text(json.dumps(ledger, indent=1) + "\n")
    print(f"env: {json.dumps(ledger['env'])}")
    print(f"ledger written to {path}; " + (
        "every workload correct" if ok else "FAILED: recall < 1 or failed operations"))
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one pass of one workload (default: all, both passes)")
    parser.add_argument("--seed", type=int, default=0, help="every input derives from it")
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the timed region (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics, untraced; 1: per-layer ledger, traced")
    parser.add_argument("--quick", action="store_true",
                        help="sizes / 10 and one set-up; smoke use only")
    parser.add_argument("--out", type=Path, default=HERE / "out",
                        help="directory for ledger.json, trace-*.jsonl and cluster scratch")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = float(SPEC["run_seconds"]) / (10.0 if args.quick else 1.0)
    out_dir = args.out.resolve()
    out_dir.mkdir(parents=True, exist_ok=True)
    return run_one(args, out_dir) if args.workload else run_all(args, out_dir)


if __name__ == "__main__":
    sys.exit(main())
