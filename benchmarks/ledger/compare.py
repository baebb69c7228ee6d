"""Compare two ledgers with the bounds of ``BENCHMARK.json``.

    python3 benchmarks/ledger/compare.py A.json B.json [more B runs ...]

``A`` is the base (the parent commit, or the first of two sets of runs of
one commit); every ``ledger.json`` is what ``run.py`` writes.  One row per
(workload, end-to-end metric): both values, the ratio B/A with its base, and

``ok``          B is no worse than A by more than the metric's bound;
``worse``       B is worse than A by more than the bound;
``unresolved``  several B runs were given and they straddle the bound.

The paper's exact counts (``paper.*``, ``routing.hops_mean``, ...) and
``check.recall`` must be bit-identical between runs of one seed; they are
compared with bound 0 when both ledgers used the same seed.  Exit status is
non-zero on any ``worse``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any

#: per-layer values that are program counts, exact for a fixed seed
EXACT = (
    "paper.msgs_per_query", "paper.bytes_per_query", "paper.sim_latency_s_mean",
    "routing.hops_mean", "routing.index_nodes_per_query", "check.recall",
)


def _worsening(a: float, b: float, better: str) -> float:
    """Share of ``a`` by which ``b`` is worse (negative: better)."""
    if a == 0:
        return 0.0 if b == 0 else float("inf")
    return (b - a) / a if better == "lower" else (a - b) / a


def compare(spec: dict[str, Any], base: dict[str, Any],
            others: list[dict[str, Any]]) -> tuple[list[str], bool]:
    rows = [f"{'workload':<13} {'metric':<30} {'A':>12} {'B':>12} {'B/A':>7}  bound  verdict"]
    any_worse = False
    same_seed = all(o["seed"] == base["seed"] for o in others)
    gated = [(m["name"], m["better"], m["bound"], "end_to_end") for m in spec["end_to_end"]]
    if same_seed:
        better = {m["name"]: m["better"] for m in spec["per_layer"]}
        gated += [(name, better[name], 0.0, "per_layer") for name in EXACT]
    for workload, entry in base["workloads"].items():
        for name, better, bound, section in gated:
            a = entry[section][name]["value"]
            values = [o["workloads"][workload][section][name]["value"] for o in others]
            worse = [_worsening(a, b, better) > bound for b in values]
            verdict = "worse" if all(worse) else "unresolved" if any(worse) else "ok"
            any_worse = any_worse or verdict == "worse"
            b = sorted(values)[len(values) // 2]
            ratio = f"{b / a:7.3f}" if a else "    n/a"
            rows.append(f"{workload:<13} {name:<30} {a:>12.6g} {b:>12.6g} {ratio}  "
                        f"{bound:>5.2f}  {verdict}  (base A={a:.6g})")
        for key in ("end_to_end_check", "per_layer_check"):
            for o in others:
                if not o["workloads"][workload][key]["correct"]:
                    rows.append(f"{workload:<13} {key:<30} correctness gate failed in B")
                    any_worse = True
    return rows, any_worse


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__)
        return 2
    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    ledgers = [json.loads(Path(p).read_text()) for p in argv]
    rows, any_worse = compare(spec, ledgers[0], ledgers[1:])
    print("\n".join(rows))
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
