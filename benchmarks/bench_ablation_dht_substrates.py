"""Ablation — DHT substrates: Chord vs Chord-PNS vs Pastry.

The paper builds on Chord-PNS and asserts its techniques "are also
applicable to other DHTs such as Pastry and Tapestry".  This bench compares
the substrates' lookup economics on the same membership and latency network:
mean hops, mean lookup latency, and routing-state size per node — the
quantities that determine what the index architecture would pay on each.
"""

import numpy as np

from benchmarks.baselines.pastry import PastryRing
from benchmarks.conftest import run_once
from repro.dht.ring import ChordRing
from repro.eval.report import format_table
from repro.sim.king import king_latency_model

N_NODES = 96
M = 32
N_LOOKUPS = 300


def _chord_state(ring):
    sizes = []
    for node in ring.nodes():
        sizes.append(len({t.id for t in node.routing_table()}) - 1)
    return float(np.mean(sizes))


def _pastry_state(ring):
    sizes = []
    for node in ring.nodes():
        entries = {e.id for row in node.routing_table for e in row if e is not None}
        entries |= {x.id for x in node.leaf_set}
        sizes.append(len(entries))
    return float(np.mean(sizes))


def test_dht_substrate_comparison(benchmark, save_result):
    latency = king_latency_model(n_hosts=N_NODES, seed=0)
    rng = np.random.default_rng(1)
    keys = rng.integers(0, 2**M, size=N_LOOKUPS)
    starts = rng.integers(0, N_NODES, size=N_LOOKUPS)

    def measure(lookup_path, nodes):
        hops, lat = [], []
        for key, s in zip(keys, starts):
            path = lookup_path(nodes[int(s)], int(key))
            hops.append(len(path) - 1)
            lat.append(
                sum(
                    latency.latency(a.host, b.host)
                    for a, b in zip(path[:-1], path[1:])
                )
            )
        return float(np.mean(hops)), float(np.mean(lat))

    def run():
        rows = []
        chord = ChordRing.build(N_NODES, m=M, seed=0, latency=latency, pns=False)
        h, l = measure(chord.lookup_path, chord.nodes())
        rows.append(["Chord", h, l, _chord_state(chord)])
        pns = ChordRing.build(N_NODES, m=M, seed=0, latency=latency, pns=True)
        h, l = measure(pns.lookup_path, pns.nodes())
        rows.append(["Chord-PNS", h, l, _chord_state(pns)])
        pastry = PastryRing.build(N_NODES, m=M, b=4, seed=0, latency=latency)
        h, l = measure(pastry.lookup_path, pastry.nodes())
        rows.append(["Pastry (b=4)", h, l, _pastry_state(pastry)])
        return rows

    rows = run_once(benchmark, run)
    save_result(
        "ablation_dht_substrates",
        f"Ablation — DHT substrates on the same {N_NODES}-host King-like network\n"
        + format_table(
            ["substrate", "mean hops", "mean lookup latency (s)", "routing entries/node"],
            rows,
        ),
    )
    chord, pns, pastry = rows
    assert pns[2] <= chord[2] * 1.02  # PNS reduces (or matches) latency
    assert pastry[1] <= chord[1]  # base-16 digits shorten the path
