"""The scale substrates against their object-graph oracles.

CompactChordRing must reproduce ChordRing's greedy lookups hop-for-hop on
identical membership (classic fingers, no PNS); ShardStore must hold exactly
what per-node Shards would; and the ScaleSimulation harness must run
end-to-end with its invariants intact.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.scale import QUERY_RANGE_FACTOR, ScaleConfig, ScaleSimulation
from repro.core.storage import Shard, ShardStore
from repro.dht.compact import CompactChordRing
from repro.dht.hashing import random_ids
from repro.dht.ring import ChordRing
from repro.dht.idspace import owner_slots
from repro.obs.registry import MetricsRegistry
from repro.sim.king import king_coordinate_model
from repro.sim.network import MatrixLatency


def _object_ring(n, m, seed):
    """A ring of ``n`` uniformly random ids (hosts ``0..n-1``)."""
    ring = ChordRing(m=m)
    for i, nid in enumerate(random_ids(n, m, seed)):
        ring.add_node(int(nid), name=f"node-{i}", host=i, rebuild=False)
    ring.rebuild_tables()
    return ring


class TestCompactVsObjectRing:
    @pytest.mark.parametrize(
        "n,m,seed", [(1, 16, 0), (2, 16, 1), (7, 16, 2), (150, 32, 3), (400, 64, 4)]
    )
    def test_route_batch_matches_lookup_path(self, n, m, seed):
        ring = _object_ring(n, m, seed)
        comp = CompactChordRing.from_ring(ring)
        comp.check_invariants()
        by_slot = [ring.nodes_by_id[int(i)] for i in comp.ids]
        rng = np.random.default_rng(seed + 100)
        nq = 200
        keys = rng.integers(0, 1 << m if m < 64 else 1 << 63, size=nq, dtype=np.uint64)
        # exercise the key == node-id edge (routes the full ring)
        keys[:5] = comp.ids[rng.integers(0, n, size=5)]
        src = rng.integers(0, n, size=nq, dtype=np.int64)
        owner, hops, lat, visits = comp.route_batch(src, keys, count_visits=True)
        for i in range(nq):
            path = ring.lookup_path(by_slot[src[i]], int(keys[i]))
            assert path[-1].id == int(comp.ids[owner[i]])
            assert len(path) - 1 == hops[i]
        # each query visits its source + (hops-1) intermediates; the
        # terminal owner hop is excluded from forwarding load
        assert visits.sum() == hops.sum()

    def test_owners_match_object_ring(self):
        ring = _object_ring(64, 20, 5)
        comp = CompactChordRing.from_ring(ring)
        rng = np.random.default_rng(6)
        keys = rng.integers(0, 1 << 20, size=500, dtype=np.uint64)
        np.testing.assert_array_equal(
            comp.owners_of_keys(keys), ring.owners_of_keys(keys)
        )

    def test_latency_accumulates_along_path(self):
        ring = _object_ring(50, 24, 7)
        comp = CompactChordRing.from_ring(ring)
        lat = king_coordinate_model(n_hosts=64, seed=9)
        rng = np.random.default_rng(8)
        keys = rng.integers(0, 1 << 24, size=50, dtype=np.uint64)
        src = rng.integers(0, 50, size=50)
        _, hops, path_lat, _ = comp.route_batch(src, keys, latency=lat)
        assert np.all(path_lat[hops > 0] > 0)
        assert np.all(path_lat[hops == 0] == 0)


def _greedy_route(ring, src, key):
    """One lookup by the definition of its hop: from each node, the furthest
    of the successor list and of every finger level that does not pass the
    key's predecessor.  Returns ``(owner, nodes that processed it)``."""
    n = len(ring)
    owner = int(owner_slots(ring.ids, np.array([key], dtype=np.uint64))[0])
    pred = (owner - 1) % n
    r = min(ring.successor_list_len, n - 1)
    path = [int(src)]
    while path[-1] != pred:
        cur = path[-1]
        ps = (pred - cur) % n
        best = min(ps, r)
        for lvl in range(ring.m):
            sd = (int(ring.fingers[cur, lvl]) - cur) % n
            if 0 < sd <= ps:
                best = max(best, sd)
        path.append((cur + best) % n)
    return owner, path


def _stepdown_route_batch(ring, src_slots, keys, latency=None, count_visits=False):
    """``route_batch`` as it was before it read the finger level in closed
    form: each round steps down from ``floor(log2(key - id))`` until a
    finger stops overshooting, and scatters into full-batch arrays."""
    ids, fingers, mask, m = ring.ids, ring.fingers, ring.mask, ring.m
    n = len(ids)
    keys = np.asarray(keys, dtype=np.uint64) & mask
    nq = len(keys)
    owner = owner_slots(ids, keys)
    hops = np.zeros(nq, dtype=np.int64)
    lat = np.zeros(nq, dtype=np.float64)
    visits = np.zeros(n, dtype=np.int64) if count_visits else None
    cur = np.asarray(src_slots, dtype=np.int64).copy()
    if n == 1:
        return owner, hops, lat, visits
    if visits is not None:
        visits += np.bincount(cur, minlength=n)
    r = min(ring.successor_list_len, n - 1)
    active = np.arange(nq, dtype=np.int64)
    while active.size:
        a_cur = cur[active]
        ps = (owner[active] - 1 - a_cur) % n
        done = ps == 0
        if np.any(done):
            di = active[done]
            hops[di] += 1
            if latency is not None:
                lat[di] += latency.latency_pairs(ring.hosts[cur[di]], ring.hosts[owner[di]])
            keep = ~done
            active = active[keep]
            if active.size == 0:
                break
            a_cur = a_cur[keep]
            ps = ps[keep]
        step = np.minimum(ps, r)
        d = (keys[active] - ids[a_cur]) & mask
        lvl = np.full(len(active), m - 1, dtype=np.int64)
        nz = d != np.uint64(0)
        lvl[nz] = np.minimum(np.floor(np.log2(d[nz].astype(np.float64))).astype(np.int64), m - 1)
        pending = np.arange(len(active), dtype=np.int64)
        while pending.size:
            f_slot = fingers[a_cur[pending], lvl[pending]].astype(np.int64)
            sd = (f_slot - a_cur[pending]) % n
            ok = (sd > 0) & (sd <= ps[pending])
            hit = pending[ok]
            step[hit] = np.maximum(step[hit], sd[ok])
            pending = pending[~ok]
            lvl[pending] -= 1
            pending = pending[lvl[pending] >= 0]
        nxt = (a_cur + step) % n
        if latency is not None:
            lat[active] += latency.latency_pairs(ring.hosts[a_cur], ring.hosts[nxt])
        hops[active] += 1
        cur[active] = nxt
        if visits is not None:
            visits += np.bincount(nxt, minlength=n)
    return owner, hops, lat, visits


class TestRouteBatch:
    @pytest.mark.parametrize("m", [8, 16, 32, 64])
    @given(data=st.data())
    def test_closed_form_level_is_the_best_of_every_level(self, m, data):
        """Hop by hop, the level route_batch reads is the best a search over
        all ``m`` finger levels finds: on rings of 2-500 slots, for keys on
        node ids (the full ring), ids +- 1, after a pair of consecutive ids
        (a gap of ``2**m - 1``) and, at ``m = 64``, across a gap of
        ``2**k - 1`` with ``k`` in 53..63, which float64 rounds up."""
        n = data.draw(st.integers(2, min(500, 1 << (m - 1))), label="n")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32), label="seed"))
        mask = (1 << m) - 1
        base = data.draw(st.integers(0, mask), label="base")
        special = [base, (base + 1) & mask]
        if m == 64:
            k = data.draw(st.integers(53, 63), label="k")
            special.append((base + (1 << k) - 1) & mask)
        ids = set(special)
        while len(ids) < n:
            ids.add(int(rng.integers(0, mask, dtype=np.uint64, endpoint=True)))
        ring = CompactChordRing(np.array(sorted(ids), dtype=np.uint64),
                                np.arange(len(ids)) % 7, m=m,
                                successor_list_len=data.draw(st.integers(1, 16), label="r"))
        n = len(ring)
        slot = {int(i): s for s, i in enumerate(ring.ids)}
        ring_ids = [int(i) for i in ring.ids]
        picks = rng.integers(0, n, size=20)
        keys = [ring_ids[p] for p in picks]
        keys += [(ring_ids[p] + 1) & mask for p in picks] + [(ring_ids[p] - 1) & mask for p in picks]
        keys += rng.integers(0, mask, size=20, dtype=np.uint64, endpoint=True).tolist()
        src = rng.integers(0, n, size=len(keys)).tolist()
        # a consecutive pair: routing base + 1 from its own node crosses 2**m - 1
        keys.append(special[1])
        src.append(slot[special[1]])
        # from base to the key just after special[-1]: a gap of 2**k - 1 at m = 64
        keys.append((special[-1] + 1) & mask)
        src.append(slot[base])
        latency = MatrixLatency(rng.uniform(0.001, 0.2, size=(7, 7)))
        owner, hops, lat, visits = ring.route_batch(
            np.array(src), np.array(keys, dtype=np.uint64), latency=latency, count_visits=True)
        want_visits = np.zeros(n, dtype=np.int64)
        for i, (s, key) in enumerate(zip(src, keys)):
            want_owner, path = _greedy_route(ring, s, key)
            delay = 0.0
            for a, b in zip(path, [*path[1:], want_owner]):
                delay += latency.latency(int(ring.hosts[a]), int(ring.hosts[b]))
            assert (owner[i], hops[i], lat[i]) == (want_owner, len(path), delay), (s, key)
            np.add.at(want_visits, path, 1)
        assert np.array_equal(visits, want_visits)

    @pytest.mark.parametrize("n_hosts", [None, 5_000], ids=["permuted-hosts", "shared-hosts"])
    def test_matches_the_step_down_search_on_100k_slots(self, n_hosts):
        ring = CompactChordRing.build(100_000, m=64, seed=11, n_hosts=n_hosts)
        latency = king_coordinate_model(n_hosts=n_hosts or 100_000, seed=12)
        assert latency.jitter_sigma > 0
        rng = np.random.default_rng(13)
        keys = rng.integers(0, 1 << 63, size=20_000, dtype=np.uint64) * np.uint64(2)
        keys[:100] = ring.ids[rng.integers(0, len(ring), size=100)]
        src = rng.integers(0, len(ring), size=len(keys))
        got = ring.route_batch(src, keys, latency=latency, count_visits=True)
        want = _stepdown_route_batch(ring, src, keys, latency=latency, count_visits=True)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)

    def test_an_empty_batch_routes_nothing(self):
        ring = CompactChordRing.build(50, m=16, seed=1)
        owner, hops, lat, visits = ring.route_batch(
            np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.uint64), count_visits=True)
        assert owner.size == hops.size == lat.size == 0
        assert np.array_equal(visits, np.zeros(50, dtype=np.int64))
        assert ring.owners_of_keys(np.zeros(0, dtype=np.int64)).size == 0

    @pytest.mark.parametrize("src,keys", [
        (np.array([1.7, 2.2, 3.9]), np.array([1, 2, 3], dtype=np.uint64)),
        (np.array([1, 2, 3, 4, 5]), np.array([1, 2, 3], dtype=np.uint64)),
        (np.array([True, False, True]), np.array([1, 2, 3], dtype=np.uint64)),
        (np.array([[1, 2, 3]]), np.array([1, 2, 3], dtype=np.uint64)),
        (np.array([1, 2, 3]), np.array([5, -1, 7], dtype=np.int64)),
    ], ids=["float-sources", "more-sources-than-keys", "bool-sources", "2-d-sources",
            "negative-key"])
    def test_a_malformed_batch_is_refused(self, src, keys):
        ring = CompactChordRing.build(50, m=16, seed=1)
        with pytest.raises(ValueError):
            ring.route_batch(src, keys)

    @pytest.mark.parametrize("keys", [
        np.array([5, -1, 7], dtype=np.int64),
        np.array([1.5, 2.0, 3.9]),
        np.array([True, False, True]),
        np.array([[1, 2, 3]], dtype=np.uint64),
    ], ids=["negative", "float", "bool", "2-d"])
    def test_malformed_keys_are_refused(self, keys):
        ring = CompactChordRing.build(50, m=16, seed=1)
        with pytest.raises(ValueError, match="keys"):
            ring.owners_of_keys(keys)
        with pytest.raises(ValueError, match="keys"):
            ring.route_batch(np.arange(keys.shape[-1]), keys)

    def test_keys_are_read_modulo_2_to_the_m_and_sources_must_be_slots(self):
        ring = CompactChordRing.build(50, m=16, seed=1)
        keys = np.array([5, 70_000, (1 << 64) - 1], dtype=np.uint64)
        signed = np.array([5, 70_000, (1 << 63) - 1], dtype=np.int64)
        assert np.array_equal(ring.owners_of_keys(keys), ring.owners_of_keys(keys & ring.mask))
        assert np.array_equal(ring.owners_of_keys(signed),
                              ring.owners_of_keys(signed.astype(np.uint64) & ring.mask))
        src = np.array([0, 1, 2])
        assert np.array_equal(ring.route_batch(src, keys)[0], ring.owners_of_keys(keys))
        with pytest.raises(ValueError, match="out of range"):
            ring.route_batch(np.array([0, 50, 1]), keys)


class TestShardStoreVsShards:
    def test_matches_per_node_shards(self):
        rng = np.random.default_rng(3)
        n_slots, n_entries, k = 16, 500, 3
        owners = rng.integers(0, n_slots, size=n_entries)
        keys = rng.integers(0, 1 << 40, size=n_entries, dtype=np.uint64)
        points = rng.uniform(0, 1, size=(n_entries, k))
        ids = np.arange(n_entries, dtype=np.int64)
        store = ShardStore.build(owners, keys, points, ids, n_slots)
        assert int(store.loads().sum()) == n_entries
        for slot in range(n_slots):
            shard = Shard(k)
            mask = owners == slot
            shard.add(keys[mask], points[mask], ids[mask])
            ks, ps, os_ = store.slice(slot)
            np.testing.assert_array_equal(ks, shard.keys)
            np.testing.assert_array_equal(ps, shard.points)
            np.testing.assert_array_equal(os_, shard.object_ids)
            lows, highs = np.full(k, 0.25), np.full(k, 0.75)
            _, rows = store.range_search(
                [slot], [lows], [highs], key_lo=[1 << 30], key_hi=[1 << 39])
            want = shard.range_search(lows, highs, key_lo=1 << 30, key_hi=1 << 39)
            np.testing.assert_array_equal(store.object_ids[rows], shard.object_ids[want])

    def test_lazy_shard_sort_matches_eager(self):
        rng = np.random.default_rng(4)
        s = Shard(2)
        ref_keys, ref_ids = [], []
        for _ in range(5):
            ks = rng.integers(0, 100, size=20, dtype=np.uint64)
            s.add(ks, rng.uniform(size=(20, 2)), np.arange(20))
            ref_keys.append(ks)
        allk = np.concatenate(ref_keys)
        np.testing.assert_array_equal(s.keys, np.sort(allk, kind="stable"))


class TestGaugeSetVector:
    def test_vector_matches_scalar(self):
        reg_a, reg_b = MetricsRegistry(), MetricsRegistry()
        vals = np.random.default_rng(7).uniform(size=50)
        g_a = reg_a.gauge("g", "x", ("pos",))
        g_b = reg_b.gauge("g", "x", ("pos",))
        for i, v in enumerate(vals):
            g_a.set(float(v), (str(i),))
        g_b.set_vector(vals)
        assert g_a.samples() == g_b.samples()

    def test_null_registry_noop(self):
        from repro.obs.registry import NullRegistry

        g = NullRegistry().gauge("g", "x", ("pos",))
        g.set_vector([1.0])  # must not raise


class TestHistogramObserveMany:
    def test_matches_loop(self):
        reg_a, reg_b = MetricsRegistry(), MetricsRegistry()
        vals = np.random.default_rng(5).exponential(0.1, size=1000)
        h_a = reg_a.histogram("h", buckets=(0.01, 0.05, 0.1, 0.5))
        h_b = reg_b.histogram("h", buckets=(0.01, 0.05, 0.1, 0.5))
        for v in vals:
            h_a.observe(float(v))
        h_b.observe_many(vals)
        assert h_a.count() == h_b.count()
        assert h_a.sum() == pytest.approx(h_b.sum())
        assert h_a.values[()].counts == h_b.values[()].counts
        assert h_a.percentile(0.9) == pytest.approx(h_b.percentile(0.9))

    @pytest.mark.parametrize("edge_share", [0, 0.5])
    def test_percentile_parity(self, edge_share):
        # batch and scalar paths must agree at every reported percentile,
        # also when values sit exactly on bucket bounds (searchsorted's
        # side="left" must land them where bisect_left does)
        buckets = (0.05, 0.1, 0.2, 0.5, 1.0)
        reg_a, reg_b = MetricsRegistry(), MetricsRegistry()
        rng = np.random.default_rng(8)
        vals = rng.exponential(0.2, size=500)
        on_edge = rng.uniform(size=vals.size) < edge_share
        vals[on_edge] = rng.choice(buckets, size=int(on_edge.sum()))
        h_a = reg_a.histogram("p", buckets=buckets)
        h_b = reg_b.histogram("p", buckets=buckets)
        for v in vals:
            h_a.observe(float(v))
        h_b.observe_many(vals)
        for q in (0.5, 0.9, 0.99):
            assert h_a.percentile(q) == h_b.percentile(q)

    def test_labeled_batch_matches_loop(self):
        reg_a, reg_b = MetricsRegistry(), MetricsRegistry()
        vals = np.random.default_rng(9).uniform(size=100)
        h_a = reg_a.histogram("l", buckets=(0.5,), labelnames=("shard",))
        h_b = reg_b.histogram("l", buckets=(0.5,), labelnames=("shard",))
        for v in vals:
            h_a.observe(float(v), ("a",))
        h_b.observe_many(vals, ("a",))
        assert h_a.percentile(0.9, ("a",)) == h_b.percentile(0.9, ("a",))
        assert h_a.values[("a",)].counts == h_b.values[("a",)].counts


class TestScaleSimulation:
    def test_end_to_end_small(self):
        cfg = ScaleConfig(
            n_nodes=500, n_objects=1000, n_queries=2000, chunk=500, dim=6,
            n_landmarks=3,
        )
        reg = MetricsRegistry()
        sim = ScaleSimulation(
            cfg, latency=king_coordinate_model(n_hosts=500, seed=1), registry=reg
        )
        sim.check_invariants()
        rep = sim.run()
        sim.check_invariants()
        assert rep.n_queries == 2000
        assert 0 < rep.mean_hops < 12
        assert rep.latency_p50_s > 0
        assert rep.health_samples >= 3
        assert rep.storage_load["gini"] > 0
        assert int(sim.forward_visits.sum()) > 0
        h = reg.get("scale_query_latency_seconds")
        assert h is not None and h.count() == 2000
        assert reg.get("scale_query_hops").count() == 2000

    def test_deterministic_per_seed(self):
        cfg = ScaleConfig(n_nodes=200, n_objects=400, n_queries=400, chunk=200,
                          dim=4, n_landmarks=3)
        reps = []
        for _ in range(2):
            sim = ScaleSimulation(cfg)
            reps.append(sim.run())
        assert reps[0].mean_hops == reps[1].mean_hops
        assert reps[0].storage_load["gini"] == reps[1].storage_load["gini"]

    def test_report_percentiles_are_numpys_bit_for_bit(self, monkeypatch):
        sim = ScaleSimulation(_small_cfg(), latency=king_coordinate_model(n_hosts=300, seed=2))
        routed = []
        route = CompactChordRing.route_batch

        def recording(self, *args, **kw):
            out = route(self, *args, **kw)
            routed.append(out)
            return out

        monkeypatch.setattr(CompactChordRing, "route_batch", recording)
        rep = sim.run()
        hops = np.concatenate([r[1] for r in routed])
        lat = np.concatenate([r[2] for r in routed])
        got = (rep.hops_p50, rep.hops_p99, rep.latency_p50_s, rep.latency_p99_s)
        want = tuple(float(np.percentile(x, q)) for x in (hops, lat) for q in (50, 99))
        assert got == want

    def test_smoke_entrypoint(self, capsys):
        from repro.check.scale_smoke import run_scale_smoke

        rc = run_scale_smoke(n_nodes=400, n_queries=400, budget_s=60.0)
        out = capsys.readouterr().out
        assert rc == 0
        assert "scale-smoke] OK" in out
        assert "forwarding visits" in out


def _small_cfg(**kw):
    base = dict(n_nodes=300, n_objects=600, n_queries=900, chunk=300,
                dim=4, n_landmarks=3, local_solve_sample=64)
    base.update(kw)
    return ScaleConfig(**base)


class TestScaleObservability:
    def test_counters_on_clean_run(self):
        reg = MetricsRegistry()
        sim = ScaleSimulation(_small_cfg(), registry=reg)
        rep = sim.run()
        assert rep.counters["routed"] == 900.0
        assert rep.counters["dropped"] == 0.0
        assert rep.counters["solved"] == 900.0
        assert rep.counters["trace_samples"] == float(rep.sampled_spans)
        assert rep.dropped == 0
        assert reg.get("scale_queries_routed_total").total() == 900.0

    def test_sampled_spans_deterministic_and_nonperturbing(self):
        from repro.obs import MemorySpanSink, SpanRecorder

        cfg = _small_cfg(trace_sample_every=16)
        plain = ScaleSimulation(cfg).run()
        sink = MemorySpanSink()
        traced_sim = ScaleSimulation(cfg, recorder=SpanRecorder(sink))
        traced = traced_sim.run()
        # sampling is a qid hash: same subset every run, and attaching a
        # recorder must not perturb the routing outcome
        assert plain.sampled_spans == traced.sampled_spans > 0
        assert plain.mean_hops == traced.mean_hops
        assert plain.storage_load["gini"] == traced.storage_load["gini"]
        # root span + one route event per sampled query
        roots = [s for s in sink.records if s.parent is None]
        assert len(roots) == traced.sampled_spans
        untr = ScaleSimulation(_small_cfg(trace_sample_every=0)).run()
        assert untr.sampled_spans == 0
        assert untr.mean_hops == plain.mean_hops

    def test_flight_records_chunk_history(self):
        sim = ScaleSimulation(_small_cfg())
        sim.run()
        kinds = [e["kind"] for e in sim.flight.events()]
        assert kinds.count("chunk") == 3  # 900 queries / 300 chunk
        assert sim.flight.context["config"]["n_nodes"] == 300
        assert not sim.flight.dumps  # clean run dumps nothing

    def test_deadline_storm_dumps_bundle(self, tmp_path, monkeypatch):
        from repro.obs.flight import load_bundle

        monkeypatch.setenv("REPRO_FLIGHT_DIR", str(tmp_path))
        sim = ScaleSimulation(_small_cfg(hop_deadline=1))
        rep = sim.run()
        assert rep.dropped > 0
        assert len(sim.flight.dumps) == 1  # one bundle per run, not per chunk
        bundle = load_bundle(sim.flight.dumps[0])
        assert bundle["reason"] == "deadline-storm"
        assert bundle["context"]["config"]["hop_deadline"] == 1
        assert any(e["kind"] == "deadline-storm" for e in bundle["events"])

    def test_invariant_violation_dumps_bundle(self, tmp_path, monkeypatch):
        from repro.obs.flight import load_bundle

        monkeypatch.setenv("REPRO_FLIGHT_DIR", str(tmp_path))
        sim = ScaleSimulation(_small_cfg())
        sim.store.offsets[-1] += 1  # corrupt the store
        with pytest.raises(AssertionError):
            sim.check_invariants()
        assert len(sim.flight.dumps) == 1
        assert load_bundle(sim.flight.dumps[0])["reason"] == "invariant-violation"

    def test_health_cadence_matches_chunking(self):
        sim = ScaleSimulation(_small_cfg())
        rep = sim.run()
        # one virtual second per chunk, one sample per second
        assert rep.health_samples == len(sim.chunk_stats) == 3
        series = sim.slo_series()
        assert series["health_cadence_ratio"] == [1.0]
        assert len(series["chunk_hops_p99"]) == 3

    def test_repeated_runs_continue_the_clock_and_the_health_cadence(self):
        """The clock counts chunks over every run() so far, and the sampler
        keeps one sample per virtual second across calls."""
        sim = ScaleSimulation(_small_cfg())
        for calls in range(1, 5):
            rep = sim.run(n_queries=300)  # one chunk per call
            assert rep.health_samples == calls
        assert sim.sim.now == 4.0
        assert [s.time for s in sim.sampler.samples] == [1.0, 2.0, 3.0, 4.0]
        assert sim.slo_series()["health_cadence_ratio"] == [1.0]
        sim.run(n_queries=600)  # two chunks
        assert sim.sim.now == 6.0 and len(sim.sampler.samples) == 6

    def test_each_report_gets_its_own_copy_of_the_stored_load(self):
        from repro.obs import hotspot_report

        sim = ScaleSimulation(_small_cfg())
        first = sim.run(n_queries=300)
        want = hotspot_report(sim.store.loads().astype(np.float64))
        assert first.storage_load == want
        first.storage_load["hotspots"][0]["load"] = -1.0
        first.storage_load["gini"] = -1.0
        assert sim.run(n_queries=300).storage_load == want

    def test_local_solve_counts_each_owners_hits(self):
        sim = ScaleSimulation(_small_cfg())
        # queries at stored points, each asked of the point's owner (and so
        # of a slot that repeats) plus one asked of an empty slot
        slot_of_row = np.repeat(np.arange(sim.cfg.n_nodes), sim.store.loads())
        qproj = sim.store.points[::7]
        owner = slot_of_row[::7]
        empty = int(np.flatnonzero(sim.store.loads() == 0)[0])
        qproj, owner = np.vstack([qproj, qproj[:1]]), np.append(owner, empty)
        hits = sim._local_solve(qproj, owner)
        assert hits[:-1].min() >= 1 and hits[-1] == 0
        radius = QUERY_RANGE_FACTOR * (sim.bounds.highs - sim.bounds.lows)
        for i, slot in enumerate(owner):
            _, pts, _ = sim.store.slice(int(slot))
            inside = np.all(
                (pts >= qproj[i] - radius) & (pts <= qproj[i] + radius), axis=1)
            assert hits[i] == int(inside.sum())

    def test_health_deciles_reconcile_with_forwarding(self):
        sim = ScaleSimulation(_small_cfg())
        sim.run()
        last = sim.sampler.samples[-1]
        want = np.percentile(
            sim.forward_visits.astype(float), list(range(0, 101, 10)))
        np.testing.assert_allclose(last.load_deciles, want)
        assert last.extra["routed_total"] == 900.0
        assert last.extra["live_nodes"] == 300.0

    def test_health_jsonl_streams(self, tmp_path):
        from repro.obs.ops import read_health_jsonl

        path = tmp_path / "health.jsonl"
        sim = ScaleSimulation(_small_cfg(), health_jsonl=path)
        rep = sim.run()
        sim.sampler.close()
        rows = read_health_jsonl(path)
        assert len(rows) == rep.health_samples
        assert rows[-1]["extra"]["routed_total"] == 900.0

    def test_load_gauges_skipped_beyond_cap(self):
        from repro.core.scale import _LOAD_GAUGE_MAX_NODES, STORED_LOAD_GAUGE

        reg = MetricsRegistry()
        sim = ScaleSimulation(_small_cfg(), registry=reg)
        sim.run()
        assert sim.cfg.n_nodes <= _LOAD_GAUGE_MAX_NODES
        gauge = reg.get(STORED_LOAD_GAUGE)
        assert gauge is not None and len(gauge.samples()) == 300


class TestChunkParts:
    """A chunk routed in parallel row parts is bit-identical to one part."""

    @staticmethod
    def _run(monkeypatch, cpus, min_rows=500, n_queries=5_000, chunk=2_000):
        from repro.core import scale
        from repro.obs import MemorySpanSink, SpanRecorder

        monkeypatch.setattr(scale, "_MIN_PART_ROWS", min_rows)
        monkeypatch.setattr(scale, "_usable_cpus", lambda: cpus)
        part_rows = []
        route_rows = ScaleSimulation._route_rows

        def recording(self, qpts, src):
            part_rows.append(len(src))
            return route_rows(self, qpts, src)

        monkeypatch.setattr(ScaleSimulation, "_route_rows", recording)
        cfg = ScaleConfig(n_nodes=2_000, n_objects=2_000, n_queries=n_queries, chunk=chunk,
                          dim=6, n_landmarks=3, seed=4, trace_sample_every=64)
        reg = MetricsRegistry()
        sink = MemorySpanSink()
        sim = ScaleSimulation(cfg, latency=king_coordinate_model(n_hosts=2_000, seed=6),
                              registry=reg, recorder=SpanRecorder(sink))
        report = sim.run()
        hists = {name: (h.counts, h.sum, h.count)
                 for name in ("scale_query_hops", "scale_query_latency_seconds")
                 for h in [reg.get(name).values[()]]}
        return report, sim, hists, sink.records, sorted(part_rows)

    @pytest.mark.parametrize("parts", [2, 3, 4])
    def test_parts_are_bit_identical_to_one(self, monkeypatch, parts):
        import sys

        one = self._run(monkeypatch, cpus=1)
        # more parts than this box may have cores, switching threads often
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            many = self._run(monkeypatch, cpus=parts)
        finally:
            sys.setswitchinterval(interval)
        assert one[4] == [1_000, 2_000, 2_000]
        # chunks of 2,000 and 1,000 rows; the last never splits beyond its
        # 500-row minimum parts
        want = [2_000 * i // parts - 2_000 * (i - 1) // parts for i in range(1, parts + 1)]
        assert many[4] == sorted(want * 2 + [1_000 // min(parts, 2)] * min(parts, 2))
        assert many[0] == one[0]
        assert many[0].sampled_spans == one[0].sampled_spans > 0
        assert np.array_equal(many[1].forward_visits, one[1].forward_visits)
        assert many[1].chunk_stats == one[1].chunk_stats
        assert many[2] == one[2]
        assert many[3] == one[3]

    def test_a_one_part_chunk_starts_no_thread(self, monkeypatch):
        from types import SimpleNamespace

        from repro.core import scale

        def no_thread(*args, **kwargs):
            raise AssertionError("a one-part chunk started a thread")

        monkeypatch.setattr(scale, "threading", SimpleNamespace(Thread=no_thread))
        # pinned to one CPU, and a chunk below two minimum parts
        assert self._run(monkeypatch, cpus=1)[4] == [1_000, 2_000, 2_000]
        assert self._run(monkeypatch, cpus=4, min_rows=1_001)[4] == [1_000, 2_000, 2_000]

    @pytest.mark.parametrize("failing", ["worker", "caller"])
    def test_a_failing_part_raises_and_leaves_no_thread(self, monkeypatch, failing):
        import threading
        import time

        route_rows = ScaleSimulation._route_rows

        def flaky(self, qpts, src):
            on_caller = threading.current_thread() is threading.main_thread()
            if on_caller == (failing == "caller"):
                raise RuntimeError("part failed")
            # the healthy part is still running when the other one raises
            time.sleep(0.2)
            return route_rows(self, qpts, src)

        sim = ScaleSimulation(_small_cfg(n_queries=600, chunk=600))
        monkeypatch.setattr("repro.core.scale._MIN_PART_ROWS", 100)
        monkeypatch.setattr("repro.core.scale._usable_cpus", lambda: 2)
        monkeypatch.setattr(ScaleSimulation, "_route_rows", flaky)
        with pytest.raises(RuntimeError, match="part failed"):
            sim.run()
        assert not [t for t in threading.enumerate() if t.name.startswith("scale-part-")]


class TestRunCount:
    @pytest.mark.parametrize("bad", [-3, 2.7, 3.0, True, "5", np.float64(4.0)])
    def test_anything_but_a_non_negative_int_is_refused(self, bad):
        sim = ScaleSimulation(_small_cfg())
        with pytest.raises(ValueError, match="n_queries must be a non-negative int"):
            sim.run(n_queries=bad)
        assert sim.chunk_stats == []

    def test_ints_and_the_default_are_accepted(self):
        sim = ScaleSimulation(_small_cfg())
        assert sim.run(n_queries=np.int64(300)).n_queries == 300
        assert sim.run(n_queries=0).n_queries == 0
        assert sim.run().n_queries == 900
