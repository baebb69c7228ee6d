"""A landmark index's entries live only in its shards.

After a crash, everything that reads or re-places an index — its entry
count, inserts, deletes, load migration, persistence and reindexing — sees
the entries the surviving shards hold and nothing else.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.loadbalance import dynamic_load_migration
from repro.core.platform import IndexPlatform, LandmarkIndex
from repro.core.updates import UpdateProtocol
from repro.dht.ring import ChordRing
from repro.io import load_index, save_index
from repro.metric.vector import EuclideanMetric
from repro.sim.network import ConstantLatency

DIM = 4
METRIC = EuclideanMetric(box=(0, 100), dim=DIM)
N_OBJ = 400


def _platform(replication=1, n_nodes=12):
    rng = np.random.default_rng(0)
    centers = rng.uniform(0, 100, size=(3, DIM))
    data = np.clip(centers[rng.integers(0, 3, N_OBJ)] + rng.normal(0, 5, (N_OBJ, DIM)), 0, 100)
    ring = ChordRing.build(n_nodes, m=24, seed=0,
                           latency=ConstantLatency(n_nodes, delay=0.01), pns=False)
    platform = IndexPlatform(ring)
    platform.create_index("idx", data, METRIC, k=2, selection="kmeans",
                          sample_size=200, replication=replication, seed=0)
    return platform, data


def _stored_ids(index):
    """Distinct object ids across every shard."""
    return sorted(set(np.concatenate([s.object_ids for s in index.shards.values()]).tolist()))


@pytest.fixture
def crashed():
    """Replication 1; the most-loaded node crashed.  Returns the platform,
    the index, and the ids its surviving shards hold."""
    platform, _ = _platform()
    index = platform.indexes["idx"]
    victim = max(index.shards, key=lambda n: index.shards[n].load)
    lost = set(index.shards[victim].object_ids.tolist())
    assert len(lost) > N_OBJ // 2  # the clustered data piles onto one node
    victim.alive = False
    platform.fail_node(victim)
    survivors = sorted(set(range(N_OBJ)) - lost)
    assert _stored_ids(index) == survivors
    return platform, index, survivors


class TestAfterACrash:
    def test_total_entries_counts_the_survivors(self, crashed):
        _, index, survivors = crashed
        assert index.total_entries() == len(survivors)
        assert index.entries()[2].tolist() == survivors

    def test_insert_adds_only_its_entry(self, crashed):
        _, index, survivors = crashed
        oid = next(i for i in range(N_OBJ) if i not in survivors)
        UpdateProtocol(index).insert(oid)
        assert _stored_ids(index) == sorted(survivors + [oid])
        assert index.total_entries() == len(survivors) + 1

    def test_delete_removes_only_its_entry(self, crashed):
        _, index, survivors = crashed
        assert UpdateProtocol(index).delete(survivors[0])
        assert _stored_ids(index) == survivors[1:]
        assert index.total_entries() == len(survivors) - 1

    def test_load_migration_moves_only_the_survivors(self, crashed):
        platform, index, survivors = crashed
        report = dynamic_load_migration(platform, max_rounds=1, seed=0)
        assert report.moves >= 1
        assert _stored_ids(index) == survivors
        assert index.total_entries() == len(survivors)

    def test_save_index_writes_only_the_survivors(self, crashed, tmp_path):
        platform, index, survivors = crashed
        path = tmp_path / "idx.npz"
        save_index(index, str(path))
        with np.load(path) as z:
            assert sorted(z["object_ids"].tolist()) == survivors
        restored = load_index(str(path), platform.ring, index.dataset, METRIC)
        assert _stored_ids(restored) == survivors

    def test_distribute_loses_nothing_more(self, crashed):
        _, index, survivors = crashed
        index.distribute()
        assert _stored_ids(index) == survivors


class TestReindex:
    def test_deleted_objects_stay_out(self):
        platform, _ = _platform()
        index = platform.indexes["idx"]
        up = UpdateProtocol(index)
        for oid in range(10):
            assert up.delete(oid)
        assert index.total_entries() == N_OBJ - 10
        report = platform.reindex("idx", threshold=-1.0)
        assert report["adopted"] == 1.0
        index = platform.indexes["idx"]
        assert _stored_ids(index) == list(range(10, N_OBJ))
        assert report["moved"] == N_OBJ - 10


class TestEntries:
    def test_replicas_fold_to_one_entry(self):
        platform, data = _platform(replication=3)
        index = platform.indexes["idx"]
        keys, points, object_ids = index.entries()
        assert index.load_distribution().sum() == 3 * N_OBJ
        assert object_ids.tolist() == list(range(N_OBJ))
        assert index.total_entries() == N_OBJ
        np.testing.assert_array_equal(points, index.space.project(data))
        assert keys.dtype == np.uint64 and len(keys) == N_OBJ

    def test_read_only(self):
        platform, _ = _platform()
        keys, points, object_ids = platform.indexes["idx"].entries()
        for a in (keys, points, object_ids):
            with pytest.raises(ValueError):
                a[:1] = 0

    def test_graceful_leave_hands_the_shard_over(self):
        platform, _ = _platform()
        index = platform.indexes["idx"]
        node = max(index.shards, key=lambda n: index.shards[n].load)
        held = index.shards[node].load
        platform.ring.remove_node(node)
        assert index.distribute() == held  # each of its entries has a new primary
        assert node not in index.shards
        assert index.total_entries() == N_OBJ
        assert index.distribute() == 0

    def test_remove_entry_rewrites_only_its_holders(self):
        platform, _ = _platform(replication=2)
        index = platform.indexes["idx"]
        before = {node: shard.object_ids.copy() for node, shard in index.shards.items()}
        holders = {node for node, ids in before.items() if 7 in ids}
        assert len(holders) == 2
        key = int(index.entries()[0][7])
        assert index.remove_entry(7) == key
        for node, shard in index.shards.items():
            want = before[node][before[node] != 7] if node in holders else before[node]
            np.testing.assert_array_equal(shard.object_ids, want)
        assert index.remove_entry(7) is None


# -- no second copy of the entries ----------------------------------------------

#: LandmarkIndex fields that store or record entries; only core/platform.py
#: reads them (a class's own ``self._keys`` elsewhere is its own field)
_ENTRY_INTERNALS = {"_keys", "_points", "_object_ids", "_owner_objs", "_primaries",
                    "_primary_holders"}
_RETIRED = {"rebuild_from_shards", "surviving_object_ids", "append_entries", "rotated_keys"}


def test_entry_internals_stay_in_the_platform():
    src = Path(repro.__file__).parent
    roots = [src, src.parent.parent / "benchmarks" / "baselines"]
    found = []
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            rel = path.relative_to(root.parent).as_posix()
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Attribute):
                    continue
                own = isinstance(node.value, ast.Name) and node.value.id == "self"
                if node.attr in _RETIRED or (
                    node.attr in _ENTRY_INTERNALS and not own
                    and rel != "repro/core/platform.py"
                ):
                    found.append(f"{rel}:{node.lineno} .{node.attr}")
    assert found == []
    index = _platform()[0].indexes["idx"]
    for name in ("_keys", "_points", "_object_ids", "_owner_objs", *_RETIRED):
        assert not hasattr(index, name), name
        assert not hasattr(LandmarkIndex, name), name
