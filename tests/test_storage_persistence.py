"""WAL + snapshot persistence: recovery, torn tails, double-apply, digests.

Unit-level coverage of :class:`repro.core.storage.WriteAheadLog` and
:class:`repro.core.storage.PersistentShard` — the disk format under the
live backend.  The live SIGKILL scenario is ``tests/test_net_recovery.py``;
here the crash states are synthesised directly on the files.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.storage import PersistentShard, Shard, WriteAheadLog
from repro.util.arrays import encode_array


def batch(rng, n, k=2):
    keys = rng.integers(0, 2**32, size=n, dtype=np.uint64)
    points = rng.uniform(0, 1000, size=(n, k))
    ids = rng.integers(0, 2**31, size=n, dtype=np.int64)
    return keys, points, ids


def test_wal_append_replay_round_trip(tmp_path):
    wal = WriteAheadLog(tmp_path / "wal.jsonl")
    wal.append({"seq": 1, "x": [1, 2]})
    wal.append({"seq": 2, "x": [3]})
    wal.close()
    assert WriteAheadLog(tmp_path / "wal.jsonl").replay() == [
        {"seq": 1, "x": [1, 2]}, {"seq": 2, "x": [3]},
    ]


def test_wal_tolerates_torn_final_line(tmp_path):
    path = tmp_path / "wal.jsonl"
    wal = WriteAheadLog(path)
    wal.append({"seq": 1})
    wal.close()
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"seq": 2, "x": [1,')  # SIGKILL mid-append
    assert WriteAheadLog(path).replay() == [{"seq": 1}]


def test_wal_rejects_mid_log_corruption(tmp_path):
    path = tmp_path / "wal.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{"seq": 1}\n')
        fh.write("GARBAGE\n")
        fh.write('{"seq": 2}\n')  # valid data AFTER damage: not a torn tail
    with pytest.raises(ValueError, match="damaged"):
        WriteAheadLog(path).replay()


def test_persistent_shard_recovers_bit_identically(tmp_path):
    rng = np.random.default_rng(0)
    shard = PersistentShard(tmp_path, k=2)
    for _ in range(3):
        shard.add(*batch(rng, 16))
    digest = shard.digest()
    raw = (shard.shard.keys.tobytes(), shard.shard.points.tobytes(),
           shard.shard.object_ids.tobytes())
    shard.close()

    recovered = PersistentShard(tmp_path, k=2)
    assert recovered.digest() == digest
    assert recovered.shard.keys.tobytes() == raw[0]
    assert recovered.shard.points.tobytes() == raw[1]
    assert recovered.shard.object_ids.tobytes() == raw[2]


def test_snapshot_compacts_and_recovery_does_not_double_apply(tmp_path):
    rng = np.random.default_rng(1)
    shard = PersistentShard(tmp_path, k=2)
    shard.add(*batch(rng, 10))
    shard.snapshot()
    assert shard.wal_records == 0
    shard.add(*batch(rng, 5))
    digest = shard.digest()
    shard.close()

    recovered = PersistentShard(tmp_path, k=2)
    assert len(recovered.shard) == 15
    assert recovered.digest() == digest


def test_crash_between_snapshot_and_truncate_is_safe(tmp_path):
    # the dangerous window: snapshot.json written, wal.jsonl NOT yet
    # truncated — every WAL record's seq <= snapshot seq must be skipped
    rng = np.random.default_rng(2)
    shard = PersistentShard(tmp_path, k=2)
    shard.add(*batch(rng, 8))
    shard.add(*batch(rng, 8))
    digest = shard.digest()
    wal_bytes = (tmp_path / "wal.jsonl").read_bytes()
    shard.snapshot()
    shard.close()
    # resurrect the pre-truncation WAL next to the fresh snapshot
    (tmp_path / "wal.jsonl").write_bytes(wal_bytes)

    recovered = PersistentShard(tmp_path, k=2)
    assert len(recovered.shard) == 16  # not 32
    assert recovered.digest() == digest


def test_recovery_with_torn_wal_tail_keeps_acknowledged_batches(tmp_path):
    rng = np.random.default_rng(3)
    shard = PersistentShard(tmp_path, k=2)
    shard.add(*batch(rng, 6))
    shard.add(*batch(rng, 6))
    shard.close()
    with open(tmp_path / "wal.jsonl", "ab") as fh:
        fh.write(b'{"seq": 3, "keys": {"__nd__":')  # torn third batch

    recovered = PersistentShard(tmp_path, k=2)
    assert len(recovered.shard) == 12
    # the next accepted batch must not reuse the torn record's file position
    recovered.add(*batch(rng, 2))
    recovered.close()
    again = PersistentShard(tmp_path, k=2)
    assert len(again.shard) == 14


def test_meta_round_trip_and_merge(tmp_path):
    shard = PersistentShard(tmp_path, k=2)
    shard.set_meta(successors=[{"id": 1, "addr": "127.0.0.1:9"}])
    shard.set_meta(predecessor=None, node_id=42)
    shard.close()
    recovered = PersistentShard(tmp_path, k=2)
    assert recovered.meta["successors"] == [{"id": 1, "addr": "127.0.0.1:9"}]
    assert recovered.meta["node_id"] == 42
    assert recovered.meta["predecessor"] is None


def _meta_writes(tmp_path):
    """Identity of ``meta.json`` on disk: every write renames a new file in."""
    st = (tmp_path / "meta.json").stat()
    return st.st_ino, st.st_mtime_ns


def test_set_meta_with_unchanged_state_does_not_touch_the_file(tmp_path):
    shard = PersistentShard(tmp_path, k=2)
    state = {"successors": [{"id": 1, "addr": "127.0.0.1:9"}], "predecessor": None}
    shard.set_meta(**state)
    written = _meta_writes(tmp_path)
    for _ in range(5):
        shard.set_meta(**state)
        shard.set_meta(predecessor=None)
    assert _meta_writes(tmp_path) == written
    shard.close()
    recovered = PersistentShard(tmp_path, k=2)  # what was recovered counts as written
    recovered.set_meta(**state)
    assert _meta_writes(tmp_path) == written
    recovered.set_meta(predecessor={"id": 2, "addr": "127.0.0.1:7"})
    assert _meta_writes(tmp_path) != written
    recovered.close()
    assert PersistentShard(tmp_path, k=2).meta["predecessor"]["id"] == 2


def test_set_meta_sees_a_change_made_inside_the_callers_objects(tmp_path):
    shard = PersistentShard(tmp_path, k=2)
    succ = [{"id": 1, "addr": "127.0.0.1:9"}]
    shard.set_meta(successors=succ)
    succ[0]["id"] = 5  # the dict the shard holds changed with it
    shard.set_meta(successors=succ)
    shard.close()
    assert PersistentShard(tmp_path, k=2).meta["successors"][0]["id"] == 5


def test_k_mismatch_rejected(tmp_path):
    shard = PersistentShard(tmp_path, k=2)
    shard.add(np.array([1], dtype=np.uint64), np.zeros((1, 2)), np.array([7]))
    shard.snapshot()
    shard.close()
    with pytest.raises(ValueError, match="k="):
        PersistentShard(tmp_path, k=3)


def test_wal_records_are_plain_json_lines(tmp_path):
    # operational property: the WAL is inspectable with standard tools
    rng = np.random.default_rng(4)
    shard = PersistentShard(tmp_path, k=2)
    shard.add(*batch(rng, 3))
    shard.close()
    lines = (tmp_path / "wal.jsonl").read_text().splitlines()
    assert len(lines) == 1
    rec = json.loads(lines[0])
    assert rec["seq"] == 1
    assert set(rec) == {"seq", "keys", "points", "ids"}


def test_wal_lines_are_what_json_dumps_writes(tmp_path):
    """``append`` writes with one encoder built per process; its lines are
    ``json.dumps(record, separators=(",", ":"))`` byte for byte."""
    rng = np.random.default_rng(6)
    keys, points, ids = batch(rng, 5)
    records = [
        {"seq": 1, "keys": encode_array(keys), "points": encode_array(points),
         "ids": encode_array(ids)},
        {"seq": 2**64 + 3, "note": "é\u2603\n\"", "x": [1.5, -0.0, 1e300, 5e-324, None, True],
         "nested": {"a": [[], {}], "n": float("nan"), "i": float("-inf")}, 7: "int key"},
        {},
    ]
    path = tmp_path / "wal.jsonl"
    wal = WriteAheadLog(path)
    for rec in records:
        wal.append(rec)
    wal.close()
    want = "".join(json.dumps(rec, separators=(",", ":")) + "\n" for rec in records)
    assert path.read_bytes() == want.encode("utf-8")
    other = WriteAheadLog(tmp_path / "other.jsonl")
    with pytest.raises(TypeError, match="not JSON serializable"):
        other.append({"x": {1, 2}})
    other.close()


#: shapes that name the right number of elements only after ``int()`` or
#: ``bool`` coercion: 2 int64 values under a shape of 2.9, "2" or [True, 2]
COERCED_SHAPES = [[2.9], ["2"], [True, 2], [2.0]]


@pytest.mark.parametrize("shape", COERCED_SHAPES, ids=["float", "str", "bool", "float-int"])
def test_a_wal_record_with_a_coerced_shape_fails_recovery(tmp_path, shape):
    shard = PersistentShard(tmp_path, k=1)
    shard.add(np.array([1, 2], dtype=np.uint64), np.zeros((2, 1)), np.array([7, 8]))
    shard.close()
    path = tmp_path / "wal.jsonl"
    rec = json.loads(path.read_text())
    rec["ids"]["shape"] = shape
    path.write_text(json.dumps(rec) + "\n")
    with pytest.raises(ValueError, match="shape"):
        PersistentShard(tmp_path, k=1)


@pytest.mark.parametrize("shape", COERCED_SHAPES, ids=["float", "str", "bool", "float-int"])
def test_a_snapshot_with_a_coerced_shape_fails_recovery(tmp_path, shape):
    shard = PersistentShard(tmp_path, k=1)
    shard.add(np.array([1, 2], dtype=np.uint64), np.zeros((2, 1)), np.array([7, 8]))
    shard.snapshot()
    shard.close()
    path = tmp_path / "snapshot.json"
    snap = json.loads(path.read_text())
    snap["keys"]["shape"] = shape
    path.write_text(json.dumps(snap))
    with pytest.raises(ValueError, match="shape"):
        PersistentShard(tmp_path, k=1)


#: WAL ``seq`` values ``int()`` would have coerced (1.9 → 1, "2" → 2,
#: true → 1) or read as 0, "already in the snapshot" (missing)
COERCED_SEQS = [1.9, "2", True, None]


@pytest.mark.parametrize("seq", COERCED_SEQS, ids=["float", "str", "bool", "missing"])
def test_a_wal_record_with_a_coerced_seq_fails_recovery(tmp_path, seq):
    shard = PersistentShard(tmp_path, k=1)
    shard.add(np.array([1, 2], dtype=np.uint64), np.zeros((2, 1)), np.array([7, 8]))
    shard.add(np.array([3], dtype=np.uint64), np.zeros((1, 1)), np.array([9]))
    shard.close()
    path = tmp_path / "wal.jsonl"
    first, second = (json.loads(line) for line in path.read_text().splitlines())
    if seq is None:
        del second["seq"]
    else:
        second["seq"] = seq
    path.write_text(json.dumps(first) + "\n" + json.dumps(second) + "\n")
    with pytest.raises(ValueError, match=r"wal\.jsonl: record seq"):
        PersistentShard(tmp_path, k=1)


@pytest.mark.parametrize("field, value", [("k", "4"), ("seq", 2.5)], ids=["k-str", "seq-float"])
def test_a_snapshot_with_a_coerced_k_or_seq_fails_recovery(tmp_path, field, value):
    shard = PersistentShard(tmp_path, k=4)
    shard.add(np.array([1, 2], dtype=np.uint64), np.zeros((2, 4)), np.array([7, 8]))
    shard.snapshot()
    shard.close()
    path = tmp_path / "snapshot.json"
    snap = json.loads(path.read_text())
    snap[field] = value
    path.write_text(json.dumps(snap))
    with pytest.raises(ValueError, match=rf"snapshot\.json: snapshot {field}"):
        PersistentShard(tmp_path, k=4)


def test_persistent_shard_matches_plain_shard_semantics(tmp_path):
    rng = np.random.default_rng(5)
    keys, points, ids = batch(rng, 32)
    plain = Shard(2)
    plain.add(keys, points, ids)
    durable = PersistentShard(tmp_path, k=2)
    durable.add(keys, points, ids)
    lows, highs = np.array([100.0, 100.0]), np.array([800.0, 800.0])
    a = plain.object_ids[plain.range_search(lows, highs)]
    b = durable.shard.object_ids[durable.shard.range_search(lows, highs)]
    assert np.array_equal(a, b)
    durable.close()
