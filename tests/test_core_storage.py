"""The shard stores: column-major layout, the progressive range kernel, input checks.

``reference_positions`` below is the one-shot mask the stores used before the
kernel existed — every coordinate of every row, then one ``all`` — and is kept
here, and only here, as the oracle: :class:`Shard` and :class:`ShardStore`
must return exactly its positions on any entries, rectangle and key range.
The disk-format half (a fixture written by the last row-major commit) pins
that the transposed layout changed no byte of ``snapshot.json``/``wal.jsonl``
and no ``digest()``.
"""

from __future__ import annotations

import json
import shutil
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import storage
from repro.core.storage import PersistentShard, Shard, ShardStore
from repro.util.arrays import decode_array

FIXTURE = Path(__file__).parent / "fixtures" / "storage_pr14"
B = storage._BLOCK_ROWS
#: window sizes on both sides of everything the kernel branches on
SIZES = [0, 1, 2, 3, B - 1, B, B + 1, 2 * B + 3, 1000]


def reference_positions(keys, points, lows, highs, key_lo=None, key_hi=None):
    """One-shot mask over the sorted ``(n, k)`` rows; closed bounds."""
    mask = np.all((points >= lows) & (points <= highs), axis=1)
    if key_lo is not None:
        mask &= keys >= np.uint64(key_lo)
    if key_hi is not None:
        mask &= keys <= np.uint64(key_hi)
    return np.flatnonzero(mask)


def entries(seed: int, n: int, k: int, grid: int = 6, key_span: int = 40,
            poison: bool = False):
    """``n`` entries on a small grid: coordinates and keys repeat, so drawn
    rectangle edges and key bounds coincide with stored values.  ``poison``
    turns about one coordinate in ten into NaN, +inf or -inf."""
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, key_span, size=n, dtype=np.uint64)
    points = rng.integers(0, grid, size=(n, k)).astype(np.float64)
    if poison:
        bad = rng.random((n, k)) < 0.1
        points[bad] = rng.choice([np.nan, np.inf, -np.inf], size=int(bad.sum()))
    ids = rng.permutation(n).astype(np.int64)
    return keys, points, ids


def filled_shard(keys, points, ids, cuts=()) -> Shard:
    """A shard fed the entries in input order, in batches split at ``cuts``."""
    shard = Shard(points.shape[1])
    edges = [0, *sorted(cuts), len(keys)]
    for a, b in zip(edges, edges[1:]):
        shard.add(keys[a:b], points[a:b], ids[a:b])
    return shard


@st.composite
def cases(draw):
    k = draw(st.integers(1, 12))
    n = draw(st.sampled_from(SIZES))
    seed = draw(st.integers(0, 2**16))
    # narrow: distinct keys and a key range holding a window of 0-3 rows
    narrow = n > 0 and draw(st.booleans())
    keys, points, ids = entries(seed, n, k, key_span=1 << 40 if narrow else 40,
                                poison=draw(st.booleans()))
    cuts = draw(st.lists(st.integers(0, n), max_size=3))
    # bounds on and between grid values; lows > highs (inverted) is allowed
    bound = st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0, 3.0, 4.5, 5.0, 6.0])
    lows = np.array(draw(st.lists(bound, min_size=k, max_size=k)))
    wide = draw(st.booleans())  # most drawn rectangles are empty in 12 dimensions
    highs = np.full(k, 5.0) if wide else np.array(draw(st.lists(bound, min_size=k, max_size=k)))
    if narrow:
        srt = np.sort(keys).tolist()
        rows = draw(st.integers(0, min(3, n)))
        at = draw(st.integers(0, n - rows))
        key_lo = srt[at] if rows else srt[min(at, n - 1)] + 1
        return keys, points, ids, cuts, lows, highs, key_lo, srt[at + rows - 1] if rows else key_lo
    key = st.none() | st.integers(0, 45)
    return keys, points, ids, cuts, lows, highs, draw(key), draw(key)


@settings(max_examples=300, deadline=None)
@given(cases())
def test_shard_matches_one_shot_reference(case):
    keys, points, ids, cuts, lows, highs, key_lo, key_hi = case
    shard = filled_shard(keys, points, ids, cuts)
    order = np.argsort(keys, kind="stable")
    # reads after unsorted adds: the lazily restored order is the stable sort
    assert shard.points.shape == points.shape
    assert shard.keys.tobytes() == keys[order].tobytes()
    assert shard.points.tobytes() == points[order].tobytes()
    assert shard.object_ids.tobytes() == ids[order].tobytes()
    pos = shard.range_search(lows, highs, key_lo, key_hi)
    want = reference_positions(keys[order], points[order], lows, highs, key_lo, key_hi)
    assert pos.dtype == np.int64
    assert pos.tolist() == want.tolist()  # equal and ascending
    assert shard.points[pos].tobytes() == points[order][want].tobytes()
    if key_lo is not None and key_hi is not None and key_lo > key_hi:
        assert len(pos) == 0


@settings(max_examples=150, deadline=None)
@given(cases(), st.integers(1, 4), st.integers(0, 2**16))
def test_shard_store_matches_per_slot_shards(case, n_slots, owner_seed):
    keys, points, ids, _, lows, highs, key_lo, key_hi = case
    owners = np.random.default_rng(owner_seed).integers(0, n_slots, size=len(keys))
    store = ShardStore.build(owners, keys, points, ids, n_slots)
    assert store.points.shape == points.shape
    assert int(store.loads().sum()) == len(keys) == len(store)
    for slot in range(n_slots):
        sel = owners == slot
        shard = filled_shard(keys[sel], points[sel], ids[sel])
        ks, ps, os_ = store.slice(slot)
        assert ps.shape == shard.points.shape
        assert ks.tobytes() == shard.keys.tobytes()
        assert ps.tobytes() == shard.points.tobytes()
        assert os_.tobytes() == shard.object_ids.tobytes()
        which, rows = store.range_search(
            [slot], [lows], [highs],
            None if key_lo is None else [key_lo], None if key_hi is None else [key_hi])
        got = rows - store.offsets[slot]  # a one-row batch, as positions in the slice
        want = shard.range_search(lows, highs, key_lo, key_hi)
        assert which.tolist() == [0] * len(want)
        assert got.tolist() == want.tolist()
        assert ps[got].tobytes() == shard.points[want].tobytes()


@pytest.mark.parametrize("k", [1, 4, 10])
def test_large_window_with_survivor_counts_around_the_block_size(k):
    """50k rows: the passes hand over to the block test at every dimension."""
    n = 50_000
    rng = np.random.default_rng(k)
    keys = rng.integers(0, 2**40, size=n, dtype=np.uint64)
    points = rng.uniform(0.0, 1.0, size=(n, k))
    shard = filled_shard(keys, points, np.arange(n, dtype=np.int64), cuts=(n // 3,))
    order = np.argsort(keys, kind="stable")
    keys, points = keys[order], points[order]
    for rate in (0.01, 0.16, 0.5, 1.0):
        lows = np.full(k, 0.5 - rate / 2)
        highs = np.full(k, 0.5 + rate / 2)
        lows[0], highs[0] = sorted(points[[7, n - 7], 0])  # edges on stored values
        for key_lo, key_hi in ((None, None), (2**38, None), (2**39, 2**39 + 2**33)):
            pos = shard.range_search(lows, highs, key_lo, key_hi)
            want = reference_positions(keys, points, lows, highs, key_lo, key_hi)
            assert pos.tolist() == want.tolist()


def test_closed_bounds_keep_rows_on_the_rectangle_edge():
    points = np.array([[1.0, 5.0], [2.0, 6.0], [3.0, 7.0]])
    shard = filled_shard(np.array([3, 1, 2], dtype=np.uint64), points, np.array([10, 11, 12]))
    # sorted by key: rows 1, 2, 0
    assert shard.range_search([2.0, 5.0], [3.0, 7.0]).tolist() == [0, 1]
    assert shard.range_search([2.0, 6.0], [2.0, 6.0]).tolist() == [0]
    assert shard.range_search([2.0, 6.0], [2.0, 6.0], key_lo=1, key_hi=1).tolist() == [0]
    assert shard.range_search([2.0, 6.0], [2.0, 6.0], key_lo=2, key_hi=3).tolist() == []
    assert shard.range_search([3.0, 5.0], [1.0, 7.0]).tolist() == []  # inverted
    assert shard.object_ids[shard.range_search([1.0, 5.0], [1.0, 5.0])].tolist() == [10]


def test_no_dimensions_means_every_row_of_the_key_window():
    shard = Shard(0)
    shard.add(np.array([4, 2, 9], dtype=np.uint64), np.empty((3, 0)), np.array([0, 1, 2]))
    assert shard.points.shape == (3, 0)
    assert shard.range_search([], []).tolist() == [0, 1, 2]
    assert shard.range_search([], [], key_lo=3).tolist() == [1, 2]


def test_range_search_temporaries_stay_under_eight_bytes_per_row():
    """The one-shot mask needs ``2·n·k`` bytes of masks; the kernel two bytes
    per row for the first pass and eight per survivor after it."""
    n, k = 50_000, 10
    rng = np.random.default_rng(0)
    points = rng.uniform(0.0, 1.0, size=(n, k))
    keys = np.sort(rng.integers(0, 2**40, size=n, dtype=np.uint64))
    # two batches: the second doubles the capacity past n, so columns are strided
    shard = filled_shard(keys, points, np.arange(n, dtype=np.int64), cuts=(30_000,))
    lows, highs = np.full(k, 0.4), np.full(k, 0.6)  # pass rate 0.2 per dimension
    shard.range_search(lows, highs)  # sorted and warm before measuring

    def peak(fn) -> int:
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    sorted_points = np.ascontiguousarray(shard.points)
    assert peak(lambda: shard.range_search(lows, highs)) < 8 * n
    assert peak(lambda: reference_positions(keys, sorted_points, lows, highs)) >= 2 * n * k


# -- the batched store search ---------------------------------------------------


@st.composite
def batches(draw):
    """A store over a few slots (some of them empty) and a batch of subqueries
    on it: slots repeat, each row has its own rectangle and may have its own
    key window, empty ones (``key_lo > key_hi``) included."""
    k = draw(st.integers(0, 6))
    n = draw(st.sampled_from([0, 1, 2, 40, 300]))
    n_slots = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2**16))
    # narrow: distinct keys and a key range holding a window of 0-3 rows
    narrow = n > 0 and draw(st.booleans())
    keys, points, ids = entries(seed, n, k, key_span=1 << 40 if narrow else 40,
                                poison=draw(st.booleans()))
    # owners drawn from a subset, so slots outside it stay empty
    used = draw(st.lists(st.integers(0, n_slots - 1), min_size=1, max_size=n_slots))
    owners = np.random.default_rng(seed + 1).choice(used, size=n)
    store = ShardStore.build(owners, keys, points, ids, n_slots)
    n_q = draw(st.sampled_from([0, 1, 2, 17]))
    slots = draw(st.lists(st.integers(0, n_slots - 1), min_size=n_q, max_size=n_q))
    bound = st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0, 3.0, 4.5, 5.0, 6.0])
    lows = np.array(draw(st.lists(
        st.lists(bound, min_size=k, max_size=k), min_size=n_q, max_size=n_q)))
    # highs at the grid's top half the time: most random boxes are empty
    highs = np.array(draw(st.lists(
        st.lists(bound | st.just(5.0), min_size=k, max_size=k), min_size=n_q, max_size=n_q)))
    key = st.lists(st.integers(0, 45), min_size=n_q, max_size=n_q)
    key_lo = draw(st.none() | key)
    key_hi = draw(st.none() | key)
    return store, slots, lows.reshape(n_q, k), highs.reshape(n_q, k), key_lo, key_hi


def reference_batch(store, slots, lows, highs, key_lo, key_hi):
    """Per subquery, the one-shot oracle over its slot's slice, as store rows."""
    which, rows = [], []
    for i, slot in enumerate(slots):
        ks, ps, _ = store.slice(slot)
        pos = reference_positions(
            ks, ps, lows[i], highs[i],
            None if key_lo is None else key_lo[i], None if key_hi is None else key_hi[i])
        which += [i] * len(pos)
        rows += (pos + store.offsets[slot]).tolist()
    return which, rows


@settings(max_examples=300, deadline=None)
@given(batches())
def test_batched_store_search_matches_the_oracle_per_subquery(case):
    store, slots, lows, highs, key_lo, key_hi = case
    which, rows = store.range_search(slots, lows, highs, key_lo, key_hi)
    assert which.dtype == rows.dtype == np.int64
    want_which, want_rows = reference_batch(store, slots, lows, highs, key_lo, key_hi)
    assert which.tolist() == want_which
    assert rows.tolist() == want_rows
    # which ascends, and so do the rows of each subquery
    assert np.all(np.diff(which) >= 0)
    assert np.all(np.diff(rows)[np.diff(which) == 0] > 0)


def test_batched_store_search_on_an_empty_batch_and_repeated_slots():
    keys, points, ids = entries(3, 60, 2)
    store = ShardStore.build(np.arange(60) % 3, keys, points, ids, 4)  # slot 3 empty
    which, rows = store.range_search([], np.empty((0, 2)), np.empty((0, 2)), [], [])
    assert which.size == rows.size == 0
    box = ([0.0, 0.0], [5.0, 5.0])
    which, rows = store.range_search([1, 3, 1], [box[0]] * 3, [box[1]] * 3)
    lo, hi = store.offsets[1], store.offsets[2]
    assert which.tolist() == [0] * (hi - lo) + [2] * (hi - lo)
    assert rows.tolist() == 2 * list(range(lo, hi))
    # a key window past every key, and one with key_lo > key_hi, are empty
    which, _ = store.range_search(
        [1, 1, 1], [box[0]] * 3, [box[1]] * 3, key_lo=[0, 41, 30], key_hi=[45, 45, 20])
    assert which.tolist() == [0] * (hi - lo)


@pytest.mark.parametrize(
    "slots, lows, key_lo",
    [
        ([2], [[0.0, 0.0]], None),  # past the last slot
        ([-1], [[0.0, 0.0]], None),
        ([0, 1], [[0.0, 0.0]], None),  # one rectangle for two subqueries
        ([0], [0.0, 0.0], None),  # a bare (k,) rectangle
        ([0], [[0.0, 0.0, 0.0]], None),
        ([[0]], [[0.0, 0.0]], None),
        ([0], [[0.0, 0.0]], [1, 2]),  # two key bounds for one subquery
        ([0], [[0.0, 0.0]], 1),
    ],
)
def test_batched_store_search_rejects_a_malformed_batch(slots, lows, key_lo):
    keys, points, ids = entries(2, 20, 2)
    store = ShardStore.build(np.arange(20) % 2, keys, points, ids, 2)
    highs = np.full(np.shape(lows), 5.0)
    with pytest.raises(ValueError):
        store.range_search(slots, lows, highs, key_lo)


def test_batched_store_search_temporaries_grow_with_candidates_not_dimensions():
    """The candidates of all windows are laid end to end and filtered one
    dimension at a time: about 34 bytes per candidate row (row, subquery,
    coordinate, bound, two masks) whatever k is, where testing all k
    coordinates at once gathers ``8·C·k`` bytes before the first mask."""
    n, k, n_slots, n_q = 50_000, 10, 500, 2_000
    rng = np.random.default_rng(0)
    points = rng.uniform(0.0, 1.0, size=(n, k))
    keys = rng.integers(0, 2**40, size=n, dtype=np.uint64)
    store = ShardStore.build(np.arange(n) % n_slots, keys, points, np.arange(n), n_slots)
    slots = rng.integers(0, n_slots, size=n_q)
    lows, highs = np.full((n_q, k), 0.4), np.full((n_q, k), 0.6)  # 0.2 per dimension
    candidates = int(store.loads()[slots].sum())
    which, rows = store.range_search(slots, lows, highs)  # warm before measuring

    def peak(fn) -> int:
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def whole_block():
        which = np.repeat(np.arange(n_q), store.loads()[slots])
        block = store.points[np.concatenate([np.arange(store.offsets[s], store.offsets[s + 1])
                                             for s in slots])]
        return np.all((block >= lows[which]) & (block <= highs[which]), axis=1)

    assert peak(lambda: store.range_search(slots, lows, highs)) < 40 * candidates
    assert peak(whole_block) >= 8 * candidates * k


# -- silent broadcasting ---------------------------------------------------------


def test_add_rejects_a_single_point_row_for_several_keys():
    shard = Shard(3)
    keys = np.array([1, 2, 3], dtype=np.uint64)
    with pytest.raises(ValueError, match=r"points \(3, 3\).*got points \(1, 3\)"):
        shard.add(keys, np.ones((1, 3)), np.array([7, 8, 9]))
    with pytest.raises(ValueError, match=r"ids \(1,\)"):
        shard.add(keys, np.ones((3, 3)), np.array([7]))
    with pytest.raises(ValueError):
        shard.add(keys, np.ones((3, 2)), np.array([7, 8, 9]))
    assert len(shard) == 0
    shard.add(keys, np.ones((3, 3)), np.array([7, 8, 9]))
    shard.add([], np.empty((0, 3)), [])
    assert len(shard) == 3


def test_persistent_add_rejects_a_bad_batch_before_logging_it(tmp_path):
    shard = PersistentShard(tmp_path, k=2)
    shard.add(np.array([5], dtype=np.uint64), np.array([[1.0, 2.0]]), np.array([1]))
    with pytest.raises(ValueError, match="ids"):
        shard.add(np.array([6, 7], dtype=np.uint64), np.ones((2, 2)), np.array([2]))
    digest = shard.digest()
    shard.close()
    recovered = PersistentShard(tmp_path, k=2)  # the WAL holds only the good batch
    assert len(recovered.shard) == 1 and recovered.digest() == digest
    recovered.close()


@pytest.mark.parametrize("bad", [[0.0], [0.0, 0.0, 0.0], [[0.0, 0.0]], 0.0])
def test_range_search_rejects_bounds_that_would_broadcast(bad):
    keys, points, ids = entries(1, 20, 2)
    shard = filled_shard(keys, points, ids)
    store = ShardStore.build(np.zeros(20, dtype=np.int64), keys, points, ids, 1)
    good = [5.0, 5.0]
    for lows, highs in ((bad, good), (good, bad)):
        with pytest.raises(ValueError, match=r"shape \(2,\)"):
            shard.range_search(lows, highs)
        with pytest.raises(ValueError, match=r"shape \(1, 2\)"):
            store.range_search([0], [lows], [highs])  # a one-row batch
    with pytest.raises(ValueError):
        Shard(2).range_search(bad, good)  # checked on an empty shard too


# -- the disk format did not move --------------------------------------------------


def _fixture_copy(tmp_path: Path) -> dict:
    for name in ("snapshot.json", "wal.jsonl"):
        shutil.copy(FIXTURE / name, tmp_path / name)
    return json.loads((FIXTURE / "expected.json").read_text())


def test_row_major_era_files_load_to_the_recorded_digest(tmp_path):
    """``snapshot.json`` + ``wal.jsonl`` written by commit e7a435b (row-major
    shards) load, hash to the digest that commit computed, and re-snapshot to
    the bytes that commit wrote."""
    expected = _fixture_copy(tmp_path)
    shard = PersistentShard(tmp_path, k=expected["k"])
    assert len(shard.shard) == expected["entries"]
    assert shard.shard.points.shape == (expected["entries"], expected["k"])
    assert shard.digest() == expected["digest"]
    shard.snapshot()
    shard.close()
    assert (tmp_path / "snapshot.json").read_bytes() == (FIXTURE / "resnapshot.json").read_bytes()
    assert (tmp_path / "wal.jsonl").read_bytes() == b""


def test_wal_records_are_written_as_the_row_major_era_wrote_them(tmp_path):
    old = [json.loads(line) for line in (FIXTURE / "wal.jsonl").read_text().splitlines()]
    shard = PersistentShard(tmp_path, k=3)
    for rec in old:
        shard.add(*(decode_array(rec[f]) for f in ("keys", "points", "ids")))
    shard.close()
    new = [json.loads(line) for line in (tmp_path / "wal.jsonl").read_text().splitlines()]
    assert [{**r, "seq": 0} for r in new] == [{**r, "seq": 0} for r in old]
