"""Zone maps on key-sorted shards: the zoned search equals brute force.

``Shard.range_search`` answers a key window of ``_ZONE_MIN_ROWS`` rows or more
through a map of per-zone minima and maxima (``_ZONE_ROWS`` rows a zone,
built on the ``_ZONE_BUILD_AFTER``-th such search since the last write) and
reads only the zones whose box meets the rectangle.  The map must be exact:
for any rows and any rectangle the positions are those of a one-shot mask
over the shard's rows, ascending, and a write (``add``, ``clear``,
``LandmarkIndex.remove_entry``) between two searches must never leave a
stale map that hides a row.  The shards here are keyed by ``lp_hash_batch``,
as an index keys them, so key order keeps a zone's points close together and
zones really are pruned.  The properties draw the threshold, the fallback
share and the build count too, so that small shards cross every branch;
``fuzz-nightly`` runs them with the thorough Hypothesis profile.
"""

import math
import tracemalloc
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import storage
from repro.core.index_space import IndexSpace, IndexSpaceBounds
from repro.core.landmarks import LandmarkSet
from repro.core.lph import lp_hash_batch
from repro.core.platform import LandmarkIndex
from repro.core.storage import Shard
from repro.dht.ring import ChordRing
from repro.metric.vector import EuclideanMetric
from repro.sim.network import ConstantLatency

R = storage._ZONE_ROWS
#: cell edges of the first three halvings of [0, 1]: points and rectangle
#: bounds on the planes Algorithm 2 splits at
SPLITS = np.arange(9) / 8
#: outside the index-space bounds, infinite, or NaN
ODD = np.array([-0.5, 1.5, math.inf, -math.inf, math.nan])
#: rows per added batch: around a zone, and past the real threshold
BATCHES = [0, 1, R - 1, R + 1, 700, 3000, storage._ZONE_MIN_ROWS + 1000]


def reference_positions(keys, points, lows, highs, key_lo=None, key_hi=None):
    """One-shot mask over the sorted ``(n, k)`` rows; closed bounds."""
    mask = np.all((points >= lows) & (points <= highs), axis=1)
    if key_lo is not None:
        mask &= keys >= np.uint64(key_lo)
    if key_hi is not None:
        mask &= keys <= np.uint64(key_hi)
    return np.flatnonzero(mask)


def lph_entries(seed, n, k, m, p_split, p_odd):
    """``n`` points in [0, 1]^k, some on split planes and some odd, keyed
    by ``lp_hash_batch`` over the bounds [0, 1]."""
    rng = np.random.default_rng(seed)
    points = rng.uniform(0.0, 1.0, size=(n, k))
    draw = rng.random((n, k))
    on_plane = draw < p_split
    points[on_plane] = rng.choice(SPLITS, size=int(on_plane.sum()))
    odd = draw > 1.0 - p_odd
    points[odd] = rng.choice(ODD, size=int(odd.sum()))
    keys = lp_hash_batch(points, IndexSpaceBounds.uniform(k, 0.0, 1.0), m)
    return keys, points


@st.composite
def rectangles(draw, points):
    """A closed rectangle: around a stored row or anywhere, with bounds on
    split planes, odd values and, now and then, one NaN bound."""
    k = points.shape[1]
    if len(points) and draw(st.booleans()):
        centre = points[draw(st.integers(0, len(points) - 1))]
        centre = np.where(np.isfinite(centre), centre, 0.5)
    else:
        centre = np.array(draw(st.lists(st.sampled_from(SPLITS.tolist()), min_size=k,
                                        max_size=k)))
    half = draw(st.sampled_from([0.0, 1 / 16, 1 / 8, 0.25, 2.0]))
    lows, highs = centre - half, centre + half
    for bounds in (lows, highs):
        if draw(st.integers(0, 5)) == 0:
            bounds[draw(st.integers(0, k - 1))] = draw(st.sampled_from(ODD.tolist()))
    return lows, highs


@st.composite
def key_range(draw, keys):
    """None, or a closed key range with ends on stored keys or next to them."""
    srt = np.sort(keys)

    def end():
        if not len(srt) or draw(st.integers(0, 3)) == 0:
            return None
        key = int(srt[draw(st.integers(0, len(srt) - 1))])
        return min(max(0, key + draw(st.sampled_from([-1, 0, 0, 1]))), 2**64 - 1)

    return end(), end()


def assert_search(shard, keys, points, lows, highs, key_lo, key_hi):
    order = np.argsort(keys, kind="stable")  # the shard's lazily restored order
    got = shard.range_search(lows, highs, key_lo, key_hi)
    want = reference_positions(keys[order], points[order], lows, highs, key_lo, key_hi)
    assert got.dtype == np.int64
    assert got.tolist() == want.tolist()  # the same rows, ascending


@settings(deadline=None)
@given(st.data())
def test_zoned_search_equals_brute_force_through_adds_and_clears(data):
    k = data.draw(st.integers(1, 6), label="k")
    m = data.draw(st.sampled_from([8, 24, 64]), label="m")
    zone_min = data.draw(st.sampled_from([1, 64, 500, storage._ZONE_MIN_ROWS]), label="zone_min")
    share = data.draw(st.sampled_from([storage._ZONE_MAX_SHARE, 1.0]), label="max_share")
    build_after = data.draw(st.sampled_from([1, 2, 3]), label="build_after")
    p_split = data.draw(st.sampled_from([0.0, 0.3]))
    p_odd = data.draw(st.sampled_from([0.0, 0.05]))
    shard = Shard(k)
    keys = np.empty(0, dtype=np.uint64)
    points = np.empty((0, k))
    with mock.patch.object(storage, "_ZONE_MIN_ROWS", zone_min), \
            mock.patch.object(storage, "_ZONE_MAX_SHARE", share), \
            mock.patch.object(storage, "_ZONE_BUILD_AFTER", build_after):
        for step in range(data.draw(st.integers(1, 4), label="steps")):
            # the first write fills the shard; a later one may meet a built map
            write = "add" if step == 0 else data.draw(st.sampled_from(["add", "clear", "none"]))
            if write == "clear":
                shard.clear()
                keys, points = keys[:0], points[:0]
            elif write == "add":
                n = data.draw(st.sampled_from(BATCHES), label="rows")
                seed = data.draw(st.integers(0, 2**16))
                new_keys, new_points = lph_entries(seed, n, k, m, p_split, p_odd)
                shard.add(new_keys, new_points, np.arange(len(keys), len(keys) + n))
                keys = np.concatenate([keys, new_keys])
                points = np.concatenate([points, new_points])
            for _ in range(data.draw(st.integers(1, 3))):
                lows, highs = data.draw(rectangles(points))
                key_lo, key_hi = data.draw(key_range(keys))
                assert_search(shard, keys, points, lows, highs, key_lo, key_hi)


#: one ring for every index below; its nodes never change
RING = ChordRing.build(4, m=32, seed=0, latency=ConstantLatency(4, delay=0.01))


@settings(deadline=None)
@given(st.data())
def test_remove_entry_between_zoned_searches_leaves_no_stale_map(data):
    k = data.draw(st.integers(1, 4), label="k")
    n = data.draw(st.sampled_from([300, 2000]), label="n")
    keys, points = lph_entries(data.draw(st.integers(0, 2**16)), n, k, RING.m,
                               data.draw(st.sampled_from([0.0, 0.3])),
                               data.draw(st.sampled_from([0.0, 0.05])))
    space = IndexSpace(LandmarkSet(np.zeros((k, k)), EuclideanMetric(dim=k)),
                       IndexSpaceBounds.uniform(k, 0.0, 1.0))
    index = LandmarkIndex("zones", space, RING, dataset=None)
    index.place(keys, points, np.arange(n))
    alive = np.ones(n, dtype=bool)
    with mock.patch.object(storage, "_ZONE_MIN_ROWS", 64), \
            mock.patch.object(storage, "_ZONE_MAX_SHARE", 1.0), \
            mock.patch.object(storage, "_ZONE_BUILD_AFTER", 1):
        for _ in range(data.draw(st.integers(1, 4), label="steps")):
            lows, highs = data.draw(rectangles(points))
            found = []
            for shard in index.shards.values():
                got = shard.range_search(lows, highs)
                want = reference_positions(shard.keys, shard.points, lows, highs)
                assert got.tolist() == want.tolist()
                found.extend(shard.object_ids[got].tolist())
            inside = np.all((points >= lows) & (points <= highs), axis=1)
            assert sorted(found) == np.flatnonzero(inside & alive).tolist()
            # the next search reads a shard that lost a row since its map was built
            gone = data.draw(st.integers(0, n - 1), label="remove")
            assert (index.remove_entry(gone) is not None) == alive[gone]
            alive[gone] = False


# -- memory --------------------------------------------------------------------


def _peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _lph_shard(n, k, seed=0):
    keys, points = lph_entries(seed, n, k, 64, 0.0, 0.0)
    shard = Shard(k)
    shard.add(keys, points, np.arange(n))
    return shard


def test_zoned_search_temporaries_on_lph_keyed_rows():
    """On LPH-keyed rows a rectangle off the split planes meets few zones,
    and the search's temporaries grow with their rows, not the window's:
    under 32 bytes a gathered row (index, coordinate, masks, survivors) past
    the 64 KiB of NumPy's iterator buffer (8192 elements of 8 bytes, which a
    broadcast compare allocates), below the one byte a row of the contiguous
    filter's first mask.  A rectangle that meets every zone falls back to
    that filter and stays under its eight bytes a row."""
    n, k = 100_000, 10
    shard = _lph_shard(n, k)
    corner = np.full(k, 0.6), np.full(k, 0.8)
    centre = np.full(k, 0.4), np.full(k, 0.6)
    for _ in range(storage._ZONE_BUILD_AFTER):
        shard.range_search(*corner)  # sorted, map built, before measuring
    zmin, zmax = shard._zones
    lows, highs = corner
    meets = np.all((zmax >= lows[:, None]) & (zmin <= highs[:, None]), axis=0)
    gathered = R * int(meets.sum())
    assert 0 < gathered <= n // 16
    zoned = _peak(lambda: shard.range_search(*corner))
    assert zoned <= 8192 * 8 + 32 * gathered
    assert zoned < n
    assert _peak(lambda: shard.range_search(*centre)) < 8 * n
    with mock.patch.object(storage, "_ZONE_MIN_ROWS", n + 1):  # contiguous filter only
        assert _peak(lambda: shard.range_search(*corner)) >= n


def test_zone_map_costs_two_k_floats_per_zone():
    """``2·k·8 / _ZONE_ROWS`` bytes a row (a short last zone rounds up):
    about 125 KB for sim_dense's 100k entries of k = 10."""
    n, k = 100_000, 10
    shard = _lph_shard(n, k)
    lows, highs = np.full(k, 0.6), np.full(k, 0.8)
    for _ in range(storage._ZONE_BUILD_AFTER - 1):
        shard.range_search(lows, highs)  # sorted, one wide search short of a map
    assert shard._zones is None
    tracemalloc.start()
    try:
        shard.range_search(lows, highs)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    zmin, zmax = shard._zones
    bound = 2 * k * 8 * -(-n // R)
    assert zmin.nbytes + zmax.nbytes == bound <= 2 * k * 8 * (n / R + 1)
    assert bound < 126_000
    assert held <= bound + 1024  # the map is all a search keeps


def test_the_map_is_built_only_when_no_write_comes_between_wide_searches():
    """A shard written every few searches (live_mixed's inserts) keeps the
    contiguous filter; one left alone for ``_ZONE_BUILD_AFTER`` windows of
    ``_ZONE_MIN_ROWS`` builds its map, and a narrow window does not count."""
    n, k = 2 * storage._ZONE_MIN_ROWS, 4
    shard = _lph_shard(n, k)
    keys = shard.keys
    lows, highs = np.full(k, 0.6), np.full(k, 0.8)
    narrow = int(keys[0]), int(keys[storage._ZONE_MIN_ROWS // 2])
    for _ in range(3):
        for _ in range(storage._ZONE_BUILD_AFTER - 1):
            shard.range_search(lows, highs)
            shard.range_search(lows, highs, *narrow)
        shard.add(keys[:1], shard.points[:1], [n])
    assert shard._zones is None
    for _ in range(storage._ZONE_BUILD_AFTER - 1):
        shard.range_search(lows, highs)
    assert shard._zones is None
    shard.range_search(lows, highs)
    assert shard._zones is not None
    # a row inside the rectangle, added after the map was built, is found
    shard.add([keys[n // 2]], [np.full(k, 0.7)], [n + 1])
    assert shard._zones is None
    hits = shard.range_search(lows, highs)
    assert n + 1 in shard.object_ids[hits].tolist()
    assert hits.tolist() == reference_positions(shard.keys, shard.points, lows, highs).tolist()
    shard.clear()
    assert shard._zones is None
