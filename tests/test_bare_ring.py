"""Algorithms 3-5 on bare sorted-id rings: no simulator, no engine, no socket.

``repro.core.query`` holds the decisions of the paper's §3.3 apart from
whatever executes them, so a third caller besides ``QueryProtocol`` and
``NodeProcess.range_query`` costs a worklist.  Here both formulations of
Algorithm 5 — the sim's sibling forwarding (:func:`query_routing` +
:func:`surrogate_refine`) and the live coordinator's owner walk
(:class:`OwnerWalk`) — run over a sorted list of ids and a ``ShardStore`` and
are held to :func:`repro.check.oracle.owners_meeting` and a brute-force scan:
the three assertions of ``tests/test_cross_driver.py``, which can afford five
rectangles on one 8-node ``LocalCluster``, over hundreds of random rings,
rotations and rectangles a second.

A *node view* is what :func:`query_routing` reads: ``id``, ``successor`` and
``next_hop(ring_key)``.  :class:`BareRing` builds one per slot from a finger
row (``finger_slots``) plus the next few slots — the shape a
``CompactChordRing`` holds, which is how the last test runs the step function
at the paper's ``m = 64`` on 2,000 nodes.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.check.oracle import owners_meeting
from repro.core.index_space import IndexSpaceBounds
from repro.core.lph import key_to_cuboid, lp_hash_batch, smallest_enclosing_prefix
from repro.core.query import (
    OwnerWalk,
    RangeQuery,
    Rect,
    query_routing,
    surrogate_refine,
    surrogate_refine_literal,
)
from repro.core.storage import ShardStore
from repro.dht.compact import CompactChordRing
from repro.dht.idspace import (
    closest_preceding,
    finger_slots,
    owner_slot,
    owner_slots,
    rotate_keys,
    unrotate,
)

pytestmark = pytest.mark.timeout(60)


class _View:
    """One node as :func:`query_routing` sees it."""

    def __init__(self, node_id: int, m: int) -> None:
        self.id = node_id
        self.m = m
        self.table: list[_View] = []
        self.successor = self

    def next_hop(self, ring_key: int) -> _View:
        pos = closest_preceding(self.id, ring_key, [v.id for v in self.table], self.m)
        return self.table[pos] if pos >= 0 else self


class BareRing:
    """Sorted ids, a node view per slot, and the entries each slot owns."""

    def __init__(self, ids, m: int, rotation: int, bounds: IndexSpaceBounds,
                 points: np.ndarray, fingers: np.ndarray | None = None,
                 succ_len: int = 3) -> None:
        self.ids = [int(i) for i in ids]
        self.m, self.rotation, self.bounds = m, rotation, bounds
        n = len(self.ids)
        if fingers is None:
            fingers = finger_slots(np.array(self.ids, dtype=np.uint64), m)
        self.views = [_View(i, m) for i in self.ids]
        for s, view in enumerate(self.views):
            near = [(s + d) % n for d in range(1, succ_len + 1)]
            view.table = [self.views[t] for t in dict.fromkeys([*fingers[s].tolist(), *near])]
            view.successor = self.views[(s + 1) % n]
        self.points = points
        self.object_ids = np.arange(len(points), dtype=np.int64)
        self.keys = lp_hash_batch(points, bounds, m)
        self.owners = owner_slots(
            np.array(self.ids, dtype=np.uint64), rotate_keys(self.keys, rotation, m))
        self.store = ShardStore.build(self.owners, self.keys, points, self.object_ids, n)

    def solve(self, slot: int, lows, highs, key_lo: int, key_hi: int) -> list[int]:
        _, rows = self.store.range_search([slot], [lows], [highs], [key_lo], [key_hi])
        return self.store.object_ids[rows].tolist()

    def brute_force(self, lows, highs) -> list[int]:
        inside = np.all((self.points >= lows) & (self.points <= highs), axis=1)
        return self.object_ids[inside].tolist()

    def query(self, lows, highs) -> RangeQuery:
        prefix_key, prefix_len = smallest_enclosing_prefix(lows, highs, self.bounds, self.m)
        return RangeQuery(Rect(lows, highs), prefix_key, prefix_len, qid=0)


def forward(ring: BareRing, entry: _View, q: RangeQuery, refine=surrogate_refine,
            routing: bool = True):
    """The sim formulation, driven by a worklist from a routing step at
    ``entry`` (or, ``routing=False``, a refinement there).  Returns ``(solves,
    refined, messages)``: ``{node id: ids it answered with}``, the ids of the
    nodes that ran SurrogateRefine, and the bundles that crossed a link."""
    slot_of = {view.id: s for s, view in enumerate(ring.views)}
    solves: dict[int, list[int]] = {}
    refined: set[int] = set()
    messages = 0
    work = [(entry, q, routing)]
    while work:
        node, sq, routing = work.pop()
        if routing:
            subs, nexts = query_routing(node, sq, ring.bounds, ring.rotation, ring.m)
            dests = [(node.successor, False) if n is node else (n, True) for n in nexts]
            messages += len({d for d in dests if d[0] is not node})
            work.extend((dest, sub, kind) for sub, (dest, kind) in zip(subs, dests))
            continue
        refined.add(node.id)
        eff = unrotate(node.id, ring.rotation, ring.m)
        for sub, keys in refine(sq, eff, ring.bounds, ring.m):
            if keys is None:
                work.append((node, sub, True))
            else:
                solves.setdefault(node.id, []).extend(
                    ring.solve(slot_of[node.id], sub.rect.lows, sub.rect.highs, *keys))
    return solves, refined, messages


def walk_owners(ring: BareRing, lows, highs) -> tuple[list[int], list[int]]:
    """The live formulation: ``(owner ids in the order asked, ids answered)``."""
    walk = OwnerWalk(lows, highs, ring.bounds, ring.rotation, ring.m)
    asked: list[int] = []
    found: list[int] = []
    while walk.key_lo is not None:
        slot = owner_slot(ring.ids, walk.ring_key)
        asked.append(ring.ids[slot])
        found += ring.solve(slot, lows, highs, walk.key_lo, walk.key_hi)
        walk.answered(ring.ids[slot - 1], ring.ids[slot])
    return asked, found


# -- random rings, rotations and rectangles ------------------------------------------

SHAPES = ("whole-space", "on-plane", "plane-sliver", "point", "box", "tiny-box",
          "rotation-wrap", "one-leaf")


def _rect(shape: str, rng: np.random.Generator, ring: BareRing) -> tuple[np.ndarray, np.ndarray]:
    k, m, bounds = ring.bounds.k, ring.m, ring.bounds
    planes = np.linspace(0.0, 1000.0, 9)
    if shape == "whole-space":
        return bounds.lows.copy(), bounds.highs.copy()
    if shape == "on-plane":
        a, b = rng.choice(planes, size=(2, k))
        return np.minimum(a, b), np.maximum(a, b)
    if shape == "plane-sliver":
        lows, highs = np.full(k, 100.0), np.full(k, 900.0)
        lows[0] = highs[0] = rng.choice(planes)
        return lows, highs
    if shape == "point":
        point = ring.points[rng.integers(len(ring.points))]
        return point.copy(), point.copy()
    if shape == "box":
        a, b = rng.uniform(0.0, 1000.0, size=(2, k))
        return np.minimum(a, b), np.maximum(a, b)
    if shape == "tiny-box":
        centre = rng.uniform(0.0, 1000.0, size=k)
        return np.maximum(centre - 20.0, 0.0), np.minimum(centre + 20.0, 1000.0)
    if shape == "rotation-wrap":
        # the leaves at ring positions 2**m - 1 and 0: their bounding box is a
        # cuboid whose ring positions wrap
        lo_a, hi_a = key_to_cuboid(unrotate((1 << m) - 1, ring.rotation, m), bounds, m)
        lo_b, hi_b = key_to_cuboid(unrotate(0, ring.rotation, m), bounds, m)
        return np.minimum(lo_a, lo_b), np.maximum(hi_a, hi_b)
    lows, highs = key_to_cuboid(int(rng.integers(1 << m)), bounds, m)
    return lows, highs  # one-leaf: closed, so it touches its neighbours


def _random_ring(rng: np.random.Generator) -> BareRing:
    m = int(rng.integers(4, 10))
    k = int(rng.integers(1, 4))
    n = int(rng.integers(1, min(40, 1 << m) + 1))
    ids = np.sort(rng.choice(1 << m, size=n, replace=False))
    rotation = int(rng.integers(1, 1 << m))
    points = rng.uniform(0.0, 1000.0, size=(150, k))
    # a third exactly on split planes, where the tie rule decides the key
    points[:50] = rng.choice(np.linspace(0.0, 1000.0, 9), size=(50, k))
    return BareRing(ids, m, rotation, IndexSpaceBounds.uniform(k, 0.0, 1000.0), points)


@given(seed=st.integers(0, 2**32 - 1))
def test_both_formulations_solve_where_the_oracle_says(seed):
    """Per ring, every shape: owners the walk asks == oracle; oracle ⊆ nodes
    the forwarding solves at, every extra one contributing no id; both answers
    == brute force.  (The ``fast`` profile draws 25 rings, so 200 rectangles;
    ``HYPOTHESIS_PROFILE=thorough`` 200 rings.)"""
    rng = np.random.default_rng(seed)
    ring = _random_ring(rng)
    for shape in SHAPES:
        lows, highs = _rect(shape, rng, ring)
        oracle = owners_meeting(lows, highs, ring.ids, ring.rotation, ring.bounds, ring.m)
        brute = ring.brute_force(lows, highs)

        asked, found = walk_owners(ring, lows, highs)
        assert len(asked) == len(set(asked)), (shape, "an owner was asked twice")
        assert set(asked) == oracle, shape
        assert sorted(set(found)) == brute, shape

        entry = ring.views[rng.integers(len(ring.views))]
        solves, _, _ = forward(ring, entry, ring.query(lows, highs))
        assert oracle <= set(solves), shape
        assert all(solves[n] == [] for n in set(solves) - oracle), shape
        assert sorted(i for ids in solves.values() for i in ids) == brute, shape


@given(seed=st.integers(0, 2**32 - 1))
def test_literal_mode_loses_only_what_design_md_says(seed):
    """DESIGN.md §4b: the printed Algorithm 5 never invents a result and never
    answers twice, but can drop entries — entries whose keys lie below a
    surrogate's id and so *at* that surrogate, which re-prefixed the query
    past them.  Stated, not hidden: the test after this one pins a case."""
    rng = np.random.default_rng(seed)
    ring = _random_ring(rng)
    for shape in SHAPES:
        lows, highs = _rect(shape, rng, ring)
        entry = ring.views[rng.integers(len(ring.views))]
        solves, refined, _ = forward(
            ring, entry, ring.query(lows, highs), refine=surrogate_refine_literal)
        got = sorted(i for ids in solves.values() for i in ids)
        brute = ring.brute_force(lows, highs)
        assert len(got) == len(set(got)) and set(got) <= set(brute), shape
        for lost in set(brute) - set(got):
            assert ring.ids[ring.owners[lost]] in refined, (shape, lost)


def test_literal_mode_does_lose_a_straddling_sliver():
    """The loss is real on a bare ring too (the hand-built case of
    ``test_surrogate_units``): ids 32 and 192 at ``m = 8``, the whole space
    surrogated at 192 = ``0b11000000``, an entry under prefix ``0b011``."""
    bounds = IndexSpaceBounds.uniform(2, 0.0, 1.0)
    ring = BareRing([32, 192], 8, 0, bounds, np.array([[0.45, 0.6]]))
    assert ring.keys[0] >> 5 == 0b011 and ring.ids[ring.owners[0]] == 192
    q = ring.query(bounds.lows, bounds.highs)
    fixed, _, _ = forward(ring, ring.views[1], q, routing=False)
    literal, _, _ = forward(ring, ring.views[1], q, surrogate_refine_literal, routing=False)
    assert sorted(i for ids in fixed.values() for i in ids) == [0]
    assert [i for ids in literal.values() for i in ids] == []


# -- the walk under a view that changes mid-walk --------------------------------------

M7 = 7  # small enough to list every key an arc holds
SIZE7 = 1 << M7


def _vouched_walk(ids: list[int], walk: OwnerWalk, rotation: int, edit) -> set[int]:
    """Drive ``walk`` over the sorted ids, calling ``edit(ids, step, owner)``
    after every answer (it may add or remove ids).  Returns the keys vouched
    for: per step, the keys of ``[key_lo, key_hi]`` inside the arc the owner
    of the moment reported."""
    vouched: set[int] = set()
    for step in range(4 * SIZE7):
        if walk.key_lo is None:
            return vouched
        slot = owner_slot(ids, walk.ring_key)
        pred, owner = ids[slot - 1], ids[slot]
        arc = {unrotate((pred + 1 + d) % SIZE7, rotation, M7)
               for d in range((owner - pred - 1) % SIZE7 + 1)}
        vouched |= {key for key in arc if walk.key_lo <= key <= walk.key_hi}
        walk.answered(pred, owner)
        edit(ids, step, owner)
    raise AssertionError("the walk did not end")


def _keys_meeting(lows, highs, bounds, m) -> set[int]:
    prefix_key, prefix_len = smallest_enclosing_prefix(lows, highs, bounds, m)
    rect = Rect(lows, highs)
    return {key for key in range(prefix_key, prefix_key + (1 << (m - prefix_len)))
            if rect.intersects_box(*key_to_cuboid(key, bounds, m))}


def _join_ahead(ids, step, owner):
    """A node joins just ahead of the walk, in the arc it enters next."""
    gap = (ids[(ids.index(owner) + 1) % len(ids)] - owner) % SIZE7
    if gap > 1:
        ids.append((owner + 1 + (gap - 1) // 2) % SIZE7)
        ids.sort()


def _answerer_leaves(ids, step, owner):
    if len(ids) > 1:
        ids.remove(owner)


def _both(ids, step, owner):
    (_join_ahead if step % 2 else _answerer_leaves)(ids, step, owner)


@pytest.mark.parametrize("edit", [_join_ahead, _answerer_leaves, _both],
                         ids=["join-ahead", "answerer-leaves", "both"])
def test_walk_covers_every_meeting_key_while_the_ring_changes(edit):
    """PRs 17, 19 and 20 each found a live-walk defect of this class by
    reading.  Whatever joins ahead of the walk or leaves behind it, the
    ``[key_lo, …]`` ranges the owners of the moment vouched for cover every
    key whose leaf cuboid meets the rectangle."""
    rng = np.random.default_rng(24)
    bounds = IndexSpaceBounds.uniform(2, 0.0, 1000.0)
    for case in range(150):
        ids = sorted(int(i) for i in rng.choice(SIZE7, size=rng.integers(1, 12), replace=False))
        rotation = int(rng.integers(1, SIZE7))
        if case % 3 == 0:  # prefix_len = 0: the cuboid spans the ring
            lows, highs = np.array([400.0, 300.0]), np.array([600.0, 800.0])
        else:
            a, b = rng.uniform(0.0, 1000.0, size=(2, 2))
            lows, highs = np.minimum(a, b), np.maximum(a, b)
        walk = OwnerWalk(lows, highs, bounds, rotation, M7)
        vouched = _vouched_walk(ids, walk, rotation, edit)
        assert _keys_meeting(lows, highs, bounds, M7) <= vouched, (case, ids, rotation)


def test_walk_ends_when_it_re_enters_the_first_owners_arc():
    """``prefix_len = 0`` and rotation ≠ 0: key 0 sits mid-ring, the walk
    starts inside the first owner's arc, goes once round and comes back to
    it — that owner solved up to ``key_hi`` already and is not asked again,
    even when the ids between have all changed meanwhile."""
    bounds = IndexSpaceBounds.uniform(2, 0.0, 1000.0)
    whole = bounds.lows.copy(), bounds.highs.copy()
    rotation = 40
    ids = [10, 50, 90, 120]
    walk = OwnerWalk(*whole, bounds, rotation, M7)
    assert (walk.key_lo, walk.key_hi, walk.ring_key) == (0, SIZE7 - 1, 40)
    asked = []

    def churn(ids, step, owner):
        asked.append(owner)
        if owner == 50:  # everyone but the first owner is replaced
            ids[:] = [20, 50, 70, 100]

    vouched = _vouched_walk(ids, walk, rotation, churn)
    assert asked == [50, 70, 100, 20]  # 20 ends at position 20; (20, 50] was first
    assert vouched == set(range(SIZE7))


@pytest.mark.parametrize("arc", [
    (60, 70), (41, 39), (39, 39.0), (None, 50), (-1, 50), (10, SIZE7), (True, 50)],
    ids=["elsewhere", "just-missing", "float", "none", "negative", "too-big", "bool"])
def test_walk_refuses_an_arc_that_does_not_hold_the_position_asked(arc):
    bounds = IndexSpaceBounds.uniform(2, 0.0, 1000.0)
    walk = OwnerWalk(bounds.lows, bounds.highs, bounds, 40, M7)
    with pytest.raises(ValueError, match="does not hold ring position 40"):
        walk.answered(*arc)
    assert walk.key_lo == 0  # nothing counted as answered
    walk.answered(39, 40)
    assert walk.key_lo == 1


# -- a plan is the walk, as far as the arcs it is handed reach ------------------------


def test_a_plan_over_every_arc_is_the_walk_and_stops_at_a_missing_one():
    """2,000 slots of a ``CompactChordRing`` at ``m = 64``: with every arc
    known, :meth:`OwnerWalk.plan` names exactly the ``(key_lo, key_hi,
    ring_key)`` the walk asks step by step; with the arc of one position
    asked removed, the plan ends just before that position (it always holds
    the first, which the driver asks whatever it knows); and the walk itself
    has not moved."""
    m, k = 64, 3
    rng = np.random.default_rng(66)
    ids = [int(i) for i in CompactChordRing.build(2000, m=m, seed=7).ids]
    bounds = IndexSpaceBounds.uniform(k, 0.0, 1000.0)
    rotation = int(rng.integers(1, 1 << 63))

    def arc_of(ring_key: int) -> tuple[int, int]:
        slot = owner_slot(ids, ring_key)
        return ids[slot - 1], ids[slot]

    rects = [(bounds.lows.copy(), bounds.highs.copy())]
    for _ in range(40):
        centre, half = rng.uniform(0.0, 1000.0, size=k), rng.uniform(1.0, 250.0, size=k)
        rects.append((np.maximum(centre - half, 0.0), np.minimum(centre + half, 1000.0)))
    lengths = []
    for lows, highs in rects:
        walk = OwnerWalk(lows, highs, bounds, rotation, m)
        plan = walk.plan(arc_of)
        asked = []
        while walk.key_lo is not None:
            asked.append((walk.key_lo, walk.key_hi, walk.ring_key))
            walk.answered(*arc_of(walk.ring_key))
        assert plan == asked and asked
        lengths.append(len(asked))
        cut = int(rng.integers(len(asked)))
        gone = owner_slot(ids, asked[cut][2])

        def arc_but_one(ring_key: int) -> tuple[int, int] | None:
            return None if owner_slot(ids, ring_key) == gone else arc_of(ring_key)

        walk = OwnerWalk(lows, highs, bounds, rotation, m)
        assert walk.plan(arc_but_one) == asked[:max(cut, 1)]
        assert (walk.key_lo, walk.key_hi, walk.ring_key) == asked[0]
        assert walk.plan(lambda ring_key: None) == asked[:1]
    assert max(lengths) == 2000 and sorted(lengths)[len(lengths) // 2] > 1


@pytest.mark.parametrize("lows, highs", [
    ([100.0, 100.0], [900.0, np.nan]),
    ([np.nan, 100.0], [900.0, 900.0]),
    ([100.0, 600.0], [900.0, 400.0]),
], ids=["nan-high", "nan-low", "inverted"])
def test_a_rectangle_that_holds_no_point_is_a_finished_walk(lows, highs):
    bounds = IndexSpaceBounds.uniform(2, 0.0, 1000.0)
    walk = OwnerWalk(np.array(lows), np.array(highs), bounds, 40, M7)
    assert walk.key_lo is None and walk.plan(lambda ring_key: (0, 1)) == []


# -- the step function at the paper's m -----------------------------------------------


def test_step_function_on_a_compact_ring_at_m_64(capsys):
    """2,000 slots of a ``CompactChordRing`` at ``m = 64``, node views from its
    ``finger_slots`` rows plus the successor list, entries in a ``ShardStore``:
    ids equal brute force and every solve lands on the slot ``owner_slots``
    names for its ``key_lo``.  Prints messages and index nodes per query at
    ``m = 64`` for the reader; no benchmark workload reads or gates them."""
    m, k = 64, 3
    rng = np.random.default_rng(64)
    compact = CompactChordRing.build(2000, m=m, seed=7, successor_list_len=16)
    bounds = IndexSpaceBounds.uniform(k, 0.0, 1000.0)
    points = rng.uniform(0.0, 1000.0, size=(20_000, k))
    ring = BareRing(compact.ids, m, rotation=int(rng.integers(1, 1 << 63)), bounds=bounds,
                    points=points, fingers=compact.fingers,
                    succ_len=compact.successor_list_len)
    slot_of = {view.id: s for s, view in enumerate(ring.views)}
    real_solve = ring.solve
    landed: list[tuple[int, int]] = []

    def checked_solve(slot, lows, highs, key_lo, key_hi):
        landed.append((slot, key_lo))
        return real_solve(slot, lows, highs, key_lo, key_hi)

    ring.solve = checked_solve
    messages, index_nodes = [], []
    for source in rng.choice(len(ring.views), size=10, replace=False):
        centre = points[rng.integers(len(points))]
        lows, highs = np.maximum(centre - 60.0, 0.0), np.minimum(centre + 60.0, 1000.0)
        landed.clear()
        solves, _, sent = forward(ring, ring.views[source], ring.query(lows, highs))
        assert sorted(i for ids in solves.values() for i in ids) == ring.brute_force(lows, highs)
        slots, key_los = zip(*landed)
        want = owner_slots(compact.ids, rotate_keys(
            np.array(key_los, dtype=np.uint64), ring.rotation, m))
        assert list(slots) == want.tolist()
        assert {slot_of[n] for n in solves} == set(slots)
        asked, found = walk_owners(ring, lows, highs)
        assert sorted(set(found)) == ring.brute_force(lows, highs)
        assert set(asked) <= set(solves)
        messages.append(sent)
        index_nodes.append(len(solves))
    with capsys.disabled():
        print(f"\n[bare ring, 2000 nodes, m=64] per query: messages "
              f"{np.mean(messages):.1f} (max {max(messages)}), index nodes "
              f"{np.mean(index_nodes):.1f} (max {max(index_nodes)})")
