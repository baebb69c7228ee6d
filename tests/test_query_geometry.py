"""The geometry a subquery carries (paper §3.3, Algorithms 4 and 5).

A :class:`RangeQuery` carries its rectangle as tuples of Python floats and the
cuboid of its ``(prefix_key, prefix_len)``; ``query_split`` and
``surrogate_refine`` halve that cuboid instead of replaying the prefix bits.
Held here, over non-dyadic bounds, k 1-12 and m 1-64, to

* the replay: every subquery ``from_point``, ``query_split`` and
  ``surrogate_refine`` make carries exactly ``prefix_to_cuboid(prefix_key,
  prefix_len)``, float for float, and its rectangle lies inside it;
* NumPy references of both steps as they were computed before the cuboid
  was carried, kept here and only here: the split reads the midpoint from a
  replayed cuboid and copies float64 arrays, the walk replays each sibling's
  cuboid from the root and intersects it with ``np.maximum`` /
  ``np.minimum``.  The children must match them bit for bit.

Rectangle edges fall anywhere, on the bounds (clipped queries) or exactly on a
split plane of the path the walk takes.
"""

from __future__ import annotations

import random

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.core.index_space import IndexSpaceBounds
from repro.core.lph import prefix_to_cuboid, smallest_enclosing_prefix
from repro.core.query import RangeQuery, Rect, query_split, surrogate_refine
from repro.util.bits import bit_at, prefix_of, set_bit_at

FINITE = {"allow_nan": False, "allow_infinity": False}
#: subqueries a drawn query is followed into, to bound an example's work
MAX_VISITS = 48


def _hex(values):
    return [float(x).hex() for x in values]


def _split_by_replay(q, bounds, m):
    """Algorithm 4 with its while-loop: the cuboid of the first ``p - 1``
    bits replayed, the halves as copied float64 arrays."""
    p = q.prefix_len + 1
    j = (p - 1) % bounds.k
    lo, hi = prefix_to_cuboid(q.prefix_key, p - 1, bounds, m)
    mid = (lo[j] + hi[j]) / 2.0
    lows, highs = np.array(q.rect.lows), np.array(q.rect.highs)
    upper = set_bit_at(q.prefix_key, p, m)
    if lows[j] > mid:
        return [(upper, lows, highs)]
    if highs[j] < mid:
        return [(q.prefix_key, lows, highs)]
    upper_lows, lower_highs = lows.copy(), highs.copy()
    upper_lows[j] = lower_highs[j] = mid
    return [(upper, upper_lows, highs), (q.prefix_key, lows, lower_highs)]


def _siblings_by_replay(eff, prefix_len, rect_lows, rect_highs, bounds, m):
    """Algorithm 5's forwarded siblings: one cuboid replay from the root per
    zero bit of ``eff`` below the prefix, kept when its closed cuboid meets
    the closed rectangle."""
    out = []
    for i in range(prefix_len + 1, m + 1):
        if bit_at(eff, i, m):
            continue
        sib = set_bit_at(prefix_of(eff, i - 1, m), i, m)
        lows, highs = prefix_to_cuboid(sib, i, bounds, m)
        nl, nh = np.maximum(rect_lows, lows), np.minimum(rect_highs, highs)
        if np.all(nl <= nh):
            out.append((sib, i, nl, nh))
    return out


def _check_carried(q, bounds, m):
    """``q`` carries its prefix's cuboid, bit for bit, and lies inside it."""
    lo, hi = prefix_to_cuboid(q.prefix_key, q.prefix_len, bounds, m)
    cl, ch = q.cuboid
    assert _hex(cl) == _hex(lo) and _hex(ch) == _hex(hi)
    assert all(type(x) is float for x in q.rect.lows + q.rect.highs + cl + ch)
    assert all(a <= x and y <= b for a, b, x, y in zip(cl, ch, q.rect.lows, q.rect.highs))


@st.composite
def _spaces(draw):
    """Bounds that are not dyadic fractions of each other, and ``m``."""
    k = draw(st.integers(1, 12), label="k")
    m = draw(st.integers(1, 64), label="m")
    lows = draw(st.lists(st.floats(-100.0, 100.0, **FINITE), min_size=k, max_size=k))
    widths = draw(st.lists(st.floats(0.1, 1000.0, **FINITE), min_size=k, max_size=k))
    if draw(st.booleans()):
        lows, widths = [0.1] * k, [7.2] * k  # [0.1, 7.3]
    lows = np.array(lows)
    return IndexSpaceBounds(lows, lows + np.array(widths)), m


def _planes(key, bounds, m):
    """Per dimension, every coordinate a cuboid on the path of ``key`` is
    bounded by: the split planes a rectangle on that path can touch."""
    planes = [{float(lo), float(hi)} for lo, hi in zip(bounds.lows, bounds.highs)]
    for depth in range(1, m + 1):
        lo, hi = prefix_to_cuboid(key, depth, bounds, m)
        j = (depth - 1) % bounds.k
        planes[j].update((float(lo[j]), float(hi[j])))
    return [sorted(p) for p in planes]


@st.composite
def _queries(draw):
    """A space and a query in it: built by ``from_point`` (clipped to the
    bounds) or, with no cuboid, directly over edges on split planes."""
    bounds, m = draw(_spaces())
    k = bounds.k
    path = draw(st.integers(0, (1 << m) - 1), label="path")
    planes = _planes(path, bounds, m)
    coords = [
        st.one_of(st.sampled_from(planes[j]),
                  st.floats(float(bounds.lows[j]), float(bounds.highs[j]), **FINITE))
        for j in range(k)
    ]
    if draw(st.booleans(), label="from_point"):
        center = np.array([draw(c) for c in coords])
        scale = float(np.max(bounds.highs - bounds.lows))
        radius = draw(st.sampled_from([0.0, scale]) | st.floats(0.0, scale, **FINITE))
        q = RangeQuery.from_point(center, radius, bounds, m, qid=0)
        _check_carried(q, bounds, m)
    else:
        lows, highs = [], []
        for c in coords:
            a = draw(c)
            b = a if draw(st.booleans()) else draw(c)
            lows.append(min(a, b))
            highs.append(max(a, b))
        key, length = smallest_enclosing_prefix(np.array(lows), np.array(highs), bounds, m)
        q = RangeQuery(Rect(lows, highs), key, length, qid=0)
        assert q.cuboid is None
    return bounds, m, q, draw(st.integers(0, 2**32), label="walk")


@given(_queries())
def test_every_subquery_carries_its_prefix_cuboid_and_the_replayed_children(case):
    bounds, m, root, seed = case
    rng = random.Random(seed)
    todo, visits = [root], 0
    while todo and visits < MAX_VISITS:
        q = todo.pop(rng.randrange(len(todo)))
        visits += 1
        rect_lows, rect_highs = np.array(q.rect.lows), np.array(q.rect.highs)
        # Algorithm 5 at an owner whose id shares the prefix: the local solve,
        # then the siblings above eff
        tail = m - q.prefix_len
        eff = q.prefix_key | (rng.getrandbits(tail) if tail else 0)
        steps = list(surrogate_refine(q, eff, bounds, m))
        assert steps[0] == (q, (q.prefix_key, eff))
        want = _siblings_by_replay(eff, q.prefix_len, rect_lows, rect_highs, bounds, m)
        got = [sq for sq, keys in steps[1:]]
        assert all(keys is None for _, keys in steps[1:])
        assert [(sq.prefix_key, sq.prefix_len) for sq in got] == [(w[0], w[1]) for w in want]
        for sq, (_, _, nl, nh) in zip(got, want):
            assert _hex(sq.rect.lows) == _hex(nl) and _hex(sq.rect.highs) == _hex(nh)
            _check_carried(sq, bounds, m)
            assert (sq.qid, sq.source, sq.payload, sq.radius) == (q.qid, q.source,
                                                                 q.payload, q.radius)
        todo.extend(got[:1])
        # Algorithm 4 one level deeper
        if q.prefix_len == m:
            continue
        subs = query_split(q, q.prefix_len + 1, bounds, m)
        want_split = _split_by_replay(q, bounds, m)
        assert [sq.prefix_key for sq in subs] == [w[0] for w in want_split]
        for sq, (_, lows, highs) in zip(subs, want_split):
            assert sq.prefix_len == q.prefix_len + 1
            assert _hex(sq.rect.lows) == _hex(lows) and _hex(sq.rect.highs) == _hex(highs)
            _check_carried(sq, bounds, m)
        todo.extend(subs)
    # a query built without its cuboid has it from the first step on
    _check_carried(root, bounds, m)
