"""Range-query objects and the decisions of Algorithms 3-5 (paper §3.3).

A near-neighbour query ``(q, r)`` in the metric space becomes the range query
over the hypercube of side ``2r`` centred at the query's index point, clipped
to the index-space boundary.  Each in-flight (sub)query carries a
``(prefix_key, prefix_length)`` identifying the smallest hypercuboid that
completely holds its region; routing progressively extends the prefix.

``query_split(q, p)`` is Algorithm 4: it takes the splitting range of
dimension ``j = (p-1) mod k`` and its midpoint, and either advances the query
wholly into one half (extending the prefix by one bit) or splits it into two
subqueries, one per half.  The printed algorithm rebuilds that range from the
prefix bits at every split (its while-loop); here each query carries the
cuboid of its prefix (:attr:`RangeQuery.cuboid`, Python floats, the float
sequence of :func:`~repro.core.lph.prefix_to_cuboid`), made once when the
query is built and halved as the prefix grows, so the loop reads it instead.

Beside it live the other decisions a node takes from local state alone, with
no simulator, socket or span in sight — each driver moves the messages and
keeps its own books:

* :func:`query_routing` — Algorithm 3: split one level deeper, rotate, ask the
  node's table for each half's next hop, keep the query whole when both halves
  leave by the same link;
* :func:`surrogate_refine` / :func:`surrogate_refine_literal` — Algorithm 5 in
  its ``fixed`` and ``literal`` mode: in execution order, the key range to
  solve locally and the subqueries to route on;
* :class:`OwnerWalk` — Algorithm 5 driven from the querying peer: which key
  to ask the ring about next, given the arc each owner proved.

The event simulator (:class:`repro.core.routing.QueryProtocol`) executes the
first three and the live walk (:class:`repro.net.node.RingWalker`, run by
nodes and clients) the last; ``tests/test_bare_ring.py`` drives all of them over sorted id lists.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from copy import copy
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.core.index_space import IndexSpaceBounds
from repro.core.lph import (
    Cuboid,
    Floats,
    first_key_meeting,
    next_key_meeting,
    prefix_to_cuboid,
    sibling_pieces,
    smallest_enclosing_prefix,
)
from repro.dht.idspace import cw_distance, in_interval_open_closed, rotate
from repro.util.bits import first_zero_bit, prefix_of, same_prefix

__all__ = [
    "Rect", "RangeQuery", "QidAllocator", "query_split", "claimed_range",
    "query_routing", "surrogate_refine", "surrogate_refine_literal", "OwnerWalk",
]


class QidAllocator:
    """A scoped monotonic query-id source.

    Query ids key per-query stats, message traces and lifecycle records, so
    they must be unique within whatever shares those tables — a platform, or
    a standalone protocol.  Each :class:`repro.core.platform.IndexPlatform`
    owns one allocator (shared by all of its indexes), replacing the old
    process-global counter: two platforms built in one process now draw the
    same id sequence, which keeps stats and traces reproducible across
    repeated runs, and concurrent queries on one platform can never collide
    (the way ``knn_search``'s hardcoded ``qid=0`` used to).
    """

    __slots__ = ("_next",)

    def __init__(self, start: int = 0) -> None:
        self._next = start

    def next(self) -> int:
        qid = self._next
        self._next += 1
        return qid

    def reset(self, start: int = 0) -> None:
        self._next = start

    def peek(self) -> int:
        """The id the next :meth:`next` call will return."""
        return self._next


#: fallback for bare ``RangeQuery.from_point`` calls outside any platform
#: (platform/protocol paths always pass an explicit qid or allocator)
_fallback_qids = QidAllocator()


@dataclass(init=False, slots=True)
class Rect:
    """An axis-aligned, closed hyper-rectangle in the index space.

    The bounds are tuples of Python floats.  The constructor coerces and
    checks them once; they are never changed after, so a subquery shares
    its parent's tuples (or the whole ``Rect``) wherever they did not change.
    """

    lows: Floats
    highs: Floats

    def __init__(self, lows: Any, highs: Any) -> None:
        lo = np.asarray(lows, dtype=np.float64)
        hi = np.asarray(highs, dtype=np.float64)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("rect bounds must be 1-D arrays of equal length")
        self.lows = tuple(lo.tolist())
        self.highs = tuple(hi.tolist())

    @classmethod
    def _of(cls, lows: Floats, highs: Floats) -> Rect:
        """A rectangle over bounds that already are tuples of floats of one
        length (a parent's, or an intersection with them): not checked again."""
        rect = cls.__new__(cls)
        rect.lows = lows
        rect.highs = highs
        return rect

    @property
    def k(self) -> int:
        return len(self.lows)

    def contains_points(self, points: np.ndarray) -> np.ndarray:
        """Boolean mask of index points inside the rectangle (inclusive)."""
        pts = np.atleast_2d(points)
        return np.all((pts >= self.lows) & (pts <= self.highs), axis=1)

    def intersects_box(self, lows: np.ndarray, highs: np.ndarray) -> bool:
        """Whether the rectangle overlaps the (closed) box ``[lows, highs]``."""
        return bool(np.all(np.less_equal(self.lows, highs))
                    & np.all(np.greater_equal(self.highs, lows)))

    def is_empty(self) -> bool:
        """True when some dimension has negative extent."""
        return any(hi < lo for lo, hi in zip(self.lows, self.highs))

    def volume(self) -> float:
        return float(np.prod(np.maximum(np.subtract(self.highs, self.lows), 0.0)))


@dataclass
class RangeQuery:
    """One (sub)query in flight: region + routing prefix + provenance.

    Attributes
    ----------
    rect:
        The query region in index space.
    prefix_key:
        ``m``-bit key: the prefix padded with zeros (figure 1a).
    prefix_len:
        Valid bit count of the prefix.
    qid:
        Stable id of the *original* query — subqueries inherit it, which is
        how per-query cost metrics are aggregated.
    source:
        Identifier of the querying node (results return directly to it).
    index_name:
        Which index of the multi-index platform this query targets.
    payload:
        Opaque reference to the original query object (used by index nodes to
        refine candidates with true metric distances).
    cuboid:
        The cuboid ``(lows, highs)`` of ``(prefix_key, prefix_len)`` in Python
        floats, equal to :func:`~repro.core.lph.prefix_to_cuboid`'s: Algorithm
        4 and 5 halve it instead of replaying the prefix bits.  Every query
        this module makes carries it; one built directly may leave it
        ``None``, and the first split or refine fills it in.  It goes with
        the prefix: change one, change both.
    """

    rect: Rect
    prefix_key: int
    prefix_len: int
    qid: int
    source: Any = None
    index_name: str = "default"
    payload: Any = None
    radius: float | None = None
    cuboid: Cuboid | None = None

    def copy(self) -> RangeQuery:
        return self._child(self.rect, self.prefix_key, self.prefix_len, self.cuboid)

    def _child(self, rect: Rect, prefix_key: int, prefix_len: int,
               cuboid: Cuboid | None) -> RangeQuery:
        """A subquery of this query over ``rect`` with the given prefix and
        its cuboid."""
        return RangeQuery(
            rect, prefix_key, prefix_len, self.qid, self.source,
            self.index_name, self.payload, self.radius, cuboid)

    def _cuboid(self, bounds: IndexSpaceBounds, m: int) -> Cuboid:
        """:attr:`cuboid`, computed once for a query built without it."""
        if self.cuboid is None:
            lo, hi = prefix_to_cuboid(self.prefix_key, self.prefix_len, bounds, m)
            self.cuboid = tuple(lo.tolist()), tuple(hi.tolist())
        return self.cuboid

    @classmethod
    def from_point(
        cls,
        center: np.ndarray,
        radius: float,
        bounds: IndexSpaceBounds,
        m: int,
        source: Any = None,
        index_name: str = "default",
        payload: Any = None,
        qid: int | None = None,
        alloc: QidAllocator | None = None,
    ) -> RangeQuery:
        """Build the initial query: hypercube of side ``2r`` clipped to bounds.

        Clipping realises the paper's observation that a query point mapped
        near the boundary searches ``[I_q - r, upper_boundary]`` rather than
        a full ``2r`` box (§4.3).  A negative or NaN ``radius`` raises
        ``ValueError``; 0 and ``inf`` are legal.  So does a ``center`` with a
        NaN coordinate: its rectangle would be NaN in every dimension, which
        no partition plane separates, so the query would claim the whole
        space (prefix length 0), flood the ring and answer nothing.
        """
        if not radius >= 0:
            raise ValueError(f"query radius must be >= 0, got {radius!r}")
        center = np.asarray(center, dtype=np.float64)
        if np.isnan(center).any():
            raise ValueError(f"query center has a NaN coordinate: {center!r}")
        lows = np.maximum(center - radius, bounds.lows)
        highs = np.minimum(center + radius, bounds.highs)
        key, length = smallest_enclosing_prefix(lows, highs, bounds, m)
        q = cls(
            rect=Rect(lows, highs),
            prefix_key=key,
            prefix_len=length,
            qid=(alloc or _fallback_qids).next() if qid is None else qid,
            source=source,
            index_name=index_name,
            payload=payload,
            radius=float(radius),
        )
        q._cuboid(bounds, m)
        return q


def query_split(
    q: RangeQuery,
    p: int,
    bounds: IndexSpaceBounds,
    m: int,
) -> list[RangeQuery]:
    """Algorithm 4 (QuerySplit): advance/split ``q`` at division position ``p``.

    ``p`` must be ``q.prefix_len + 1`` — the next division of the recursive
    partition — or ``ValueError``.  Returns one subquery when the region lies
    wholly in one half (prefix extended by the matching bit) or two
    complementary subqueries otherwise.  The returned queries all have
    ``prefix_len == p`` and the cuboid of their prefix.
    """
    if not 1 <= p <= m or p != q.prefix_len + 1:
        raise ValueError(f"split position {p} is not 1..{m} or prefix_len + 1")
    j = (p - 1) % bounds.k
    # the dim-j extent of the cuboid of the first p-1 prefix bits is the one
    # q carries: Algorithm 4's while-loop, run once as the prefix grew
    cl, ch = q._cuboid(bounds, m)
    mid = (cl[j] + ch[j]) / 2.0
    rect, key = q.rect, q.prefix_key
    lows, highs = rect.lows, rect.highs
    if lows[j] > mid:
        return [q._child(rect, key | 1 << (m - p), p, (_with(cl, j, mid), ch))]
    lower = (cl, _with(ch, j, mid))
    if highs[j] < mid:
        return [q._child(rect, key, p, lower)]
    # Straddles the midpoint: split into higher (bit 1) and lower (bit 0)
    # halves; Algorithm 4 line 22 assigns mid to both new boundaries.
    return [
        q._child(Rect._of(_with(lows, j, mid), highs), key | 1 << (m - p), p,
                 (_with(cl, j, mid), ch)),
        q._child(Rect._of(lows, _with(highs, j, mid)), key, p, lower),
    ]


def _with(t: Floats, j: int, x: float) -> Floats:
    """``t`` with item ``j`` replaced by ``x``."""
    out = list(t)
    out[j] = x
    return tuple(out)


def claimed_range(q: RangeQuery, m: int) -> tuple[int, int]:
    """The key interval of the cuboid a subquery claims."""
    return q.prefix_key, q.prefix_key + (1 << (m - q.prefix_len)) - 1


def query_routing(
    node: Any,
    q: RangeQuery,
    bounds: IndexSpaceBounds,
    rotation: int,
    m: int,
) -> tuple[list[RangeQuery], list[Any]]:
    """Algorithm 3 (QueryRouting): what ``node`` does with ``q``, from local state.

    ``node`` is a *node view* — its ``next_hop(ring_key)`` is the closest
    table entry strictly preceding a ring position or the view
    itself when it knows none (:meth:`repro.dht.node.ChordNode.next_hop`; a
    finger row of a ``CompactChordRing`` slot serves as well).  The query is
    split one level deeper (Algorithm 4) and each half's prefix key rotated
    (§3.4) and looked up; two halves that would leave by the same link travel
    on unsplit (lines 8-9: the lower half kept ``q``'s prefix key, so ``q``
    goes that way too).  Returns the subqueries and, aligned, their next
    hops.  A next hop that *is* ``node`` means the node is the predecessor of
    that prefix key: its ``successor`` owns the key and is the surrogate that
    refines the subquery (lines 16-17).
    """
    if q.prefix_len == m:
        sublist = [q]
    else:
        sublist = query_split(q, q.prefix_len + 1, bounds, m)
    next_hop = node.next_hop
    nexts = [next_hop(rotate(sq.prefix_key, rotation, m)) for sq in sublist]
    if len(sublist) == 2 and nexts[0] is nexts[1]:
        sublist = [q]
        del nexts[1]
    return sublist, nexts


def surrogate_refine(
    q: RangeQuery,
    eff: int,
    bounds: IndexSpaceBounds,
    m: int,
) -> Iterator[tuple[RangeQuery, tuple[int, int] | None]]:
    """Algorithm 5 (SurrogateRefine), ``fixed`` mode, at the owner of ``q``'s prefix key.

    ``eff`` is the node's *effective* identifier, ``unrotate(node.id)``.
    Yields ``(subquery, key_range)`` steps in execution order: ``(key_lo,
    key_hi)`` is a key range to answer from local storage against the
    subquery's rectangle, ``None`` a subquery to route on from this node
    (:func:`query_routing`).  The local solve comes first and always exists:
    the whole claimed range when ``eff`` lies beyond the claimed cuboid (the
    ownership interval swallows it), else ``[prefix_key, eff]`` — and then the
    keys in ``(eff, key_hi]`` decompose into the sibling cuboid at each zero
    bit of ``eff``, the prefixes the printed recursion forwards, each
    intersected with the rectangle (:func:`~repro.core.lph.sibling_pieces`,
    halving ``q``'s cuboid; with no zero bit ``eff`` is the cuboid's last
    key and nothing travels).
    """
    key_lo, key_hi = claimed_range(q, m)
    if not same_prefix(q.prefix_key, eff, q.prefix_len, m):
        yield q, (key_lo, key_hi)
        return
    yield q, (key_lo, eff)
    rect = q.rect
    for sib_prefix, depth, lows, highs, cuboid in sibling_pieces(
            eff, q.prefix_len, q._cuboid(bounds, m), rect.lows, rect.highs, m):
        yield q._child(Rect._of(lows, highs), sib_prefix, depth, cuboid), None


def surrogate_refine_literal(
    q: RangeQuery,
    eff: int,
    bounds: IndexSpaceBounds,
    m: int,
) -> Iterator[tuple[RangeQuery, tuple[int, int] | None]]:
    """Algorithm 5 exactly as printed; the steps of :func:`surrogate_refine`.

    Re-prefixing ``q`` with the node's 1-bits (line 10) can drop the slivers
    of a rectangle that still straddles a partition plane between
    ``prefix_len + 1`` and the first zero bit (DESIGN.md §4b); kept for the
    fidelity ablation.
    """
    if not same_prefix(q.prefix_key, eff, q.prefix_len, m):
        yield q, claimed_range(q, m)  # lines 1-3
        return
    j = first_zero_bit(eff, q.prefix_len + 1, m)
    if j is None:
        yield q, claimed_range(q, m)  # lines 6-8
        return
    key = prefix_of(eff, j - 1, m)  # line 10
    nq = q._child(q.rect, key, j - 1, None)  # line 11
    for sq in query_split(nq, j, bounds, m):  # line 12
        if same_prefix(sq.prefix_key, eff, sq.prefix_len, m):
            yield from surrogate_refine_literal(sq, eff, bounds, m)  # line 15
        else:
            yield sq, None  # line 17


class OwnerWalk:
    """Algorithm 5 driven from the querying peer: which key to ask about next.

    Inside the rectangle's smallest enclosing cuboid, :attr:`key_lo` is the
    smallest key not yet answered for whose leaf cuboid meets the rectangle
    (``None`` once everything is covered) and :attr:`key_hi` the cuboid's
    last key.  The driver finds the owner of :attr:`ring_key`, has it solve
    ``[key_lo, key_hi]`` on its shard, and tells the walk the ``(pred, id]``
    arc that owner proved (:meth:`answered`): the solve covered the keys up to
    the owner's id, so ``key_lo`` jumps to the next key beyond it that can
    hold a match.  Only owners of such keys are asked, in key order, and no
    key range is passed over without an owner that vouched for it — the same
    places :func:`surrogate_refine` solves at, found without forwarding.  A
    rectangle that holds no point (``lows > highs`` in some dimension, or a
    NaN coordinate) starts finished: no owner is asked.
    """

    def __init__(self, lows: np.ndarray, highs: np.ndarray,
                 bounds: IndexSpaceBounds, rotation: int, m: int) -> None:
        prefix_key, prefix_len = smallest_enclosing_prefix(lows, highs, bounds, m)
        self.key_hi = prefix_key + (1 << (m - prefix_len)) - 1
        self.key_lo: int | None = first_key_meeting(
            prefix_key, prefix_len, lows, bounds, m) if (lows <= highs).all() else None
        self._prefix_len = prefix_len
        self._lows, self._highs = lows, highs
        self._bounds = bounds
        self._rotation = rotation
        self._m = m
        self._first_arc: tuple[int, int] | None = None
        #: the next key meeting the rectangle past each key answered up to,
        #: shared with the copies :meth:`plan` walks: a round that goes as
        #: planned searches for each once
        self._next: dict[int, int | None] = {}

    @property
    def ring_key(self) -> int:
        """Ring position of :attr:`key_lo`: its owner is the node to ask."""
        assert self.key_lo is not None, "the walk is over"
        return rotate(self.key_lo, self._rotation, self._m)

    def plan(self, arc_of: Callable[[int], tuple[int, int] | None]
             ) -> list[tuple[int, int, int]]:
        """The ``(key_lo, key_hi, ring_key)`` this walk asks from here on if
        each owner proves the arc ``(pred, id]`` that ``arc_of(ring_key)``
        names: the current position first, whatever ``arc_of`` says, then each
        next one while ``arc_of`` holds an arc for it and for the one before.
        A copy is walked; this walk does not move.  ``[]`` once it is over.
        """
        walk = copy(self)
        out: list[tuple[int, int, int]] = []
        while walk.key_lo is not None:
            rot = walk.ring_key
            arc = arc_of(rot)
            if arc is None and out:
                break  # a planned solve never needs a lookup
            out.append((walk.key_lo, walk.key_hi, rot))
            if arc is None:
                break  # the first is asked anyway, by lookup if need be
            walk._advance(rot, *arc)
        return out

    def answered(self, pred_id: int, owner_id: int) -> None:
        """The owner of :attr:`ring_key` solved ``[key_lo, key_hi]`` and
        proved the arc ``(pred_id, owner_id]``; advance :attr:`key_lo`.

        The arc decides how much of the key range counts as answered, and it
        comes from outside: unless both ids are ints in ``[0, 2**m)`` and the
        arc holds the position asked about, ``ValueError`` (a stale, buggy or
        hostile owner must not end the walk early).
        """
        m = self._m
        rot = self.ring_key
        if not (type(pred_id) is int and type(owner_id) is int
                and 0 <= pred_id < 1 << m and 0 <= owner_id < 1 << m
                and in_interval_open_closed(rot, pred_id, owner_id, m)):
            raise ValueError(
                f"arc ({pred_id!r}, {owner_id!r}] does not hold ring position {rot}")
        self._advance(rot, pred_id, owner_id)

    def _advance(self, rot: int, pred_id: int, owner_id: int) -> None:
        """:meth:`answered` once the arc is known to hold ``rot``, the ring
        position of :attr:`key_lo`."""
        m = self._m
        cur = self.key_lo
        assert cur is not None
        if self._first_arc is None:
            self._first_arc = pred_id, owner_id
        covered = cw_distance(rot, owner_id, m)
        if covered >= self.key_hi - cur:
            self.key_lo = None
            return
        eff = cur + covered
        if eff in self._next:
            nxt = self._next[eff]
        else:
            nxt = self._next[eff] = next_key_meeting(
                eff, self._prefix_len, self._lows, self._highs, self._bounds, m)
        if nxt is not None and in_interval_open_closed(
                rotate(nxt, self._rotation, m), *self._first_arc, m):
            # a cuboid spanning the ring ends where it began: in the arc of
            # the first owner, whose solve already ran up to key_hi
            nxt = None
        self.key_lo = nxt
