"""Runtime invariant checking: ring, ownership, conservation, partitions.

The distributed index makes crisp structural promises — the Chord ring is a
consistent cycle, every key has exactly one owner (plus replicas), every
branch a query opens is eventually settled, and QuerySplit/SurrogateRefine
partition a query *exactly* (no gap, no overlap).  A wrong answer under
churn would otherwise surface, if at all, as a silent recall dip in a
benchmark; these checkers turn each promise into a mechanical assertion the
whole stack can run under.

Two kinds of checker:

* :class:`InvariantChecker` — *global-state* assertions evaluated on demand
  or periodically on the simulation clock (:meth:`InvariantChecker.attach`):
  ring consistency against the oracle membership, exactly-one-owner shard
  placement for every index entry, branch conservation across lifecycle
  engines, and span-tree reconciliation against per-query stats.
* :class:`PartitionChecker` — an *online* observer wired into
  :class:`repro.core.routing.QueryProtocol` (the ``checker=`` parameter):
  verifies every QuerySplit tiles the parent hyperrectangle and every
  SurrogateRefine decomposition tiles the claimed key interval, as the
  algorithms execute.

Both raise :class:`InvariantViolation` in strict mode (the default) or
collect violations for inspection with ``strict=False``.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from typing import Any

import numpy as np

from repro.dht.idspace import rotate_keys
from repro.dht.maintenance import Links, ring_violations, status_links
from repro.util.bits import same_prefix, set_bit_at

__all__ = [
    "InvariantViolation",
    "PartitionChecker",
    "InvariantChecker",
    "check_live_cluster",
]


class InvariantViolation(AssertionError):
    """A checked invariant does not hold.

    ``name`` identifies the invariant (e.g. ``"ring.successor"``);
    ``details`` is a human-readable description of the violation.
    """

    def __init__(self, name: str, details: str) -> None:
        super().__init__(f"invariant {name!r} violated: {details}")
        self.name = name
        self.details = details


class _Reporter:
    """Shared strict-or-collect violation plumbing.

    ``flight`` optionally attaches a :class:`repro.obs.flight.FlightRecorder`:
    every violation is recorded into its ring buffer and — strict or not —
    triggers a bundle dump (reason ``invariant-violation``), so the recent
    event tail is on disk before the exception unwinds anything.
    """

    def __init__(self, strict: bool = True, flight: Any = None) -> None:
        self.strict = strict
        self.flight = flight
        self.violations: list[InvariantViolation] = []
        #: passed checks per invariant name (proof the checker actually ran)
        self.checks: dict[str, int] = {}

    def _passed(self, name: str) -> None:
        self.checks[name] = self.checks.get(name, 0) + 1

    def _fail(self, name: str, details: str) -> None:
        violation = InvariantViolation(name, details)
        if self.flight is not None:
            self.flight.record("invariant-violation", name=name, details=details)
            self.flight.dump(reason="invariant-violation")
        if self.strict:
            raise violation
        self.violations.append(violation)

    def _check_links(self, links: Sequence[Links | None]) -> bool:
        """Hold ``links`` to the ring rule (:func:`ring_violations`): the
        first violation is reported; whether there was none."""
        violations = ring_violations(links)
        for name, details in violations[:1]:
            self._fail(name, details)
        return not violations

    @property
    def ok(self) -> bool:
        return not self.violations


def check_live_cluster(
    statuses: list[dict[str, Any]],
    m: int,
    strict: bool = True,
    expected_entries: int | None = None,
    flight: Any = None,
) -> _Reporter:
    """Ring + conservation checks over live-node ``status`` RPC replies.

    The live backend (:mod:`repro.net`) has no shared-memory oracle, so the
    structural promises are asserted over the data every node reports about
    itself: each status, read by :func:`~repro.dht.maintenance.status_links`,
    must pass the ring rule (:func:`~repro.dht.maintenance.ring_violations`,
    a malformed one is ``ring.malformed``), and (when ``expected_entries`` is
    given) the shards together must hold every inserted entry exactly once.

    Same strict-or-collect semantics as the simulator checkers; returns the
    reporter so callers can inspect ``checks`` / ``violations``.
    """
    rep = _Reporter(strict, flight=flight)
    if not rep._check_links([status_links(s, m) for s in statuses]):
        return rep
    rep._passed("ring")
    if expected_entries is not None:
        counts = [s.get("entries") for s in statuses]
        held = sum(counts) if all(type(c) is int for c in counts) else counts
        if held != expected_entries:
            rep._fail(
                "ownership.conservation",
                f"shards hold {held} entries, {expected_entries} were inserted",
            )
            return rep
        rep._passed("ownership")
    return rep


class PartitionChecker(_Reporter):
    """Online query-partition exactness checks (Algorithms 4 and 5).

    Wire into a protocol via ``QueryProtocol(..., checker=checker)`` (or the
    ``checker=`` kwarg of ``IndexPlatform.query``/``protocol``).  Two hooks:

    * :meth:`on_split` — a QuerySplit produced two subqueries; they must
      tile the parent rectangle exactly along the split dimension and carry
      the two complementary prefix extensions.
    * :meth:`on_refine` — a surrogate decomposed its claimed key range; the
      locally-answered interval plus the forwarded sibling-cuboid intervals
      must tile the claimed interval with no gap and no overlap.
    """

    def __init__(self, index: Any, strict: bool = True, flight: Any = None) -> None:
        super().__init__(strict, flight=flight)
        self.index = index

    # -- Algorithm 4: the two halves tile the parent rectangle -----------------

    def on_split(self, q: Any, subs: Any) -> None:
        m = self.index.m
        k = self.index.bounds.k
        p = q.prefix_len + 1
        j = (p - 1) % k
        if len(subs) != 2:
            self._fail("split.arity", f"qid {q.qid}: {len(subs)} subqueries")
            return
        if any(sq.prefix_len != p for sq in subs):
            self._fail(
                "split.prefix_len",
                f"qid {q.qid}: prefix lengths {[sq.prefix_len for sq in subs]} != {p}",
            )
            return
        # identify halves by the new prefix bit (bit p set => higher half)
        hi = next((sq for sq in subs if sq.prefix_key == set_bit_at(q.prefix_key, p, m)), None)
        lo = next((sq for sq in subs if sq.prefix_key == q.prefix_key), None)
        if hi is None or lo is None or hi is lo:
            self._fail(
                "split.prefix_key",
                f"qid {q.qid}: keys {[hex(sq.prefix_key) for sq in subs]} are not the "
                f"complementary extensions of {q.prefix_key:#x} at bit {p}",
            )
            return
        # off-dimension extents must be untouched; dim j must share one plane
        for sq, tag in ((lo, "low"), (hi, "high")):
            off = np.arange(k) != j
            if not (
                np.array_equal(np.asarray(sq.rect.lows)[off], np.asarray(q.rect.lows)[off])
                and np.array_equal(np.asarray(sq.rect.highs)[off], np.asarray(q.rect.highs)[off])
            ):
                self._fail(
                    "split.off_dims",
                    f"qid {q.qid}: {tag} half altered a non-split dimension",
                )
                return
        gap_free = (
            lo.rect.lows[j] == q.rect.lows[j]
            and hi.rect.highs[j] == q.rect.highs[j]
            and lo.rect.highs[j] == hi.rect.lows[j]
        )
        if not gap_free:
            self._fail(
                "split.tiling",
                f"qid {q.qid}: dim {j} pieces "
                f"[{lo.rect.lows[j]}, {lo.rect.highs[j]}] + "
                f"[{hi.rect.lows[j]}, {hi.rect.highs[j]}] do not tile "
                f"[{q.rect.lows[j]}, {q.rect.highs[j]}]",
            )
            return
        if not (lo.rect.highs[j] <= hi.rect.lows[j] or lo.rect.highs[j] == hi.rect.lows[j]):
            self._fail("split.overlap", f"qid {q.qid}: halves overlap beyond the plane")
            return
        self._passed("split")

    # -- Algorithm 5: the key intervals tile the claimed range -----------------

    def on_refine(
        self, q: Any, eff: int, local_lo: int, local_hi: int, siblings: Any
    ) -> None:
        m = self.index.m
        span = 1 << (m - q.prefix_len)
        key_lo = q.prefix_key
        key_hi = key_lo + span - 1
        intervals = [(local_lo, local_hi, "local")]
        for prefix, plen in siblings:
            intervals.append((prefix, prefix + (1 << (m - plen)) - 1, f"sib/{plen}"))
            if not same_prefix(prefix, q.prefix_key, q.prefix_len, m):
                self._fail(
                    "refine.scope",
                    f"qid {q.qid}: sibling {prefix:#x}/{plen} escapes the claimed "
                    f"cuboid {key_lo:#x}..{key_hi:#x}",
                )
                return
        intervals.sort()
        if intervals[0][0] != key_lo:
            self._fail(
                "refine.gap",
                f"qid {q.qid}: coverage starts at {intervals[0][0]:#x}, "
                f"claimed range starts at {key_lo:#x}",
            )
            return
        for (alo, ahi, atag), (blo, bhi, btag) in zip(intervals, intervals[1:]):
            if blo != ahi + 1:
                kind = "refine.overlap" if blo <= ahi else "refine.gap"
                self._fail(
                    kind,
                    f"qid {q.qid}: {atag} ends at {ahi:#x} but {btag} starts at {blo:#x}",
                )
                return
        if intervals[-1][1] != key_hi:
            self._fail(
                "refine.gap",
                f"qid {q.qid}: coverage ends at {intervals[-1][1]:#x}, "
                f"claimed range ends at {key_hi:#x}",
            )
            return
        if not (key_lo <= (eff if same_prefix(q.prefix_key, eff, q.prefix_len, m) else key_hi) <= key_hi):
            self._fail("refine.owner", f"qid {q.qid}: effective id {eff:#x} outside claim")
            return
        self._passed("refine")


class InvariantChecker(_Reporter):
    """Global-state assertions over a platform (or bare ring/engine).

    Parameters
    ----------
    platform:
        Optional :class:`repro.core.platform.IndexPlatform`; supplies the
        ring, the hosted indexes (ownership checks) and the observability
        bundle (span reconciliation).
    ring:
        A :class:`repro.dht.ring.ChordRing` when no platform is given.
    strict:
        Raise :class:`InvariantViolation` on the first failure (default);
        ``False`` collects into :attr:`violations` instead.

    The ring checks assert the *stabilised steady state* (the tables
    structural rebuilds produce and the maintenance protocol converges to);
    run them at operation boundaries, not mid-convergence.  Ownership checks
    likewise assume entry placement is current (``distribute()`` ran after
    the last membership change).
    """

    def __init__(
        self,
        platform: Any = None,
        ring: Any = None,
        strict: bool = True,
        flight: Any = None,
    ) -> None:
        super().__init__(strict, flight=flight)
        self.platform = platform
        self.ring = ring if ring is not None else (platform.ring if platform else None)
        #: lifecycle engines whose branch conservation is checked
        self.engines: list[Any] = []
        self._hook_installed = False

    def track_engine(self, engine: Any) -> None:
        if engine is not None and engine not in self.engines:
            self.engines.append(engine)

    # -- Chord ring consistency ------------------------------------------------

    def check_ring(self) -> None:
        """No dead member; the ring rule (:func:`ring_violations`) over each
        member's first live successor and live predecessor; every finger a
        live member."""
        ring = self.ring
        nodes = ring.nodes()
        dead = next((node for node in nodes if not node.alive), None)
        if dead is not None:
            self._fail("ring.membership", f"dead node {dead.id:#x} still a member")
            return

        links: list[Links] = []
        for node in nodes:
            succ = next((e for e in node.successors if e["node"].alive), None)
            pred = node.predecessor
            links.append((node.entry(), succ,
                          pred if pred is not None and pred["node"].alive else None))
        if not self._check_links(links):
            return
        for node in nodes:
            for i, e in node.fingers.items():
                f = e["node"]
                if ring.nodes_by_id.get(f.id) is not f:
                    self._fail(
                        "ring.finger_live",
                        f"node {node.id:#x} finger {i} -> {f.id:#x} is not a live member",
                    )
                    return
        self._passed("ring")

    # -- exactly-one-owner coverage ---------------------------------------------

    def check_ownership(self, index: Any = None) -> None:
        """Every entry an index holds (:meth:`LandmarkIndex.entries`) is stored
        exactly on its owner plus the configured replica successors —
        nowhere else, never twice.  An entry no shard holds is the
        oracle's to find, not this check's."""
        indexes = [index] if index is not None else list(
            self.platform.indexes.values() if self.platform else []
        )
        ring = self.ring
        nodes = ring.nodes()
        n = len(nodes)
        for idx in indexes:
            if n == 0:
                continue
            keys, _, object_ids = idx.entries()
            owners = ring.table.owners_of_keys(rotate_keys(keys, idx.rotation, idx.m))
            copies = min(idx.replication, n)
            expected: dict[int, list[tuple[int, int]]] = {node.id: [] for node in nodes}
            for key, oid, owner_pos in zip(keys.tolist(), object_ids.tolist(),
                                           owners.tolist()):
                for c in range(copies):
                    expected[nodes[(owner_pos + c) % n].id].append((key, oid))
            for node in nodes:
                shard = idx.shards.get(node)
                actual = Counter(
                    zip(shard.keys.tolist(), shard.object_ids.tolist())
                    if shard is not None else ()
                )
                want = Counter(expected[node.id])
                if actual != want:
                    missing = sorted((want - actual).elements())
                    extra = sorted((actual - want).elements())
                    self._fail(
                        "ownership.placement",
                        f"index {idx.name!r} node {node.id:#x}: "
                        f"{len(missing)} entries missing {missing[:3]}, "
                        f"{len(extra)} foreign or repeated {extra[:3]}",
                    )
                    return
            self._passed("ownership")

    # -- query branch conservation ------------------------------------------------

    def check_conservation(self, engine: Any = None) -> None:
        """``branches_opened == settled + discarded + in flight`` per engine."""
        engines = [engine] if engine is not None else self.engines
        for eng in engines:
            c = eng.counters
            in_flight = eng.branches_in_flight()
            if c.branches_opened != c.branches_settled + c.branches_discarded + in_flight:
                self._fail(
                    "lifecycle.conservation",
                    f"opened {c.branches_opened} != settled {c.branches_settled} "
                    f"+ discarded {c.branches_discarded} + in-flight {in_flight}",
                )
                return
            self._passed("conservation")

    # -- span-tree reconciliation ---------------------------------------------------

    def check_spans(self, stats: Any, qid: int | None = None) -> None:
        """Reconcile recorded spans against per-query stats counters.

        Needs the platform's observability with a memory span sink.  Checks
        terminal queries only.
        """
        obs = self.platform.obs if self.platform is not None else None
        memory = obs.span_memory if obs is not None else None
        if memory is None:
            return
        from repro.obs.spans import reconcile_with_stats

        qids = [qid] if qid is not None else sorted(stats.queries)
        for q in qids:
            qs = stats.queries.get(q)
            if qs is None or not qs.terminal:
                continue
            problems = reconcile_with_stats(memory.for_query(q), qs)
            if problems:
                self._fail("spans.reconcile", f"qid {q}: " + "; ".join(problems))
                return
            self._passed("spans")

    # -- orchestration -----------------------------------------------------------------

    def check_all(self, stats: Any = None) -> InvariantChecker:
        self.check_ring()
        self.check_ownership()
        self.check_conservation()
        if stats is not None:
            self.check_spans(stats)
        return self

    def attach(self, sim: Any, interval: float = 1.0, stats: Any = None) -> None:
        """Run :meth:`check_all` every ``interval`` sim-seconds while events
        remain queued (``sim.every`` re-arms only on a truthy return, so the
        checker never keeps an otherwise-finished simulation alive)."""

        def tick() -> bool:
            self.check_all(stats)
            return sim.pending() > 0

        sim.every(interval, tick)
        self._hook_installed = True

    def summary(self) -> dict[str, int]:
        out = dict(self.checks)
        out["violations"] = len(self.violations)
        return out
