"""Wrapper/stack tracer: per-layer calls, busy and self time, from outside.

The program is not modified.  :class:`Tracer` replaces the public callables
listed in :data:`TARGETS` with timing wrappers and puts the originals back on
:meth:`Tracer.uninstall`.  Two details decide whether a wrapper records
anything at all:

* a module-level function is patched **where it is bound** — every loaded
  ``repro.*`` module whose namespace holds the original object gets the
  wrapper (``repro.core.routing.prefix_to_cuboid`` is a ``from``-import, so
  patching ``repro.core.lph`` alone would record nothing);
* a method is patched as a class attribute, so bound-method lookups at call
  time see the wrapper.

The "stack" is a :class:`contextvars.ContextVar` holding the innermost open
frame.  A context is per ``asyncio`` task, so concurrent RPC handlers of the
live workloads each keep their own parent chain; in the synchronous sim
workloads it degenerates to one ordinary stack.

A wrapper's own cost lands in its parent's self time; the benchmark reports
it as ``trace.overhead_ratio`` rather than pretending it away.
"""

from __future__ import annotations

import contextvars
import importlib
import inspect
import json
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass
from itertools import count
from pathlib import Path
from typing import Any

__all__ = ["TARGETS", "Stat", "Target", "Tracer"]


def _n_result(args: tuple[Any, ...], result: Any) -> int:
    return len(result)


def _n_arg1(args: tuple[Any, ...], result: Any) -> int:
    return len(args[1])


def _n_arg2(args: tuple[Any, ...], result: Any) -> int:
    return len(args[2])


def _rpc_kind(args: tuple[Any, ...], kwargs: dict[str, Any]) -> str:
    return str(args[2] if len(args) > 2 else kwargs["kind"])


@dataclass(frozen=True)
class Target:
    """One public callable to wrap.

    ``owner`` is ``"module"`` for a function or ``"module:Class"`` for a
    method; ``name`` is the span name (``layer.callable``) and its prefix up
    to the first dot is the layer the self time is charged to.  ``items``
    counts units of work from ``(args, result)`` (rows, keys, bytes);
    ``label`` splits one callable into several spans by an argument;
    ``samples`` keeps every duration for percentiles.
    """

    owner: str
    attr: str
    name: str
    items: Callable[[tuple[Any, ...], Any], int] | None = None
    label: Callable[[tuple[Any, ...], dict[str, Any]], str] | None = None
    samples: bool = False


TARGETS: tuple[Target, ...] = (
    # core.landmarks / core.lph / core.query
    Target("repro.core.landmarks:LandmarkSet", "project", "landmarks.project", items=_n_result),
    Target("repro.core.lph", "lp_hash_batch", "lph.lp_hash_batch", items=_n_result),
    Target("repro.core.lph", "smallest_enclosing_prefix", "lph.smallest_enclosing_prefix"),
    Target("repro.core.lph", "prefix_to_cuboid", "lph.prefix_to_cuboid"),
    Target("repro.core.query", "query_split", "query.query_split"),
    # core.routing (+ the Simulator.run residual), core.lifecycle
    Target("repro.core.routing:QueryProtocol", "issue_many", "routing.issue_many"),
    Target("repro.sim.engine:Simulator", "run", "routing.simulator_run"),
    Target("repro.core.lifecycle:LifecycleEngine", "register", "lifecycle.register"),
    Target("repro.core.lifecycle:LifecycleEngine", "open", "lifecycle.open"),
    Target("repro.core.lifecycle:LifecycleEngine", "arm", "lifecycle.arm"),
    Target("repro.core.lifecycle:LifecycleEngine", "accept", "lifecycle.accept"),
    Target("repro.core.lifecycle:LifecycleEngine", "settle", "lifecycle.settle"),
    Target("repro.core.lifecycle:LifecycleEngine", "add_entries", "lifecycle.add_entries"),
    Target("repro.core.lifecycle:LifecycleEngine", "run_until_complete",
           "lifecycle.run_until_complete"),
    # core.storage
    Target("repro.core.storage:Shard", "range_search", "storage.shard_range_search",
           items=_n_result),
    Target("repro.core.storage:ShardStore", "range_search", "storage.store_range_search",
           items=_n_result),
    Target("repro.core.storage:Shard", "add", "storage.shard_add", items=_n_arg1),
    Target("repro.core.storage:PersistentShard", "add", "storage.persistent_add", items=_n_arg1),
    Target("repro.core.storage:WriteAheadLog", "append", "storage.wal_append"),
    # not a repro callable, but the flush every durable write ends in; patched
    # on the os module itself, for the length of a traced region only
    Target("os", "fsync", "storage.os_fsync"),
    # core.platform
    Target("repro.core.platform:IndexPlatform", "run_workload", "platform.run_workload"),
    Target("repro.core.platform:IndexPlatform", "create_index", "platform.create_index"),
    Target("repro.core.platform:LandmarkIndex", "make_queries", "platform.make_queries",
           items=_n_result),
    Target("repro.core.platform:LandmarkIndex", "refine_distances", "platform.refine_distances"),
    # dht
    Target("repro.dht.node:ChordNode", "next_hop", "dht.next_hop"),
    Target("repro.dht.compact:CompactChordRing", "build", "compact.build"),
    Target("repro.dht.compact:CompactChordRing", "route_batch", "compact.route_batch",
           items=_n_arg1),
    # sim.transport, obs, core.scale
    Target("repro.sim.transport:Transport", "send", "transport.send"),
    Target("repro.obs.registry:Histogram", "observe_many", "obs.observe_many", items=_n_arg1),
    Target("repro.core.scale:ScaleSimulation", "__init__", "scale.init"),
    Target("repro.core.scale:ScaleSimulation", "run", "scale.run"),
    # net.codec / net.transport / net.node / net.cluster
    Target("repro.net.codec:Framer", "encode", "codec.encode", items=_n_result),
    Target("repro.net.codec:FrameDecoder", "feed", "codec.decode", items=_n_result),
    Target("repro.net.transport:TcpTransport", "rpc", "net_transport.rpc",
           label=_rpc_kind, samples=True),
    Target("repro.net.transport:TcpTransport", "send", "net_transport.send"),
    Target("repro.net.node:NodeProcess", "range_query", "node.range_query", samples=True),
    Target("repro.net.node:NodeProcess", "ring_snapshot", "node.ring_snapshot", samples=True),
    Target("repro.net.node:NodeProcess", "route_insert", "node.route_insert", samples=True),
    Target("repro.net.cluster:LocalCluster", "start", "cluster.start"),
    Target("repro.net.cluster:ClusterClient", "wait_converged", "cluster.wait_converged"),
    Target("repro.net.cluster:ClusterClient", "insert", "cluster.insert", items=_n_arg2),
)


class Stat:
    """Rollup of one span name: calls, inclusive and self nanoseconds."""

    __slots__ = ("calls", "busy", "self_ns", "items", "errors", "samples")

    def __init__(self, keep_samples: bool = False) -> None:
        self.calls = 0
        self.busy = 0
        self.self_ns = 0
        self.items = 0
        self.errors = 0
        self.samples: list[int] | None = [] if keep_samples else None

    def as_dict(self) -> dict[str, int]:
        return {"calls": self.calls, "busy_ns": self.busy, "self_ns": self.self_ns,
                "items": self.items, "errors": self.errors}


# frame layout: [child_ns, closed, span_id]
_CHILD, _CLOSED, _SID = 0, 1, 2


class Tracer:
    """Installs, reads and removes the timing wrappers (see module docstring)."""

    def __init__(self, targets: tuple[Target, ...] = TARGETS) -> None:
        self.targets = targets
        self.stats: dict[str, Stat] = {}
        self.marks: list[dict[str, Any]] = []
        self.spans: list[dict[str, Any]] = []
        #: while set, every wrapper also records a full span tagged with it
        self.capture_op: int | None = None
        self._cur: contextvars.ContextVar[list[Any] | None] = contextvars.ContextVar(
            "ledger_frame", default=None)
        self._ids = count(1)
        self._patched: list[tuple[Any, str, Any]] = []

    # -- install / uninstall ----------------------------------------------------

    def install(self) -> None:
        if self._patched:
            return
        for target in self.targets:
            mod_name, _, cls_name = target.owner.partition(":")
            module = importlib.import_module(mod_name)
            if cls_name:
                owner = getattr(module, cls_name)
                original = owner.__dict__[target.attr]
                if isinstance(original, classmethod):
                    wrapped: Any = classmethod(self._wrap(original.__func__, target))
                else:
                    wrapped = self._wrap(original, target)
                self._patched.append((owner, target.attr, original))
                setattr(owner, target.attr, wrapped)
                continue
            original = getattr(module, target.attr)
            wrapped = self._wrap(original, target)
            for name, mod in list(sys.modules.items()):
                if mod is None or not (mod is module or name.startswith("repro.")):
                    continue
                if mod.__dict__.get(target.attr) is original:
                    self._patched.append((mod, target.attr, original))
                    setattr(mod, target.attr, wrapped)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> Tracer:
        self.install()
        return self

    def __exit__(self, *exc: object) -> None:
        self.uninstall()

    # -- wrappers ---------------------------------------------------------------

    def _stat(self, name: str, keep_samples: bool) -> Stat:
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = Stat(keep_samples)
        return stat

    def _wrap(self, fn: Callable[..., Any], target: Target) -> Callable[..., Any]:
        tracer = self
        cur = self._cur
        clock = time.perf_counter_ns
        items = target.items
        label = target.label
        base = self._stat(target.name, target.samples)

        def enter(args: tuple[Any, ...], kwargs: dict[str, Any]) -> tuple[Any, ...]:
            name, stat = target.name, base
            if label is not None:
                name = f"{name}.{label(args, kwargs)}"
                stat = tracer._stat(name, target.samples)
            parent = cur.get()
            if parent is not None and parent[_CLOSED]:
                # inherited from a task that was created inside a span which
                # has since ended (server connections outlive LocalCluster.start)
                parent = None
            frame = [0, False, next(tracer._ids) if tracer.capture_op is not None else 0]
            return name, stat, frame, parent, cur.set(frame)

        def leave(name: str, stat: Stat, frame: list[Any], parent: list[Any] | None,
                  token: Any, t0: int, t1: int) -> None:
            cur.reset(token)
            frame[_CLOSED] = True
            dt = t1 - t0
            stat.calls += 1
            stat.busy += dt
            stat.self_ns += dt - frame[_CHILD]
            if stat.samples is not None:
                stat.samples.append(dt)
            if parent is not None:
                parent[_CHILD] += dt
            if frame[_SID]:
                tracer.spans.append({
                    "op": tracer.capture_op, "id": frame[_SID],
                    "parent": parent[_SID] if parent is not None else 0,
                    "name": name, "start_ns": t0, "end_ns": t1,
                })

        if inspect.iscoroutinefunction(fn):
            async def awrapper(*args: Any, **kwargs: Any) -> Any:
                name, stat, frame, parent, token = enter(args, kwargs)
                t0 = clock()
                try:
                    result = await fn(*args, **kwargs)
                except BaseException:
                    stat.errors += 1
                    raise
                finally:
                    leave(name, stat, frame, parent, token, t0, clock())
                if items is not None:
                    stat.items += items(args, result)
                return result

            return awrapper

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            name, stat, frame, parent, token = enter(args, kwargs)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stat.errors += 1
                raise
            finally:
                leave(name, stat, frame, parent, token, t0, clock())
            if items is not None:
                stat.items += items(args, result)
            return result

        return wrapper

    # -- reading ----------------------------------------------------------------

    def take(self) -> dict[str, Stat]:
        """Return the rollups so far and zero them in place (wrappers hold on
        to the :class:`Stat` objects, so they keep recording)."""
        out: dict[str, Stat] = {}
        for name, stat in self.stats.items():
            copy = out[name] = Stat()
            copy.calls, copy.busy, copy.self_ns, copy.items, copy.errors = (
                stat.calls, stat.busy, stat.self_ns, stat.items, stat.errors)
            stat.calls = stat.busy = stat.self_ns = stat.items = stat.errors = 0
            if stat.samples is not None:
                copy.samples = stat.samples[:]
                stat.samples.clear()
        return out

    def mark(self, batch: int, ops: int, wall_ns: int) -> None:
        """Remember the cumulative rollups at the end of one timed batch."""
        self.marks.append({
            "batch": batch, "ops": ops, "wall_ns": wall_ns,
            "layers": {n: s.as_dict() for n, s in self.stats.items() if s.calls},
        })

    def write_jsonl(self, path: Path, workload: str) -> None:
        """One ``rollup`` line per timed batch (deltas), then the captured spans."""
        with open(path, "w", encoding="utf-8") as fh:
            prev: dict[str, dict[str, int]] = {}
            for m in self.marks:
                delta = {}
                for name, cum in m["layers"].items():
                    before = prev.get(name, {})
                    d = {k: v - before.get(k, 0) for k, v in cum.items()}
                    if d["calls"]:
                        delta[name] = d
                prev = m["layers"]
                fh.write(json.dumps({
                    "type": "rollup", "workload": workload, "batch": m["batch"],
                    "ops": m["ops"], "wall_ns": m["wall_ns"], "layers": delta,
                }) + "\n")
            for span in self.spans:
                fh.write(json.dumps({"type": "span", "workload": workload, **span}) + "\n")
