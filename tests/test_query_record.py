"""One record per query: the lifecycle's ``QueryFuture`` is the query's §4.1
stats row, filed once, in the collector of the engine that registered it.

The guard walks the program's source (the library, the comparison baselines,
the benches and the examples) for the retired second record (``_Record``),
``stats=`` plumbing into the query protocols, ``protocol()`` and
``register()``, and ``.entries()`` calls on a future (its ``entries`` is the
raw row list; ``result()`` or ``merge_entries`` merge it).
"""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

import repro
from benchmarks.baselines.scrap import SfcIndex, SfcRangeProtocol
from repro.core.knn import knn_search
from repro.core.lifecycle import LifecycleEngine, QueryFuture
from repro.core.naive import NaiveProtocol
from repro.core.platform import IndexPlatform
from repro.core.routing import QueryProtocol
from repro.datasets.queries import QueryWorkload
from repro.dht.ring import ChordRing
from repro.metric.vector import EuclideanMetric
from repro.sim.network import ConstantLatency
from repro.sim.stats import QueryStats

_REPO = Path(repro.__file__).parent.parent.parent


def _program_files():
    roots = [_REPO / "src", _REPO / "benchmarks" / "baselines", _REPO / "examples"]
    for root in roots:
        yield from sorted(root.rglob("*.py"))
    yield from sorted((_REPO / "benchmarks").glob("bench_*.py"))


def _protocol_names():
    names, todo = set(), [QueryProtocol]
    while todo:
        cls = todo.pop()
        names.add(cls.__name__)
        todo.extend(cls.__subclasses__())
    return names


def _callee(call):
    f = call.func
    return f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None


def _stats_like(node):
    """An argument that passes a collector: a name or attribute spelled
    ``stats``, or a ``StatsCollector()`` call."""
    if isinstance(node, ast.Call):
        return _callee(node) == "StatsCollector"
    name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", "")
    return bool(re.search(r"stats?$", name or ""))


_FUTURE_NAME = re.compile(r"^(f|cf|fut\w*|futures?\w*)$")
_ISSUERS = {"issue", "query_async", "register"}


def test_no_second_record_no_stats_plumbing_no_entries_call():
    assert NaiveProtocol.__name__ in _protocol_names()
    assert SfcRangeProtocol.__name__ in _protocol_names()
    takers = _protocol_names() | {"protocol", "register"}
    found = []
    files = list(_program_files())
    assert len(files) > 50
    for path in files:
        rel = path.relative_to(_REPO).as_posix()
        tree = ast.parse(path.read_text())
        futures = set()  # names bound to a call that returns a future
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call) \
                    and _callee(node.value) in _ISSUERS:
                futures |= {t.id for t in node.targets if isinstance(t, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and node.id == "_Record" or \
                    isinstance(node, ast.Attribute) and node.attr in ("_Record", "_rec") or \
                    isinstance(node, ast.ClassDef) and node.name == "_Record":
                found.append(f"{rel}:{node.lineno} _Record")
            if not isinstance(node, ast.Call):
                continue
            name = _callee(node)
            if name in takers:
                if any(kw.arg == "stats" for kw in node.keywords):
                    found.append(f"{rel}:{node.lineno} {name}(stats=...)")
                if any(_stats_like(a) for a in node.args):
                    found.append(f"{rel}:{node.lineno} {name}(<stats>, ...)")
            f = node.func
            if isinstance(f, ast.Attribute) and f.attr == "entries" and not node.args:
                recv = f.value
                if isinstance(recv, ast.Name) and (
                        recv.id in futures or _FUTURE_NAME.match(recv.id)):
                    found.append(f"{rel}:{node.lineno} {recv.id}.entries()")
    assert found == []
    # the engine's one registry is its collector
    engine_src = (_REPO / "src/repro/core/lifecycle.py").read_text()
    assert "self.records" not in engine_src and "_set_state" not in engine_src
    assert not callable(getattr(QueryFuture, "entries", None))
    assert "terminal" not in vars(QueryStats)


def _platform(n_nodes=12, n_obj=300, seed=4):
    rng = np.random.default_rng(seed)
    data = rng.uniform(0, 100, size=(n_obj, 4))
    ring = ChordRing.build(n_nodes, m=24, seed=seed, latency=ConstantLatency(n_nodes, 0.01))
    platform = IndexPlatform(ring)
    platform.create_index("t", data, EuclideanMetric(box=(0, 100), dim=4),
                          k=3, sample_size=120, seed=seed)
    return platform, data


def _held(engine, fut):
    """Names of the engine's attributes that hold ``fut`` (directly, or as a
    value of a dict or collector)."""
    out = []
    for name, value in vars(engine).items():
        vals = value.queries.values() if name == "stats" else \
            value.values() if isinstance(value, dict) else \
            value if isinstance(value, (list, tuple, set)) else (value,)
        if any(v is fut for v in vals):
            out.append(name)
    return out


@pytest.mark.parametrize("flavor", ["tree", "naive", "scrap"])
def test_the_future_is_the_record_its_engine_files(flavor):
    platform, data = _platform()
    index = platform.indexes["t"]
    engine = platform.lifecycle()
    if flavor == "tree":
        proto, stats = platform.protocol("t", engine=engine)
        assert stats is proto.stats
    elif flavor == "naive":
        proto = NaiveProtocol(platform.transport, index, engine=engine)
    else:
        proto = SfcRangeProtocol(platform.transport, SfcIndex(index), engine=engine)
    assert proto.stats is engine.stats
    futs = [proto.issue(index.make_query(data[i], 20.0, qid=i), platform.ring.nodes()[i])
            for i in range(4)]
    engine.run_until_complete(futs)
    for fut in futs:
        assert fut is proto.stats.queries[fut.qid]
        assert isinstance(fut, QueryStats) and fut.engine is engine
        assert _held(engine, fut) == ["stats"]  # filed once
        assert fut.state == "complete" and fut.terminal
        assert fut.result() and fut.query_messages > 0
    # a handle: hashable, equal only to itself
    assert len(set(futs)) == 4 and futs[0] == futs[0] and futs[0] != futs[1]
    twin = QueryFuture(0, engine, futs[0].issued_at)
    twin.__dict__.update(vars(futs[0]))
    assert twin != futs[0]


def test_run_workload_and_knn_file_their_futures():
    platform, data = _platform()
    workload = QueryWorkload.build(data[:6], 20.0, n_nodes=12, mean_interarrival=0.01,
                                   seed=np.random.default_rng(1))
    stats = platform.run_workload("t", workload)
    assert sorted(stats.queries) == list(range(6))
    for qid, fut in stats.queries.items():
        assert type(fut) is QueryFuture and fut.qid == qid
        assert fut.engine.stats is stats
    res = knn_search(platform, "t", data[7], k=5)
    assert res.query_messages > 0 and len(res.object_ids) == 5
    engine = LifecycleEngine(platform.transport)
    fut = engine.register(3)
    assert engine.stats.queries == {3: fut} and fut.issued_at == platform.sim.now
