"""Determinism rules (DET1xx).

The replay harness (PR 4) proves a run is bit-identical *after the fact*;
these rules stop the classic divergence sources from entering the tree in
the first place:

* **DET101** — wall-clock reads.  Simulation time is ``sim.now``; a
  ``time.time()`` in protocol code makes fingerprints machine-dependent.
* **DET102** — ambient randomness.  Module-level ``random.*`` calls and
  unseeded ``Random()`` / ``default_rng()`` constructions draw from global
  or fresh entropy the scenario seed does not control.
* **DET103** — builtin ``hash()``.  String/bytes hashing is salted per
  process (``PYTHONHASHSEED``); identifiers must come from
  :mod:`repro.dht.hashing` (SHA-1) or ``zlib.crc32``.
* **DET104** — set iteration feeding the event queue.  ``set`` order is
  insertion-and-hash dependent; iterating one while scheduling events or
  emitting messages makes the schedule digest fragile.  Wrap in
  ``sorted(...)``.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable

from repro.check.lint.engine import LintContext, ModuleInfo, Rule, rule
from repro.check.lint.findings import Finding, FixEdit

__all__ = ["WallClockRule", "AmbientRandomnessRule", "BuiltinHashRule", "SetIterationRule"]

#: functions whose return value is the host's clock, not the simulation's
_WALLCLOCK = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "time.process_time_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}

#: ``random``-module constructors that accept a seed as first argument
_SEEDABLE = {"random.Random", "numpy.random.default_rng", "numpy.random.RandomState"}

#: ``numpy.random`` attributes that are *not* draws from the global stream
_NUMPY_RANDOM_OK = {
    "numpy.random.default_rng",
    "numpy.random.Generator",
    "numpy.random.RandomState",
    "numpy.random.SeedSequence",
    "numpy.random.BitGenerator",
    "numpy.random.PCG64",
    "numpy.random.Philox",
}

#: modules exempt from DET101 — the scale-smoke check enforces wall-clock
#: budgets around a simulation, never inside one, and the live network
#: backend (repro.net) runs on real sockets where the host's monotonic
#: clock IS the transport clock.
_WALLCLOCK_ALLOWED = ("repro.check.scale_smoke", "repro.net")

#: modules exempt from DET103 (the sanctioned hashing home)
_HASH_ALLOWED = ("repro.dht.hashing",)

#: method/function names that put work on the event queue or emit messages
_SCHEDULING_SINKS = {
    "send",
    "control",
    "timer",
    "timer_cancelable",
    "at_cancelable",
    "schedule_in",
    "schedule_at",
}


def _in_repro(module: ModuleInfo) -> bool:
    return module.module is not None and (
        module.module == "repro" or module.module.startswith("repro.")
    )


@rule
class WallClockRule(Rule):
    id = "DET101"
    name = "wall-clock-read"
    rationale = (
        "Simulated components must read time from the simulator clock "
        "(`sim.now`); host-clock reads diverge between machines and runs."
    )

    def check(self, module: ModuleInfo, ctx: LintContext) -> Iterable[Finding]:
        if not _in_repro(module):
            return
        mod = module.module or ""
        if any(mod == a or mod.startswith(a + ".") for a in _WALLCLOCK_ALLOWED):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            target = module.resolve(node.func)
            if target in _WALLCLOCK:
                yield module.finding(
                    self.id, node,
                    f"wall-clock read `{target}()` — use the simulation clock "
                    "(`sim.now`) instead",
                )


@rule
class AmbientRandomnessRule(Rule):
    id = "DET102"
    name = "ambient-randomness"
    rationale = (
        "Every random draw must come from a generator derived from the "
        "scenario seed; global-stream calls and unseeded constructors "
        "escape the replay fingerprint."
    )

    def check(self, module: ModuleInfo, ctx: LintContext) -> Iterable[Finding]:
        if not _in_repro(module):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            target = module.resolve(node.func)
            if target is None:
                continue
            if target in _SEEDABLE:
                if self._unseeded(node):
                    yield module.finding(
                        self.id, node,
                        f"unseeded `{target.rsplit('.', 1)[-1]}()` — pass an "
                        "explicit seed (or a generator from repro.util.rng)",
                        fix=_seed_fix(node),
                    )
            elif target.startswith("random.") and target.count(".") == 1:
                if target not in ("random.Random", "random.SystemRandom"):
                    yield module.finding(
                        self.id, node,
                        f"global-stream call `{target}()` — use a seeded "
                        "`random.Random(seed)` or numpy Generator",
                    )
            elif target.startswith("numpy.random.") and target not in _NUMPY_RANDOM_OK:
                yield module.finding(
                    self.id, node,
                    f"legacy global-stream call `{target}()` — use "
                    "`numpy.random.default_rng(seed)`",
                )

    @staticmethod
    def _unseeded(node: ast.Call) -> bool:
        if node.args:
            first = node.args[0]
            return isinstance(first, ast.Constant) and first.value is None
        for kw in node.keywords:
            if kw.arg in ("seed", "x") and not (
                isinstance(kw.value, ast.Constant) and kw.value.value is None
            ):
                return False
        return True


def _seed_fix(node: ast.Call) -> FixEdit | None:
    """Mechanical fix: make the unseeded constructor explicit with seed 0."""
    if node.args or node.keywords or node.end_lineno is None or node.end_col_offset is None:
        return None  # only the bare `f()` form is safely mechanical
    return FixEdit(
        line=node.end_lineno,
        col=node.end_col_offset - 2,
        end_line=node.end_lineno,
        end_col=node.end_col_offset,
        replacement="(0)",
    )


@rule
class BuiltinHashRule(Rule):
    id = "DET103"
    name = "builtin-hash"
    rationale = (
        "`hash()` on str/bytes is salted per process (PYTHONHASHSEED); "
        "stable identifiers come from repro.dht.hashing or zlib.crc32."
    )

    def check(self, module: ModuleInfo, ctx: LintContext) -> Iterable[Finding]:
        if not _in_repro(module) or module.module in _HASH_ALLOWED:
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            if module.resolve(node.func) == "hash":
                yield module.finding(
                    self.id, node,
                    "builtin `hash()` is process-salted for str/bytes — use "
                    "repro.dht.hashing.hash_to_id or zlib.crc32",
                )


@rule
class SetIterationRule(Rule):
    id = "DET104"
    name = "set-iteration-scheduling"
    rationale = (
        "Iterating a set fixes an arbitrary order; when that order reaches "
        "the event queue or the wire, the schedule digest depends on hash "
        "seeds and insertion history. Iterate `sorted(...)` instead."
    )

    def check(self, module: ModuleInfo, ctx: LintContext) -> Iterable[Finding]:
        if not _in_repro(module):
            return
        for fn in ast.walk(module.tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not self._schedules(fn):
                continue
            set_names = _set_typed_names(fn)
            for loop in ast.walk(fn):
                iters: list[ast.expr] = []
                if isinstance(loop, (ast.For, ast.AsyncFor)):
                    iters = [loop.iter]
                elif isinstance(loop, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
                    iters = [gen.iter for gen in loop.generators]
                for it in iters:
                    if _is_set_expr(it, set_names):
                        yield module.finding(
                            self.id, it,
                            "iteration over an unordered set in a function "
                            "that schedules events/messages — wrap the "
                            "iterable in sorted(...)",
                        )

    @staticmethod
    def _schedules(fn: ast.AST) -> bool:
        for node in ast.walk(fn):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _SCHEDULING_SINKS
            ):
                return True
        return False


def _set_typed_names(fn: ast.AST) -> set[str]:
    """Local names bound to an obviously set-typed expression."""
    names: set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign) and _is_set_expr(node.value, names):
            for t in node.targets:
                if isinstance(t, ast.Name):
                    names.add(t.id)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            ann = node.annotation
            txt = ast.unparse(ann) if ann is not None else ""
            if txt.startswith(("set[", "set", "frozenset")):
                names.add(node.target.id)
    return names


_SET_METHODS = {"intersection", "union", "difference", "symmetric_difference", "copy"}


def _is_set_expr(node: ast.expr, set_names: set[str]) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Name):
        return node.id in set_names
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name) and node.func.id in ("set", "frozenset"):
            return True
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _SET_METHODS
            and _is_set_expr(node.func.value, set_names)
        ):
            return True
    return False
