"""Async-safety rules (ASY4xx), for the live backend (:mod:`repro.net`).

The sim's determinism rules assume a single-threaded event queue the
harness controls; the live asyncio backend trades that for a real event
loop, where the classic failure modes are *silent* — a blocked loop shows
up as tail latency, a never-awaited coroutine as a warning nobody reads,
a dropped task as an exception nobody sees.  These rules make them loud
at lint time:

* **ASY401** — blocking call inside ``async def``, or inside a plain
  function the transport runs on the loop (a ``register_rpc`` handler, a
  protocol's ``data_received``).  ``time.sleep``, synchronous
  ``socket``/``subprocess``/``urllib`` entry points and bare ``open()``
  stall the entire event loop: every peer connection, timer and RPC in the
  process waits behind one call.
* **ASY402** — coroutine called but never awaited.  Calling an
  ``async def`` without ``await`` builds a coroutine object and throws it
  away; the body never runs.  Python only warns at garbage-collection
  time, on stderr, long after the protocol has silently lost a step.
* **ASY403** — ``asyncio.create_task`` / ``loop.create_task`` /
  ``asyncio.ensure_future`` result dropped on the floor.  The loop keeps
  only a weak reference to running tasks: an unreferenced task can be
  garbage-collected mid-flight, and an exception inside it is reported
  only at interpreter exit.  Keep the handle (and discard it explicitly
  on completion).
* **ASY404** — ``await`` while holding a plain (non-asyncio)
  ``threading`` lock.  The coroutine suspends with the lock held; any
  other coroutine on the same loop that tries to take it deadlocks the
  loop, because the holder can only resume on that very loop.  Use
  ``asyncio.Lock`` with ``async with``.

Scope tracking is syntactic: a call is "in async context" when its
innermost enclosing function is an ``async def``.  A nested synchronous
``def`` resets the context — such callbacks often run off-loop (thread
pools, ``call_soon`` from sync code), and flagging them would punish the
escape hatches.  ASY401 alone also reads as loop context the two kinds of
``def`` that are known to run on it: one named ``data_received``, and one
passed to ``register_rpc`` in the same module.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Iterator

from repro.check.lint.engine import LintContext, ModuleInfo, Rule, in_rule_scope, rule
from repro.check.lint.findings import Finding

__all__ = [
    "BlockingCallRule",
    "UnawaitedCoroutineRule",
    "DroppedTaskRule",
    "AwaitUnderSyncLockRule",
]

#: dotted call targets that block the calling thread — and with it the
#: entire event loop when called from a coroutine
_BLOCKING = {
    "time.sleep",
    "subprocess.run",
    "subprocess.call",
    "subprocess.check_call",
    "subprocess.check_output",
    "subprocess.getoutput",
    "subprocess.getstatusoutput",
    "os.system",
    "os.wait",
    "os.waitpid",
    "socket.create_connection",
    "socket.getaddrinfo",
    "socket.gethostbyname",
    "socket.gethostbyaddr",
    "urllib.request.urlopen",
    "open",
    "input",
}

#: task-spawning entry points whose return value is the only strong
#: reference keeping the task alive
_TASK_SPAWNERS = {"asyncio.create_task", "asyncio.ensure_future"}
_TASK_SPAWN_ATTRS = {"create_task", "ensure_future"}

#: threading synchronisation constructors whose ``with`` blocks must not
#: contain an ``await``
_SYNC_LOCKS = {
    "threading.Lock",
    "threading.RLock",
    "threading.Condition",
    "threading.Semaphore",
    "threading.BoundedSemaphore",
}


def _async_function_bodies(tree: ast.Module) -> Iterator[ast.AsyncFunctionDef]:
    """Every ``async def`` in the module, at any nesting depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.AsyncFunctionDef):
            yield node


def _loop_functions(tree: ast.Module) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
    """Every function the event loop runs: each ``async def``, each ``def
    data_received`` and each ``def`` registered as an RPC handler here."""
    handlers = {"data_received"}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "register_rpc" and len(node.args) > 1):
            fn = node.args[1]
            if isinstance(fn, (ast.Name, ast.Attribute)):
                handlers.add(fn.id if isinstance(fn, ast.Name) else fn.attr)
    for node in ast.walk(tree):
        if isinstance(node, ast.AsyncFunctionDef) or (
                isinstance(node, ast.FunctionDef) and node.name in handlers):
            yield node


def _walk_same_async_scope(
        fn: ast.FunctionDef | ast.AsyncFunctionDef) -> Iterator[ast.AST]:
    """Walk ``fn``'s body without descending into nested function defs.

    Nested ``async def`` bodies are visited when the outer iteration over
    :func:`_async_function_bodies` reaches them; nested sync ``def`` bodies
    are deliberately skipped (they run off this coroutine's await chain).
    """
    stack: list[ast.AST] = list(fn.body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))


@rule
class BlockingCallRule(Rule):
    id = "ASY401"
    name = "blocking-call-in-async"
    rationale = (
        "A blocking call inside `async def` (or a plain RPC handler, which "
        "runs on the loop) stalls the whole event loop — "
        "every connection, timer and RPC in the process waits behind it; "
        "use the asyncio equivalent (asyncio.sleep, open_connection, "
        "create_subprocess_exec, to_thread)."
    )

    #: suggested replacements, keyed by blocking target
    _HINTS = {
        "time.sleep": "await asyncio.sleep(...)",
        "subprocess.run": "await asyncio.create_subprocess_exec(...)",
        "socket.create_connection": "await asyncio.open_connection(...)",
        "urllib.request.urlopen": "asyncio.to_thread(...)",
        "open": "asyncio.to_thread(...) (or accept the stall knowingly "
                "via a sync helper)",
    }

    def check(self, module: ModuleInfo, ctx: LintContext) -> Iterable[Finding]:
        if not in_rule_scope(module):
            return
        for fn in _loop_functions(module.tree):
            how = "async def" if isinstance(fn, ast.AsyncFunctionDef) else "loop-run def"
            for node in _walk_same_async_scope(fn):
                if not isinstance(node, ast.Call):
                    continue
                target = module.resolve(node.func)
                if target in _BLOCKING:
                    hint = self._HINTS.get(target, "an asyncio equivalent "
                                           "or asyncio.to_thread(...)")
                    yield module.finding(
                        self.id, node,
                        f"blocking call `{target}(...)` inside `{how} "
                        f"{fn.name}` stalls the event loop — use {hint}",
                    )


def _module_async_defs(info: ModuleInfo) -> set[str]:
    """Names of module-level ``async def`` functions."""
    return {
        stmt.name for stmt in info.tree.body
        if isinstance(stmt, ast.AsyncFunctionDef)
    }


def _project_async_functions(ctx: LintContext) -> set[str]:
    """Dotted names of module-level async functions across scanned modules."""
    cached = getattr(ctx, "_async_fn_index", None)
    if cached is None:
        cached = {
            f"{name}.{fname}"
            for name, info in ctx.modules.items()
            for fname in _module_async_defs(info)
        }
        ctx._async_fn_index = cached  # type: ignore[attr-defined]
    return cached


def _class_async_methods(cls: ast.ClassDef) -> set[str]:
    return {
        stmt.name for stmt in cls.body
        if isinstance(stmt, ast.AsyncFunctionDef)
    }


@rule
class UnawaitedCoroutineRule(Rule):
    id = "ASY402"
    name = "unawaited-coroutine"
    rationale = (
        "Calling an `async def` without `await` builds a coroutine object "
        "and discards it — the body never runs, and Python only mentions "
        "it in a GC-time RuntimeWarning long after the protocol lost the "
        "step."
    )

    def check(self, module: ModuleInfo, ctx: LintContext) -> Iterable[Finding]:
        if not in_rule_scope(module):
            return
        project_async = _project_async_functions(ctx)
        local_async = _module_async_defs(module)
        for cls, fn, stmt in _statements_with_class(module.tree):
            if not isinstance(stmt, ast.Expr) or not isinstance(stmt.value, ast.Call):
                continue
            call = stmt.value
            name = self._async_callee(call, module, cls, local_async, project_async)
            if name is None:
                continue
            yield module.finding(
                self.id, call,
                f"coroutine `{name}(...)` is never awaited — its body will "
                "not run; `await` it or wrap it in a kept asyncio task",
            )

    @staticmethod
    def _async_callee(
        call: ast.Call,
        module: ModuleInfo,
        cls: ast.ClassDef | None,
        local_async: set[str],
        project_async: set[str],
    ) -> str | None:
        func = call.func
        if isinstance(func, ast.Name) and func.id in local_async:
            return func.id
        if (
            cls is not None
            and isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "self"
            and func.attr in _class_async_methods(cls)
        ):
            return f"self.{func.attr}"
        resolved = module.resolve(func)
        if resolved is not None and resolved in project_async:
            return resolved
        return None


def _statements_with_class(
    tree: ast.Module,
) -> Iterator[tuple[ast.ClassDef | None, ast.AST | None, ast.stmt]]:
    """Every statement with its enclosing class and function (or None)."""

    def visit(node: ast.AST, cls: ast.ClassDef | None,
              fn: ast.AST | None) -> Iterator[tuple[ast.ClassDef | None, ast.AST | None, ast.stmt]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt):
                yield cls, fn, child
            if isinstance(child, ast.ClassDef):
                yield from visit(child, child, fn)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, cls, child)
            else:
                yield from visit(child, cls, fn)

    yield from visit(tree, None, None)


@rule
class DroppedTaskRule(Rule):
    id = "ASY403"
    name = "dropped-task-handle"
    rationale = (
        "The event loop keeps only a weak reference to running tasks: a "
        "`create_task` result that is not stored can be garbage-collected "
        "mid-flight, and its exception surfaces only at interpreter exit. "
        "Keep the handle."
    )

    def check(self, module: ModuleInfo, ctx: LintContext) -> Iterable[Finding]:
        if not in_rule_scope(module):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Expr) or not isinstance(node.value, ast.Call):
                continue
            call = node.value
            if self._spawns_task(call, module):
                yield module.finding(
                    self.id, call,
                    "task handle dropped — store the `create_task(...)` "
                    "result (and discard it on completion) so the task "
                    "cannot be collected mid-flight and its exception is "
                    "observed",
                )

    @staticmethod
    def _spawns_task(call: ast.Call, module: ModuleInfo) -> bool:
        resolved = module.resolve(call.func)
        if resolved in _TASK_SPAWNERS:
            return True
        return (
            isinstance(call.func, ast.Attribute)
            and call.func.attr in _TASK_SPAWN_ATTRS
        )


@rule
class AwaitUnderSyncLockRule(Rule):
    id = "ASY404"
    name = "await-under-sync-lock"
    rationale = (
        "`await` inside a plain `with threading.Lock()` suspends the "
        "coroutine with the lock held; any coroutine on the same loop "
        "that wants the lock then deadlocks the loop. Use asyncio.Lock "
        "with `async with`."
    )

    def check(self, module: ModuleInfo, ctx: LintContext) -> Iterable[Finding]:
        if not in_rule_scope(module):
            return
        lock_names = _sync_lock_bindings(module)
        for fn in _async_function_bodies(module.tree):
            for node in _walk_same_async_scope(fn):
                if not isinstance(node, ast.With):
                    continue
                if not any(
                    self._is_sync_lock(item.context_expr, module, lock_names)
                    for item in node.items
                ):
                    continue
                if self._contains_await(node):
                    yield module.finding(
                        self.id, node,
                        "`await` while holding a threading lock — the loop "
                        "deadlocks if another coroutine wants it; use "
                        "asyncio.Lock with `async with`",
                    )

    @staticmethod
    def _is_sync_lock(expr: ast.expr, module: ModuleInfo,
                      lock_names: tuple[set[str], set[str]]) -> bool:
        names, attrs = lock_names
        if isinstance(expr, ast.Call):
            return module.resolve(expr.func) in _SYNC_LOCKS
        if isinstance(expr, ast.Name):
            return expr.id in names
        if isinstance(expr, ast.Attribute):
            return expr.attr in attrs
        return False

    @staticmethod
    def _contains_await(with_node: ast.With) -> bool:
        stack: list[ast.AST] = list(with_node.body)
        while stack:
            node = stack.pop()
            if isinstance(node, ast.Await):
                return True
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            stack.extend(ast.iter_child_nodes(node))
        return False


def _sync_lock_bindings(module: ModuleInfo) -> tuple[set[str], set[str]]:
    """Names and attributes bound to a ``threading`` lock in this module.

    ``names`` covers plain bindings (``_LOCK = threading.Lock()``, module
    or function scope); ``attrs`` covers attribute bindings
    (``self._lock = threading.Lock()``), matched by attribute name.
    """
    names: set[str] = set()
    attrs: set[str] = set()
    for node in ast.walk(module.tree):
        value: ast.expr | None = None
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            value, targets = node.value, list(node.targets)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            value, targets = node.value, [node.target]
        if value is None or not isinstance(value, ast.Call):
            continue
        if module.resolve(value.func) not in _SYNC_LOCKS:
            continue
        for t in targets:
            if isinstance(t, ast.Name):
                names.add(t.id)
            elif isinstance(t, ast.Attribute):
                attrs.add(t.attr)
    return names, attrs
