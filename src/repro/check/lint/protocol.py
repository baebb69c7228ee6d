"""Protocol-flow rule (PRO5xx): the wire contract, checked statically.

The live backend's request/response protocol is stringly typed — RPC kinds
are literals at both the call site (``transport.rpc(addr, "notify", ...)``)
and the registration site (``transport.register_rpc("notify", fn)``).  The
``register_rpc`` table is the wire contract (payloads are plain values, see
:mod:`repro.net.codec`) and no type checker sees either side of it; the
rule rebuilds the message graph from the AST and verifies it:

* **PRO502** — every RPC kind *requested* in the net layer
  (``.rpc(addr, "kind", ...)``) has a ``register_rpc("kind", ...)``
  somewhere in the scanned project, and every one-way kind sent
  (``.send(addr, "kind", ...)``) has a ``register_handler``.  An
  unregistered request kind times out on every call — the dead peer and
  the missing handler are indistinguishable at runtime.

PRO502 is scoped to the ``net`` layer, whose transport carries the kind as
the second positional argument.  It is a whole-project check: it compares
the scanned module against every other scanned module, so it is meaningful
when linting ``src/`` as a whole (the CI/pre-commit invocation), and
under-approximates on single-file runs.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Iterator

from repro.check.lint.engine import LintContext, ModuleInfo, Rule, rule
from repro.check.lint.findings import Finding

__all__ = ["RpcHandlerParityRule"]

#: RPC request/registration call attribute names and the argument index
#: carrying the kind literal
_REQUEST_ATTRS = {"rpc": 1, "send": 1}
_REGISTER_ATTRS = {"register_rpc": 0, "register_handler": 0}
#: which registration satisfies which request
_REGISTER_FOR = {"rpc": "register_rpc", "send": "register_handler"}


def _in_repro(module: ModuleInfo) -> bool:
    return module.module is not None and (
        module.module == "repro" or module.module.startswith("repro.")
    )


def _kind_literal(call: ast.Call, index: int) -> str | None:
    if len(call.args) > index:
        arg = call.args[index]
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            return arg.value
    return None


def _registered_kinds(ctx: LintContext) -> dict[str, set[str]]:
    """Project-wide kind registrations: register attr -> set of kinds."""
    cached = getattr(ctx, "_registered_kinds", None)
    if cached is None:
        cached = {attr: set() for attr in _REGISTER_ATTRS}
        for info in ctx.modules.values():
            for node in ast.walk(info.tree):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _REGISTER_ATTRS
                ):
                    kind = _kind_literal(node, _REGISTER_ATTRS[node.func.attr])
                    if kind is not None:
                        cached[node.func.attr].add(kind)
        ctx._registered_kinds = cached  # type: ignore[attr-defined]
    return cached


def _request_sites(module: ModuleInfo) -> Iterator[tuple[ast.Call, str, str]]:
    """``(call, request_attr, kind)`` for literal-kind rpc/send calls."""
    for node in ast.walk(module.tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _REQUEST_ATTRS
        ):
            kind = _kind_literal(node, _REQUEST_ATTRS[node.func.attr])
            if kind is not None:
                yield node, node.func.attr, kind


@rule
class RpcHandlerParityRule(Rule):
    id = "PRO502"
    name = "rpc-handler-parity"
    rationale = (
        "An RPC kind requested without a register_rpc anywhere (or a "
        "one-way kind without a register_handler) times out on every "
        "call — at runtime the missing handler is indistinguishable from "
        "a dead peer, so the gap must be caught statically."
    )

    def check(self, module: ModuleInfo, ctx: LintContext) -> Iterable[Finding]:
        if not _in_repro(module):
            return
        if ctx.layers.layer_of(module.module or "") != "net":
            return
        registered = _registered_kinds(ctx)
        # only meaningful when some registration site was scanned at all:
        # a partial (single-file) run must not drown in absent-context noise
        if not any(registered.values()):
            return
        for call, attr, kind in _request_sites(module):
            want = _REGISTER_FOR[attr]
            if kind not in registered[want]:
                yield module.finding(
                    self.id, call,
                    f"`.{attr}(..., {kind!r}, ...)` has no "
                    f"`{want}({kind!r}, ...)` in the scanned project — "
                    "the request can only ever time out",
                )
