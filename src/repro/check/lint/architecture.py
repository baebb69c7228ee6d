"""Architecture rules (ARCH2xx), driven by the ``layers.toml`` contract.

* **ARCH201** — layer-order violation: a module imports a layer its own
  layer is not granted (``obs`` importing ``core``, ``metric`` importing
  anything above ``util``, ...).
* **ARCH202** — direct scheduler access: only the transport (and the
  engine itself) may put events on the discrete-event queue; protocol and
  library code goes through ``Transport.send``/``timer``/``at`` so faults
  and accounting cannot be bypassed.
* **ARCH203** — explicitly denied import edge (the ``[[deny]]`` entries),
  e.g. ``core`` reaching into ``repro.sim.engine`` internals instead of
  the ``repro.sim`` facade.  When the contract names a sanctioned facade
  (``use = "..."``) the violation is mechanically fixable.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable

from repro.check.lint.engine import LintContext, ModuleInfo, Rule, rule
from repro.check.lint.findings import Finding, FixEdit

__all__ = ["LayerOrderRule", "SchedulerAccessRule", "DeniedEdgeRule"]

_SCHEDULER_METHODS = {"schedule_in", "schedule_at"}


def _package_module(module: ModuleInfo, ctx: LintContext) -> bool:
    pkg = ctx.layers.package
    return module.module is not None and (
        module.module == pkg or module.module.startswith(pkg + ".")
    )


@rule
class LayerOrderRule(Rule):
    id = "ARCH201"
    name = "layer-order"
    rationale = (
        "The layering contract in layers.toml is the architecture; an "
        "upward import couples a lower layer to its callers and breaks "
        "the isolation the index/partition/routing split depends on."
    )

    def check(self, module: ModuleInfo, ctx: LintContext) -> Iterable[Finding]:
        if not _package_module(module, ctx):
            return
        importer = module.module or ""
        for node, imported in module.import_nodes():
            if not imported:
                continue
            if ctx.layers.denied(importer, imported) is not None:
                continue  # ARCH203 reports it with the contract's rationale
            if not ctx.layers.allowed(importer, imported):
                src_layer = ctx.layers.layer_of(importer)
                dst_layer = ctx.layers.layer_of(imported)
                yield module.finding(
                    self.id, node,
                    f"layer `{src_layer}` may not import `{imported}` "
                    f"(layer `{dst_layer}`) — see layers.toml",
                )


@rule
class SchedulerAccessRule(Rule):
    id = "ARCH202"
    name = "scheduler-access"
    rationale = (
        "Only sim/transport.py touches scheduler delivery; everything "
        "else uses Transport.send/control/timer so faults and byte "
        "accounting can never be bypassed."
    )

    def check(self, module: ModuleInfo, ctx: LintContext) -> Iterable[Finding]:
        if not _package_module(module, ctx):
            return
        if ctx.layers.scheduler_ok(module.module or ""):
            return
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _SCHEDULER_METHODS
            ):
                yield module.finding(
                    self.id, node,
                    f"direct scheduler call `.{node.func.attr}(...)` outside "
                    "the transport — use Transport.timer/at/send so delivery "
                    "stays observable and fault-injectable",
                )


@rule
class DeniedEdgeRule(Rule):
    id = "ARCH203"
    name = "denied-import-edge"
    rationale = (
        "Some edges are forbidden even where the layer order would allow "
        "them; each [[deny]] entry records why, and optionally the facade "
        "to import from instead."
    )

    def check(self, module: ModuleInfo, ctx: LintContext) -> Iterable[Finding]:
        if not _package_module(module, ctx):
            return
        importer = module.module or ""
        for node, imported in module.import_nodes():
            if not imported:
                continue
            edge = ctx.layers.denied(importer, imported)
            if edge is None:
                continue
            hint = f" — import from `{edge.use}` instead" if edge.use else ""
            yield module.finding(
                self.id, node,
                f"forbidden import of `{imported}`: {edge.why}{hint}",
                fix=_facade_fix(node, imported, edge.use),
            )


def _facade_fix(node: ast.stmt, imported: str, use: str | None) -> FixEdit | None:
    """Rewrite ``from <denied> import ...`` to the sanctioned facade module."""
    if use is None or not isinstance(node, ast.ImportFrom) or node.level:
        return None
    if node.module != imported:
        return None
    # replace just the module path: `from X import a, b` -> `from USE import a, b`
    src_line = node.lineno
    col = node.col_offset + len("from ")
    return FixEdit(
        line=src_line,
        col=col,
        end_line=src_line,
        end_col=col + len(imported),
        replacement=use,
    )
