"""Contract rule (CON3xx): an interface obligation the type system can't see.

* **CON301** — every direct ``Metric`` subclass implements ``distance``.
  The metric axioms are the API contract of the whole index (paper §2,
  Definition 1); a subclass silently inheriting ``raise NotImplementedError``
  only fails at query time.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable

from repro.check.lint.engine import LintContext, ModuleInfo, Rule, rule
from repro.check.lint.findings import Finding

__all__ = ["MetricInterfaceRule"]

#: dotted names that resolve to the Metric base class
_METRIC_BASES = {"Metric", "repro.metric.Metric", "repro.metric.base.Metric"}


def _in_repro(module: ModuleInfo) -> bool:
    return module.module is not None and (
        module.module == "repro" or module.module.startswith("repro.")
    )


@rule
class MetricInterfaceRule(Rule):
    id = "CON301"
    name = "metric-distance-interface"
    rationale = (
        "Metric is the black-box distance contract (Definition 1); a "
        "direct subclass without `distance` ships a metric that raises "
        "NotImplementedError at query time."
    )

    def check(self, module: ModuleInfo, ctx: LintContext) -> Iterable[Finding]:
        if not _in_repro(module):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if not self._derives_from_metric(node, module):
                continue
            if not self._defines(node, "distance"):
                yield module.finding(
                    self.id, node,
                    f"Metric subclass `{node.name}` does not define "
                    "`distance(self, x, y)` — the black-box contract of "
                    "every index layer",
                )

    @staticmethod
    def _derives_from_metric(node: ast.ClassDef, module: ModuleInfo) -> bool:
        for base in node.bases:
            resolved = module.resolve(base)
            if resolved in _METRIC_BASES:
                return True
        return False

    @staticmethod
    def _defines(node: ast.ClassDef, name: str) -> bool:
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) and stmt.name == name:
                return True
            if isinstance(stmt, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in stmt.targets
            ):
                return True
        return False
