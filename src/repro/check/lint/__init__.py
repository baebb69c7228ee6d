"""`repro lint` — AST static analysis for determinism, layering, async safety.

Four rule families guard what the dynamic harness (replay fingerprints,
differential fuzzing) can only detect after the fact:

* **DET1xx** (:mod:`repro.check.lint.determinism`) — wall-clock reads,
  ambient randomness, process-salted ``hash()``, set iteration feeding
  the event queue;
* **ARCH2xx** (:mod:`repro.check.lint.architecture`) — the declarative
  import-layering contract (``layers.toml``), scheduler-access
  containment, denied edges;
* **ASY4xx** (:mod:`repro.check.lint.async_safety`) — blocking calls,
  unawaited coroutines, dropped tasks and sync locks in the live backend;
* **PRO5xx** (:mod:`repro.check.lint.protocol`) — every RPC kind requested
  has a registered handler.

A violation gets fixed: the gate is *zero findings* and nothing is
grandfathered.  See ``docs/static-analysis.md`` for the rule catalogue and
workflows.
"""

from repro.check.lint.engine import (
    LintContext,
    LintResult,
    ModuleInfo,
    Rule,
    all_rules,
    apply_fixes,
    find_repo_root,
    run_lint,
)
from repro.check.lint.findings import Finding, FixEdit
from repro.check.lint.layers import DEFAULT_LAYERS_PATH, DenyEdge, LayersConfig

__all__ = [
    "DenyEdge",
    "DEFAULT_LAYERS_PATH",
    "Finding",
    "FixEdit",
    "LayersConfig",
    "LintContext",
    "LintResult",
    "ModuleInfo",
    "Rule",
    "all_rules",
    "apply_fixes",
    "find_repo_root",
    "run_lint",
]
