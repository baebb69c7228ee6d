"""The lint engine: file discovery, AST plumbing, rule driving, fixes.

The engine owns everything rules share so each rule stays a small pure
function over an AST:

* :class:`ModuleInfo` — one parsed source file with its dotted module name,
  an import-alias table (``np`` -> ``numpy``), and symbol enclosures
  (finding line -> ``Class.method`` qualname);
* :class:`LintContext` — the project-wide view: every scanned module plus
  the :class:`~repro.check.lint.layers.LayersConfig` contract;
* :func:`run_lint` — discover, parse, run every registered rule;
* :func:`apply_fixes` — apply the mechanical :class:`FixEdit` patches
  bottom-up, one rewrite per file.

Rules self-register through the :func:`rule` decorator; importing
:mod:`repro.check.lint` pulls in the rule families.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from collections.abc import Iterable, Iterator

from repro.check.lint.findings import Finding, FixEdit
from repro.check.lint.layers import LayersConfig

__all__ = [
    "ModuleInfo",
    "LintContext",
    "LintResult",
    "Rule",
    "rule",
    "all_rules",
    "run_lint",
    "apply_fixes",
    "find_repo_root",
]

#: fixture files may pin their dotted module name for architecture rules:
#: ``# lint-fixture-module: repro.obs.bad`` in the first few lines.
_MODULE_DIRECTIVE = "# lint-fixture-module:"


@dataclass
class ModuleInfo:
    """One parsed source file and the derived lookup tables rules need."""

    path: Path
    relpath: str
    module: str | None
    source: str
    tree: ast.Module
    is_package: bool = False  #: True for `__init__.py` (affects relative imports)
    lines: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.lines:
            self.lines = self.source.splitlines()
        self._imports = _import_table(self.tree)
        self._scopes = _symbol_spans(self.tree)

    # -- source helpers ------------------------------------------------------

    def snippet(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    def symbol_at(self, line: int) -> str:
        """Innermost enclosing ``Class.def`` qualname of a line."""
        best = "<module>"
        best_size = None
        for start, end, qualname in self._scopes:
            if start <= line <= end and (best_size is None or end - start < best_size):
                best, best_size = qualname, end - start
        return best

    def finding(self, rule_id: str, node: ast.AST, message: str,
                fix: FixEdit | None = None) -> Finding:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(
            rule=rule_id,
            path=self.relpath,
            line=line,
            col=col,
            message=message,
            symbol=self.symbol_at(line),
            snippet=self.snippet(line),
            fix=fix,
        )

    # -- name resolution -----------------------------------------------------

    def resolve(self, node: ast.AST) -> str | None:
        """Resolve a Name/Attribute chain to a dotted path via the imports.

        ``np.random.default_rng`` resolves to ``numpy.random.default_rng``
        when the module did ``import numpy as np``.  A bare builtin name
        (never imported or assigned at module level) resolves to itself.
        """
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        head = node.id
        target = self._imports.get(head)
        if target is None:
            if head in self._module_bindings():
                return None  # shadowed by a module-level def/assignment
            target = head
        parts.append(target)
        return ".".join(reversed(parts))

    def _module_bindings(self) -> set[str]:
        bound = getattr(self, "_bound", None)
        if bound is None:
            bound = set()
            for stmt in self.tree.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    bound.add(stmt.name)
                elif isinstance(stmt, ast.Assign):
                    for t in stmt.targets:
                        if isinstance(t, ast.Name):
                            bound.add(t.id)
                elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    bound.add(stmt.target.id)
            self._bound = bound
        return bound

    def import_nodes(self) -> Iterator[tuple[ast.stmt, str]]:
        """Every import statement with the dotted module it pulls from.

        ``from x import a`` yields ``(node, "x")`` once; ``import x, y``
        yields once per alias.  Relative imports are resolved against this
        module's package.
        """
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    yield node, alias.name
            elif isinstance(node, ast.ImportFrom):
                yield node, self._resolve_from(node)

    def _resolve_from(self, node: ast.ImportFrom) -> str:
        if not node.level:
            return node.module or ""
        base = (self.module or "").split(".")
        # level 1 = current package: a plain module drops its own leaf name,
        # a package __init__ already *is* the package
        drop = node.level - 1 if self.is_package else node.level
        base = base[: len(base) - drop] if base else []
        if node.module:
            base.append(node.module)
        return ".".join(base)


def _import_table(tree: ast.Module) -> dict[str, str]:
    table: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    table[alias.asname] = alias.name
                else:
                    table[alias.name.split(".", 1)[0]] = alias.name.split(".", 1)[0]
        elif isinstance(node, ast.ImportFrom) and not node.level and node.module:
            for alias in node.names:
                if alias.name == "*":
                    continue
                table[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return table


def _symbol_spans(tree: ast.Module) -> list[tuple[int, int, str]]:
    spans: list[tuple[int, int, str]] = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                qualname = f"{prefix}.{child.name}" if prefix else child.name
                spans.append((child.lineno, child.end_lineno or child.lineno, qualname))
                visit(child, qualname)
            else:
                visit(child, prefix)

    visit(tree, "")
    return spans


@dataclass
class LintContext:
    """Project-wide state shared by every rule invocation."""

    layers: LayersConfig
    modules: dict[str, ModuleInfo] = field(default_factory=dict)


class Rule:
    """One lint rule: an id, a rationale, and a check over one module."""

    id: str = ""
    name: str = ""
    rationale: str = ""

    def check(self, module: ModuleInfo, ctx: LintContext) -> Iterable[Finding]:
        raise NotImplementedError


_REGISTRY: dict[str, Rule] = {}


def rule(cls: type[Rule]) -> type[Rule]:
    """Class decorator registering a rule instance under its id."""
    inst = cls()
    if not inst.id:
        raise ValueError(f"rule {cls.__name__} has no id")
    if inst.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {inst.id}")
    _REGISTRY[inst.id] = inst
    return cls


def all_rules() -> list[Rule]:
    _load_rule_modules()
    return [r for _, r in sorted(_REGISTRY.items())]


def _load_rule_modules() -> None:
    # import side-effect registers the rule classes exactly once
    from repro.check.lint import (  # noqa: F401
        architecture,
        async_safety,
        determinism,
        protocol,
    )


@dataclass
class LintResult:
    """Outcome of one lint run over a set of paths."""

    findings: list[Finding] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)  #: unparseable files
    files_scanned: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings and not self.errors


def find_repo_root(start: Path) -> Path:
    """Walk up from ``start`` to the directory holding ``pyproject.toml``."""
    cur = start.resolve()
    if cur.is_file():
        cur = cur.parent
    for candidate in (cur, *cur.parents):
        if (candidate / "pyproject.toml").exists():
            return candidate
    return cur


def discover_files(paths: Iterable[str | Path]) -> list[Path]:
    files: list[Path] = []
    for p in paths:
        p = Path(p)
        if p.is_dir():
            files.extend(
                f for f in sorted(p.rglob("*.py"))
                if "__pycache__" not in f.parts and not f.name.startswith(".")
            )
        elif p.suffix == ".py":
            files.append(p)
    return files


def module_name_for(path: Path, package: str = "repro") -> str | None:
    """Dotted module name of a file, or ``None`` outside the package.

    The name is derived from the path components starting at the last
    ``package`` component (``src/repro/core/platform.py`` ->
    ``repro.core.platform``); fixture files may override it with a
    ``# lint-fixture-module: <name>`` directive near the top.
    """
    parts = list(path.with_suffix("").parts)
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == package:
            return ".".join(parts[i:])
    return None


def _directive_module(source: str) -> str | None:
    for line in source.splitlines()[:5]:
        line = line.strip()
        if line.startswith(_MODULE_DIRECTIVE):
            return line[len(_MODULE_DIRECTIVE) :].strip()
    return None


def load_module(path: Path, root: Path, package: str = "repro") -> ModuleInfo:
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    module = _directive_module(source) or module_name_for(path, package)
    try:
        relpath = path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        relpath = path.as_posix()
    return ModuleInfo(
        path=path, relpath=relpath, module=module, source=source, tree=tree,
        is_package=path.name == "__init__.py",
    )


def run_lint(
    paths: Iterable[str | Path],
    *,
    root: Path | None = None,
    layers: LayersConfig | None = None,
    select: Iterable[str] | None = None,
) -> LintResult:
    """Lint ``paths``; the gate is zero findings and zero parse errors."""
    files = discover_files(paths)
    if root is None:
        root = find_repo_root(files[0] if files else Path.cwd())
    if layers is None:
        layers = LayersConfig.load()
    ctx = LintContext(layers=layers)
    result = LintResult(files_scanned=len(files))
    modules: list[ModuleInfo] = []
    for f in files:
        try:
            info = load_module(f, root, layers.package)
        except SyntaxError as exc:
            result.errors.append(f"{f}: {exc.msg} (line {exc.lineno})")
            continue
        modules.append(info)
        if info.module is not None:
            ctx.modules[info.module] = info
    wanted = set(select) if select is not None else None
    for r in all_rules():
        if wanted is not None and r.id not in wanted:
            continue
        for info in modules:
            result.findings.extend(r.check(info, ctx))
    result.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return result


def apply_fixes(findings: Iterable[Finding], root: Path) -> int:
    """Apply every finding's :class:`FixEdit` to disk; returns edits applied.

    Edits are grouped per file and applied bottom-up so line/column
    coordinates stay valid; overlapping edits keep only the first.
    """
    by_file: dict[str, list[Finding]] = {}
    for f in findings:
        if f.fix is not None:
            by_file.setdefault(f.path, []).append(f)
    applied = 0
    for relpath, group in by_file.items():
        path = root / relpath
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        group.sort(key=lambda f: (f.fix.line, f.fix.col), reverse=True)
        last_start: tuple[int, int] | None = None
        for f in group:
            e = f.fix
            if last_start is not None and (e.end_line, e.end_col) > last_start:
                continue  # overlap: skip, a re-run will fix the rest
            head = lines[e.line - 1][: e.col]
            tail = lines[e.end_line - 1][e.end_col :]
            lines[e.line - 1 : e.end_line] = [head + e.replacement + tail]
            last_start = (e.line, e.col)
            applied += 1
        path.write_text("".join(lines), encoding="utf-8")
    return applied
