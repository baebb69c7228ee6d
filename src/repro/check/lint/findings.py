"""Finding and fix-edit records shared by every lint rule.

A :class:`Finding` is one rule violation at one source location, carrying
the enclosing symbol and the offending source line so a report reads
without opening the file.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

__all__ = ["FixEdit", "Finding"]


@dataclass(frozen=True)
class FixEdit:
    """A single mechanical source replacement (0-based columns, 1-based lines).

    The span ``(line, col) .. (end_line, end_col)`` is replaced by
    ``replacement``; the engine applies edits bottom-up so earlier spans
    keep their coordinates.
    """

    line: int
    col: int
    end_line: int
    end_col: int
    replacement: str


@dataclass
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str  #: repo-relative posix path
    line: int
    col: int
    message: str
    symbol: str = "<module>"  #: enclosing ``class.def`` qualname
    snippet: str = ""  #: stripped source line
    fix: FixEdit | None = field(default=None, compare=False)

    @property
    def fixable(self) -> bool:
        return self.fix is not None

    def to_json(self) -> dict[str, object]:
        d = asdict(self)
        d.pop("fix", None)
        d["fixable"] = self.fixable
        return d

    def render(self) -> str:
        fix = " [fixable]" if self.fixable else ""
        return f"{self.path}:{self.line}:{self.col + 1}: {self.rule} {self.message}{fix}"
