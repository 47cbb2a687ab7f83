"""Data model of the auditor: findings and parsed source files."""

from __future__ import annotations

import ast
from dataclasses import asdict, dataclass
from pathlib import Path


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a source location.

    Ordering is (path, line, col, rule), so sorted findings read like a
    compiler log. ``path`` is the path as the walker saw it (usually
    relative to the invocation directory) — the clickable display form —
    while scope matching uses the package-relative path of the
    :class:`SourceFile` the finding came from.
    """

    path: str
    line: int
    col: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col} {self.rule} {self.message}"

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class SourceFile:
    """One parsed Python file, ready for the rules.

    Parameters
    ----------
    path:
        The filesystem path as discovered (display form for findings).
    rel:
        Package-relative POSIX path (``"sim/engine.py"``) used for
        per-rule scope matching.
    text:
        Raw source text.
    tree:
        The parsed :mod:`ast` module tree.
    """

    path: Path
    rel: str
    text: str
    tree: ast.Module
