"""The auditor's engine: walk files, run rules, apply suppressions.

:func:`run_lint` is the single entry point the CLI and the test suite
share. Exit-code contract (mirrored by ``repro lint``): 0 — clean;
1 — at least one unsuppressed finding; 2 — usage error (unknown rule,
unreadable path), raised here as :class:`LintUsageError` for the CLI to
translate.
"""

from __future__ import annotations

import ast
import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from repro.lint.config import LintConfig
from repro.lint.model import Finding, SourceFile
from repro.lint.rules import rules_by_id
from repro.lint.suppress import (
    SUPPRESSION_RULE,
    Suppression,
    apply_suppressions,
    scan_suppressions,
    unused_suppressions,
)

#: Directory names never descended into.
_SKIP_DIRS = frozenset({"__pycache__", ".git", ".repro-cache"})


class LintUsageError(ValueError):
    """Bad invocation (unknown rule id, path that does not exist)."""


def _iter_py_files(paths: list[Path]) -> list[Path]:
    files: list[Path] = []
    seen: set[Path] = set()
    for path in paths:
        if path.is_dir():
            candidates = sorted(
                p
                for p in path.rglob("*.py")
                if not _SKIP_DIRS.intersection(p.parts)
            )
        elif path.is_file():
            candidates = [path]
        else:
            raise LintUsageError(f"path {path} does not exist")
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                files.append(candidate)
    return files


def package_relative(path: Path, root: Path | None) -> str:
    """The scope-matching path: relative to ``root``, or to the deepest
    ``repro`` package directory on the file's path, else to the cwd."""
    resolved = path.resolve()
    if root is not None:
        try:
            return resolved.relative_to(Path(root).resolve()).as_posix()
        except ValueError:
            return resolved.name
    parts = resolved.parts
    if "repro" in parts:
        index = len(parts) - 1 - parts[::-1].index("repro")
        rel = "/".join(parts[index + 1 :])
        if rel:
            return rel
    try:
        return resolved.relative_to(Path.cwd()).as_posix()
    except ValueError:
        return resolved.name


@dataclass
class LintReport:
    """Everything one audit run produced."""

    findings: list[Finding]
    n_files: int
    rules: tuple[str, ...]
    suppressions_used: int = 0
    parse_errors: int = 0
    selected: tuple[str, ...] = field(default_factory=tuple)

    @property
    def exit_code(self) -> int:
        return 1 if self.findings else 0

    def counts(self) -> dict[str, int]:
        return dict(sorted(Counter(f.rule for f in self.findings).items()))

    def render_text(self) -> str:
        lines = [finding.render() for finding in self.findings]
        if self.findings:
            per_rule = ", ".join(
                f"{rule} x{n}" for rule, n in self.counts().items()
            )
            lines.append(
                f"{len(self.findings)} finding(s) in {self.n_files} file(s) "
                f"({per_rule})"
            )
        else:
            lines.append(
                f"clean: {self.n_files} file(s), "
                f"{len(self.selected or self.rules)} rule(s), "
                f"{self.suppressions_used} vetted suppression(s)"
            )
        return "\n".join(lines)

    def render_json(self) -> str:
        payload = {
            "version": 1,
            "rules": list(self.selected or self.rules),
            "files": self.n_files,
            "suppressions_used": self.suppressions_used,
            "counts": self.counts(),
            "findings": [finding.to_dict() for finding in self.findings],
        }
        return json.dumps(payload, indent=1, sort_keys=True)


def run_lint(
    paths: list[str | Path],
    root: str | Path | None = None,
    select: list[str] | None = None,
    config: LintConfig | None = None,
) -> LintReport:
    """Audit ``paths`` (files or directories) and return the report.

    Parameters
    ----------
    paths:
        Files or directories to walk (``.py`` files, recursively).
    root:
        Anchor for package-relative scope paths. Defaults to
        auto-detection: each file's path is cut at the deepest ``repro``
        directory, so ``src/repro/sim/engine.py`` scopes as
        ``sim/engine.py``. Tests point this at fixture trees.
    select:
        Rule ids to run (default: all). REP000 (suppression hygiene) is
        always implied.
    config:
        Scope overrides; defaults to the repository layout.
    """
    config = config if config is not None else LintConfig()
    registry = rules_by_id()
    if select is None:
        selected = frozenset(registry) | {SUPPRESSION_RULE}
    else:
        unknown = [r for r in select if r not in registry and r != SUPPRESSION_RULE]
        if unknown:
            raise LintUsageError(
                f"unknown rule id(s): {', '.join(unknown)}; known: "
                f"{SUPPRESSION_RULE}, {', '.join(sorted(registry))}"
            )
        selected = frozenset(select) | {SUPPRESSION_RULE}
    known = frozenset(registry) | {SUPPRESSION_RULE}

    root_path = Path(root) if root is not None else None
    findings: list[Finding] = []
    sources: list[SourceFile] = []
    parse_errors = 0
    files = _iter_py_files([Path(p) for p in paths])
    for path in files:
        try:
            text = path.read_text()
            tree = ast.parse(text, filename=str(path))
        except (OSError, SyntaxError, ValueError) as exc:
            parse_errors += 1
            line = getattr(exc, "lineno", None) or 1
            findings.append(
                Finding(
                    str(path),
                    line,
                    0,
                    SUPPRESSION_RULE,
                    f"file could not be audited: {exc}",
                )
            )
            continue
        sources.append(
            SourceFile(path, package_relative(path, root_path), text, tree)
        )

    # Rules, scoped per file.
    for source in sources:
        for rule_id, rule in registry.items():
            if rule_id in selected and config.scope_for(rule_id).matches(source.rel):
                findings.extend(rule.check(source, config))

    # Suppressions: collect, apply, then flag the stale ones.
    by_path: dict[str, dict[int, Suppression]] = {}
    for source in sources:
        suppressions, hygiene = scan_suppressions(source, known)
        if suppressions:
            by_path[str(source.path)] = suppressions
        if SUPPRESSION_RULE in selected:
            findings.extend(hygiene)
    findings = apply_suppressions(findings, by_path)
    used = sum(
        len(s.used) for per_file in by_path.values() for s in per_file.values()
    )
    if SUPPRESSION_RULE in selected:
        findings.extend(unused_suppressions(by_path, selected))

    return LintReport(
        findings=sorted(findings),
        n_files=len(files),
        rules=tuple(sorted(known)),
        suppressions_used=used,
        parse_errors=parse_errors,
        selected=tuple(sorted(selected)),
    )
