"""No top-level API that only tests call.

Every top-level function and class in ``src/repro`` must be named
somewhere besides its own definition: elsewhere in its own module, or
in a file under ``src/``, ``examples/``, ``benchmarks/`` or
``perfbench/``. A name counts where it appears as an identifier, an
attribute, an imported name, or a word inside a string literal
(``perfbench/tracing.py`` names its targets as ``"module:Class.attr"``
strings). Three things do not count: a package ``__init__``'s
re-exports (its imports), any ``__all__`` list, and docstrings.
``tests/`` is not searched, so a definition only tests reach fails here.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SEARCHED = ("src", "examples", "benchmarks", "perfbench")
_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _is_export_list(stmt: ast.stmt) -> bool:
    targets = stmt.targets if isinstance(stmt, ast.Assign) else []
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


def _names(stmt: ast.stmt, reexports: bool) -> set[str]:
    """The names one top-level statement uses."""
    if _is_export_list(stmt) or (
        reexports and isinstance(stmt, (ast.Import, ast.ImportFrom))
    ):
        return set()
    docstrings = {
        id(node.value)
        for node in ast.walk(stmt)
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
    }
    names: set[str] = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in docstrings
        ):
            names.update(_WORD.findall(node.value))
    return names


def _modules(root: Path) -> dict[Path, ast.Module]:
    return {
        path: ast.parse(path.read_text(), filename=str(path))
        for top in SEARCHED
        for path in sorted((root / top).rglob("*.py"))
    }


def unused_definitions(root: Path = ROOT) -> list[str]:
    """``module:name`` for each top-level definition nothing else names."""
    modules = _modules(root)
    used = {
        path: [_names(stmt, path.name == "__init__.py") for stmt in tree.body]
        for path, tree in modules.items()
    }
    per_file = {path: set().union(*per) for path, per in used.items()}
    found = []
    for path, tree in modules.items():
        if not path.is_relative_to(root / "src" / "repro"):
            continue
        elsewhere = set().union(*(n for p, n in per_file.items() if p != path))
        for i, stmt in enumerate(tree.body):
            if not isinstance(stmt, _DEFINITIONS):
                continue
            own = set().union(*(names for j, names in enumerate(used[path]) if j != i))
            if stmt.name not in own and stmt.name not in elsewhere:
                module = path.relative_to(root / "src").with_suffix("")
                found.append(f"{'.'.join(module.parts)}:{stmt.name}")
    return found


def test_every_top_level_definition_has_a_caller_outside_tests():
    assert unused_definitions() == []


def _tree(tmp_path: Path, files: dict[str, str]) -> Path:
    """A repository laid out like this one, holding ``files``."""
    for rel, text in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return tmp_path


class TestRules:
    """The guard's own rules, on small made-up trees."""

    MODULE = "src/repro/pkg/mod.py"
    DEFS = "def helper():\n    return 1\n\n\nclass Widget:\n    pass\n"
    IMPORTS = "from repro.pkg.mod import Widget, helper\n"
    BOTH_UNUSED = ["repro.pkg.mod:helper", "repro.pkg.mod:Widget"]

    def test_a_definition_only_tests_name_is_listed(self, tmp_path):
        files = {self.MODULE: self.DEFS, "tests/test_mod.py": self.IMPORTS}
        assert unused_definitions(_tree(tmp_path, files)) == self.BOTH_UNUSED

    @pytest.mark.parametrize("top", SEARCHED)
    def test_a_use_in_any_searched_tree_counts(self, tmp_path, top):
        user = self.IMPORTS + "helper()\nWidget()\n"
        files = {self.MODULE: self.DEFS, f"{top}/user.py": user}
        assert unused_definitions(_tree(tmp_path, files)) == []

    def test_a_use_elsewhere_in_its_own_module_counts(self, tmp_path):
        module = self.DEFS + "\n\nVALUE = helper()\nKIND = Widget\n"
        assert unused_definitions(_tree(tmp_path, {self.MODULE: module})) == []

    def test_a_package_reexport_is_not_a_use(self, tmp_path):
        init = self.IMPORTS + '__all__ = ["Widget", "helper"]\n'
        files = {self.MODULE: self.DEFS, "src/repro/pkg/__init__.py": init}
        assert unused_definitions(_tree(tmp_path, files)) == self.BOTH_UNUSED

    def test_an_all_list_is_not_a_use(self, tmp_path):
        module = self.DEFS + '\n\n__all__ = ["Widget", "helper"]\n'
        files = {self.MODULE: module}
        assert unused_definitions(_tree(tmp_path, files)) == self.BOTH_UNUSED

    def test_a_docstring_mention_is_not_a_use(self, tmp_path):
        other = '"""See helper."""\n\n\ndef run():\n    """Calls Widget()."""\n'
        files = {self.MODULE: self.DEFS, "src/repro/other.py": other + "\n\nrun()\n"}
        assert unused_definitions(_tree(tmp_path, files)) == self.BOTH_UNUSED

    def test_a_word_in_a_string_literal_counts(self, tmp_path):
        targets = 'TARGETS = ["repro.pkg.mod:helper", "repro.pkg.mod:Widget.build"]\n'
        files = {self.MODULE: self.DEFS, "perfbench/tracing.py": targets}
        assert unused_definitions(_tree(tmp_path, files)) == []
