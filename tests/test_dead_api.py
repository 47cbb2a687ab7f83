"""No API that only tests call.

Every top-level function and class in ``src/repro``, and every public
method and property of a class there, must be named somewhere besides
its own definition: elsewhere in its own module, or in a file under
``src/``, ``examples/``, ``benchmarks/`` or ``perfbench/``. A name
counts where it appears as an identifier, an attribute, an imported
name, or a word inside a string literal (``perfbench/tracing.py`` names
its targets as ``"module:Class.attr"`` strings). Three things do not
count: a package ``__init__``'s re-exports (its imports), any
``__all__`` list, and docstrings. ``tests/`` is not searched, so a
definition only tests reach fails here.

Methods are matched by name alone, so a method counts as used when any
attribute of that name is read anywhere. Two kinds are exempt:
``ast.NodeVisitor``'s ``visit_*`` methods, which the visitor calls by a
name it builds, and :data:`TEST_ONLY_METHODS`.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SEARCHED = ("src", "examples", "benchmarks", "perfbench")
_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
#: Public methods kept for the tests alone: ``EventQueue.run_until_empty``
#: drives the event queue in the simulator's unit tests.
TEST_ONLY_METHODS = ("repro.sim.events:EventQueue.run_until_empty",)


def _is_export_list(stmt: ast.stmt) -> bool:
    targets = stmt.targets if isinstance(stmt, ast.Assign) else []
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


def _names(node: ast.AST) -> Counter:
    """How often each name is used inside ``node``, docstrings aside."""
    docstrings = {
        id(child.value)
        for child in ast.walk(node)
        if isinstance(child, ast.Expr) and isinstance(child.value, ast.Constant)
    }
    names: Counter = Counter()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            names[child.id] += 1
        elif isinstance(child, ast.Attribute):
            names[child.attr] += 1
        elif isinstance(child, ast.alias):
            names[child.name.rpartition(".")[2]] += 1
        elif (
            isinstance(child, ast.Constant)
            and isinstance(child.value, str)
            and id(child) not in docstrings
        ):
            names.update(_WORD.findall(child.value))
    return names


class _Index:
    """Every searched module, and the names each top-level statement uses."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self.modules = {
            path: ast.parse(path.read_text(), filename=str(path))
            for top in SEARCHED
            for path in sorted((root / top).rglob("*.py"))
        }
        self.uses = {
            path: [self._uses(stmt, path.name == "__init__.py") for stmt in tree.body]
            for path, tree in self.modules.items()
        }
        self.total: Counter = sum(
            (c for per in self.uses.values() for c in per), Counter()
        )

    @staticmethod
    def _uses(stmt: ast.stmt, reexports: bool) -> Counter:
        if _is_export_list(stmt) or (
            reexports and isinstance(stmt, (ast.Import, ast.ImportFrom))
        ):
            return Counter()
        return _names(stmt)

    def sources(self):
        """``(module name, path, tree)`` for each module of ``src/repro``."""
        for path, tree in self.modules.items():
            if path.is_relative_to(self.root / "src" / "repro"):
                module = path.relative_to(self.root / "src").with_suffix("")
                yield ".".join(module.parts), path, tree

    def used_outside(self, name: str, own: Counter) -> bool:
        """Whether ``name`` is used anywhere but in the uses ``own`` counts."""
        return self.total[name] > own[name]


def unused_definitions(root: Path = ROOT) -> list[str]:
    """``module:name`` for each top-level definition nothing else names."""
    index = _Index(root)
    found = []
    for module, path, tree in index.sources():
        for stmt, own in zip(tree.body, index.uses[path]):
            if isinstance(stmt, _DEFINITIONS) and not index.used_outside(
                stmt.name, own
            ):
                found.append(f"{module}:{stmt.name}")
    return found


def _is_node_visitor(cls: ast.ClassDef) -> bool:
    return any(
        (isinstance(b, ast.Attribute) and b.attr == "NodeVisitor")
        or (isinstance(b, ast.Name) and b.id == "NodeVisitor")
        for b in cls.bases
    )


def unused_methods(root: Path = ROOT) -> list[str]:
    """``module:Class.name`` for each public method nothing else names.

    Properties count as methods; every class of a module is searched,
    nested ones too.
    """
    index = _Index(root)
    found = []
    for module, _, tree in index.sources():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for method in cls.body:
                if not isinstance(method, _FUNCTIONS) or method.name.startswith("_"):
                    continue
                label = f"{module}:{cls.name}.{method.name}"
                if label in TEST_ONLY_METHODS or (
                    method.name.startswith("visit_") and _is_node_visitor(cls)
                ):
                    continue
                if not index.used_outside(method.name, _names(method)):
                    found.append(label)
    return found


def test_every_top_level_definition_has_a_caller_outside_tests():
    assert unused_definitions() == []


def test_every_public_method_has_a_caller_outside_tests():
    assert unused_methods() == []


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


class TestMethodRules:
    """The method guard's own rules, on small made-up trees."""

    MODULE = "src/repro/pkg/mod.py"
    CLASS = (
        "class Widget:\n"
        "    def spin(self):\n"
        "        return self.spin()\n"
        "\n"
        "    @property\n"
        "    def size(self):\n"
        "        return 1\n"
        "\n"
        "    def _private(self):\n"
        "        return 2\n"
        "\n"
        "\n"
        "Widget()\n"
    )
    BOTH_UNUSED = ["repro.pkg.mod:Widget.spin", "repro.pkg.mod:Widget.size"]

    def test_methods_and_properties_only_tests_name_are_listed(self, tmp_path):
        test = "from repro.pkg.mod import Widget\nWidget().spin()\nWidget().size\n"
        files = {self.MODULE: self.CLASS, "tests/test_mod.py": test}
        assert unused_methods(_tree(tmp_path, files)) == self.BOTH_UNUSED

    def test_a_call_inside_its_own_body_is_not_a_use(self, tmp_path):
        # ``spin`` calls itself; ``_private`` is never checked.
        files = {self.MODULE: self.CLASS}
        assert unused_methods(_tree(tmp_path, files)) == self.BOTH_UNUSED

    @pytest.mark.parametrize("top", SEARCHED)
    def test_an_attribute_of_that_name_anywhere_counts(self, tmp_path, top):
        user = "def use(w):\n    return w.spin(), w.size\n\n\nuse(None)\n"
        files = {self.MODULE: self.CLASS, f"{top}/user.py": user}
        assert unused_methods(_tree(tmp_path, files)) == []

    def test_a_word_in_a_string_literal_counts(self, tmp_path):
        targets = 'TARGETS = ["repro.pkg.mod:Widget.spin", "size"]\n'
        files = {self.MODULE: self.CLASS, "perfbench/tracing.py": targets}
        assert unused_methods(_tree(tmp_path, files)) == []

    def test_nested_classes_are_searched(self, tmp_path):
        module = (
            "def make():\n"
            "    class Inner:\n"
            "        def turn(self):\n"
            "            pass\n"
            "\n\n"
            "make()\n"
        )
        files = {self.MODULE: module}
        assert unused_methods(_tree(tmp_path, files)) == ["repro.pkg.mod:Inner.turn"]

    def test_node_visitor_visit_methods_are_exempt(self, tmp_path):
        module = (
            "import ast\n\n\n"
            "class Finder(ast.NodeVisitor):\n"
            "    def visit_Call(self, node):\n        pass\n\n\n"
            "class Plain:\n"
            "    def visit_Call(self, node):\n        pass\n\n\n"
            "Finder()\nPlain()\n"
        )
        files = {self.MODULE: module}
        assert unused_methods(_tree(tmp_path, files)) == [
            "repro.pkg.mod:Plain.visit_Call"
        ]

    def test_the_event_queues_test_loop_is_exempt(self, tmp_path):
        module = "class EventQueue:\n    def run_until_empty(self):\n        pass\n"
        files = {"src/repro/sim/events.py": module + "\n\nEventQueue()\n"}
        assert unused_methods(_tree(tmp_path, files)) == []
