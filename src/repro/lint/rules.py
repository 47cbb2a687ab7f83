"""The repo-specific rules: each guards one determinism invariant.

Every rule is a small AST pass registered in :data:`RULES` that
implements :meth:`Rule.check` over one parsed module.

The rule ids are stable and documented in the README; suppressions name
them (``# repro: allow[REP002] — reason``).
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Iterator

from repro.lint.config import LintConfig
from repro.lint.model import Finding, SourceFile


def _dotted(node: ast.expr) -> str | None:
    """``a.b.c`` for a pure Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class Rule:
    """One invariant, checked per file."""

    id: str = ""
    summary: str = ""

    def check(
        self, source: SourceFile, config: LintConfig
    ) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self, source: SourceFile, node: ast.AST, message: str
    ) -> Finding:
        return Finding(
            str(source.path),
            getattr(node, "lineno", 1),
            getattr(node, "col_offset", 0),
            self.id,
            message,
        )


# ----------------------------------------------------------------------
# REP001 — seed hygiene
# ----------------------------------------------------------------------

#: The modern, seedable numpy.random surface; everything else on
#: ``np.random`` is legacy global state.
_RNG_ALLOWED = frozenset(
    {
        "default_rng",
        "Generator",
        "SeedSequence",
        "BitGenerator",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "SFC64",
        "MT19937",
    }
)


def _bind_finding(rule: Rule, source: SourceFile):
    def finding(node: ast.AST, message: str) -> Finding:
        return rule.finding(source, node, message)

    return finding


class SeedHygiene(Rule):
    """Simulation randomness must flow from seeded generators.

    The stdlib ``random`` module and the legacy ``np.random.*`` global
    state (``seed``/``rand``/``randint``/...) are process-wide: two
    cells sharing a worker would perturb each other, and content-keyed
    results would stop being a function of their request. Draw from a
    ``Generator`` handed down from ``SeedSequence.spawn`` or a seeded
    ``np.random.default_rng`` instead.
    """

    id = "REP001"
    summary = "no random module / legacy np.random global state in sim code"

    def check(self, source: SourceFile, config: LintConfig) -> Iterator[Finding]:
        finding = _bind_finding(self, source)
        for node in ast.walk(source.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    name = alias.name
                    if name == "random" or name.startswith("random."):
                        yield finding(
                            node,
                            f"import of the stdlib {name!r} module: its "
                            "global state breaks run determinism; draw from "
                            "a seeded np.random.Generator instead",
                        )
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if module == "random" or module.startswith("random."):
                    yield finding(
                        node,
                        "import from the stdlib 'random' module: draw from "
                        "a seeded np.random.Generator instead",
                    )
                elif module == "numpy.random":
                    for alias in node.names:
                        if alias.name not in _RNG_ALLOWED:
                            yield finding(
                                node,
                                f"'{alias.name}' is numpy legacy "
                                "global-state randomness; rngs must flow "
                                "from SeedSequence.spawn / seeded "
                                "default_rng",
                            )
            elif isinstance(node, ast.Attribute):
                chain = _dotted(node)
                if (
                    chain is not None
                    and chain.count(".") == 2
                    and chain.startswith(("np.random.", "numpy.random."))
                ):
                    leaf = chain.rsplit(".", 1)[1]
                    if leaf not in _RNG_ALLOWED:
                        yield finding(
                            node,
                            f"{chain} touches numpy's legacy global rng "
                            "state; rngs must flow from SeedSequence.spawn "
                            "/ seeded default_rng",
                        )


# ----------------------------------------------------------------------
# REP002 — wall-clock ban
# ----------------------------------------------------------------------

_WALL_CLOCK = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.process_time",
        "time.process_time_ns",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "date.today",
    }
)
_TIME_NAMES = frozenset(
    name.split(".", 1)[1] for name in _WALL_CLOCK if name.startswith("time.")
)


class WallClockBan(Rule):
    """Simulation and decision code must not read the wall clock.

    Results are a function of the request's content key; a wall-clock
    read smuggles in machine state the key cannot see. The simulated
    clock is the event queue's; the only sanctioned real-time readers
    are the telemetry subsystem and the orchestrator's retry/timeout
    machinery (both exempted by scope).
    """

    id = "REP002"
    summary = "no wall-clock reads in simulation/decision code"

    def check(self, source: SourceFile, config: LintConfig) -> Iterator[Finding]:
        finding = _bind_finding(self, source)
        for node in ast.walk(source.tree):
            if isinstance(node, ast.ImportFrom):
                if (node.module or "") == "time":
                    for alias in node.names:
                        if alias.name in _TIME_NAMES:
                            yield finding(
                                node,
                                f"'from time import {alias.name}': wall-clock "
                                "reads are banned here; simulated time comes "
                                "from the event queue",
                            )
            elif isinstance(node, ast.Attribute):
                chain = _dotted(node)
                if chain is None:
                    continue
                for banned in _WALL_CLOCK:
                    if chain == banned or chain.endswith("." + banned):
                        yield finding(
                            node,
                            f"{chain} reads the wall clock; results must be "
                            "a pure function of the content key (obs/ and "
                            "the orchestrator are the sanctioned readers)",
                        )
                        break


# ----------------------------------------------------------------------
# REP003 — frozen-spec mutation
# ----------------------------------------------------------------------


class FrozenSpecMutation(Rule):
    """``object.__setattr__`` only belongs in ``__post_init__``.

    Frozen dataclasses are the immutability backbone of content-keyed
    caching; normalizing fields during ``__post_init__`` is the one
    sanctioned escape hatch. Anywhere else it silently mutates a spec
    that may already have been content-keyed.
    """

    id = "REP003"
    summary = "object.__setattr__ on frozen specs only inside __post_init__"

    def check(self, source: SourceFile, config: LintConfig) -> Iterator[Finding]:
        finding = _bind_finding(self, source)
        stack: list[str] = []
        hits: list[ast.Call] = []

        class Visitor(ast.NodeVisitor):
            def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
                stack.append(node.name)
                self.generic_visit(node)
                stack.pop()

            visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

            def visit_Call(self, node: ast.Call) -> None:
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr == "__setattr__"
                    and isinstance(func.value, ast.Name)
                    and func.value.id == "object"
                    and "__post_init__" not in stack
                ):
                    hits.append(node)
                self.generic_visit(node)

        Visitor().visit(source.tree)
        for hit in hits:
            yield finding(
                hit,
                "object.__setattr__ outside __post_init__ mutates a frozen "
                "spec after it may have been content-keyed; construct a new "
                "spec (dataclasses.replace) instead",
            )


# ----------------------------------------------------------------------
# REP005 — schema-literal drift
# ----------------------------------------------------------------------

_SCHEMA_KEYS = frozenset({"schema", "schema_version"})


class SchemaLiteralDrift(Rule):
    """Schema versions live in the canonical constants, nowhere else.

    A hardcoded schema integer (``"schema": 6``, ``record["schema"] ==
    6``, a shadow ``SCHEMA_VERSION = 6``) keeps working until the next
    bump, then silently serves or writes stale-schema records. Import
    the constant from its defining module instead.
    """

    id = "REP005"
    summary = "no hardcoded schema-version integers outside the constants"

    def check(self, source: SourceFile, config: LintConfig) -> Iterator[Finding]:
        finding = _bind_finding(self, source)
        for node in ast.walk(source.tree):
            if isinstance(node, ast.Dict):
                for key, value in zip(node.keys, node.values):
                    if (
                        isinstance(key, ast.Constant)
                        and isinstance(key.value, str)
                        and key.value.lower() in _SCHEMA_KEYS
                        and isinstance(value, ast.Constant)
                        and isinstance(value.value, int)
                        and not isinstance(value.value, bool)
                    ):
                        yield finding(
                            value,
                            f'literal schema version {value.value} under key '
                            f'"{key.value}"; import the canonical constant '
                            "instead of hardcoding the integer",
                        )
            elif isinstance(node, ast.Compare):
                sides = [node.left, *node.comparators]
                ints = [
                    s
                    for s in sides
                    if isinstance(s, ast.Constant)
                    and isinstance(s.value, int)
                    and not isinstance(s.value, bool)
                ]
                mentions = any(
                    not isinstance(s, ast.Constant)
                    and "schema" in ast.unparse(s).lower()
                    for s in sides
                )
                if ints and mentions:
                    yield finding(
                        ints[0],
                        f"schema version compared against the literal "
                        f"{ints[0].value}; compare against the canonical "
                        "constant so bumps cannot drift",
                    )
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                value = node.value
                if not (
                    isinstance(value, ast.Constant)
                    and isinstance(value.value, int)
                    and not isinstance(value.value, bool)
                ):
                    continue
                for target in targets:
                    if (
                        isinstance(target, ast.Name)
                        and "schema" in target.id.lower()
                    ):
                        yield finding(
                            node,
                            f"shadow schema constant {target.id} = "
                            f"{value.value}; schema versions are defined "
                            "once, in their canonical module",
                        )


# ----------------------------------------------------------------------
# REP006 — unordered-set iteration
# ----------------------------------------------------------------------


def _set_bound_names(tree: ast.Module) -> frozenset[str]:
    names: set[str] = set()
    for node in ast.walk(tree):
        value = None
        target = None
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
        elif isinstance(node, ast.AnnAssign):
            target, value = node.target, node.value
            annotation = ast.unparse(node.annotation).lower()
            if isinstance(target, ast.Name) and (
                annotation.startswith("set")
                or annotation.startswith("frozenset")
            ):
                names.add(target.id)
        if (
            target is not None
            and isinstance(target, ast.Name)
            and _is_set_expr(value, frozenset())
        ):
            names.add(target.id)
    return frozenset(names)


def _is_set_expr(node: ast.expr | None, set_names: frozenset[str]) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    ):
        return True
    return isinstance(node, ast.Name) and node.id in set_names


class UnorderedSetIteration(Rule):
    """No bare iteration over sets in the deterministic hot path.

    Set iteration order depends on insertion history and hash
    randomization of the values involved; an event loop that walks a
    set can produce different (all individually "correct") schedules
    run to run. Iterate ``sorted(the_set)`` — the sort is the explicit
    order contract.
    """

    id = "REP006"
    summary = "no bare set/frozenset iteration in sim/core"

    def check(self, source: SourceFile, config: LintConfig) -> Iterator[Finding]:
        finding = _bind_finding(self, source)
        set_names = _set_bound_names(source.tree)
        message = (
            "iteration over an unordered set: the order is not a function "
            "of the content key; iterate sorted(...) instead"
        )
        for node in ast.walk(source.tree):
            if isinstance(node, ast.For) and _is_set_expr(
                node.iter, set_names
            ):
                yield finding(node.iter, message)
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
            ):
                for comp in node.generators:
                    if _is_set_expr(comp.iter, set_names):
                        yield finding(comp.iter, message)


#: Registry, in id order. REP000 (suppression hygiene) is implemented in
#: :mod:`repro.lint.suppress` and always active alongside these.
RULES: tuple[Rule, ...] = (
    SeedHygiene(),
    WallClockBan(),
    FrozenSpecMutation(),
    SchemaLiteralDrift(),
    UnorderedSetIteration(),
)


def rules_by_id() -> dict[str, Rule]:
    return {rule.id: rule for rule in RULES}


def iter_rules() -> Iterable[Rule]:
    return RULES
