"""Scoped configuration for the determinism & invariant auditor.

Every rule guards an invariant that only holds in part of the tree —
seed hygiene matters in simulation code, not in the CLI; the telemetry
clock is *allowed* to read ``perf_counter`` — so each rule carries a
:class:`Scope` of package-relative path prefixes. The defaults encode
this repository's layout; tests override them to point rules at fixture
trees laid out the same way.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Scope:
    """Package-relative path prefixes a rule applies to.

    ``include`` empty means "every file"; ``exclude`` always wins.
    Prefixes match POSIX relative paths (``"sim/"``, ``"obs/"``,
    ``"scenarios/orchestrator.py"``).
    """

    include: tuple[str, ...] = ()
    exclude: tuple[str, ...] = ()

    def matches(self, rel: str) -> bool:
        if self.include and not any(rel.startswith(p) for p in self.include):
            return False
        return not any(rel.startswith(p) for p in self.exclude)


#: Where each rule applies. REP001/REP006 guard the deterministic
#: simulation/decision path; REP002 exempts the telemetry clock
#: (``obs/``) and the sweep orchestrator's retry/timeout machinery,
#: which legitimately live in wall-clock time; REP005 exempts exactly
#: the modules that *define* the canonical schema constants.
DEFAULT_SCOPES: dict[str, Scope] = {
    "REP000": Scope(),
    "REP001": Scope(
        include=("sim/", "core/", "workload/", "faults/", "scenarios/")
    ),
    "REP002": Scope(exclude=("obs/", "scenarios/orchestrator.py")),
    "REP003": Scope(),
    "REP005": Scope(
        exclude=(
            "scenarios/store.py",
            "scenarios/checkpoints.py",
            "obs/telemetry.py",
        )
    ),
    "REP006": Scope(include=("sim/", "core/")),
}


@dataclass(frozen=True)
class LintConfig:
    """Full auditor configuration: the rule scopes."""

    scopes: dict[str, Scope] = field(default_factory=lambda: dict(DEFAULT_SCOPES))

    def scope_for(self, rule_id: str) -> Scope:
        return self.scopes.get(rule_id, Scope())
