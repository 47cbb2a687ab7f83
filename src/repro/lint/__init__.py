"""repro.lint — AST-based determinism & invariant auditor.

Every guarantee this reproduction stakes its results on — bit-identical
references, content-keyed caches, domain-tagged seed streams — is a
*convention* until something machine-checks it. This package is that
check: a rule registry plus AST visitors (stdlib :mod:`ast`, no
dependencies) enforcing the project's determinism invariants, run as
``repro lint [PATHS]`` and gated in CI. Content keys are checked by
computing them instead: ``tests/scenarios/test_content_keys.py``
perturbs every field of every spec class and asserts which keys move.

Rules
-----
* **REP001** seed hygiene — no stdlib ``random`` / legacy ``np.random``
  global state in simulation code.
* **REP002** wall-clock ban — no ``time.time`` / ``datetime.now`` /
  ``perf_counter`` in simulation/decision code (``obs/`` and the
  orchestrator are scoped exemptions).
* **REP003** frozen-spec mutation — ``object.__setattr__`` only inside
  ``__post_init__``.
* **REP005** schema-literal drift — no hardcoded schema-version
  integers outside the canonical constants.
* **REP006** unordered-set iteration — no bare set iteration in
  ``sim/`` / ``core/``.

Per-line suppressions require a justification::

    something_flagged()  # repro: allow[REP002] — reason it is safe here

and unjustified, malformed, or stale suppressions are findings
themselves (REP000).
"""

from repro.lint.config import LintConfig, Scope
from repro.lint.engine import LintReport, LintUsageError, run_lint
from repro.lint.model import Finding
from repro.lint.rules import RULES, iter_rules, rules_by_id
from repro.lint.suppress import SUPPRESSION_RULE

__all__ = [
    "RULES",
    "SUPPRESSION_RULE",
    "Finding",
    "LintConfig",
    "LintReport",
    "LintUsageError",
    "Scope",
    "iter_rules",
    "rules_by_id",
    "run_lint",
]
