"""The auditor's own gate: the live tree must satisfy its invariants.

This is the day-one contract behind the CI ``lint-invariants`` job — if
a change introduces a violation (or an unjustified suppression), this
test fails locally before CI does.
"""

from pathlib import Path

from repro.lint import RULES, SUPPRESSION_RULE, run_lint
from repro.lint.rules import rules_by_id

SRC = Path(__file__).resolve().parents[2] / "src"


class TestSelfAudit:
    def test_live_tree_is_clean(self):
        report = run_lint([SRC / "repro"])
        assert report.findings == [], report.render_text()
        assert report.exit_code == 0
        assert report.parse_errors == 0

    def test_all_rules_ran(self):
        report = run_lint([SRC / "repro"])
        expected = {rule.id for rule in RULES} | {SUPPRESSION_RULE}
        assert set(report.selected) == expected

    def test_rule_registry_is_stable(self):
        assert sorted(rules_by_id()) == [
            "REP001",
            "REP002",
            "REP003",
            "REP005",
            "REP006",
        ]
