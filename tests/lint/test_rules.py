"""Per-rule fixtures: each rule fires on the violation, stays quiet on
the compliant spelling, and honors a justified suppression."""

from repro.lint import run_lint

from tests.lint.conftest import rule_ids


def lint(tree, select=None):
    return run_lint([tree.root], root=tree.root, select=select)


class TestSeedHygiene:
    def test_flags_stdlib_random_import(self, tree):
        tree("sim/engine.py", "import random\n")
        assert rule_ids(lint(tree)) == ["REP001"]

    def test_flags_legacy_np_random_attribute(self, tree):
        tree(
            "core/predictor.py",
            """
            import numpy as np

            def draw():
                np.random.seed(0)
                return np.random.rand(3)
            """,
        )
        report = lint(tree)
        assert rule_ids(report) == ["REP001", "REP001"]

    def test_flags_legacy_from_import(self, tree):
        tree("workload/trace.py", "from numpy.random import randint\n")
        assert rule_ids(lint(tree)) == ["REP001"]

    def test_allows_seeded_generator_surface(self, tree):
        tree(
            "sim/engine.py",
            """
            import numpy as np
            from numpy.random import SeedSequence, default_rng

            def draw(seed):
                rng = np.random.default_rng(SeedSequence(seed))
                return rng.random()
            """,
        )
        assert lint(tree).findings == []

    def test_out_of_scope_files_are_exempt(self, tree):
        tree("harness/report.py", "import random\n")
        assert lint(tree).findings == []

    def test_suppression_with_reason_is_honored(self, tree):
        tree(
            "sim/engine.py",
            "import random  # repro: allow[REP001] — docs-only example\n",
        )
        report = lint(tree)
        assert report.findings == []
        assert report.suppressions_used == 1


class TestWallClockBan:
    def test_flags_time_time_in_sim(self, tree):
        tree(
            "sim/engine.py",
            """
            import time

            def now():
                return time.time()
            """,
        )
        assert rule_ids(lint(tree)) == ["REP002"]

    def test_flags_from_time_import(self, tree):
        tree("core/state.py", "from time import perf_counter\n")
        assert rule_ids(lint(tree)) == ["REP002"]

    def test_flags_datetime_now(self, tree):
        tree(
            "faults/plan.py",
            """
            import datetime

            def stamp():
                return datetime.datetime.now()
            """,
        )
        assert rule_ids(lint(tree)) == ["REP002"]

    def test_obs_is_exempt(self, tree):
        tree(
            "obs/clock.py",
            """
            import time

            def now():
                return time.perf_counter()
            """,
        )
        assert lint(tree).findings == []

    def test_orchestrator_timeout_machinery_is_exempt(self, tree):
        tree(
            "scenarios/orchestrator.py",
            """
            import time

            def deadline(budget):
                return time.monotonic() + budget
            """,
        )
        assert lint(tree).findings == []

    def test_simulated_clock_is_fine(self, tree):
        tree(
            "sim/engine.py",
            """
            def advance(queue):
                event = queue.pop()
                return event.time
            """,
        )
        assert lint(tree).findings == []


class TestFrozenSpecMutation:
    def test_flags_setattr_outside_post_init(self, tree):
        tree(
            "scenarios/specs.py",
            """
            def patch(spec, value):
                object.__setattr__(spec, "weight", value)
            """,
        )
        assert rule_ids(lint(tree, select=["REP003"])) == ["REP003"]

    def test_post_init_is_the_escape_hatch(self, tree):
        tree(
            "scenarios/specs.py",
            """
            class Spec:
                def __post_init__(self):
                    object.__setattr__(self, "sites", tuple(self.sites))
            """,
        )
        assert lint(tree, select=["REP003"]).findings == []

    def test_nested_helper_inside_post_init_is_covered(self, tree):
        tree(
            "faults/spec.py",
            """
            class Spec:
                def __post_init__(self):
                    def normalize():
                        object.__setattr__(self, "x", 1)
                    normalize()
            """,
        )
        assert lint(tree, select=["REP003"]).findings == []

    def test_suppressed_with_reason(self, tree):
        tree(
            "scenarios/store.py",
            """
            def thaw(spec):
                object.__setattr__(spec, "x", 1)  # repro: allow[REP003] — shim
            """,
        )
        report = lint(tree, select=["REP003"])
        assert report.findings == []
        assert report.suppressions_used == 1


class TestSchemaLiteralDrift:
    def test_flags_literal_in_dict(self, tree):
        tree("scenarios/resume.py", 'payload = {"schema": 6}\n')
        assert rule_ids(lint(tree, select=["REP005"])) == ["REP005"]

    def test_flags_comparison_against_literal(self, tree):
        tree(
            "scenarios/registry.py",
            """
            def check(record):
                return record["schema"] == 6
            """,
        )
        assert rule_ids(lint(tree, select=["REP005"])) == ["REP005"]

    def test_flags_shadow_constant(self, tree):
        tree("harness/runner.py", "SCHEMA_VERSION = 6\n")
        assert rule_ids(lint(tree, select=["REP005"])) == ["REP005"]

    def test_canonical_modules_are_exempt(self, tree):
        tree("scenarios/store.py", "SCHEMA_VERSION = 6\n")
        tree("scenarios/checkpoints.py", "CHECKPOINT_SCHEMA_VERSION = 1\n")
        tree("obs/telemetry.py", "TELEMETRY_SCHEMA = 1\n")
        assert lint(tree, select=["REP005"]).findings == []

    def test_imported_constant_is_fine(self, tree):
        tree(
            "scenarios/resume.py",
            """
            from repro.scenarios.store import SCHEMA_VERSION

            def payload():
                return {"schema": SCHEMA_VERSION}
            """,
        )
        assert lint(tree, select=["REP005"]).findings == []

    def test_unrelated_int_literals_are_fine(self, tree):
        tree(
            "scenarios/resume.py",
            """
            def check(record):
                return record["n_jobs"] == 600 and {"retries": 3}
            """,
        )
        assert lint(tree, select=["REP005"]).findings == []


class TestUnorderedSetIteration:
    def test_flags_for_over_set_literal(self, tree):
        tree(
            "sim/engine.py",
            """
            def drain(a, b, c):
                for server in {a, b, c}:
                    server.stop()
            """,
        )
        assert rule_ids(lint(tree, select=["REP006"])) == ["REP006"]

    def test_flags_comprehension_over_set_bound_name(self, tree):
        tree(
            "core/dispatch.py",
            """
            def pick(jobs):
                pending = set(jobs)
                return [j.id for j in pending]
            """,
        )
        assert rule_ids(lint(tree, select=["REP006"])) == ["REP006"]

    def test_sorted_set_is_the_contract(self, tree):
        tree(
            "sim/engine.py",
            """
            def drain(servers):
                pending = set(servers)
                for server in sorted(pending):
                    server.stop()
            """,
        )
        assert lint(tree, select=["REP006"]).findings == []

    def test_outside_sim_core_is_exempt(self, tree):
        tree(
            "harness/report.py",
            """
            def names(rows):
                for row in {r.name for r in rows}:
                    yield row
            """,
        )
        assert lint(tree, select=["REP006"]).findings == []
