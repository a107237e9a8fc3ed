"""Obs rule pack: hand-rolled timing outside the sanctioned paths."""

import textwrap

from repro.lint import get_rules, lint_source

RULES = get_rules(["obs-manual-timing"])


def lint_at(source, path):
    return lint_source(textwrap.dedent(source), path=path, rules=RULES)


TIMED_LOOP = """
    import time

    def relax(edges):
        t0 = time.perf_counter()
        for e in edges:
            pass
        return time.perf_counter() - t0
"""


class TestManualTiming:
    def test_perf_counter_in_engine_code_fires(self):
        findings = lint_at(TIMED_LOOP, "src/repro/engine/protocol.py")
        assert [f.rule for f in findings] == ["obs-manual-timing"] * 2
        assert "tracer.span" in findings[0].message

    def test_monotonic_and_ns_variants_fire(self):
        findings = lint_at(
            """
            import time

            def stamp():
                return time.monotonic(), time.perf_counter_ns()
            """,
            "src/repro/simmpi/fabric.py",
        )
        assert len(findings) == 2

    def test_executor_is_sanctioned(self):
        assert lint_at(TIMED_LOOP, "src/repro/simmpi/executor.py") == []

    def test_obs_package_is_sanctioned(self):
        assert lint_at(TIMED_LOOP, "src/repro/obs/tracer.py") == []
        assert lint_at(TIMED_LOOP, "src\\repro\\obs\\profile.py") == []

    def test_wall_clock_reads_are_not_this_rules_business(self):
        # time.time() is det-wallclock's finding, not obs-manual-timing's.
        findings = lint_at(
            """
            import time

            def now():
                return time.time()
            """,
            "src/repro/engine/protocol.py",
        )
        assert findings == []

    def test_disable_file_comment_suppresses(self):
        findings = lint_at(
            """
            # repro-lint: disable-file=obs-manual-timing  (benchmark timer)
            import time

            def bench(fn):
                t0 = time.perf_counter()
                fn()
                return time.perf_counter() - t0
            """,
            "src/repro/analysis/perfbench.py",
        )
        assert findings == []
