"""Determinism rule pack: hidden RNG state, set order, wall clock, sorts."""

from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def rules_of(findings):
    return [f.rule for f in findings]


class TestUnseededRng:
    def test_legacy_np_random_fires(self, lint):
        findings = lint(
            """
            import numpy as np

            def scramble(arr):
                np.random.shuffle(arr)
            """,
            rules=["det-unseeded-rng"],
        )
        assert rules_of(findings) == ["det-unseeded-rng"]
        assert "hidden global RNG" in findings[0].message

    def test_unseeded_default_rng_fires(self, lint):
        findings = lint(
            """
            import numpy as np

            def make():
                return np.random.default_rng()
            """,
            rules=["det-unseeded-rng"],
        )
        assert rules_of(findings) == ["det-unseeded-rng"]
        assert "seed" in findings[0].message

    def test_stdlib_random_fires(self, lint):
        findings = lint(
            """
            import random

            def pick(xs):
                return random.choice(xs)
            """,
            rules=["det-unseeded-rng"],
        )
        assert rules_of(findings) == ["det-unseeded-rng"]

    def test_seeded_generator_is_clean(self, lint):
        findings = lint(
            """
            import numpy as np

            def make(seed):
                rng = np.random.default_rng(seed)
                return rng.integers(0, 10, size=4)
            """,
            rules=["det"],
        )
        assert findings == []


class TestSetIteration:
    def test_for_over_set_literal_fires(self, lint):
        findings = lint(
            """
            def visit(out):
                for rank in {0, 2, 1}:
                    out.append(rank)
            """,
            rules=["det-set-iteration"],
        )
        assert rules_of(findings) == ["det-set-iteration"]

    def test_comprehension_over_set_call_fires(self, lint):
        findings = lint(
            """
            def visit(items):
                return [x for x in set(items)]
            """,
            rules=["det-set-iteration"],
        )
        assert rules_of(findings) == ["det-set-iteration"]

    def test_sorted_set_is_clean(self, lint):
        findings = lint(
            """
            def visit(items):
                return [x for x in sorted(set(items))]
            """,
            rules=["det-set-iteration"],
        )
        assert findings == []


class TestWallClock:
    def test_time_time_fires(self, lint):
        findings = lint(
            """
            import time

            def stamp():
                return time.time()
            """,
            rules=["det-wallclock"],
        )
        assert rules_of(findings) == ["det-wallclock"]
        assert "SimClock" in findings[0].message

    def test_datetime_now_fires(self, lint):
        findings = lint(
            """
            import datetime

            def stamp():
                return datetime.datetime.now()
            """,
            rules=["det-wallclock"],
        )
        assert rules_of(findings) == ["det-wallclock"]

    def test_perf_counter_is_allowed(self, lint):
        findings = lint(
            """
            import time

            def measure():
                return time.perf_counter()
            """,
            rules=["det"],
        )
        assert findings == []


class TestUnstableSort:
    def test_argsort_in_wire_path_fires(self, lint):
        findings = lint(
            """
            import numpy as np

            def route(owners):
                # repro: wire-path
                return np.argsort(owners)
            """,
            rules=["det-unstable-sort"],
        )
        assert rules_of(findings) == ["det-unstable-sort"]
        assert "kind='stable'" in findings[0].message

    def test_method_argsort_in_wire_path_fires(self, lint):
        findings = lint(
            """
            def route(owners):
                # repro: wire-path
                return owners.argsort()
            """,
            rules=["det-unstable-sort"],
        )
        assert rules_of(findings) == ["det-unstable-sort"]

    def test_stable_argsort_is_clean(self, lint):
        findings = lint(
            """
            import numpy as np

            def route(owners):
                # repro: wire-path
                return np.argsort(owners, kind="stable")
            """,
            rules=["det-unstable-sort"],
        )
        assert findings == []

    def test_argsort_outside_wire_path_is_clean(self, lint):
        # Min-reductions erase order on purpose; only wire paths care.
        findings = lint(
            """
            import numpy as np

            def reduce_min(keys):
                return np.argsort(keys)
            """,
            rules=["det-unstable-sort"],
        )
        assert findings == []

    def test_value_sort_in_wire_path_is_clean(self, lint):
        # np.sort of values is deterministic whatever the algorithm; only
        # argsort leaks tie order through indices.
        findings = lint(
            """
            import numpy as np

            def route(owners):
                # repro: wire-path
                return np.sort(owners)
            """,
            rules=["det-unstable-sort"],
        )
        assert findings == []

    def test_nested_function_has_its_own_mark(self, lint):
        findings = lint(
            """
            import numpy as np

            def outer(owners):
                # repro: wire-path
                def helper(keys):
                    return np.argsort(keys)
                return helper(owners)
            """,
            rules=["det-unstable-sort"],
        )
        assert findings == []


class TestParallelPrimitives:
    def test_import_threading_fires(self, lint):
        findings = lint(
            """
            import threading

            def spawn(fn):
                threading.Thread(target=fn).start()
            """,
            rules=["det-parallel-primitives"],
        )
        assert rules_of(findings) == ["det-parallel-primitives"]
        assert "RankTeam" in findings[0].message

    def test_from_multiprocessing_fires(self, lint):
        findings = lint(
            """
            from multiprocessing import Pool

            def fan_out(fn, items):
                with Pool(4) as pool:
                    return pool.map(fn, items)
            """,
            rules=["det-parallel-primitives"],
        )
        assert rules_of(findings) == ["det-parallel-primitives"]

    def test_concurrent_futures_submodule_fires(self, lint):
        findings = lint(
            """
            from concurrent.futures import ThreadPoolExecutor

            def fan_out(fn, items):
                with ThreadPoolExecutor() as pool:
                    return list(pool.map(fn, items))
            """,
            rules=["det-parallel-primitives"],
        )
        assert rules_of(findings) == ["det-parallel-primitives"]

    def test_shared_memory_import_fires(self, lint):
        findings = lint(
            """
            from multiprocessing.shared_memory import SharedMemory

            def attach(name):
                return SharedMemory(name=name)
            """,
            rules=["det-parallel-primitives"],
        )
        assert rules_of(findings) == ["det-parallel-primitives"]

    def test_unrelated_imports_are_clean(self, lint):
        findings = lint(
            """
            import math
            from collections import Counter

            def tally(xs):
                return Counter(xs), math.inf
            """,
            rules=["det-parallel-primitives"],
        )
        assert findings == []

    def test_executor_module_is_exempt(self):
        from repro.lint import get_rules, lint_source

        source = "import threading\nfrom multiprocessing import get_context\n"
        rules = get_rules(["det-parallel-primitives"])
        assert (
            lint_source(
                source, path="src/repro/simmpi/executor.py", rules=rules
            )
            == []
        )
        assert lint_source(source, path="src/repro/simmpi/fabric.py", rules=rules)

    def test_real_executor_module_lints_clean(self):
        from repro.lint import get_rules, lint_source

        path = SRC / "simmpi" / "executor.py"
        findings = lint_source(
            path.read_text(), path=str(path), rules=get_rules(["det"])
        )
        assert findings == []


class TestKnownGoodEngines:
    def test_routing_wire_paths_are_clean(self, lint):
        for rel in ("engine/kernels/sssp_batch.py", "core/twod_engine.py", "graph/dist_build.py"):
            source = (SRC / rel).read_text()
            assert lint(source, rules=["det"]) == [], rel
