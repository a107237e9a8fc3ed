"""Unit tests for the shm rule pack (zero-copy ownership contracts).

Each rule gets a seeded-defect snippet it must flag and a clean
counterpart it must stay silent on — the static half of the PR's
seeded-defect corpus (the dynamic half lives in
``tests/simmpi/test_racecheck.py``).
"""

import pytest

SHM = ["shm"]


class TestViewEscape:
    def test_returning_raw_view_fires(self, lint):
        findings = lint(
            """
            import numpy as np

            def peek(buf, n):
                return np.frombuffer(buf, dtype=np.int64, count=n)
            """,
            SHM,
        )
        assert [f.rule for f in findings] == ["shm-view-escape"]

    def test_storing_view_on_self_fires(self, lint):
        findings = lint(
            """
            import numpy as np

            class Rank:
                def stash(self, buf):
                    self.cached = np.frombuffer(buf, dtype=np.float64)
            """,
            SHM,
        )
        assert [f.rule for f in findings] == ["shm-view-escape"]

    def test_cross_function_escape_fires(self, lint):
        findings = lint(
            """
            import numpy as np

            def _view(buf, n):
                return np.frombuffer(buf, dtype=np.int64, count=n)

            class Rank:
                def absorb(self, buf):
                    self.window = _view(buf, 8)
            """,
            SHM,
        )
        assert all(f.rule == "shm-view-escape" for f in findings)
        assert findings  # producer return and/or caller store

    def test_copy_before_escape_is_clean(self, lint):
        findings = lint(
            """
            import numpy as np

            def peek(buf, n):
                return np.frombuffer(buf, dtype=np.int64, count=n).copy()

            class Rank:
                def stash(self, buf):
                    self.cached = np.frombuffer(buf, dtype=np.float64).copy()
            """,
            SHM,
        )
        assert findings == []

    def test_dual_mode_helper_is_clean(self, lint):
        # A helper that *can* return an owned copy is not view-returning;
        # dual-mode (``view.copy() if copy else view``) code must not be flagged.
        findings = lint(
            """
            import numpy as np

            def fetch(buf, n, copy):
                view = np.frombuffer(buf, dtype=np.int64, count=n)
                return view.copy() if copy else view
            """,
            SHM,
        )
        assert findings == []


class TestStaleLazyHandle:
    def test_handle_read_after_next_call_fires(self, lint):
        findings = lint(
            """
            def drive(team):
                handles = team.call("flush", parallel=True)
                team.call("tick", parallel=True)
                return [h.fields for h in handles]
            """,
            SHM,
        )
        assert [f.rule for f in findings] == ["shm-stale-lazy-handle"]

    def test_control_call_result_read_after_next_call_fires(self, lint):
        # No flag marks a call whose result holds wires: the team decides,
        # so every call result is a potential handle.
        findings = lint(
            """
            def drive(team):
                votes = team.call("vote")
                team.call("step", per_rank=[(1,), (2,)])
                return sum(votes)
            """,
            SHM,
        )
        assert [f.rule for f in findings] == ["shm-stale-lazy-handle"]

    def test_handle_consumed_by_next_call_is_clean(self, lint):
        # The flush -> apply pattern: the invalidating call itself consumes
        # the handles (its arguments are evaluated before it runs).
        findings = lint(
            """
            def drive(team):
                handles = team.call("flush", parallel=True)
                return team.call("apply", per_rank=[(h,) for h in handles])
            """,
            SHM,
        )
        assert findings == []

    def test_handle_read_before_next_call_is_clean(self, lint):
        findings = lint(
            """
            def drive(team):
                handles = team.call("flush", parallel=True)
                sizes = [len(h) for h in handles]
                team.call("tick", parallel=True)
                return sizes
            """,
            SHM,
        )
        assert findings == []

    def test_other_receiver_does_not_invalidate(self, lint):
        findings = lint(
            """
            def drive(team, other):
                handles = team.call("flush", parallel=True)
                other.call("tick", parallel=True)
                return [h.fields for h in handles]
            """,
            SHM,
        )
        assert findings == []


class TestStatementFlow:
    """Views and handles tracked through compound statements."""

    def test_view_bound_in_nested_blocks_escapes(self, lint):
        findings = lint(
            """
            import numpy as np

            def peek(buf, lock, n):
                with lock:
                    for _ in range(n):
                        try:
                            view = np.frombuffer(buf, dtype=np.int64)
                        finally:
                            pass
                return view
            """,
            SHM,
        )
        assert [(f.rule, f.line) for f in findings] == [("shm-view-escape", 11)]

    def test_if_test_consumes_before_the_body_calls_again(self, lint):
        findings = lint(
            """
            def drive(team):
                votes = team.call("vote")
                if votes:
                    team.call("step")
                return votes
            """,
            SHM,
        )
        assert findings == []

    def test_while_test_and_with_context_calls_invalidate(self, lint):
        findings = lint(
            """
            def drive(team):
                handles = team.call("flush")
                while team.call("more"):
                    pass
                votes = team.call("vote")
                with team.call("tick"):
                    pass
                return handles, votes
            """,
            SHM,
        )
        assert [(f.rule, f.line) for f in findings] == [
            ("shm-stale-lazy-handle", 9),
            ("shm-stale-lazy-handle", 9),
        ]

    def test_call_in_try_body_stales_the_read_in_finally(self, lint):
        findings = lint(
            """
            def drive(team):
                handles = team.call("flush")
                try:
                    team.call("tick")
                finally:
                    print(handles)
            """,
            SHM,
        )
        assert [(f.rule, f.line) for f in findings] == [("shm-stale-lazy-handle", 7)]

class TestParallelSharedMutation:
    def test_subscript_write_to_shared_ro_fires(self, lint):
        findings = lint(
            """
            class Rank:
                def __init__(self, owner):
                    # repro: shared-ro: self.owner
                    self.owner = owner

                def relax(self, updates):
                    self.owner[0] = 7
            """,
            SHM,
        )
        assert [f.rule for f in findings] == ["shm-parallel-shared-mutation"]

    def test_augassign_and_mutator_method_fire(self, lint):
        findings = lint(
            """
            class Rank:
                def __init__(self, owner):
                    # repro: shared-ro: self.owner
                    self.owner = owner

                def relax(self):
                    self.owner[3:5] += 1

                def reset(self):
                    self.owner.fill(0)
            """,
            SHM,
        )
        assert [f.rule for f in findings] == [
            "shm-parallel-shared-mutation",
            "shm-parallel-shared-mutation",
        ]

    def test_global_statement_in_task_method_fires(self, lint):
        findings = lint(
            """
            COUNT = 0

            class Rank:
                def __init__(self, owner):
                    # repro: shared-ro: self.owner
                    self.owner = owner

                def relax(self):
                    global COUNT
                    COUNT += 1
            """,
            SHM,
        )
        assert "shm-parallel-shared-mutation" in {f.rule for f in findings}

    def test_reads_and_init_writes_are_clean(self, lint):
        findings = lint(
            """
            class Rank:
                def __init__(self, owner):
                    # repro: shared-ro: self.owner
                    self.owner = owner

                def route(self, vertices):
                    return self.owner[vertices]
            """,
            SHM,
        )
        assert findings == []


class TestKernelPhase:
    def test_pure_hook_writing_state_fires(self, lint):
        findings = lint(
            """
            class Bad:
                def gen_messages(self, state, frontier):
                    return state["labels"]

                def apply_messages(self, state, inbox):
                    state["labels"][:] = inbox

                def frontier_from(self, state):
                    state["scratch"] = 1
                    return state["scratch"]
            """,
            SHM,
        )
        assert [f.rule for f in findings] == ["shm-kernel-phase"]

    def test_gen_apply_key_overlap_fires(self, lint):
        findings = lint(
            """
            class Bad:
                def gen_messages(self, state, frontier):
                    state["labels"][frontier] = 0
                    return frontier

                def apply_messages(self, state, inbox):
                    state["labels"][inbox] = 1
            """,
            SHM,
        )
        assert [f.rule for f in findings] == ["shm-kernel-phase"]

    def test_closing_pass_hook_is_a_generate_hook(self, lint):
        findings = lint(
            """
            class Bad:
                def gen_messages(self, state, frontier):
                    state["owed"][frontier] = True
                    return frontier

                def gen_settled(self, state, ctx):
                    state["owed"][:] = False
                    state["dist"][:] = 0
                    return state["owed"]

                def apply_messages(self, state, inbox):
                    state["dist"][inbox] = 1
            """,
            SHM,
        )
        assert [f.rule for f in findings] == ["shm-kernel-phase"]
        assert "gen_settled() writes state['dist']" in findings[0].message

    @pytest.mark.parametrize(
        "apply_body",
        [
            "self._set(state, inbox)",
            "labels = state['labels']\n                    labels[inbox] = 1",
            "np.minimum.at(state['labels'].reshape(-1), inbox, 1)",
        ],
        ids=["helper", "alias", "view"],
    )
    def test_writes_through_helpers_aliases_and_views_are_seen(self, lint, apply_body):
        findings = lint(
            f"""
            import numpy as np

            class Bad:
                def gen_messages(self, state, frontier):
                    state["labels"][frontier] = 0
                    return frontier

                def apply_messages(self, state, inbox):
                    {apply_body}

                def _set(self, st, inbox):
                    st["labels"][inbox] = 1
            """,
            SHM,
        )
        assert [f.rule for f in findings] == ["shm-kernel-phase"]

    def test_pure_hook_writing_through_a_helper_fires(self, lint):
        findings = lint(
            """
            class Bad:
                def gen_messages(self, state, frontier):
                    return frontier

                def apply_messages(self, state, inbox):
                    state["labels"][inbox] = 1

                def vote(self, state):
                    return self._count(state)

                def _count(self, state):
                    state["votes"] = 1
                    return 1
            """,
            SHM,
        )
        assert [f.rule for f in findings] == ["shm-kernel-phase"]
        assert "via self._count()" in findings[0].message

    def test_fold_shared_with_a_generate_hook_is_clean(self, lint):
        # The fusion shape: a generate hook retires what it expands and
        # folds owned records in place with the very fold apply runs.
        findings = lint(
            """
            import numpy as np

            class Good:
                def gen_messages(self, state, frontier):
                    state["improved"][frontier] = False
                    self._emit(state, frontier)
                    return frontier

                def _emit(self, state, records):
                    self._fold(state, records)

                def _fold(self, state, records):
                    dist = state["dist"]
                    np.minimum.at(dist, records, 0.0)
                    state["improved"][records] = True

                def apply_messages(self, state, inbox):
                    self._fold(state, inbox)
            """,
            SHM,
        )
        assert findings == []

    def test_apply_write_beside_the_shared_fold_fires(self, lint):
        findings = lint(
            """
            class Bad:
                def gen_messages(self, state, frontier):
                    state["improved"][frontier] = False
                    self._fold(state, frontier)
                    return frontier

                def _fold(self, state, records):
                    state["dist"][records] = 0.0

                def apply_messages(self, state, inbox):
                    self._fold(state, inbox)
                    state["improved"][inbox] = True
            """,
            SHM,
        )
        assert [f.rule for f in findings] == ["shm-kernel-phase"]
        assert "gen_messages() writes state['improved']" in findings[0].message

    def test_stat_hook_is_a_pure_readout(self, lint):
        findings = lint(
            """
            class Bad:
                def gen_messages(self, state, frontier):
                    return frontier

                def apply_messages(self, state, inbox):
                    state["labels"][inbox] = 1

                def stat(self, state, ctx):
                    state["seen"] = state["labels"].sum()
                    return state["seen"]
            """,
            SHM,
        )
        assert [f.rule for f in findings] == ["shm-kernel-phase"]
        assert "stat() is a pure readout" in findings[0].message

    def test_gather_hooks_writing_one_key_fire(self, lint):
        findings = lint(
            """
            import numpy as np

            class Bad:
                def gen_messages(self, state, frontier):
                    return frontier

                def apply_messages(self, state, inbox):
                    state["labels"][inbox] = 1

                def gen_gather(self, state, ctx):
                    state["bits"][state["frontier"]] = True
                    return {"bitmap": np.packbits(state["bits"])}

                def apply_gathered(self, state, ctx, gathered):
                    state["bits"][:] = False
                    return 0
            """,
            SHM,
        )
        assert [f.rule for f in findings] == ["shm-kernel-phase"]
        assert "apply_gathered() also writes" in findings[0].message

    def test_exchange_and_gather_passes_are_separate_rounds(self, lint):
        # The BFS shape: a top-down level resets the frontier in generate,
        # a bottom-up level sets it in the gathered apply.
        findings = lint(
            """
            class Good:
                def gen_messages(self, state, frontier):
                    state["frontier"] = frontier[:0]
                    return frontier

                def apply_messages(self, state, inbox):
                    state["parent"][inbox] = 0

                def gen_gather(self, state, ctx):
                    return {"bitmap": state["frontier"]}

                def apply_gathered(self, state, ctx, gathered):
                    state["frontier"] = gathered["bitmap"]
                    return 0
            """,
            SHM,
        )
        assert findings == []

    def test_disjoint_phase_writes_are_clean(self, lint):
        # The KCore shape: gen writes coreness/alive, apply writes degree.
        findings = lint(
            """
            import numpy as np

            class Good:
                def gen_messages(self, state, frontier):
                    state["coreness"][frontier] = state["k"]
                    state["alive"][frontier] = False
                    return frontier

                def apply_messages(self, state, inbox):
                    np.subtract.at(state["degree"], inbox, 1)

                def frontier_from(self, state):
                    return state["alive"]
            """,
            SHM,
        )
        assert findings == []

    def test_non_kernel_class_is_ignored(self, lint):
        findings = lint(
            """
            class NotAKernel:
                def frontier_from(self, state):
                    state["x"] = 1
                    return state["x"]
            """,
            SHM,
        )
        assert findings == []
