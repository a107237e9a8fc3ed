"""Index-space rule pack: seeded-bad snippets fire, engine idiom stays silent."""

from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def rules_of(findings):
    return [f.rule for f in findings]


class TestGlobalIntoLocal:
    def test_annotated_local_array_indexed_by_global_ids(self, lint):
        findings = lint(
            """
            def relax(dist, targets):
                # repro: index-space: dist[local], targets=global
                dist[targets] = 0.0
            """,
            rules=["index-global-into-local"],
        )
        assert rules_of(findings) == ["index-global-into-local"]
        assert "to_local" in findings[0].message

    def test_convention_name_supplies_the_space(self, lint):
        # No =global tag needed: *_global names carry global ids by convention.
        findings = lint(
            """
            def relax(dist, targets_global):
                # repro: index-space: dist[local]
                dist[targets_global] = 0.0
            """,
            rules=["index-global-into-local"],
        )
        assert rules_of(findings) == ["index-global-into-local"]

    def test_scatter_ufunc_checked(self, lint):
        findings = lint(
            """
            import numpy as np

            def relax(dist, targets, vals):
                # repro: index-space: dist[local], targets=global
                np.minimum.at(dist, targets, vals)
            """,
            rules=["index-global-into-local"],
        )
        assert rules_of(findings) == ["index-global-into-local"]

    def test_translated_index_is_clean(self, lint):
        findings = lint(
            """
            def relax(dist, lmap, targets):
                # repro: index-space: dist[local], targets=global
                slots = lmap.to_local(targets)
                dist[slots] = 0.0
            """,
            rules=["index"],
        )
        assert findings == []

    def test_subscript_filtering_keeps_value_space(self, lint):
        # targets[mask] still holds global ids -> mismatch survives a filter.
        findings = lint(
            """
            def relax(dist, targets, mask):
                # repro: index-space: dist[local], targets=global
                dist[targets[mask]] = 0.0
            """,
            rules=["index-global-into-local"],
        )
        assert rules_of(findings) == ["index-global-into-local"]

    def test_unknown_space_stays_silent(self, lint):
        # Conservative by design: no tag, no convention -> no finding.
        findings = lint(
            """
            def relax(dist, idx):
                # repro: index-space: dist[local]
                dist[idx] = 0.0
            """,
            rules=["index"],
        )
        assert findings == []


class TestLocalIntoGlobal:
    def test_local_slots_index_global_array(self, lint):
        findings = lint(
            """
            def owners_of(owner, slots_local):
                # repro: index-space: owner[global]
                return owner[slots_local]
            """,
            rules=["index-local-into-global"],
        )
        assert rules_of(findings) == ["index-local-into-global"]
        assert "to_global" in findings[0].message

    def test_local_slots_into_global_id_api(self, lint):
        findings = lint(
            """
            def check(lmap, frontier_local):
                return lmap.contains(frontier_local)
            """,
            rules=["index-local-into-global"],
        )
        assert rules_of(findings) == ["index-local-into-global"]

    def test_global_ids_into_global_id_api_is_clean(self, lint):
        findings = lint(
            """
            def check(lmap, targets):
                # repro: index-space: targets=global
                return lmap.contains(targets)
            """,
            rules=["index"],
        )
        assert findings == []


class TestRoundTrip:
    def test_to_global_of_to_local(self, lint):
        findings = lint(
            """
            def ship(lmap, vertices):
                return lmap.to_global(lmap.to_local(vertices))
            """,
            rules=["index-roundtrip"],
        )
        assert rules_of(findings) == ["index-roundtrip"]
        assert "identity" in findings[0].message

    def test_translating_already_local_ids(self, lint):
        findings = lint(
            """
            def ship(lmap, frontier_local):
                return lmap.to_local(frontier_local)
            """,
            rules=["index-roundtrip"],
        )
        assert rules_of(findings) == ["index-roundtrip"]
        assert "redundant" in findings[0].message

    def test_legitimate_translation_is_clean(self, lint):
        findings = lint(
            """
            def ship(lmap, targets):
                # repro: index-space: targets=global
                return lmap.to_local(targets)
            """,
            rules=["index"],
        )
        assert findings == []


class TestReassignmentFlow:
    def test_rebinding_updates_the_inferred_space(self, lint):
        # ``targets`` starts global, is rebound to local slots; indexing the
        # local array with the rebound name must be clean.
        findings = lint(
            """
            def relax(dist, lmap, targets):
                # repro: index-space: dist[local], targets=global
                targets = lmap.to_local(targets)
                dist[targets] = 0.0
            """,
            rules=["index"],
        )
        assert findings == []

    def test_unknown_rebinding_clears_inference_not_annotation(self, lint):
        # After ``targets = mystery()`` the env forgets the name, but the
        # scope annotation is a contract and keeps applying.
        findings = lint(
            """
            def relax(dist, targets, mystery):
                # repro: index-space: dist[local], targets=global
                targets = mystery()
                dist[targets] = 0.0
            """,
            rules=["index"],
        )
        assert rules_of(findings) == ["index-global-into-local"]


class TestStatementFlow:
    """Compound statements: headers are checked, binding targets clear."""

    def test_if_and_while_tests_are_checked(self, lint):
        findings = lint(
            """
            def relax(dist, targets):
                # repro: index-space: dist[local], targets=global
                if dist[targets].any():
                    pass
                while dist[targets].min() > 0:
                    break
            """,
            rules=["index"],
        )
        assert [(f.rule, f.line) for f in findings] == [
            ("index-global-into-local", 4),
            ("index-global-into-local", 6),
        ]

    def test_for_iterable_is_checked_before_the_target_rebinds(self, lint):
        # The iterable still sees ``ids`` as global; the loop target then
        # rebinds ``ids`` to an unknown space, so the body stays silent.
        findings = lint(
            """
            def relax(dist, lmap, targets):
                # repro: index-space: dist[local]
                ids = lmap.to_global(targets)
                for ids in dist[ids]:
                    dist[ids] = 0.0
            """,
            rules=["index"],
        )
        assert [(f.rule, f.line) for f in findings] == [("index-global-into-local", 5)]

    def test_with_as_rebinding_clears_the_inferred_space(self, lint):
        findings = lint(
            """
            def relax(dist, lmap, targets, opened):
                # repro: index-space: dist[local]
                ids = lmap.to_global(targets)
                with opened(dist[ids]) as ids:
                    dist[ids] = 0.0
            """,
            rules=["index"],
        )
        assert [(f.rule, f.line) for f in findings] == [("index-global-into-local", 5)]

    def test_try_visits_handlers_before_finally(self, lint):
        # Flow order body -> handler -> finally: the handler's rebinding to
        # global ids is what the finally block sees.
        findings = lint(
            """
            def relax(dist, lmap, targets):
                # repro: index-space: dist[local]
                try:
                    ids = lmap.to_local(targets)
                except KeyError:
                    ids = lmap.to_global(targets)
                finally:
                    dist[ids] = 0.0
            """,
            rules=["index"],
        )
        assert [(f.rule, f.line) for f in findings] == [("index-global-into-local", 9)]


class TestKnownGoodEngines:
    def test_owned_local_engine_is_clean(self, lint):
        source = (SRC / "engine" / "kernels" / "sssp_batch.py").read_text()
        assert lint(source, rules=["index"]) == []

    def test_rank_base_is_clean(self, lint):
        source = (SRC / "engine" / "rank.py").read_text()
        assert lint(source, rules=["index"]) == []
