"""Driver and CLI: discovery, error handling, exit codes, report formats."""

import json

import pytest

from repro.cli import main
from repro.lint import (
    LintError,
    all_rules,
    get_rules,
    lint_paths,
    lint_source,
    render_json,
    render_text,
    rule_packs,
)

BAD = "import time\n\n\ndef stamp():\n    return time.time()\n"
GOOD = "def add(a, b):\n    return a + b\n"


#: The rule table, (name, pack) sorted by (pack, name).
RULE_TABLE = [
    ("det-parallel-primitives", "det"),
    ("det-set-iteration", "det"),
    ("det-unseeded-rng", "det"),
    ("det-unstable-sort", "det"),
    ("det-wallclock", "det"),
    ("dtype-byte-math", "dtype"),
    ("dtype-loop-astype", "dtype"),
    ("dtype-narrow-id", "dtype"),
    ("index-global-into-local", "index"),
    ("index-local-into-global", "index"),
    ("index-roundtrip", "index"),
    ("obs-manual-timing", "obs"),
    ("shm-kernel-phase", "shm"),
    ("shm-parallel-shared-mutation", "shm"),
    ("shm-stale-lazy-handle", "shm"),
    ("shm-view-escape", "shm"),
]


class TestRegistry:
    def test_rule_table_is_pinned(self):
        assert [(r.name, r.pack) for r in all_rules()] == RULE_TABLE

    def test_all_rules_are_unique_and_sorted(self):
        names = [r.name for r in all_rules()]
        assert len(names) == len(set(names))
        assert names == sorted(names)

    def test_every_pack_is_selectable(self):
        for pack in rule_packs():
            assert get_rules([pack])

    def test_pack_selection_expands_to_members(self):
        det = get_rules(["det"])
        assert {r.pack for r in det} == {"det"}
        assert len(det) > 1

    def test_unknown_rule_raises_with_options(self):
        with pytest.raises(ValueError, match="det-wallclock"):
            get_rules(["no-such-rule"])


class TestRunner:
    def test_syntax_error_raises_lint_error(self):
        with pytest.raises(LintError, match="syntax error"):
            lint_source("def broken(:\n", path="bad.py")

    def test_missing_path_raises_lint_error(self):
        with pytest.raises(LintError, match="no such file"):
            lint_paths(["/no/such/dir"])

    def test_directory_discovery_recurses_and_skips_pycache(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "good.py").write_text(GOOD)
        (tmp_path / "pkg" / "bad.py").write_text(BAD)
        (tmp_path / "pkg" / "__pycache__").mkdir()
        (tmp_path / "pkg" / "__pycache__" / "stale.py").write_text(BAD)
        (tmp_path / "notes.txt").write_text("not python")
        findings, checked = lint_paths([str(tmp_path)])
        assert checked == 2
        assert [f.rule for f in findings] == ["det-wallclock"]
        assert findings[0].path.endswith("bad.py")

    def test_findings_sorted_by_location(self, tmp_path):
        (tmp_path / "b.py").write_text(BAD)
        (tmp_path / "a.py").write_text(BAD)
        findings, _ = lint_paths([str(tmp_path)])
        assert [f.path for f in findings] == sorted(f.path for f in findings)


class TestReports:
    def test_text_report_lists_location_and_rule(self):
        findings = lint_source(BAD, path="x.py")
        text = render_text(findings, 1)
        assert "x.py:5:" in text
        assert "det-wallclock" in text
        assert "1 finding" in text

    def test_json_report_schema(self):
        findings = lint_source(BAD, path="x.py")
        doc = json.loads(render_json(findings, 1))
        assert doc["schema"] == "repro-lint-report/v1"
        assert doc["files_checked"] == 1
        assert doc["total_findings"] == 1
        assert doc["findings_by_rule"] == {"det-wallclock": 1}
        assert doc["findings"][0]["line"] == 5

    def test_clean_json_report(self):
        doc = json.loads(render_json([], 3))
        assert doc["total_findings"] == 0
        assert doc["findings"] == []


class TestCliLint:
    def test_clean_file_exits_zero(self, tmp_path, capsys):
        p = tmp_path / "good.py"
        p.write_text(GOOD)
        assert main(["lint", str(p)]) == 0
        assert "0 finding" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys):
        p = tmp_path / "bad.py"
        p.write_text(BAD)
        assert main(["lint", str(p)]) == 1
        assert "det-wallclock" in capsys.readouterr().out

    def test_rule_subset_restricts_the_run(self, tmp_path):
        p = tmp_path / "bad.py"
        p.write_text(BAD)
        assert main(["lint", str(p), "--rules", "dtype"]) == 0

    def test_unknown_rule_exits_two(self, tmp_path, capsys):
        p = tmp_path / "good.py"
        p.write_text(GOOD)
        assert main(["lint", str(p), "--rules", "bogus"]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_missing_path_exits_two(self, capsys):
        assert main(["lint", "/no/such/dir"]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_json_format(self, tmp_path, capsys):
        p = tmp_path / "bad.py"
        p.write_text(BAD)
        assert main(["lint", str(p), "--format", "json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro-lint-report/v1"
        assert doc["total_findings"] == 1

    def test_out_writes_report_file(self, tmp_path, capsys):
        p = tmp_path / "bad.py"
        p.write_text(BAD)
        out = tmp_path / "report.json"
        assert main(["lint", str(p), "--format", "json", "--out", str(out)]) == 1
        doc = json.loads(out.read_text())
        assert doc["findings_by_rule"] == {"det-wallclock": 1}

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in all_rules():
            assert rule.name in out
