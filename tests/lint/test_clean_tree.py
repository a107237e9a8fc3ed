"""The analyzer's own codebase must lint clean — the CI gate in test form."""

from pathlib import Path

from repro.lint import lint_paths

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def test_repro_package_lints_clean():
    findings, checked = lint_paths([str(SRC)])
    assert checked > 50, "discovery should sweep the whole package"
    assert findings == [], "\n".join(f.format() for f in findings)
