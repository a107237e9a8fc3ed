"""Finding reporters: editor-friendly text and machine-readable JSON."""

from __future__ import annotations

import json

from repro.lint.findings import Finding

__all__ = ["render_json", "render_text"]


def render_text(findings: list[Finding], checked: int) -> str:
    """``path:line:col: rule: message`` lines plus a one-line summary."""
    lines = [f.format() for f in sorted(findings)]
    if findings:
        by_rule: dict[str, int] = {}
        for f in findings:
            by_rule[f.rule] = by_rule.get(f.rule, 0) + 1
        breakdown = ", ".join(f"{r}: {n}" for r, n in sorted(by_rule.items()))
        lines.append(
            f"{len(findings)} finding(s) in {checked} file(s) ({breakdown})"
        )
    else:
        lines.append(f"0 findings in {checked} file(s)")
    return "\n".join(lines)


def render_json(findings: list[Finding], checked: int) -> str:
    """Stable JSON document (sorted findings, per-rule counts)."""
    by_rule: dict[str, int] = {}
    for f in findings:
        by_rule[f.rule] = by_rule.get(f.rule, 0) + 1
    doc = {
        "schema": "repro-lint-report/v1",
        "files_checked": checked,
        "total_findings": len(findings),
        "findings_by_rule": dict(sorted(by_rule.items())),
        "findings": [f.to_dict() for f in sorted(findings)],
    }
    return json.dumps(doc, indent=2, sort_keys=False)
