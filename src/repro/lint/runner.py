"""Lint driver: the rule table, file discovery, pack scans, reports.

A rule is a :class:`~repro.lint.context.Rule` row declared by its pack
module next to that pack's ``scan(module)``, which yields
``(rule, node, message)`` for every rule of the pack in one pass.  The
driver runs each pack that has a selected rule once per file and keeps
the selected rules' unsuppressed findings.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass

from repro.lint import rules_determinism, rules_dtype, rules_index, rules_obs, rules_shm
from repro.lint.context import Rule, parse_module

__all__ = [
    "Finding",
    "LintError",
    "all_rules",
    "get_rules",
    "lint_paths",
    "lint_source",
    "render_json",
    "render_text",
    "rule_packs",
]

_PACKS = (rules_determinism, rules_dtype, rules_index, rules_obs, rules_shm)


class LintError(Exception):
    """A file could not be analyzed (unreadable or syntactically invalid)."""


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location.

    Sorted by location (path, line, col) then rule name, so reports are
    stable across runs regardless of rule execution order.
    """

    path: str
    line: int
    col: int
    rule: str
    message: str

    def format(self) -> str:
        """One ``path:line:col: rule: message`` line (clickable in editors)."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule}: {self.message}"


# -- the rule table ----------------------------------------------------------


def all_rules() -> list[Rule]:
    """Every rule of every pack, sorted by (pack, name) for stable output."""
    rules = [rule for pack in _PACKS for rule in pack.RULES]
    return sorted(rules, key=lambda r: (r.pack, r.name))


def get_rules(names: list[str] | None = None) -> list[Rule]:
    """Rules filtered to ``names`` (rule ids or pack ids); all when None."""
    rules = all_rules()
    if not names:
        return rules
    wanted = set(names)
    known = {r.name for r in rules} | {r.pack for r in rules}
    if wanted - known:
        options = ", ".join(sorted(known))
        raise ValueError(f"unknown rule(s) {sorted(wanted - known)}; options: {options}")
    return [r for r in rules if r.name in wanted or r.pack in wanted]


def rule_packs() -> dict[str, list[Rule]]:
    """Rules grouped by pack id."""
    packs: dict[str, list[Rule]] = {}
    for rule in all_rules():
        packs.setdefault(rule.pack, []).append(rule)
    return packs


# -- running the packs -------------------------------------------------------


def lint_source(
    source: str,
    path: str = "<string>",
    rules: list[Rule] | None = None,
) -> list[Finding]:
    """Lint one source string; returns suppression-filtered findings."""
    try:
        module = parse_module(path, source)
    except SyntaxError as exc:
        raise LintError(f"{path}: syntax error: {exc}") from exc
    selected = set(get_rules() if rules is None else rules)
    findings: list[Finding] = []
    for pack in _PACKS:
        if selected.isdisjoint(pack.RULES):
            continue
        for rule, node, message in pack.scan(module):
            line = getattr(node, "lineno", 0)
            if rule in selected and not module.suppressions.is_suppressed(rule.name, line):
                col = getattr(node, "col_offset", 0) + 1
                findings.append(Finding(path, line, col, rule.name, message))
    return sorted(findings)


def _discover(paths: list[str]) -> list[str]:
    files: list[str] = []
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, names in os.walk(path):
                dirs[:] = sorted(
                    d for d in dirs if d != "__pycache__" and not d.startswith(".")
                )
                files.extend(
                    os.path.join(root, n) for n in sorted(names) if n.endswith(".py")
                )
        elif os.path.isfile(path):
            files.append(path)
        else:
            raise LintError(f"{path}: no such file or directory")
    return files


def lint_paths(
    paths: list[str],
    rules: list[Rule] | None = None,
) -> tuple[list[Finding], int]:
    """Lint files and directories (recursively, ``*.py`` only).

    Returns ``(findings, files_checked)``.  Unreadable or unparseable
    files raise :class:`LintError` — an analyzer that silently skips
    files is worse than one that fails loudly.
    """
    findings: list[Finding] = []
    files = _discover(paths)
    for file in files:
        try:
            with open(file, encoding="utf-8") as fh:
                source = fh.read()
        except OSError as exc:
            raise LintError(f"{file}: {exc}") from exc
        findings.extend(lint_source(source, path=file, rules=rules))
    return sorted(findings), len(files)


# -- reports -----------------------------------------------------------------


def _count_by_rule(findings: list[Finding]) -> dict[str, int]:
    by_rule: dict[str, int] = {}
    for f in findings:
        by_rule[f.rule] = by_rule.get(f.rule, 0) + 1
    return dict(sorted(by_rule.items()))


def render_text(findings: list[Finding], checked: int) -> str:
    """``path:line:col: rule: message`` lines plus a one-line summary."""
    lines = [f.format() for f in sorted(findings)]
    if findings:
        breakdown = ", ".join(f"{r}: {n}" for r, n in _count_by_rule(findings).items())
        lines.append(
            f"{len(findings)} finding(s) in {checked} file(s) ({breakdown})"
        )
    else:
        lines.append(f"0 findings in {checked} file(s)")
    return "\n".join(lines)


def render_json(findings: list[Finding], checked: int) -> str:
    """Stable JSON document (sorted findings, per-rule counts)."""
    doc = {
        "schema": "repro-lint-report/v1",
        "files_checked": checked,
        "total_findings": len(findings),
        "findings_by_rule": _count_by_rule(findings),
        "findings": [asdict(f) for f in sorted(findings)],
    }
    return json.dumps(doc, indent=2, sort_keys=False)
