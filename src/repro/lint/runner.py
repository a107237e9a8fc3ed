"""Lint driver: file discovery, rule execution, suppression filtering."""

from __future__ import annotations

import os

from repro.lint.context import parse_module
from repro.lint.findings import Finding
from repro.lint.registry import Rule, get_rules

__all__ = ["LintError", "lint_paths", "lint_source"]


class LintError(Exception):
    """A file could not be analyzed (unreadable or syntactically invalid)."""


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
    if rules is None:
        rules = get_rules()
    findings: list[Finding] = []
    for rule in rules:
        for finding in rule.check(module):
            if not module.suppressions.is_suppressed(finding.rule, finding.line):
                findings.append(finding)
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
    if rules is None:
        rules = get_rules()
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
