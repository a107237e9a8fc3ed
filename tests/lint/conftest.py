"""Shared helpers for the lint test suite."""

import textwrap

import pytest

from repro.lint import get_rules, lint_source


@pytest.fixture
def lint():
    """Lint a dedented snippet with an optional rule/pack subset."""

    def _lint(source, rules=None):
        selected = get_rules(rules) if rules is not None else None
        return lint_source(textwrap.dedent(source), path="<test>", rules=selected)

    return _lint
