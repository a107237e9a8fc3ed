"""Index-space rule pack: global vertex ids vs. owned-local slots.

PR 3 moved every engine's per-vertex state into owned-local index space;
global ids survive only on the wire, in shared read-only tables
(``owner``), and in :meth:`~repro.engine.rank.Rank.to_local` /
:meth:`~repro.engine.rank.Rank.to_global` translations.  Mixing the two
spaces is silent — both are int64 arrays — so these rules track which
space an expression's *values* are in and which space an array is
*indexed by*, from three sources:

* naming conventions — ``*_local`` / ``local_*`` names hold local ids,
  ``*_global`` / ``global_*`` names hold global ids;
* annotation comments — ``# repro: index-space: dist[local],
  targets=global`` (see :mod:`repro.lint.context`);
* propagation — assignments, subscripting (filtering an id array keeps
  its space), space-preserving numpy calls, and the translators
  themselves (``to_local`` yields local, ``to_global`` yields global).

The inference is deliberately conservative: a finding requires *both*
sides of a mismatch to be known, so unannotated code stays silent.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.lint.context import (
    GLOBAL,
    LOCAL,
    LintModule,
    Rule,
    name_key,
    scatter_target,
    walk_statements,
)

__all__ = ["RULES", "convention_space", "scan"]

GLOBAL_INTO_LOCAL = Rule(
    "index-global-into-local",
    "index",
    "untranslated global vertex ids index an owned-local array "
    "(dist/parent/dist_row-class state)",
)
LOCAL_INTO_GLOBAL = Rule(
    "index-local-into-global",
    "index",
    "owned-local slots index a global-space array or feed a "
    "global-id API (to_local, contains, slots_of, extract_rows, is_hub)",
)
ROUNDTRIP = Rule(
    "index-roundtrip",
    "index",
    "redundant Rank.to_local/to_global translation",
)
RULES = (GLOBAL_INTO_LOCAL, LOCAL_INTO_GLOBAL, ROUNDTRIP)

#: Method names that translate between the spaces, and their output space.
_TRANSLATORS = {"to_local": LOCAL, "to_global": GLOBAL}

#: Methods whose first positional argument must be *global* vertex ids
#: (the DelegateTable / CSRGraph global-space surface).
_GLOBAL_ID_APIS = ("contains", "slots_of", "extract_rows", "is_hub")

#: Calls through which an id array keeps its value space (arg 0).
_SPACE_PRESERVING_NP = ("np.unique", "np.sort", "np.asarray", "np.ascontiguousarray")
_SPACE_PRESERVING_METHODS = ("astype", "copy")


def convention_space(key: str) -> str | None:
    """Space implied by the naming convention, or None."""
    last = key.rsplit(".", 1)[-1]
    for space in (LOCAL, GLOBAL):
        if last == space or last.endswith(f"_{space}") or last.startswith(f"{space}_"):
            return space
    return None


class _FunctionScan:
    """Flow-ordered scan of one function: inference plus mismatch checks.

    ``env`` records spaces established by assignments; names it does not
    hold fall back to annotations, then to the naming convention.  An
    assignment whose right side has unknown space *removes* the name from
    ``env`` (the scope-wide annotation, if any, keeps applying — it is a
    contract, not a snapshot).
    """

    def __init__(self, module: LintModule, scope_idx: int, func: ast.AST) -> None:
        self.module = module
        self.scope_idx = scope_idx
        self.func = func
        self.env: dict[str, str | None] = {}
        self.out: list[tuple[Rule, ast.AST, str]] = []

    # -- space inference ---------------------------------------------------

    def lookup(self, key: str) -> str | None:
        if key in self.env:
            return self.env[key]
        annotated = self.module.annotations.value_space_of(key, self.scope_idx)
        return annotated if annotated is not None else convention_space(key)

    def space_of(self, expr: ast.AST) -> str | None:
        key = name_key(expr)
        if key is not None:
            return self.lookup(key)
        if isinstance(expr, ast.Subscript):
            # Filtering/selecting from an id array keeps its value space
            # (this is also exactly what ``owned[local_ids]`` does).
            return self.space_of(expr.value)
        if isinstance(expr, ast.Call):
            fkey = name_key(expr.func)
            attr = expr.func.attr if isinstance(expr.func, ast.Attribute) else None
            if attr in _TRANSLATORS:
                return _TRANSLATORS[attr]
            if fkey in _SPACE_PRESERVING_NP and expr.args:
                return self.space_of(expr.args[0])
            if attr in _SPACE_PRESERVING_METHODS and isinstance(expr.func, ast.Attribute):
                return self.space_of(expr.func.value)
            return None
        if isinstance(expr, ast.IfExp):
            a, b = self.space_of(expr.body), self.space_of(expr.orelse)
            return a if a == b else None
        return None

    def domain_of(self, expr: ast.AST) -> str | None:
        key = name_key(expr)
        if key is None:
            return None
        return self.module.annotations.index_domain_of(key, self.scope_idx)

    # -- checks ------------------------------------------------------------

    def emit(self, rule: Rule, node: ast.AST, message: str) -> None:
        self.out.append((rule, node, message))

    def check_expr(self, expr: ast.AST | None) -> None:
        if expr is None:
            return
        for node in ast.walk(expr):
            if isinstance(node, ast.Subscript):
                self._check_subscript(node)
            elif isinstance(node, ast.Call):
                self._check_call(node)

    def _mismatch(self, node: ast.AST, array: ast.AST, dom: str | None, space: str | None) -> None:
        what = name_key(array) or "array"
        if dom == LOCAL and space == GLOBAL:
            self.emit(
                GLOBAL_INTO_LOCAL,
                node,
                f"{what} is indexed by owned-local slots but the index "
                f"expression holds global vertex ids; translate with "
                f"Rank.to_local first",
            )
        elif dom == GLOBAL and space == LOCAL:
            self.emit(
                LOCAL_INTO_GLOBAL,
                node,
                f"{what} is indexed by global vertex ids but the index "
                f"expression holds owned-local slots; translate with "
                f"Rank.to_global first",
            )

    def _check_subscript(self, node: ast.Subscript) -> None:
        if not isinstance(node.slice, (ast.Slice, ast.Tuple)):
            self._mismatch(node, node.value, self.domain_of(node.value), self.space_of(node.slice))

    def _check_call(self, node: ast.Call) -> None:
        func = node.func
        attr = func.attr if isinstance(func, ast.Attribute) else None
        arg0 = node.args[0] if node.args else None
        if attr in _TRANSLATORS and arg0 is not None:
            inner_attr = (
                arg0.func.attr
                if isinstance(arg0, ast.Call) and isinstance(arg0.func, ast.Attribute)
                else None
            )
            if inner_attr in _TRANSLATORS and inner_attr != attr:
                self.emit(
                    ROUNDTRIP,
                    node,
                    f"{inner_attr}() immediately wrapped in {attr}() is an "
                    f"identity round trip; drop both translations",
                )
            elif self.space_of(arg0) == _TRANSLATORS[attr]:
                self.emit(
                    ROUNDTRIP,
                    node,
                    f"argument of {attr}() already holds "
                    f"{_TRANSLATORS[attr]}-space ids; the translation is "
                    f"redundant (or the tag is wrong)",
                )
        if attr in _GLOBAL_ID_APIS and arg0 is not None:
            if self.space_of(arg0) == LOCAL:
                self.emit(
                    LOCAL_INTO_GLOBAL,
                    node,
                    f"{attr}() takes global vertex ids but the argument "
                    f"holds owned-local slots; translate with "
                    f"Rank.to_global first",
                )
        # A scatter's index (arg 1) must match the array's index domain.
        if scatter_target(node) is not None and len(node.args) >= 2:
            array, index = node.args[:2]
            self._mismatch(node, array, self.domain_of(array), self.space_of(index))

    # -- statement processing ----------------------------------------------

    def run(self) -> list[tuple[Rule, ast.AST, str]]:
        walk_statements(
            getattr(self.func, "body", []),
            self._statement,
            header=self.check_expr,
            bind=self._clear_target,
        )
        return self.out

    def _clear_target(self, target: ast.AST) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._clear_target(elt)
            return
        key = name_key(target)
        if key is not None:
            self.env.pop(key, None)

    def _assign(self, target: ast.AST, value: ast.AST) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            self._clear_target(target)
            return
        key = name_key(target)
        if key is None:
            return
        space = self.space_of(value)
        if space is None:
            self.env.pop(key, None)
        else:
            self.env[key] = space

    def _statement(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            self.check_expr(stmt.value)
            for t in stmt.targets:
                self.check_expr(t)
                self._assign(t, stmt.value)
        elif isinstance(stmt, ast.AnnAssign):
            self.check_expr(stmt.value)
            self.check_expr(stmt.target)
            if stmt.value is not None:
                self._assign(stmt.target, stmt.value)
        elif isinstance(stmt, ast.AugAssign):
            # In-place mutation does not rebind the name's space.
            self.check_expr(stmt.value)
            self.check_expr(stmt.target)
        else:
            # Return/Expr/Assert/Raise/Delete/...: check every
            # expression they contain.
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self.check_expr(child)


def scan(module: LintModule) -> Iterator[tuple[Rule, ast.AST, str]]:
    """Yield ``(rule, node, message)`` for every index-space finding."""
    for scope_idx, func in module.functions:
        yield from _FunctionScan(module, scope_idx, func).run()
