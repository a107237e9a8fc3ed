"""Per-module analysis context: comments, annotations, scopes, suppressions.

The analyzer's codebase-specific knowledge travels in two comment grammars:

* ``# repro-lint: disable=<rule>[,<rule>...]`` — suppress findings of the
  named rules (or ``all``) on the comment's line; a comment that stands
  alone on its line suppresses the next source line instead.
  ``# repro-lint: disable-file=<rule>[,...]`` suppresses for the whole file.

* ``# repro: index-space: <entry>[, <entry>...]`` — declare the index
  space of names for the enclosing scope.  Each entry is one of

  - ``name=global`` / ``name=local`` — the *values* of ``name`` are ids in
    that space (e.g. ``targets=global``: an array of global vertex ids);
  - ``name[global]`` / ``name[local]`` — ``name`` is an array *indexed by*
    ids of that space (e.g. ``dist[local]``: positions are owned-local
    slots);
  - ``name[domain]=space`` — both at once (e.g. ``owned[local]=global``:
    the owned list maps local slots to global ids).

  Dotted names are allowed; ``self.x`` entries attach to the enclosing
  *class* (visible in every method), bare names to the enclosing function,
  and module-level annotations to the whole file.

* ``# repro: wire-path`` — mark the enclosing function as one whose
  byte-for-byte output order defines wire content; the determinism pack
  requires stable sorts there.

* ``# repro: shared-ro: <name>[, <name>...]`` — declare that the named
  arrays are shared *by identity* across rank objects and must stay
  read-only inside rank task methods (the ``shm`` pack flags writes).
  ``self.x`` entries attach to the enclosing class, like index-space.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field

__all__ = [
    "GLOBAL",
    "LOCAL",
    "Annotations",
    "LintModule",
    "ScopeIndex",
    "Suppressions",
    "parse_module",
]

GLOBAL = "global"
LOCAL = "local"

_SUPPRESS_RE = re.compile(r"#\s*repro-lint:\s*(disable(?:-file)?)\s*=\s*([\w,\-\s]+)")
_ANNOTATION_RE = re.compile(r"#\s*repro:\s*index-space:\s*(.+)$")
_WIRE_PATH_RE = re.compile(r"#\s*repro:\s*wire-path\b")
_SHARED_RO_RE = re.compile(r"#\s*repro:\s*shared-ro:\s*(.+)$")
_ENTRY_RE = re.compile(
    r"^(?P<name>[A-Za-z_][\w.]*)"
    r"(?:\[(?P<domain>global|local)\])?"
    r"(?:\s*=\s*(?P<space>global|local))?$"
)


def _extract_comments(source: str) -> list[tuple[int, int, str, bool]]:
    """``(line, col, text, standalone)`` for every comment token.

    ``standalone`` is True when the comment is the only content on its
    line.  Tokenization errors (the file may be mid-edit) degrade to an
    empty list rather than failing the whole lint run.
    """
    out: list[tuple[int, int, str, bool]] = []
    lines = source.splitlines()
    try:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type != tokenize.COMMENT:
                continue
            line, col = tok.start
            before = lines[line - 1][:col] if line - 1 < len(lines) else ""
            out.append((line, col, tok.string, not before.strip()))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        pass
    return out


class Suppressions:
    """Which rules are silenced where, parsed from ``repro-lint`` comments."""

    def __init__(self, comments: list[tuple[int, int, str, bool]]) -> None:
        self.file_wide: set[str] = set()
        self.by_line: dict[int, set[str]] = {}
        for line, _col, text, standalone in comments:
            m = _SUPPRESS_RE.search(text)
            if not m:
                continue
            kind, names = m.group(1), m.group(2)
            rules = {r.strip() for r in names.split(",") if r.strip()}
            if kind == "disable-file":
                self.file_wide |= rules
            else:
                # A standalone comment guards the line below it.
                target = line + 1 if standalone else line
                self.by_line.setdefault(target, set()).update(rules)

    def is_suppressed(self, rule: str, line: int) -> bool:
        for active in (self.file_wide, self.by_line.get(line, ())):
            if rule in active or "all" in active:
                return True
        return False


@dataclass
class _Scope:
    """One lexical scope: the module, a class body, or a function body."""

    node: ast.AST
    kind: str  # "module" | "class" | "function"
    start: int
    end: int
    parent: int | None
    value_space: dict[str, str] = field(default_factory=dict)
    index_domain: dict[str, str] = field(default_factory=dict)
    shared_ro: set[str] = field(default_factory=set)
    wire_path: bool = False


class ScopeIndex:
    """Lexical scopes by line, for attaching annotations and lookups."""

    def __init__(self, tree: ast.Module) -> None:
        self.scopes: list[_Scope] = [
            _Scope(tree, "module", 1, 10**9, None)
        ]
        self._build(tree, 0)

    def _build(self, node: ast.AST, parent: int) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                kind = "class" if isinstance(child, ast.ClassDef) else "function"
                scope = _Scope(
                    child,
                    kind,
                    child.lineno,
                    getattr(child, "end_lineno", child.lineno),
                    parent,
                )
                self.scopes.append(scope)
                self._build(child, len(self.scopes) - 1)
            else:
                self._build(child, parent)

    def innermost(self, line: int, kinds: tuple[str, ...] = ("module", "class", "function")) -> int:
        """Index of the narrowest scope of one of ``kinds`` containing ``line``."""
        best = 0
        best_span = 10**9
        for i, s in enumerate(self.scopes):
            if s.kind in kinds and s.start <= line <= s.end:
                span = s.end - s.start
                if span <= best_span:
                    best, best_span = i, span
        return best

    def chain(self, idx: int) -> list[_Scope]:
        """The scope and its ancestors, innermost first."""
        out = []
        cur: int | None = idx
        while cur is not None:
            out.append(self.scopes[cur])
            cur = self.scopes[cur].parent
        return out


class Annotations:
    """Index-space and wire-path declarations resolved onto scopes."""

    def __init__(
        self,
        scopes: ScopeIndex,
        comments: list[tuple[int, int, str, bool]],
    ) -> None:
        self.scopes = scopes
        for line, _col, text, _standalone in comments:
            if _WIRE_PATH_RE.search(text):
                idx = scopes.innermost(line, kinds=("function",))
                if scopes.scopes[idx].kind == "function":
                    scopes.scopes[idx].wire_path = True
                continue
            sm = _SHARED_RO_RE.search(text)
            if sm:
                for raw in sm.group(1).split(","):
                    name = raw.strip()
                    if not name:
                        continue
                    # Same attachment rule as index-space entries.
                    if name.startswith("self."):
                        idx = scopes.innermost(line, kinds=("module", "class"))
                    else:
                        idx = scopes.innermost(line)
                    scopes.scopes[idx].shared_ro.add(name)
                continue
            m = _ANNOTATION_RE.search(text)
            if not m:
                continue
            for raw in m.group(1).split(","):
                entry = raw.strip()
                if not entry:
                    continue
                em = _ENTRY_RE.match(entry)
                if em is None:
                    continue  # malformed entries are inert, not fatal
                name = em.group("name")
                # ``self.x`` tags belong to the class so every method sees
                # them; plain names to the innermost function; at module
                # level everything lands on the module scope.
                if name.startswith("self."):
                    idx = scopes.innermost(line, kinds=("module", "class"))
                else:
                    idx = scopes.innermost(line)
                scope = scopes.scopes[idx]
                if em.group("domain"):
                    scope.index_domain[name] = em.group("domain")
                if em.group("space"):
                    scope.value_space[name] = em.group("space")

    def value_space_of(self, name: str, scope_idx: int) -> str | None:
        for scope in self.scopes.chain(scope_idx):
            if name in scope.value_space:
                return scope.value_space[name]
        return None

    def index_domain_of(self, name: str, scope_idx: int) -> str | None:
        for scope in self.scopes.chain(scope_idx):
            if name in scope.index_domain:
                return scope.index_domain[name]
        return None

    def is_wire_path(self, scope_idx: int) -> bool:
        return self.scopes.scopes[scope_idx].wire_path

    def is_shared_ro(self, name: str, scope_idx: int) -> bool:
        return any(
            name in scope.shared_ro for scope in self.scopes.chain(scope_idx)
        )

    def has_shared_ro(self, scope_idx: int) -> bool:
        """Does any enclosing scope declare shared read-only arrays?"""
        return any(scope.shared_ro for scope in self.scopes.chain(scope_idx))


@dataclass
class LintModule:
    """Everything the rules need to know about one source file."""

    path: str
    source: str
    tree: ast.Module
    scopes: ScopeIndex
    annotations: Annotations
    suppressions: Suppressions

    @property
    def functions(self) -> list[tuple[int, ast.AST]]:
        """(scope index, node) of every function scope in the file."""
        return [
            (i, s.node)
            for i, s in enumerate(self.scopes.scopes)
            if s.kind == "function"
        ]


def parse_module(path: str, source: str) -> LintModule:
    """Parse one file into a :class:`LintModule` (raises ``SyntaxError``)."""
    tree = ast.parse(source, filename=path)
    comments = _extract_comments(source)
    scopes = ScopeIndex(tree)
    annotations = Annotations(scopes, comments)
    return LintModule(
        path=path,
        source=source,
        tree=tree,
        scopes=scopes,
        annotations=annotations,
        suppressions=Suppressions(comments),
    )
