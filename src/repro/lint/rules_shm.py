"""Shared-memory rule pack: arena-view lifetimes, lazy handles, phases.

PR 8's zero-copy transport made three ownership contracts load-bearing
that no type annotation can see:

* an ``np.frombuffer`` view of an arena borrows the arena's lifetime —
  returning or storing one without ``.copy()`` leaves a pointer into a
  buffer that the next flip, spill, or ``close()`` invalidates;
* a ``team.call(..., lazy=True)`` result is a handle into the producing
  worker's *double-buffered* out arena — it survives exactly one more
  ``call`` on the same team, so holding it across a later call and then
  reading it is a stale-view race;
* rank task methods run concurrently under ``parallel=True`` (thread
  backend) or in forked workers (process backend) — mutating state
  shared across rank objects, or module globals, is either a data race
  or a silently-lost write depending on the backend;
* :class:`~repro.engine.protocol.Kernel` hooks have a phase contract:
  ``frontier_from``/``vote``/``export_state`` are pure readouts, and
  ``gen_messages``/``gen_settled`` and ``apply_messages`` must write
  *disjoint* state keys —
  a key written from both phases is applied twice per exchange round on
  the fused path.

Like the ``index`` pack, inference is conservative: the view-escape rule
only marks functions whose return is *unconditionally* a raw view (a
``view.copy() if copy else view`` helper is a documented dual-mode API,
not a leak), and the stale-handle rule counts passing the handle to any
call — including the invalidating ``team.call`` itself — as consumption.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.lint.context import LintModule
from repro.lint.findings import Finding
from repro.lint.registry import Rule, register
from repro.lint.rules_index import name_key

__all__: list[str] = []

#: ndarray methods that mutate the receiver in place.
_MUTATOR_METHODS = ("fill", "sort", "put", "partition", "resize", "setfield")

#: Calls that mutate their first positional argument in place.
_MUTATOR_CALLS = ("scatter_min",)
_MUTATOR_UFUNC_AT = (
    "np.minimum.at", "np.maximum.at", "np.add.at", "np.subtract.at",
)

#: Kernel hooks that must not write state at all (pure readouts).
_PURE_HOOKS = ("frontier_from", "vote", "export_state")

#: The exchange-phase hooks: what a generate hook writes, apply must not.
#: ``gen_settled`` is the optional closing-pass generate hook.
_GEN_HOOK = "gen_messages"
_GEN_HOOKS = (_GEN_HOOK, "gen_settled")
_APPLY_HOOK = "apply_messages"


def _is_raw_view_call(expr: ast.AST) -> bool:
    """Is ``expr`` literally ``np.frombuffer(...)`` (no ``.copy()``)?"""
    return (
        isinstance(expr, ast.Call)
        and name_key(expr.func) in ("np.frombuffer", "numpy.frombuffer")
    )


def _mutator_arg0(node: ast.Call) -> ast.AST | None:
    """First argument of an in-place mutating call, else None."""
    fkey = name_key(node.func)
    if fkey is None or not node.args:
        return None
    if fkey.rsplit(".", 1)[-1] in _MUTATOR_CALLS or fkey in _MUTATOR_UFUNC_AT:
        return node.args[0]
    return None


# -- shm-view-escape ---------------------------------------------------------


class _ViewScan:
    """Per-function raw-view tracking: which names hold uncopied views."""

    def __init__(self, func: ast.AST, view_returning: set[str]) -> None:
        self.func = func
        self.view_returning = view_returning  # module-local producer names
        self.raw: set[str] = set()
        self.out: list[tuple[ast.AST, str]] = []

    def _is_raw(self, expr: ast.AST) -> bool:
        if _is_raw_view_call(expr):
            return True
        if isinstance(expr, ast.Name) and expr.id in self.raw:
            return True
        if isinstance(expr, ast.Call):
            fkey = name_key(expr.func)
            if fkey is not None and fkey.rsplit(".", 1)[-1] in self.view_returning:
                return True
        if isinstance(expr, ast.IfExp):
            # Both branches must be raw — `view.copy() if copy else view`
            # is a dual-mode helper, not an escape.
            return self._is_raw(expr.body) and self._is_raw(expr.orelse)
        return False

    def run(self) -> list[tuple[ast.AST, str]]:
        self._block(getattr(self.func, "body", []))
        return self.out

    def _block(self, stmts: list[ast.stmt]) -> None:
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if isinstance(stmt, ast.Assign):
                raw = self._is_raw(stmt.value)
                for target in stmt.targets:
                    key = name_key(target)
                    if key is None:
                        continue
                    if "." in key:
                        if raw:
                            self.out.append((
                                stmt,
                                f"arena-backed np.frombuffer view stored on "
                                f"{key}; the view outlives the producing "
                                f"call's buffer — store a .copy() instead",
                            ))
                    elif raw:
                        self.raw.add(key)
                    else:
                        self.raw.discard(key)
            elif isinstance(stmt, ast.Return) and stmt.value is not None:
                if self._is_raw(stmt.value):
                    self.out.append((
                        stmt,
                        "returns a raw np.frombuffer view of an arena "
                        "buffer; the caller outlives the buffer — return "
                        "a .copy() (or keep the view private)",
                    ))
            elif isinstance(stmt, ast.If):
                self._block(stmt.body)
                self._block(stmt.orelse)
            elif isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
                self._block(stmt.body)
                self._block(stmt.orelse)
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                self._block(stmt.body)
            elif isinstance(stmt, ast.Try):
                self._block(stmt.body)
                for handler in stmt.handlers:
                    self._block(handler.body)
                self._block(stmt.orelse)
                self._block(stmt.finalbody)


def _returns_raw_view(func: ast.AST) -> bool:
    """Every return path of ``func`` that returns a value is a raw view.

    A function with *any* non-view return (or a conditional copy) is a
    dual-mode helper and stays unmarked; marking requires at least one
    return and all of them raw.
    """
    returns = [
        node for node in ast.walk(func)
        if isinstance(node, ast.Return) and node.value is not None
    ]
    if not returns:
        return False
    scan = _ViewScan(func, set())
    scan._block(getattr(func, "body", []))  # populate `raw` bindings
    return all(scan._is_raw(r.value) for r in returns)


# -- shm-stale-lazy-handle ---------------------------------------------------


class _LazyScan:
    """Flow-ordered lazy-handle lifetime tracking in one function.

    A name bound to ``<team>.call(..., lazy=True)`` is *pending* until
    its first use (any load, including being passed onward — ownership
    transfers).  A subsequent ``<team>.call`` on the same receiver while
    still pending marks it *stale*; a use after that is the finding.
    """

    def __init__(self, func: ast.AST) -> None:
        self.func = func
        self.pending: dict[str, str] = {}  # name -> receiver key
        self.stale: dict[str, tuple[str, int]] = {}  # name -> (recv, call line)
        self.out: list[tuple[ast.AST, str]] = []

    @staticmethod
    def _lazy_call_receiver(expr: ast.AST) -> str | None:
        if not (
            isinstance(expr, ast.Call)
            and isinstance(expr.func, ast.Attribute)
            and expr.func.attr == "call"
        ):
            return None
        lazy = any(
            kw.arg == "lazy"
            and isinstance(kw.value, ast.Constant)
            and kw.value.value is True
            for kw in expr.keywords
        )
        return name_key(expr.func.value) if lazy else None

    def _uses(self, node: ast.AST, skip: ast.AST | None = None) -> None:
        for sub in ast.walk(node):
            if sub is skip or not isinstance(sub, ast.Name):
                continue
            if not isinstance(sub.ctx, ast.Load):
                continue
            if sub.id in self.stale:
                recv, line = self.stale.pop(sub.id)
                self.out.append((
                    sub,
                    f"lazy handle {sub.id!r} is read after a later "
                    f"{recv}.call(...) (line {line}) may have recycled its "
                    f"out-arena buffer; materialize (use or .copy()) the "
                    f"handle before the next call on the same team",
                ))
            self.pending.pop(sub.id, None)

    def _invalidate(self, node: ast.AST) -> None:
        for sub in ast.walk(node):
            if not (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)
                and sub.func.attr == "call"
            ):
                continue
            recv = name_key(sub.func.value)
            if recv is None:
                continue
            for name, pend_recv in list(self.pending.items()):
                if pend_recv == recv:
                    del self.pending[name]
                    self.stale[name] = (recv, sub.lineno)

    def _statement(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            recv = self._lazy_call_receiver(stmt.value)
            # Arguments are evaluated before the call recycles anything.
            self._uses(stmt.value)
            self._invalidate(stmt.value)
            for target in stmt.targets:
                key = name_key(target)
                if key is None or "." in key:
                    continue
                self.pending.pop(key, None)
                self.stale.pop(key, None)
                if recv is not None:
                    self.pending[key] = recv
        else:
            self._uses(stmt)
            self._invalidate(stmt)

    def run(self) -> list[tuple[ast.AST, str]]:
        self._block(getattr(self.func, "body", []))
        return self.out

    def _block(self, stmts: list[ast.stmt]) -> None:
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if isinstance(stmt, ast.If):
                self._uses(stmt.test)
                self._invalidate(stmt.test)
                self._block(stmt.body)
                self._block(stmt.orelse)
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                self._uses(stmt.iter)
                self._invalidate(stmt.iter)
                self._block(stmt.body)
                self._block(stmt.orelse)
            elif isinstance(stmt, ast.While):
                self._uses(stmt.test)
                self._invalidate(stmt.test)
                self._block(stmt.body)
                self._block(stmt.orelse)
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                for item in stmt.items:
                    self._uses(item.context_expr)
                    self._invalidate(item.context_expr)
                self._block(stmt.body)
            elif isinstance(stmt, ast.Try):
                self._block(stmt.body)
                for handler in stmt.handlers:
                    self._block(handler.body)
                self._block(stmt.orelse)
                self._block(stmt.finalbody)
            else:
                self._statement(stmt)


# -- shm-parallel-shared-mutation --------------------------------------------


def _shared_writes(
    module: LintModule, scope_idx: int, func: ast.AST
) -> Iterator[tuple[ast.AST, str]]:
    """Writes to ``# repro: shared-ro:`` names inside rank task methods."""
    ann = module.annotations
    in_init = getattr(func, "name", "") == "__init__"

    def shared(expr: ast.AST) -> str | None:
        key = name_key(expr)
        if key is not None and ann.is_shared_ro(key, scope_idx):
            return key
        return None

    for node in ast.walk(func):
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Subscript):
                    key = shared(target.value)
                    if key is not None:
                        yield (
                            node,
                            f"{key} is declared shared-ro (one array aliased "
                            f"by every rank) but is written by element here; "
                            f"under parallel=True this is a cross-rank data "
                            f"race — give each rank its own copy",
                        )
                elif not in_init:
                    key = shared(target)
                    if key is not None:
                        yield (
                            node,
                            f"{key} is declared shared-ro but is rebound "
                            f"outside __init__; the sharing contract no "
                            f"longer holds for this rank",
                        )
        elif isinstance(node, ast.AugAssign):
            target = node.target
            base = target.value if isinstance(target, ast.Subscript) else target
            key = shared(base)
            if key is not None:
                yield (
                    node,
                    f"in-place update of shared-ro {key}; under "
                    f"parallel=True this races with the other rank tasks",
                )
        elif isinstance(node, ast.Call):
            arg0 = _mutator_arg0(node)
            if arg0 is not None:
                key = shared(arg0)
                if key is not None:
                    yield (
                        node,
                        f"{name_key(node.func)}() mutates shared-ro {key} "
                        f"in place; under parallel=True this races with "
                        f"the other rank tasks",
                    )
            elif (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _MUTATOR_METHODS
            ):
                key = shared(node.func.value)
                if key is not None:
                    yield (
                        node,
                        f".{node.func.attr}() mutates shared-ro {key} in "
                        f"place; under parallel=True this races with the "
                        f"other rank tasks",
                    )
        elif isinstance(node, ast.Global) and not in_init:
            if ann.has_shared_ro(scope_idx):
                yield (
                    node,
                    f"rank task method declares global {', '.join(node.names)}; "
                    f"module globals are shared across thread-backend rank "
                    f"tasks (a race) and silently fork-local on the process "
                    f"backend (a lost write)",
                )


# -- shm-kernel-phase --------------------------------------------------------


def _state_param(func: ast.AST) -> str | None:
    args = getattr(getattr(func, "args", None), "args", [])
    names = [a.arg for a in args]
    if names and names[0] == "self":
        names = names[1:]
    return names[0] if names else None


def _state_writes(func: ast.AST, state: str) -> list[tuple[ast.AST, str]]:
    """(node, key) of every write to ``state[...]`` in a kernel hook.

    Unknown keys (non-constant subscripts) report as ``"?"``.
    """

    def keyed(expr: ast.AST) -> str | None:
        """``state["k"]`` → ``k`` when ``expr`` subscripts the state dict."""
        if not (
            isinstance(expr, ast.Subscript)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == state
        ):
            return None
        if isinstance(expr.slice, ast.Constant) and isinstance(expr.slice.value, str):
            return expr.slice.value
        return "?"

    out: list[tuple[ast.AST, str]] = []
    for node in ast.walk(func):
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                key = keyed(target)
                if key is None and isinstance(target, ast.Subscript):
                    key = keyed(target.value)  # state["x"][idx] = ...
                if key is not None:
                    out.append((node, key))
        elif isinstance(node, ast.AugAssign):
            target = node.target
            key = keyed(target)
            if key is None and isinstance(target, ast.Subscript):
                key = keyed(target.value)
            if key is not None:
                out.append((node, key))
        elif isinstance(node, ast.Call):
            arg0 = _mutator_arg0(node)
            if arg0 is not None:
                key = keyed(arg0)
                if key is not None:
                    out.append((node, key))
            elif (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _MUTATOR_METHODS
            ):
                key = keyed(node.func.value)
                if key is not None:
                    out.append((node, key))
    return out


def _kernel_phase_findings(module: LintModule) -> list[tuple[ast.AST, str]]:
    out: list[tuple[ast.AST, str]] = []
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        hooks = {
            item.name: item
            for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        if _GEN_HOOK not in hooks or _APPLY_HOOK not in hooks:
            continue  # duck-typed Kernel detection
        for hook_name in _PURE_HOOKS:
            hook = hooks.get(hook_name)
            if hook is None:
                continue
            state = _state_param(hook)
            if state is None:
                continue
            for write, key in _state_writes(hook, state):
                out.append((
                    write,
                    f"{hook_name}() is a pure readout by the Kernel "
                    f"contract but writes {state}[{key!r}]; on the fused "
                    f"path it runs as a stat served between supersteps — "
                    f"move the write into gen_messages/apply_messages",
                ))
        apply_state = _state_param(hooks[_APPLY_HOOK])
        if apply_state is None:
            continue
        apply_keys = {k for _, k in _state_writes(hooks[_APPLY_HOOK], apply_state)}
        for gen_name in _GEN_HOOKS:
            gen = hooks.get(gen_name)
            gen_state = _state_param(gen) if gen is not None else None
            if gen_state is None:
                continue
            for write, key in _state_writes(gen, gen_state):
                if key in apply_keys:
                    out.append((
                        write,
                        f"{gen_name}() writes {gen_state}[{key!r}], which "
                        f"apply_messages() also writes; the phases run in the "
                        f"same exchange round, so the key is updated twice per "
                        f"superstep — own each key from exactly one phase",
                    ))
    return out


# -- the pack ----------------------------------------------------------------


def _scan_module(module: LintModule) -> list[tuple[str, ast.AST, str]]:
    """All shm findings of a module (cached — the four rules share it)."""
    cached = getattr(module, "_shm_scan", None)
    if cached is not None:
        return cached
    cached = []
    view_returning = {
        getattr(func, "name", "")
        for _idx, func in module.functions
        if _returns_raw_view(func)
    }
    for scope_idx, func in module.functions:
        for node, message in _ViewScan(func, view_returning).run():
            cached.append(("shm-view-escape", node, message))
        for node, message in _LazyScan(func).run():
            cached.append(("shm-stale-lazy-handle", node, message))
        for node, message in _shared_writes(module, scope_idx, func):
            cached.append(("shm-parallel-shared-mutation", node, message))
    for node, message in _kernel_phase_findings(module):
        cached.append(("shm-kernel-phase", node, message))
    module._shm_scan = cached  # type: ignore[attr-defined]
    return cached


class _ShmRule(Rule):
    pack = "shm"

    def check(self, module: LintModule) -> Iterator[Finding]:
        for rule_name, node, message in _scan_module(module):
            if rule_name == self.name:
                yield self.finding(module, node, message)


@register
class ShmViewEscape(_ShmRule):
    name = "shm-view-escape"
    description = (
        "np.frombuffer arena view escapes the producing call "
        "(returned or stored without .copy())"
    )


@register
class ShmStaleLazyHandle(_ShmRule):
    name = "shm-stale-lazy-handle"
    description = (
        "lazy call(..., lazy=True) handle read after a later call "
        "on the same team recycled its out-arena"
    )


@register
class ShmParallelSharedMutation(_ShmRule):
    name = "shm-parallel-shared-mutation"
    description = (
        "rank task method writes a shared-ro array or a module global "
        "(cross-rank race under parallel=True)"
    )


@register
class ShmKernelPhase(_ShmRule):
    name = "shm-kernel-phase"
    description = (
        "Kernel hook touches state outside its phase (pure-readout "
        "write, or gen/apply writing the same key)"
    )
