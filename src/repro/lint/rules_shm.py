"""Shared-memory rule pack: arena-view lifetimes, wire handles, phases.

PR 8's zero-copy transport made three ownership contracts load-bearing
that no type annotation can see:

* an ``np.frombuffer`` view of an arena borrows the arena's lifetime —
  returning or storing one without ``.copy()`` leaves a pointer into a
  buffer that the next flip, spill, or ``close()`` invalidates;
* a ``team.call(...)`` result may hold wire handles into the producing
  worker's *double-buffered* out arena (the process team parks every
  reply that holds a wire) — it survives exactly one more ``call`` on
  the same team, so holding it across a later call and then reading it
  is a stale-view race;
* rank task methods run concurrently under ``parallel=True`` (thread
  backend) or in forked workers (process backend) — mutating state
  shared across rank objects, or module globals, is either a data race
  or a silently-lost write depending on the backend;
* :class:`~repro.engine.protocol.Kernel` hooks have a phase contract:
  ``frontier_from``/``vote``/``export_state`` are pure readouts, and
  ``gen_messages``/``gen_settled`` and ``apply_messages`` must write
  *disjoint* state keys —
  a key written from both phases is applied twice per exchange round on
  the fused path.  The one sanctioned overlap is a shared fold: a key
  that ``apply_messages`` writes only inside a helper the generate hook
  also runs (a generate hook folding owned records in place early).
  Writes count wherever they happen: in the hook, through a local alias
  (``x = state["k"]``) or a view of one, or in a ``self`` method the
  hook passes the state to.

Like the ``index`` pack, inference is conservative: the view-escape rule
only marks functions whose return is *unconditionally* a raw view (a
``view.copy() if copy else view`` helper is a documented dual-mode API,
not a leak), and the stale-handle rule counts passing the handle to any
call — including the invalidating ``team.call`` itself — as consumption.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.lint.context import LintModule, Rule, name_key, scatter_target, walk_statements

__all__ = ["RULES", "scan"]

VIEW_ESCAPE = Rule(
    "shm-view-escape",
    "shm",
    "np.frombuffer arena view escapes the producing call "
    "(returned or stored without .copy())",
)
STALE_LAZY_HANDLE = Rule(
    "shm-stale-lazy-handle",
    "shm",
    "team call(...) result read after a later call on the same "
    "team may have recycled its out-arena",
)
PARALLEL_SHARED_MUTATION = Rule(
    "shm-parallel-shared-mutation",
    "shm",
    "rank task method writes a shared-ro array or a module global "
    "(cross-rank race under parallel=True)",
)
KERNEL_PHASE = Rule(
    "shm-kernel-phase",
    "shm",
    "Kernel hook touches state outside its phase (pure-readout "
    "write, or gen/apply writing the same key)",
)
RULES = (VIEW_ESCAPE, STALE_LAZY_HANDLE, PARALLEL_SHARED_MUTATION, KERNEL_PHASE)

#: ndarray methods that mutate the receiver in place.
_MUTATOR_METHODS = ("fill", "sort", "put", "partition", "resize", "setfield")


#: Kernel hooks that must not write state at all (pure readouts).
_PURE_HOOKS = ("frontier_from", "vote", "stat", "export_state")

#: The generate and apply hooks of one round: what the generate hook
#: writes, the apply hook must not.  ``gen_settled`` is the optional
#: closing-pass generate hook; ``gen_gather`` / ``apply_gathered`` are the
#: optional gather pass.
_GEN_HOOK = "gen_messages"
_APPLY_HOOK = "apply_messages"
_ROUNDS = ((_GEN_HOOK, _APPLY_HOOK), ("gen_settled", _APPLY_HOOK), ("gen_gather", "apply_gathered"))


def _is_raw_view_call(expr: ast.AST) -> bool:
    """Is ``expr`` literally ``np.frombuffer(...)`` (no ``.copy()``)?"""
    return (
        isinstance(expr, ast.Call)
        and name_key(expr.func) in ("np.frombuffer", "numpy.frombuffer")
    )


def _writes(func: ast.AST) -> Iterator[tuple[ast.AST, ast.AST]]:
    """``(node, written)`` for every write in ``func``: each assignment
    target, and the array an in-place call mutates (a scatter's first
    argument, or the receiver of a mutator method)."""
    for node in ast.walk(func):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                yield node, target
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            yield node, node.target
        elif isinstance(node, ast.Call):
            arg0 = scatter_target(node)
            if arg0 is not None:
                yield node, arg0
            elif (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _MUTATOR_METHODS
            ):
                yield node, node.func.value


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
        walk_statements(getattr(self.func, "body", []), self._statement)
        return self.out

    def _statement(self, stmt: ast.stmt) -> None:
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
    scan.run()  # populate `raw` bindings
    return all(scan._is_raw(r.value) for r in returns)


# -- shm-stale-lazy-handle ---------------------------------------------------


class _HandleScan:
    """Flow-ordered wire-handle lifetime tracking in one function.

    A name bound to ``<team>.call(...)`` is *pending* until
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
    def _call_receiver(expr: ast.AST) -> str | None:
        if not (
            isinstance(expr, ast.Call)
            and isinstance(expr.func, ast.Attribute)
            and expr.func.attr == "call"
        ):
            return None
        return name_key(expr.func.value)

    def _uses(self, node: ast.AST) -> None:
        for sub in ast.walk(node):
            if not isinstance(sub, ast.Name):
                continue
            if not isinstance(sub.ctx, ast.Load):
                continue
            if sub.id in self.stale:
                recv, line = self.stale.pop(sub.id)
                self.out.append((
                    sub,
                    f"call result {sub.id!r} is read after a later "
                    f"{recv}.call(...) (line {line}) may have recycled its "
                    f"out-arena buffer; materialize (use or .copy()) the "
                    f"result before the next call on the same team",
                ))
            self.pending.pop(sub.id, None)

    def _invalidate(self, node: ast.AST) -> None:
        for sub in ast.walk(node):
            recv = self._call_receiver(sub)
            if recv is None:
                continue
            for name, pend_recv in list(self.pending.items()):
                if pend_recv == recv:
                    del self.pending[name]
                    self.stale[name] = (recv, sub.lineno)

    def _statement(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            recv = self._call_receiver(stmt.value)
            # Arguments are evaluated before the call recycles anything.
            self._consume(stmt.value)
            for target in stmt.targets:
                key = name_key(target)
                if key is None or "." in key:
                    continue
                self.pending.pop(key, None)
                self.stale.pop(key, None)
                if recv is not None:
                    self.pending[key] = recv
        else:
            self._consume(stmt)

    def _consume(self, node: ast.AST) -> None:
        """Read every name in ``node``, then let its calls recycle arenas."""
        self._uses(node)
        self._invalidate(node)

    def run(self) -> list[tuple[ast.AST, str]]:
        walk_statements(
            getattr(self.func, "body", []), self._statement, header=self._consume
        )
        return self.out


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

    for node, target in _writes(func):
        if isinstance(node, ast.Call):
            key = shared(target)
            if key is not None:
                what = (
                    name_key(node.func)
                    if scatter_target(node) is not None
                    else f".{node.func.attr}"
                )
                yield (
                    node,
                    f"{what}() mutates shared-ro {key} in place; under "
                    f"parallel=True this races with the other rank tasks",
                )
        elif isinstance(node, ast.AugAssign):
            base = target.value if isinstance(target, ast.Subscript) else target
            key = shared(base)
            if key is not None:
                yield (
                    node,
                    f"in-place update of shared-ro {key}; under "
                    f"parallel=True this races with the other rank tasks",
                )
        elif isinstance(target, ast.Subscript):
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
    if in_init or not ann.has_shared_ro(scope_idx):
        return
    for node in ast.walk(func):
        if isinstance(node, ast.Global):
            yield (
                node,
                f"rank task method declares global {', '.join(node.names)}; "
                f"module globals are shared across thread-backend rank "
                f"tasks (a race) and silently fork-local on the process "
                f"backend (a lost write)",
            )


# -- shm-kernel-phase --------------------------------------------------------


def _state_param(func: ast.AST | None) -> str | None:
    """The hook's state argument; None for a missing hook or no argument."""
    args = getattr(getattr(func, "args", None), "args", [])
    names = [a.arg for a in args]
    if names and names[0] == "self":
        names = names[1:]
    return names[0] if names else None


#: ndarray methods whose result is a view of the receiver.
_VIEW_METHODS = ("reshape", "ravel", "view")


def _state_writes(func: ast.AST, state: str) -> Iterator[tuple[ast.AST, str]]:
    """(node, key) of every write to ``state[...]`` in a kernel hook, made
    directly or through a local alias (``x = state["k"]``) or a view of
    either.

    Unknown keys (non-constant subscripts) report as ``"?"``.
    """
    aliases: dict[str, str] = {}

    def keyed(expr: ast.AST) -> str | None:
        """``state["k"]`` → ``k`` when ``expr`` is (a view of) the state
        entry or of an alias of it."""
        while (
            isinstance(expr, ast.Call)
            and isinstance(expr.func, ast.Attribute)
            and expr.func.attr in _VIEW_METHODS
        ):
            expr = expr.func.value
        if isinstance(expr, ast.Name):
            return aliases.get(expr.id)
        if not (
            isinstance(expr, ast.Subscript)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == state
        ):
            return None
        if isinstance(expr.slice, ast.Constant) and isinstance(expr.slice.value, str):
            return expr.slice.value
        return "?"

    for node in ast.walk(func):
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Subscript)
        ):
            key = keyed(node.value)
            if key is not None:
                aliases[node.targets[0].id] = key
    for node, target in _writes(func):
        if isinstance(target, ast.Name) and not isinstance(node, (ast.AugAssign, ast.Call)):
            continue  # rebinding a name writes no array
        key = keyed(target)
        if key is None and isinstance(target, ast.Subscript) and not isinstance(node, ast.Call):
            key = keyed(target.value)  # state["x"][idx] = ...
        if key is not None:
            yield node, key


def _hook_writes(
    methods: dict[str, ast.AST], name: str, seen: tuple[str, ...] = ()
) -> Iterator[tuple[ast.AST, str, tuple[str, ...]]]:
    """(node, key, via) of every state write of method ``name``: its own,
    and those of the ``self.helper(...)`` calls it passes the state to,
    transitively.  ``via`` names the helpers the write sits in, outermost
    first (empty for the method's own writes)."""
    func = methods.get(name)
    state = _state_param(func)
    if state is None:
        return
    for node, key in _state_writes(func, state):
        yield node, key, seen
    for call in ast.walk(func):
        if not (
            isinstance(call, ast.Call)
            and isinstance(call.func, ast.Attribute)
            and isinstance(call.func.value, ast.Name)
            and call.func.value.id == "self"
            and call.func.attr in methods
            and call.func.attr != name
            and call.func.attr not in seen
        ):
            continue
        passes = any(isinstance(a, ast.Name) and a.id == state for a in call.args)
        passes |= any(
            isinstance(k.value, ast.Name) and k.value.id == state for k in call.keywords
        )
        if passes:
            helper = call.func.attr
            yield from _hook_writes(methods, helper, (*seen, helper))


def _kernel_phase_findings(module: LintModule) -> Iterator[tuple[ast.AST, str]]:
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        methods = {
            item.name: item
            for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        if _GEN_HOOK not in methods or _APPLY_HOOK not in methods:
            continue  # duck-typed Kernel detection
        for hook_name in _PURE_HOOKS:
            for write, key, via in _hook_writes(methods, hook_name):
                yield (
                    write,
                    f"{hook_name}() is a pure readout by the Kernel "
                    f"contract but writes state[{key!r}]{_via(via)}; on the "
                    f"fused path it runs as a stat served between supersteps "
                    f"— move the write into gen_messages/apply_messages",
                )
        for gen_name, apply_name in _ROUNDS:
            gen_writes = list(_hook_writes(methods, gen_name))
            # The helpers a generate hook runs; a key that apply writes
            # only inside them is a fold the generate hook applies early.
            reached = {helper for _, _, via in gen_writes for helper in via}
            apply_writes = _hook_writes(methods, apply_name)
            own = {key for _, key, via in apply_writes if not (via and via[-1] in reached)}
            for write, key, via in gen_writes:
                if key in own:
                    yield (
                        write,
                        f"{gen_name}() writes state[{key!r}]{_via(via)}, "
                        f"which {apply_name}() also writes outside the "
                        f"fold the two share; the phases run in the same "
                        f"round, so the key is updated twice per "
                        f"superstep — own each key from exactly one phase",
                    )


def _via(helpers: tuple[str, ...]) -> str:
    """`` (via self.a() → self.b())`` for a write reached through helpers."""
    if not helpers:
        return ""
    return " (via " + " → ".join(f"self.{h}()" for h in helpers) + ")"


# -- the pack ----------------------------------------------------------------


def scan(module: LintModule) -> Iterator[tuple[Rule, ast.AST, str]]:
    """Yield ``(rule, node, message)`` for every shm finding."""
    view_returning = {
        getattr(func, "name", "")
        for _idx, func in module.functions
        if _returns_raw_view(func)
    }
    for scope_idx, func in module.functions:
        for node, message in _ViewScan(func, view_returning).run():
            yield VIEW_ESCAPE, node, message
        for node, message in _HandleScan(func).run():
            yield STALE_LAZY_HANDLE, node, message
        for node, message in _shared_writes(module, scope_idx, func):
            yield PARALLEL_SHARED_MUTATION, node, message
    for node, message in _kernel_phase_findings(module):
        yield KERNEL_PHASE, node, message
