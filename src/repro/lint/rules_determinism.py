"""Determinism rule pack.

The simulator's promise is bit-identical results for a given seed at any
rank count, and modeled time that never depends on host wall-clock.
Each rule here targets one way that promise silently erodes:

* hidden global RNG state (``np.random.shuffle`` without a Generator);
* iteration over sets feeding anything order-sensitive;
* wall-clock reads (``time.time``) where modeled time belongs
  (``time.perf_counter`` is fine — telemetry measures host cost, it
  never feeds modeled time);
* unstable sorts inside functions marked ``# repro: wire-path``, where
  byte-for-byte output order defines wire content.  Unstable sorts
  elsewhere are allowed — min-reductions erase order on purpose.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.lint.context import LintModule, Rule, is_backend_path, name_key

__all__ = ["RULES", "scan"]

UNSEEDED_RNG = Rule(
    "det-unseeded-rng",
    "det",
    "hidden global RNG state (np.random.* legacy API, random.*, or a "
    "Generator constructed without a seed)",
)
SET_ITERATION = Rule(
    "det-set-iteration",
    "det",
    "iteration over a set literal/constructor — ordering is hash-"
    "dependent; sort first when the order can reach ranks or wire bytes",
)
WALLCLOCK = Rule(
    "det-wallclock",
    "det",
    "wall-clock read (time.time / datetime.now) — modeled time must "
    "come from SimClock; time.perf_counter is allowed for telemetry",
)
PARALLEL_PRIMITIVES = Rule(
    "det-parallel-primitives",
    "det",
    "threading/multiprocessing/concurrent.futures import outside "
    "repro.simmpi.executor — rank code must go through the executor's "
    "deterministic barrier discipline",
)
UNSTABLE_SORT = Rule(
    "det-unstable-sort",
    "det",
    "argsort without kind='stable' inside a '# repro: wire-path' "
    "function, where output byte order defines wire content",
)
RULES = (UNSEEDED_RNG, SET_ITERATION, WALLCLOCK, PARALLEL_PRIMITIVES, UNSTABLE_SORT)

#: ``np.random.<fn>`` calls that read/advance hidden module-global state.
_LEGACY_NP_RANDOM = {
    "seed", "random", "rand", "randn", "randint", "random_sample",
    "choice", "shuffle", "permutation", "uniform", "normal", "exponential",
    "poisson", "binomial", "bytes", "random_integers",
}

#: stdlib ``random`` module functions with the same problem.
_STDLIB_RANDOM = {
    "seed", "random", "randint", "randrange", "choice", "choices",
    "shuffle", "sample", "uniform", "gauss", "normalvariate", "getrandbits",
}

#: wall-clock reads; modeled time must come from SimClock.
_WALLCLOCK = {
    "time.time", "time.time_ns", "time.localtime", "time.ctime",
    "time.gmtime", "datetime.now", "datetime.utcnow",
    "datetime.datetime.now", "datetime.datetime.utcnow",
}

#: Modules whose primitives bypass the executor's barrier discipline;
#: only the backend files (:func:`~repro.lint.context.is_backend_path`)
#: may import them.
_PARALLEL_MODULES = ("threading", "multiprocessing", "concurrent.futures", "_thread")


def _rng_message(key: str, node: ast.Call) -> str | None:
    """The det-unseeded-rng message for a call of ``key``, if it is one."""
    if key.startswith("np.random.") or key.startswith("numpy.random."):
        fn = key.rsplit(".", 1)[-1]
        if fn in _LEGACY_NP_RANDOM:
            return (
                f"{key}() uses numpy's hidden global RNG state; "
                f"thread an explicit np.random.Generator "
                f"(np.random.default_rng(seed)) instead"
            )
        if fn in ("default_rng", "RandomState") and not (
            node.args or node.keywords
        ):
            return (
                f"{key}() without a seed draws entropy from the OS; "
                f"pass an explicit seed so runs are reproducible"
            )
    elif key.startswith("random.") and key.count(".") == 1:
        fn = key.rsplit(".", 1)[-1]
        if fn in _STDLIB_RANDOM:
            return (
                f"{key}() uses the stdlib module-global RNG; use a "
                f"seeded random.Random or np.random.Generator"
            )
    return None


def _is_set_expr(expr: ast.AST) -> bool:
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return True
    if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name):
        return expr.func.id in ("set", "frozenset")
    return False


def _parallel_import(node: ast.Import | ast.ImportFrom) -> str | None:
    """The first threading-like module ``node`` imports, if any."""
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    else:
        names = [node.module] if node.module and node.level == 0 else []
    for name in names:
        if name in _PARALLEL_MODULES or any(
            name.startswith(m + ".") for m in _PARALLEL_MODULES
        ):
            return name
    return None


def _sort_kind(node: ast.Call) -> str | None:
    """The ``kind=`` keyword value of a sort call, if a string constant."""
    for kw in node.keywords:
        if kw.arg == "kind" and isinstance(kw.value, ast.Constant):
            return kw.value.value
    return None


def _unstable_sorts(module: LintModule) -> Iterator[tuple[ast.Call, str]]:
    """argsort calls without ``kind='stable'`` in wire-path functions."""
    for scope_idx, func in module.functions:
        if not module.annotations.is_wire_path(scope_idx):
            continue
        # Walk the function body without descending into nested
        # scopes — a nested function answers to its own mark.
        stack: list[ast.AST] = list(ast.iter_child_nodes(func))
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            stack.extend(ast.iter_child_nodes(node))
            if not isinstance(node, ast.Call):
                continue
            key = name_key(node.func)
            attr = (
                node.func.attr
                if isinstance(node.func, ast.Attribute)
                else None
            )
            # A value sort (np.sort) is deterministic whatever the
            # algorithm; only argsort leaks tie order through indices.
            is_np_argsort = key in ("np.argsort", "numpy.argsort")
            is_method_argsort = attr == "argsort" and not is_np_argsort
            if not (is_np_argsort or is_method_argsort):
                continue
            if _sort_kind(node) == "stable":
                continue
            what = key if is_np_argsort else f".{attr}"
            yield (
                node,
                f"{what}() defaults to an unstable sort, but this "
                f"function is a wire path: equal keys may swap and "
                f"change wire bytes across numpy versions; pass "
                f"kind='stable'",
            )


def scan(module: LintModule) -> Iterator[tuple[Rule, ast.AST, str]]:
    """Yield ``(rule, node, message)`` for every determinism finding."""
    backend = is_backend_path(module.path)
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Call):
            key = name_key(node.func)
            message = _rng_message(key, node) if key is not None else None
            if message is not None:
                yield UNSEEDED_RNG, node, message
            if key in _WALLCLOCK:
                yield (
                    WALLCLOCK,
                    node,
                    f"{key}() reads the host wall clock; modeled time must "
                    f"come from SimClock (telemetry may use "
                    f"time.perf_counter)",
                )
        elif isinstance(node, (ast.Import, ast.ImportFrom)) and not backend:
            name = _parallel_import(node)
            if name is not None:
                yield (
                    PARALLEL_PRIMITIVES,
                    node,
                    f"import of {name!r} outside repro.simmpi.executor: "
                    f"spawning threads/processes in rank or fabric code "
                    f"bypasses the executor's canonical-order barriers "
                    f"and breaks the bit-identical-results guarantee; "
                    f"run per-rank work through a RankTeam instead",
                )
        if isinstance(node, (ast.For, ast.AsyncFor)):
            iters = [node.iter]
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            iters = [gen.iter for gen in node.generators]
        else:
            iters = []
        for it in iters:
            if _is_set_expr(it):
                yield (
                    SET_ITERATION,
                    node,
                    "iterating a set: element order is hash-dependent "
                    "and varies across processes; iterate "
                    "sorted(<set>) when order matters downstream",
                )
    for node, message in _unstable_sorts(module):
        yield UNSTABLE_SORT, node, message
