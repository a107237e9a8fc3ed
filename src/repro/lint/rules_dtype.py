"""Dtype-width rule pack.

Graph500 at paper scale has 2^42+ vertices: a vertex id does not fit in
32 bits, so every narrowing cast of id-like data is a scale bug waiting
for a bigger graph — unless the code proves the range first (an
``np.iinfo`` bound check, as ``repro.engine.rank.wire_id_dtype`` does
before an outbox is declared with a ``uint32`` id column; the narrowing
cast itself is ``Outbox.flush``'s, to whatever dtype was declared).  The pack also flags two quieter dtype costs: per-iteration
``astype`` of loop-invariant arrays (a hidden copy per superstep) and
hand-rolled byte math that hard-codes element widths instead of asking
the array (``arr.nbytes`` / ``dtype.itemsize``).
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.lint.context import LintModule, Rule, name_key

__all__ = ["RULES", "scan"]

NARROW_ID = Rule(
    "dtype-narrow-id",
    "dtype",
    "vertex-id array cast to 32 bits without an np.iinfo range check "
    "in the enclosing function or module",
)
LOOP_ASTYPE = Rule(
    "dtype-loop-astype",
    "dtype",
    "astype() of a loop-invariant array inside a loop — one hidden "
    "copy per iteration; hoist the conversion",
)
BYTE_MATH = Rule(
    "dtype-byte-math",
    "dtype",
    "byte count computed as <count> * <hard-coded width>; use "
    "arr.nbytes or dtype.itemsize so dtype changes propagate",
)
RULES = (NARROW_ID, LOOP_ASTYPE, BYTE_MATH)

#: Narrow integer dtypes a vertex id must not be cast to unguarded.
_NARROW_DTYPES = {"np.uint32", "np.int32", "numpy.uint32", "numpy.int32"}
_NARROW_STRINGS = {"uint32", "int32", "u4", "i4", "<u4", "<i4"}

#: Substrings marking a name as id-like (vertex-id-carrying).  Names like
#: ``owner``/``ranks`` hold rank ids, which legitimately fit 32 bits, so
#: the rule keys on the name rather than firing on every narrow cast.
_ID_NAME_HINTS = (
    "vertex", "vertices", "target", "adj", "hub", "owned",
    "parent", "frontier", "neighbor", "settled",
)


def _is_narrow_dtype(expr: ast.AST) -> bool:
    key = name_key(expr)
    if key in _NARROW_DTYPES:
        return True
    if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
        return expr.value in _NARROW_STRINGS
    return False


def _is_id_like(key: str | None) -> bool:
    if key is None:
        return False
    last = key.rsplit(".", 1)[-1].lower()
    return any(hint in last for hint in _ID_NAME_HINTS)


def _has_iinfo_guard(module: LintModule, scope_idx: int) -> bool:
    """True if ``np.iinfo`` appears in the enclosing function or at module
    top level — the idiom for range-checking before a narrowing cast."""
    for scope in module.scopes.chain(scope_idx):
        if scope.kind == "class":
            continue
        nodes = (
            scope.node.body
            if scope.kind == "module"
            else [scope.node]
        )
        for root in nodes:
            if scope.kind == "module" and isinstance(
                root, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            for node in ast.walk(root):
                if isinstance(node, ast.Call):
                    key = name_key(node.func)
                    if key in ("np.iinfo", "numpy.iinfo"):
                        return True
    return False


def _narrow_id_casts(module: LintModule) -> Iterator[tuple[ast.Call, str]]:
    for scope_idx, func in module.functions:
        guarded: bool | None = None  # computed lazily, once per function
        for node in ast.walk(func):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "astype"
                and node.args
            ):
                continue
            target_key = name_key(node.func.value)
            if not _is_narrow_dtype(node.args[0]) or not _is_id_like(target_key):
                continue
            if guarded is None:
                guarded = _has_iinfo_guard(module, scope_idx)
            if guarded:
                continue
            yield (
                node,
                f"{target_key}.astype(32-bit) truncates silently for "
                f"graphs beyond 2^32 vertices; range-check with "
                f"np.iinfo first or keep the id dtype",
            )


def _assigned_names(root: ast.AST) -> set[str]:
    """Names (re)bound anywhere under ``root`` — loop-carried state."""
    out: set[str] = set()

    def targets_of(t: ast.AST) -> None:
        for node in ast.walk(t):
            if isinstance(node, ast.Name):
                out.add(node.id)

    for node in ast.walk(root):
        if isinstance(node, ast.Assign):
            for t in node.targets:
                targets_of(t)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign, ast.NamedExpr)):
            targets_of(node.target)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            targets_of(node.target)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if item.optional_vars is not None:
                    targets_of(item.optional_vars)
    return out


def _loop_astypes(module: LintModule) -> Iterator[tuple[ast.Call, str]]:
    for _scope_idx, func in module.functions:
        for loop in ast.walk(func):
            if not isinstance(loop, (ast.For, ast.AsyncFor, ast.While)):
                continue
            carried = _assigned_names(loop)
            for node in ast.walk(loop):
                if not (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "astype"
                ):
                    continue
                base = node.func.value
                # Only a plain name can be proven loop-invariant; a
                # subscript like st[lo:hi] varies with loop state.
                if not isinstance(base, ast.Name) or base.id in carried:
                    continue
                yield (
                    node,
                    f"{base.id}.astype(...) runs every iteration on a "
                    f"loop-invariant array; hoist the conversion out "
                    f"of the loop",
                )


_WIDTHS = (1, 2, 4, 8, 16)


def _is_width_const(expr: ast.AST) -> bool:
    return (
        isinstance(expr, ast.Constant)
        and isinstance(expr.value, int)
        and not isinstance(expr.value, bool)
        and expr.value in _WIDTHS
    )


def _is_count_expr(expr: ast.AST) -> bool:
    if isinstance(expr, ast.Attribute) and expr.attr == "size":
        return True
    if (
        isinstance(expr, ast.Call)
        and isinstance(expr.func, ast.Name)
        and expr.func.id == "len"
    ):
        return True
    return False


def _byte_math(module: LintModule) -> Iterator[tuple[ast.BinOp, str]]:
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AugAssign):
            targets, value = [node.target], node.value
        else:
            continue
        key = next(
            (k for k in map(name_key, targets) if k is not None), None
        )
        if key is None or "byte" not in key.rsplit(".", 1)[-1].lower():
            continue
        for sub in ast.walk(value):
            if not (isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.Mult)):
                continue
            pairs = ((sub.left, sub.right), (sub.right, sub.left))
            if any(
                _is_width_const(w) and _is_count_expr(c) for w, c in pairs
            ):
                yield (
                    sub,
                    "byte size hard-codes the element width; use "
                    "arr.nbytes (or count * arr.dtype.itemsize) so a "
                    "dtype change cannot desynchronize the cost model",
                )
                break


def scan(module: LintModule) -> Iterator[tuple[Rule, ast.AST, str]]:
    """Yield ``(rule, node, message)`` for every dtype finding."""
    for node, message in _narrow_id_casts(module):
        yield NARROW_ID, node, message
    for node, message in _loop_astypes(module):
        yield LOOP_ASTYPE, node, message
    for node, message in _byte_math(module):
        yield BYTE_MATH, node, message
