"""Every resource limit has one owner, ``infgon.limits``.

No other module binds a ``*_LIMIT`` name, by assignment or by import, and
no other module raises ``ResourceLimitError``: they refuse through
``limits.require``, reading each limit and its message off ``limits`` when
they check.  ``limits`` itself imports nothing, so every layer may use it.
"""

import ast
import pkgutil
from pathlib import Path

import infgon

PACKAGE = Path(infgon.__path__[0])


def _trees() -> dict[str, ast.Module]:
    return {info.name: ast.parse((PACKAGE / f"{info.name}.py").read_text(encoding="utf-8"))
            for info in pkgutil.iter_modules(infgon.__path__)}


def _bound_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((alias.asname or alias.name).partition(".")[0] for alias in node.names)
    return names


def _raises_limit_error(tree: ast.Module) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None)
            if name == "ResourceLimitError":
                return True
    return False


def test_only_limits_binds_a_limit_or_raises_the_refusal():
    trees = _trees()
    binders = {name for name, tree in trees.items() if any(n.endswith("_LIMIT") for n in _bound_names(tree))}
    raisers = {name for name, tree in trees.items() if _raises_limit_error(tree)}
    assert (binders, raisers) == ({"limits"}, {"limits"})


def test_limits_imports_nothing():
    tree = _trees()["limits"]
    assert not [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]

