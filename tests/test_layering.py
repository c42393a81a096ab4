"""Every intra-package import sits at module level, and the bounds draw no random numbers.

A function-level import hides a dependency and lets an import cycle go
unnoticed; at module level a cycle of ``from .x import name`` imports fails
as soon as the package loads.  A bound is a function of the spec and its
options alone, so the bounds module builds no random generator.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "avwc"


def _intra_package(node: ast.AST) -> bool:
    if isinstance(node, ast.ImportFrom):
        return node.level > 0 or (node.module or "").split(".")[0] == "avwc"
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "avwc" for alias in node.names)
    return False


def _function_level_imports(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found.extend(
                f"{path.name}:{inner.lineno} in {node.name}()"
                for inner in ast.walk(node)
                if _intra_package(inner)
            )
    return found


def test_no_function_level_intra_package_imports():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    assert [hit for path in modules for hit in _function_level_imports(path)] == []


def test_bounds_draw_no_random_numbers():
    source = (PACKAGE / "bounds.py").read_text(encoding="utf-8")
    assert [word for word in ("np.random", "Philox") if word in source] == []
