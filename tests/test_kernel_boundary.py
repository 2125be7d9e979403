"""The checking modules import no solver code.

A certificate is worth what its checker is, so the modules that check one
(the tree, the market and its cones, the certificate criteria, the errors)
stand alone: at module level they import only numpy, the standard library
and each other, and so never reach the solver, the objectives or the CLI.
Imports are read from the source with ``ast``, not from ``sys.modules``,
which the package's ``__init__`` fills with every module.
"""

import ast
import sys
from pathlib import Path

import pytest

import vng

SRC = Path(vng.__file__).parent
CHECKING = ("certification", "market_model", "scenario_tree", "errors")
SOLVER_SIDE = {"vng.solver", "vng.objectives", "vng.cli_io"}


def _tree(name: str) -> ast.Module:
    path = SRC / f"{name}.py"
    return ast.parse(path.read_text(), filename=str(path))


def _imported(node: ast.Import | ast.ImportFrom) -> set[str]:
    """Absolute names of the modules one import statement loads."""
    if isinstance(node, ast.Import):
        return {alias.name for alias in node.names}
    if not node.level:
        return {node.module}
    if node.module is None:  # from . import errors: each name is a module
        return {f"vng.{alias.name}" for alias in node.names}
    return {f"vng.{node.module}"}


def _imports(tree: ast.AST, function: str | None = None):
    """(statement, name of the enclosing function or None) for every import."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node, function
        inner = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        yield from _imports(node, node.name if inner else function)


def module_level_imports(name: str) -> set[str]:
    return {
        module
        for node, function in _imports(_tree(name)) if function is None
        for module in _imported(node)
    }


def reached(name: str) -> set[str]:
    """Every ``vng`` module that importing ``vng.<name>`` runs, itself left out."""
    seen, todo = set(), [f"vng.{name}"]
    while todo:
        for module in module_level_imports(todo.pop().removeprefix("vng.")):
            if module.startswith("vng.") and module not in seen:
                seen.add(module)
                todo.append(module)
    return seen - {f"vng.{name}"}


@pytest.mark.parametrize("name", CHECKING)
def test_checking_module_imports_only_numpy_the_stdlib_and_checkers(name):
    allowed = {f"vng.{other}" for other in CHECKING}
    for module in module_level_imports(name):
        top = module.split(".")[0]
        assert (module in allowed or top == "numpy"
                or top in sys.stdlib_module_names), (name, module)


@pytest.mark.parametrize("name", CHECKING)
def test_checking_module_reaches_no_solver_code(name):
    assert not reached(name) & SOLVER_SIDE, name


def test_scipy_is_imported_only_inside_functions():
    """HiGHS loads with the first LP; importing the checker loads no scipy."""
    sites = {
        (path.stem, function)
        for path in sorted(SRC.glob("*.py"))
        for node, function in _imports(_tree(path.stem))
        if any(module.split(".")[0] == "scipy" for module in _imported(node))
    }
    assert sites == {("market_model", "dual_cone_violation")}
