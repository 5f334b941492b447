"""Rules on the source of the package itself."""

import ast
import os

import scert

SMALL = 1e-3  # a float literal below this in size is a tolerance


def _small_literals_in_bodies(tree: ast.Module) -> list[tuple[int, float]]:
    """(line, value) of each float literal with 0 < |value| < SMALL inside a
    function or class, default arguments included."""
    found = set()
    for scope in ast.walk(tree):
        if not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        for node in ast.walk(scope):
            if (isinstance(node, ast.Constant) and type(node.value) is float
                    and 0.0 < abs(node.value) < SMALL):
                found.add((node.lineno, node.value))
    return sorted(found)


def test_every_tolerance_has_a_named_module_constant():
    package = os.path.dirname(scert.__file__)
    offenders = []
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as handle:
                tree = ast.parse(handle.read(), filename=name)
            offenders += [f"{name}:{line}: {value!r}"
                          for line, value in _small_literals_in_bodies(tree)]
    assert not offenders, "tolerance literals outside a module constant:\n" + "\n".join(offenders)


def test_the_rule_sees_bodies_and_defaults_but_not_module_constants():
    tree = ast.parse("TOL = 1e-9\n"
                     "def f(x, tol=1e-7):\n    return x < 2e-12 and x > -5e-4\n"
                     "class C:\n    EPS = 1e-6\n    BIG = 0.5\n")
    assert _small_literals_in_bodies(tree) == [(2, 1e-07), (3, 2e-12), (3, 0.0005), (5, 1e-06)]


# the only functions that may call the LP solver: every LP over a halfspace
# region goes through lp_maximize, and the weight simplex of optimize_weights
# is not a perturbation region
LP_CALLERS = {"geometry.lp_maximize", "ensemble.optimize_weights"}


def _solver_callers(tree: ast.Module, module: str) -> set[str]:
    """module.function of each function calling `_simplex.maximize`, by the
    module attribute or by a name imported from `_simplex`; a call outside
    any function counts for the module."""
    imported = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("_simplex")
                for alias in node.names if alias.name == "maximize"}
    found = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = f"{module}.{node.name}"
        if isinstance(node, ast.Call) and (
                isinstance(node.func, ast.Attribute) and node.func.attr == "maximize"
                and isinstance(node.func.value, ast.Name) and node.func.value.id == "_simplex"
                or isinstance(node.func, ast.Name) and node.func.id in imported):
            found.add(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, module)
    return found


def test_only_lp_maximize_and_the_weight_lp_call_the_solver():
    package = os.path.dirname(scert.__file__)
    callers = set()
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as handle:
                callers |= _solver_callers(ast.parse(handle.read(), filename=name), name[:-3])
    stray = sorted(callers - LP_CALLERS)
    assert not stray, f"the LP solver is called outside {sorted(LP_CALLERS)}: {stray}"


def test_the_solver_rule_sees_attributes_imports_and_module_level_calls():
    tree = ast.parse("from . import _simplex\nfrom ._simplex import maximize as m\n"
                     "def f(a):\n    def g():\n        return _simplex.maximize(a)\n"
                     "    return g\n"
                     "class C:\n    def h(self):\n        return m(1)\n"
                     "def k():\n    return other.maximize(1)\n"
                     "X = _simplex.maximize(0)\n")
    assert _solver_callers(tree, "mod") == {"mod.g", "mod.h", "mod"}


def _breaks_exit_policy(node: ast.AST) -> bool:
    """Whether the node names `sys.stderr` or `sys.exit`, or raises `SystemExit`."""
    if isinstance(node, ast.Attribute):
        return (isinstance(node.value, ast.Name) and node.value.id == "sys"
                and node.attr in ("stderr", "exit"))
    if isinstance(node, ast.Raise):
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        return isinstance(exc, ast.Name) and exc.id == "SystemExit"
    return False


def _exit_policy_functions(tree: ast.Module) -> set[str]:
    """Each function that prints to stderr or exits by itself; code outside
    any function is not counted."""
    found = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if scope is not None and _breaks_exit_policy(node):
            found.add(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, None)
    return found


def test_only_cli_main_prints_errors_and_picks_exit_codes():
    path = os.path.join(os.path.dirname(scert.__file__), "cli.py")
    with open(path, encoding="utf-8") as handle:
        stray = _exit_policy_functions(ast.parse(handle.read(), filename="cli.py")) - {"main"}
    assert not stray, f"cli functions besides main that print errors or exit: {sorted(stray)}"


def test_the_exit_policy_rule_sees_stderr_exit_and_system_exit():
    tree = ast.parse("import sys\n"
                     "def a():\n    print('x', file=sys.stderr)\n"
                     "def b():\n    raise SystemExit(2)\n"
                     "def c():\n    def d():\n        raise SystemExit\n    return d\n"
                     "def e():\n    sys.exit(1)\n"
                     "def f():\n    raise ValueError('x')\n"
                     "def g():\n    sys.stdout.write('x')\n"
                     "if __name__ == '__main__':\n    sys.exit(a())\n")
    assert _exit_policy_functions(tree) == {"a", "b", "d", "e"}
