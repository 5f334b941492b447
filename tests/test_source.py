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
