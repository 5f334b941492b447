"""Rules on the source of the package itself."""

import ast
import io
import os
import tokenize

import scert

SMALL = 1e-3  # a float literal below this in size is a tolerance


def _package_sources() -> dict[str, str]:
    """The source text of each module of the package, by module name."""
    package = os.path.dirname(scert.__file__)
    sources = {}
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as handle:
                sources[name[:-3]] = handle.read()
    return sources


def _parse_package() -> dict[str, ast.Module]:
    """The syntax tree of each module of the package, by module name."""
    return {module: ast.parse(text, filename=f"{module}.py")
            for module, text in _package_sources().items()}


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
    offenders = [f"{module}.py:{line}: {value!r}" for module, tree in _parse_package().items()
                 for line, value in _small_literals_in_bodies(tree)]
    assert not offenders, "tolerance literals outside a module constant:\n" + "\n".join(offenders)


def test_the_rule_sees_bodies_and_defaults_but_not_module_constants():
    tree = ast.parse("TOL = 1e-9\n"
                     "def f(x, tol=1e-7):\n    return x < 2e-12 and x > -5e-4\n"
                     "class C:\n    EPS = 1e-6\n    BIG = 0.5\n")
    assert _small_literals_in_bodies(tree) == [(2, 1e-07), (3, 2e-12), (3, 0.0005), (5, 1e-06)]


def _uncommented_tolerances(source: str) -> list[str]:
    """The name of each module-level float constant with 0 < |value| < SMALL
    that has no comment on its own line or on a comment line directly above."""
    comments = {token.start[0] for token in tokenize.generate_tokens(io.StringIO(source).readline)
                if token.type == tokenize.COMMENT}
    lines = source.splitlines()
    found = []
    for node in ast.parse(source).body:
        if not isinstance(node, (ast.Assign, ast.AnnAssign)) or node.value is None:
            continue
        try:
            value = ast.literal_eval(node.value)
        except ValueError:
            continue
        if type(value) is not float or not 0.0 < abs(value) < SMALL:
            continue
        above = lines[node.lineno - 2].lstrip() if node.lineno > 1 else ""
        if node.lineno not in comments and not above.startswith("#"):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found.extend(t.id for t in targets if isinstance(t, ast.Name))
    return found


def test_every_tolerance_constant_states_its_use():
    offenders = [f"{module}.{name}" for module, text in _package_sources().items()
                 for name in _uncommented_tolerances(text)]
    assert not offenders, f"tolerance constants with no comment: {offenders}"


def test_the_comment_rule_sees_trailing_and_preceding_comments_only():
    source = ("A = 1e-9  # trailing\n"
              "# above\nB = 1e-6\n"
              "C = 2e-12\n"
              "D = 0.5\n"
              "E = -1e-7\n"
              "F: float = 3e-4\n"
              "G = 1e-5  # trailing\nH = 1e-5\n"
              "I = 1e-8; s = '# a string'\n"
              "def f():\n    J = 1e-9\n    return J\n"
              "K = 1_000\nL = f(1e-9)\n")
    assert _uncommented_tolerances(source) == ["C", "E", "F", "H", "I"]


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
    callers = set()
    for module, tree in _parse_package().items():
        callers |= _solver_callers(tree, module)
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


# every smoothness type answers through one protocol, so no caller needs to
# know which type it holds
SMOOTHNESS_PROTOCOL = {"mode", "dim", "bodies", "constraints"}
SMOOTHNESS_TYPES = ("Uniform", "ClassWise", "ClassDiff", "Composed")


def _class_names(tree: ast.Module) -> dict[str, set[str]]:
    """Each class's names defined in its own body: methods, properties,
    class attributes and dataclass fields."""
    found = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            names = set()
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names.add(item.name)
                elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    names.add(item.target.id)
                elif isinstance(item, ast.Assign):
                    names |= {t.id for t in item.targets if isinstance(t, ast.Name)}
            found[node.name] = names
    return found


def test_every_smoothness_type_defines_the_one_protocol():
    names = _class_names(_parse_package()["certificates"])
    missing = {cls: sorted(SMOOTHNESS_PROTOCOL - names[cls]) for cls in SMOOTHNESS_TYPES}
    assert not any(missing.values()), f"smoothness types missing a protocol name: {missing}"


def test_the_protocol_rule_sees_methods_properties_attributes_and_fields():
    tree = ast.parse("class A:\n    body: int\n    mode = 'u'\n"
                     "    @property\n    def dim(self):\n        return 1\n"
                     "    def constraints(self, top, r):\n        return []\n"
                     "    def helper(self):\n        x = 1\n")
    assert _class_names(tree) == {"A": {"body", "mode", "dim", "constraints", "helper"}}


def _isinstance_callers(tree: ast.Module, module: str, cls: str) -> set[str]:
    """module.function of each function calling `isinstance` with `cls` among
    its classes, by name or module attribute; a call outside any function
    counts for the module."""
    found = set()

    def names_cls(node):
        return any(isinstance(n, ast.Name) and n.id == cls
                   or isinstance(n, ast.Attribute) and n.attr == cls for n in ast.walk(node))

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = f"{module}.{node.name}"
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2
                and names_cls(node.args[1])):
            found.add(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, module)
    return found


def test_no_function_asks_whether_a_smoothness_is_composed():
    callers = set()
    for module, tree in _parse_package().items():
        callers |= _isinstance_callers(tree, module, "Composed")
    assert not callers, f"isinstance(..., Composed) in {sorted(callers)}"


def test_the_isinstance_rule_sees_names_attributes_tuples_and_module_level_calls():
    tree = ast.parse("def f(s):\n    return isinstance(s, Composed)\n"
                     "def g(s):\n    return isinstance(s, (Uniform, certificates.Composed))\n"
                     "def h(s):\n    return isinstance(s, Uniform) or s is Composed\n"
                     "X = isinstance(1, Composed)\n")
    assert _isinstance_callers(tree, "mod", "Composed") == {"mod.f", "mod.g", "mod"}
