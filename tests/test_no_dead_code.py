"""Tripwire: every public function and method of the package, and every
private module-level function, is named somewhere besides its own
``def``, in the package, its tests or the benchmark harness.  Names are read as code tokens, so a word in a comment
or docstring does not count, but a string that is exactly the name does
(the benchmark tracer patches functions by name).  ``cmd_*`` handlers are
exempt because ``cli.main`` dispatches them by name, and dunders because
Python calls them.

A second, stricter tripwire leaves the tests out: a public function that
only tests reach must be documented in ``README.md`` (in backticks) as
public API, or move into the test that uses it.

A third refuses a public alias, a module-level ``name = fn`` that gives a
function of the package a second public name.

A fourth keeps one product rule: exactly one class defines ``__mul__``.

A fifth keeps one degreewise solver: exactly one function is named
``power_component``.

A sixth keeps one verify comparator: no public function's name ends in
``_check``, and no function is named ``coproduct_mismatch``."""

import ast
import io
import re
import tokenize
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "nclag"
SEARCHED = [PACKAGE, ROOT / "tests", ROOT / "perfbench"]
OUTSIDE_TESTS = [PACKAGE, ROOT / "perfbench"]


def _mentions(searched=SEARCHED):
    """How often each identifier occurs as a name or a string literal."""
    count = Counter()
    for root in searched:
        for path in root.rglob("*.py"):
            for tok in tokenize.generate_tokens(io.StringIO(path.read_text()).readline):
                if tok.type == tokenize.NAME:
                    count[tok.string] += 1
                elif tok.type == tokenize.STRING and "f" not in tok.string[:2].lower():
                    value = ast.literal_eval(tok.string)
                    if isinstance(value, str) and value.isidentifier():
                        count[value] += 1
    return count


def _public_defs():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and not node.name.startswith(("_", "cmd_")):
                yield f"{path.relative_to(ROOT)}:{node.lineno}", node.name


def _private_module_defs():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if (
                isinstance(node, ast.FunctionDef)
                and node.name.startswith("_")
                and not node.name.startswith("__")
            ):
                yield f"{path.relative_to(ROOT)}:{node.lineno}", node.name


def _unnamed(defs, mentions=None):
    def_count = Counter(name for _, name in defs)
    mentions = _mentions() if mentions is None else mentions
    return [f"{where} {name}" for where, name in defs if mentions[name] <= def_count[name]]


def test_every_public_function_is_named_besides_its_def():
    dead = _unnamed(list(_public_defs()))
    assert not dead, "named nowhere but their def: " + ", ".join(dead)


def test_every_private_module_function_is_named_besides_its_def():
    dead = _unnamed(list(_private_module_defs()))
    assert not dead, "named nowhere but their def: " + ", ".join(dead)


def _readme_names():
    """The names of README.md's inline code spans that are a dotted name,
    optionally called: `psi_k`, `NCLattice.interval(p, q)`."""
    text = re.sub(r"```.*?```", "", (ROOT / "README.md").read_text(), flags=re.S)
    return Counter(
        name
        for dotted in re.findall(r"`([A-Za-z_][\w.]*)(?:\([^`]*\))?`", text)
        for name in dotted.split(".")
    )


def test_every_public_function_is_reached_outside_the_tests_or_documented():
    mentions = _mentions(OUTSIDE_TESTS) + _readme_names()
    dead = _unnamed(list(_public_defs()), mentions)
    assert not dead, "reached from the tests alone and not in README: " + ", ".join(dead)


def _function_names():
    return {
        node.name
        for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def test_no_public_alias_of_a_package_function():
    """A second public name for a function, ``alias = fn`` at module level,
    is a second way to call it: call the function by its own name."""
    functions = _function_names()
    aliases = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            else:
                continue
            if isinstance(value, ast.Attribute):
                name = value.attr
            elif isinstance(value, ast.Name):
                name = value.id
            else:
                continue
            aliases += [
                f"{path.relative_to(ROOT)}:{node.lineno} {t.id} = {name}"
                for t in targets
                if isinstance(t, ast.Name) and not t.id.startswith("_") and name in functions
            ]
    assert not aliases, "public aliases of package functions: " + ", ".join(aliases)


def test_one_class_defines_the_product():
    """Every element multiplies by one rule, `_Element.__mul__`; a new
    product (QSym's quasi-shuffle) hooks into it rather than forking it."""
    owners = [
        f"{path.relative_to(ROOT)}:{node.lineno} {node.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef)
        and any(isinstance(f, ast.FunctionDef) and f.name == "__mul__" for f in node.body)
    ]
    assert len(owners) == 1, "classes defining __mul__: " + ", ".join(owners)


def test_one_function_computes_power_components():
    """Every degreewise series reads its powers from one engine,
    `GradedSeries.power_component`; a solver with a power loop of its own
    forks it."""
    owners = [
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name == "power_component"
    ]
    assert len(owners) == 1, "functions named power_component: " + ", ".join(owners)


def test_routes_are_compared_by_the_verify_engine_only():
    """`nclag.verify` compares the routes of every case and reports the
    first differing term; a library function that returns whether two
    routes agree, or reports their difference itself, forks it."""
    checks = [f"{where} {name}" for where, name in _public_defs() if name.endswith("_check")]
    assert not checks, "public functions named *_check: " + ", ".join(checks)
    assert "coproduct_mismatch" not in _function_names()
