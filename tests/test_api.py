"""Every parameter default in the package is overridden by some call.

A default that no call in `src/`, `tests/` or `bench/` ever overrides is a
setting nobody sets: it should be a constant. Calls are matched to a function
by its name alone, as a plain name or an attribute, so a call of another
function of the same name counts too; the check can miss a dead default, but
never flags a live one that is passed by keyword or position.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "seisfrag"
CALLERS = (ROOT / "src", ROOT / "tests", ROOT / "bench")


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _defaults(tree: ast.Module, module: str):
    """(qualified name, function name, position or None, parameter) of every
    parameter with a default; the position counts the arguments a call passes
    before it, without the `self` or `cls` of a method, and is None for a
    keyword-only parameter."""
    out = []

    def visit(node, scope, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{scope}.{child.name}", True)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{scope}.{child.name}"
                args = child.args
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in child.decorator_list)
                bound = 1 if in_class and not static else 0
                positional = args.posonlyargs + args.args
                first = len(positional) - len(args.defaults)
                for index in range(first, len(positional)):
                    out.append((name, child.name, index - bound, positional[index].arg))
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        out.append((name, child.name, None, arg.arg))
                visit(child, name, False)
            else:
                visit(child, scope, in_class)

    visit(tree, module, False)
    return out


def _calls(callers):
    """function name -> [(positional count, keywords, unpacks *args or **kwargs)]."""
    calls = {}
    for root in callers:
        for path in sorted(root.rglob("*.py")):
            for node in ast.walk(_parse(path)):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name is None:
                    continue
                unpacks = (any(isinstance(a, ast.Starred) for a in node.args)
                           or any(k.arg is None for k in node.keywords))
                keywords = {k.arg for k in node.keywords}
                calls.setdefault(name, []).append((len(node.args), keywords, unpacks))
    return calls


def dead_defaults(package: Path, callers) -> list[str]:
    """`module.function(parameter)` of every default in package that no call
    under the callers' directories overrides."""
    calls = _calls(callers)
    dead = []
    for path in sorted(package.glob("*.py")):
        for qualified, name, position, param in _defaults(_parse(path), path.stem):
            if not any(unpacks or param in keywords
                       or (position is not None and n_positional > position)
                       for n_positional, keywords, unpacks in calls.get(name, ())):
                dead.append(f"{qualified}({param})")
    return dead


def test_every_default_is_overridden_by_some_call():
    assert dead_defaults(PACKAGE, CALLERS) == []


def test_the_check_flags_each_default_no_call_overrides(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "mod.py").write_text(
        "def f(a, b=1, *, c=2):\n    return a\n\n\n"
        "def g(a=1, b=2):\n    return a\n\n\n"
        "class K:\n    def m(self, d=3, e=4):\n        return d\n"
    )
    (tmp_path / "use.py").write_text("f(0, c=1)\ng(*args)\nK().m(5)\n")
    assert dead_defaults(package, [tmp_path]) == ["mod.f(b)", "mod.K.m(e)"]
