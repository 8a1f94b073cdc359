"""Every public function has a production caller, every field of a class
is read, and every parameter default in the package is overridden by some
call, all by the production code: `src/`, `bench/` and
`tests/test_acceptance.py`. What only unit tests use is dead surface.

A public top-level function or class of `src/seisfrag` must be used in
`src/`, in `bench/` or in `tests/test_acceptance.py`: a plain name, an
attribute or an import of its name counts, and so does a string in `bench/`,
because `bench/tracing.py`'s `TIMED` names the functions the benchmark traces
by string. Docstrings never count. A function that only unit tests call is a
test helper and lives in the tests. This keeps, by design:
- the oracles the acceptance module names: `sigma_f`, `kde_pdf`,
  `dual_objective`, `auc`, `bilinear_force`, `nonlinear_history`, `summarize`
  and `response_spectrum`;
- every function in `TIMED`, such as `unit_variance_process` and
  `read_signal_csv`.
Names are matched alone, so a local variable of the same name keeps a
function too; methods are not checked.

An annotated field of a class in `src/seisfrag` must be read: loaded as an
attribute in `src/`, in `bench/` or in `tests/test_acceptance.py`, or named
by a string other than a docstring in `src/` or `bench/`, as `cli` names the
curve metrics it reads with `getattr`. Fields are matched by name alone, so a
field shares the reads of every attribute of its name: the check can miss an
unread field, but never flags a read one.

A default that no call in `src/`, `bench/` or `tests/test_acceptance.py`
overrides is a setting nobody sets: it should be a constant. Calls are
matched to a function by its name alone, as a plain name or an attribute, so
a call of another function of the same name counts too; the check can miss a
dead default, but never flags a live one that is passed by keyword or
position.

The checks report each offender as `module.name (path:line)`.
"""

import ast
from functools import cache
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "seisfrag"
USERS = (ROOT / "src", ROOT / "bench", ROOT / "tests" / "test_acceptance.py")
STRING_USERS = (ROOT / "bench",)
FIELD_STRING_USERS = (ROOT / "src", ROOT / "bench")


@cache
def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _files(roots):
    for root in roots:
        yield from [root] if root.is_file() else sorted(root.rglob("*.py"))


def _where(path: Path, line: int) -> str:
    return f"{path.relative_to(ROOT) if path.is_relative_to(ROOT) else path}:{line}"


def _defaults(tree: ast.Module, module: str):
    """(qualified name, function name, line, position or None, parameter) of
    every parameter with a default; the position counts the arguments a call
    passes before it, without the `self` or `cls` of a method, and is None for
    a keyword-only parameter."""
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
                    out.append((name, child.name, child.lineno, index - bound,
                                positional[index].arg))
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        out.append((name, child.name, child.lineno, None, arg.arg))
                visit(child, name, False)
            else:
                visit(child, scope, in_class)

    visit(tree, module, False)
    return out


def _calls(callers):
    """function name -> [(positional count, keywords, unpacks *args or **kwargs)]."""
    calls = {}
    for path in _files(callers):
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
    """`module.function(parameter) (path:line)` of every default in package
    that no call under the callers' directories overrides."""
    calls = _calls(callers)
    dead = []
    for path in sorted(package.glob("*.py")):
        for qualified, name, line, position, param in _defaults(_parse(path), path.stem):
            if not any(unpacks or param in keywords
                       or (position is not None and n_positional > position)
                       for n_positional, keywords, unpacks in calls.get(name, ())):
                dead.append(f"{qualified}({param}) ({_where(path, line)})")
    return dead


def _docstrings(tree: ast.Module) -> set[int]:
    """ids of the docstring nodes of the module and of its classes and functions."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                out.add(id(first.value))
    return out


def _string_parts(path: Path, string_users) -> set[str]:
    """The dotted parts of every string but a docstring in path, if it is a
    file of the string users, else none."""
    if not any(path.is_relative_to(root) for root in string_users):
        return set()
    tree = _parse(path)
    docstrings = _docstrings(tree)
    return {part for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and id(node) not in docstrings
            for part in node.value.split(".")}


def _used_names(users, string_users) -> set[str]:
    """Every name, attribute and imported name in the users' files, and the
    dotted parts of every string but a docstring in the string users' files."""
    used = set()
    for path in _files(users):
        used |= _string_parts(path, string_users)
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.update(node.name.split("."))
    return used


def unread_fields(package: Path, users, string_users) -> list[str]:
    """`module.Class.field (path:line)` of every annotated field of a class in
    package whose name no file of the users loads as an attribute and no
    string of the string users' files names."""
    read = set()
    for path in _files(users):
        read |= _string_parts(path, string_users)
        read.update(node.attr for node in ast.walk(_parse(path))
                    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))
    return [f"{path.stem}.{cls.name}.{stmt.target.id} ({_where(path, stmt.lineno)})"
            for path in sorted(package.glob("*.py"))
            for cls in ast.walk(_parse(path)) if isinstance(cls, ast.ClassDef)
            for stmt in cls.body
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
            and stmt.target.id not in read]


def unused_public_names(package: Path, users, string_users) -> list[str]:
    """`module.name (path:line)` of every public top-level function or class
    in package that no file of the users names."""
    used = _used_names(users, string_users)
    return [f"{path.stem}.{node.name} ({_where(path, node.lineno)})"
            for path in sorted(package.glob("*.py"))
            for node in _parse(path).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_") and node.name not in used]


def test_every_public_function_has_a_production_caller():
    unused = unused_public_names(PACKAGE, USERS, STRING_USERS)
    assert not unused, "only tests use:\n" + "\n".join(unused)


def test_every_field_is_read():
    unread = unread_fields(PACKAGE, USERS, FIELD_STRING_USERS)
    assert not unread, "nothing reads:\n" + "\n".join(unread)


def test_every_default_is_overridden_by_some_call():
    dead = dead_defaults(PACKAGE, USERS)
    assert not dead, "no call overrides:\n" + "\n".join(dead)


def test_the_check_flags_each_function_only_tests_use(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "mod.py").write_text(
        "def tested():\n    return 1\n\n\n"
        "def called():\n    return 2\n\n\n"
        "def accepted():\n    return called()\n\n\n"
        "def attributed():\n    return 3\n\n\n"
        "def traced():\n    return 4\n\n\n"
        "class Documented:\n    pass\n\n\n"
        "def _private():\n    return 5\n"
    )
    tests = tmp_path / "tests"
    tests.mkdir()
    (tests / "test_mod.py").write_text("from pkg.mod import tested\n\ntested()\n")
    (tests / "test_acceptance.py").write_text(
        "import pkg.mod\nfrom pkg.mod import accepted as oracle\n\noracle()\npkg.mod.attributed()\n"
    )
    bench = tmp_path / "bench"
    bench.mkdir()
    (bench / "trace.py").write_text('"""Documented"""\n\nTIMED = (("mod", "traced"),)\n')
    users = (package, bench, tests / "test_acceptance.py")
    assert unused_public_names(package, users, [bench]) == [
        f"mod.tested ({package / 'mod.py'}:1)",
        f"mod.Documented ({package / 'mod.py'}:21)",
    ]


def test_the_check_flags_each_default_no_call_overrides(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "mod.py").write_text(
        "def f(a, b=1, *, c=2):\n    return a\n\n\n"
        "def g(a=1, b=2):\n    return a\n\n\n"
        "class K:\n    def m(self, d=3, e=4):\n        return d\n"
    )
    (tmp_path / "use.py").write_text("f(0, c=1)\ng(*args)\nK().m(5)\n")
    where = package / "mod.py"
    assert dead_defaults(package, [tmp_path]) == [f"mod.f(b) ({where}:1)",
                                                 f"mod.K.m(e) ({where}:10)"]


def test_the_check_flags_each_field_nothing_reads(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "mod.py").write_text(
        "from dataclasses import dataclass\n\n\n"
        "@dataclass\nclass Fit:\n    \"\"\"unread\"\"\"\n\n"
        "    accepted: float\n    named: float\n    tested: float\n    unread: float\n\n\n"
        "def report(fit):\n    fit.unread = 0.0\n"
        "    return [getattr(fit, metric) for metric in (\"fit.named\",)]\n"
    )
    tests = tmp_path / "tests"
    tests.mkdir()
    (tests / "test_mod.py").write_text("def test_fit(fit):\n    assert fit.tested\n")
    (tests / "test_acceptance.py").write_text(
        "def test_fit(fit):\n    assert fit.accepted == \"tested\"\n"
    )
    users = (package, tests / "test_acceptance.py")
    where = package / "mod.py"
    assert unread_fields(package, users, [package]) == [f"mod.Fit.tested ({where}:10)",
                                                       f"mod.Fit.unread ({where}:11)"]
