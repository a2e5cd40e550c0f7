"""The package holds no public name that only the tests use, and its
import loads no standard module that it only needs for annotations,
record classes or quoting.

A public module-level function, class or constant of a module in
``src/catalan_posets`` must be referenced by other code in ``src``, by
``pyproject.toml`` or by the code in ``benchmarks/``.  References are
names and attributes in the parsed code, so docstrings and doctests do
not count, and neither does a definition's use of its own name.  A
public method or property of a class in ``src`` must be read as an
attribute (``x.name``) by code in ``src`` outside its own body, or by
the code in ``benchmarks/``; a plain name such as a local variable does
not count.  A method that overrides one of a base class from outside the
package, such as ``tuple.count`` in a namedtuple subclass, is read
through that base's interface and is exempt.

Every function in ``tests/support.py`` is read by a test module, as
``support.name`` or through ``from support import name``, or is called
by a support function that is.

Every default parameter of a function in ``src`` is overridden by some
call in ``src``, ``tests`` or ``benchmarks``, positionally or by
keyword; a default that no call changes is a constant that the signature
dresses up as an option.  Calls are matched by the name they call
(``f(...)`` or ``x.f(...)``), and one that unpacks ``*args`` or
``**kwargs`` counts as passing every position or keyword.
"""

import ast
import importlib
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "catalan_posets"
TESTS = ROOT / "tests"


def defined_names(statement):
    """Public names bound at module level by one statement."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [statement.name]
    elif isinstance(statement, ast.Assign):
        names = [
            node.id
            for target in statement.targets
            for node in ast.walk(target)
            if isinstance(node, ast.Name)
        ]
    elif isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name):
        names = [statement.target.id]
    else:
        names = []
    return [name for name in names if not name.startswith("_")]


def used_names(tree):
    """Every name the code in tree loads, reads as an attribute or imports."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def unreferenced_public_names():
    definitions = []  # (module, name, defining statement)
    statements = []  # every top-level statement of src, with its names
    for path in sorted(PACKAGE.glob("*.py")):
        for statement in ast.parse(path.read_text(), str(path)).body:
            statements.append((statement, used_names(statement)))
            definitions.extend(
                (path.stem, name, statement) for name in defined_names(statement)
            )
    outside = set()
    for path in sorted((ROOT / "benchmarks").glob("*.py")):
        outside |= used_names(ast.parse(path.read_text(), str(path)))
    outside |= set(re.findall(r"\w+", (ROOT / "pyproject.toml").read_text()))
    return [
        f"{module}.{name}"
        for module, name, home in definitions
        if name not in outside
        and not any(name in used for other, used in statements if other is not home)
    ]


def attributes_read(tree):
    """How often the code in tree reads each attribute name."""
    return Counter(
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    )


def package_trees():
    """Module name -> parsed code, for each module of the package."""
    return {
        path.stem: ast.parse(path.read_text(), str(path))
        for path in sorted(PACKAGE.glob("*.py"))
    }


def overrides_outside_package(module, cls, name):
    """Whether a base class of module.cls from outside the package defines name."""
    bases = getattr(importlib.import_module(f"catalan_posets.{module}"), cls).__mro__[1:]
    return any(
        name in vars(base)
        for base in bases
        if not base.__module__.startswith("catalan_posets")
    )


def unread_public_methods(trees):
    in_src = sum(map(attributes_read, trees.values()), Counter())
    outside = set()
    for path in sorted((ROOT / "benchmarks").glob("*.py")):
        outside |= set(attributes_read(ast.parse(path.read_text(), str(path))))
    return [
        f"{cls.name}.{method.name}"
        for module, tree in trees.items()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for method in cls.body
        if isinstance(method, ast.FunctionDef)
        and not method.name.startswith("_")
        and method.name not in outside
        and in_src[method.name] == attributes_read(method)[method.name]
        and not overrides_outside_package(module, cls.name, method.name)
    ]


def test_names_are_read_from_code_not_from_docstrings():
    tree = ast.parse(
        "LIMIT: int = 3\n"
        "def walk(k):\n"
        '    """Stops at DONE; see walk_all and >>> walk(LIMIT)."""\n'
        "    return walk(k - 1) if k else step(LIMIT)\n"
    )
    first, second = tree.body
    assert defined_names(first) == ["LIMIT"]
    assert defined_names(second) == ["walk"]
    # a definition's use of its own name is dropped by the caller
    assert used_names(second) == {"walk", "k", "step", "LIMIT"}
    # plain names are no attribute reads; a method's read of itself is
    # one, which the caller takes off
    assert attributes_read(second) == Counter()
    box = ast.parse("class Box:\n    def size(self):\n        return self.size\n").body[0]
    assert attributes_read(box) == attributes_read(box.body[0]) == Counter({"size": 1})


def test_every_public_name_in_src_has_a_user_outside_the_tests():
    assert unreferenced_public_names() == []


def test_every_public_method_in_src_is_read_outside_the_tests():
    assert unread_public_methods(package_trees()) == []


def test_only_an_override_of_an_outside_base_is_exempt():
    # GradedPoset is a tuple: a count method would override tuple's, which
    # code outside the package calls; a new public method beside it
    # overrides nothing, and nothing reads it
    trees = package_trees()
    (poset,) = [
        node for node in trees["poset"].body if getattr(node, "name", None) == "GradedPoset"
    ]
    for name in ("count", "frobnicate"):
        poset.body.append(ast.parse(f"def {name}(self):\n    pass\n").body[0])
    assert unread_public_methods(trees) == ["GradedPoset.frobnicate"]


def support_reads(tree):
    """The names the code in tree reads from support: support.name, or
    from support import name."""
    reads = set()
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "support"
        ):
            reads.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.module == "support":
            reads.update(alias.name for alias in node.names)
    return reads


def unread_support_functions(support, tests):
    """Functions of support, the parsed support module, that none of the
    parsed test modules reads, directly or through support functions."""
    functions = {
        node.name: node for node in support.body if isinstance(node, ast.FunctionDef)
    }
    reached = set().union(*map(support_reads, tests))
    pending = list(reached)
    while pending:
        function = functions.get(pending.pop())
        if function is not None:
            called = used_names(function) - reached
            reached |= called
            pending.extend(called)
    return [name for name in functions if name not in reached]


def test_every_support_function_is_read_by_a_test():
    support = ast.parse((TESTS / "support.py").read_text())
    tests = [ast.parse(path.read_text()) for path in sorted(TESTS.glob("test_*.py"))]
    assert unread_support_functions(support, tests) == []


def test_a_support_function_that_no_test_reads_is_flagged():
    support = ast.parse(
        "def oracle():\n    return helper()\n"
        "def helper():\n    return 1\n"
        "def orphan():\n    return helper()\n"
    )
    tests = [ast.parse("import support\n\ndef test_x():\n    assert support.oracle()\n")]
    # helper is read through oracle; orphan's own call reaches nothing
    assert unread_support_functions(support, tests) == ["orphan"]
    tests.append(ast.parse("from support import orphan\n"))
    assert unread_support_functions(support, tests) == []


def defaulted_parameters(tree):
    """(function name, position, parameter name) for each parameter with a
    default of each function in tree; position counts the arguments a
    call passes, so a method's self or cls is not one, and is None for a
    keyword-only parameter."""
    methods = {
        id(node)
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef)
        and not any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
    }
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            positional = (args.posonlyargs + args.args)[id(node) in methods :]
            first = len(positional) - len(args.defaults)
            for position, arg in enumerate(positional[first:], first):
                yield node.name, position, arg.arg
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield node.name, None, arg.arg


def passed_arguments(tree):
    """(called name, position or keyword) for each argument that a call in
    tree passes; "*" and None stand for an unpacked *args and **kwargs."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            for position, arg in enumerate(node.args):
                yield name, "*" if isinstance(arg, ast.Starred) else position
            for keyword in node.keywords:
                yield name, keyword.arg


def unoverridden_defaults(defining, calling):
    """name(parameter) for each defaulted parameter of the functions in the
    defining trees that no call in the calling trees passes."""
    passed = {pair for tree in calling for pair in passed_arguments(tree)}
    return [
        f"{name}({parameter})"
        for tree in defining
        for name, position, parameter in defaulted_parameters(tree)
        if not {(name, position), (name, parameter), (name, "*"), (name, None)} & passed
    ]


def test_every_default_parameter_in_src_is_overridden_by_a_call():
    paths = [*PACKAGE.glob("*.py"), *TESTS.glob("*.py"), *(ROOT / "benchmarks").glob("*.py")]
    calling = [ast.parse(path.read_text(), str(path)) for path in sorted(paths)]
    assert unoverridden_defaults(package_trees().values(), calling) == []


def test_a_default_that_no_call_overrides_is_flagged():
    defining = ast.parse(
        "def grow(rows, start=None, *, limit=3):\n    return rows\n"
        "class Box:\n    @classmethod\n    def make(cls, parts, n=None):\n"
        "        return cls(parts)\n"
        "    @staticmethod\n    def mend(parts, n=None):\n        return parts\n"
    )
    calling = [ast.parse("grow([1])\ngrow([1], [0])\nBox.make(parts=[2])\nBox.mend([2], 1)\n")]
    # make's second argument is n, as cls is bound; mend binds nothing
    assert unoverridden_defaults([defining], calling) == ["grow(limit)", "make(n)"]
    calling.append(ast.parse("grow([], limit=4)\nBox.make(*([2], 8))\n"))
    assert unoverridden_defaults([defining], calling) == []


#: Standard modules that cost start-up time and that the package has no
#: use for at run time; pytest loads them itself, hence the subprocess.
#: The package's import loads none of them, and neither does a plain
#: command line: argparse (with gettext, os and warnings) only writes
#: help, usage and errors, and re with enum has no use at all.
UNWANTED_MODULES = (
    "typing", "dataclasses", "inspect", "json", "csv",
    "re", "enum", "argparse", "gettext", "os", "warnings",
)


def test_import_loads_no_unwanted_standard_module():
    probe = (
        "import catalan_posets, catalan_posets.cli, sys; "
        f"print(*sorted(set({UNWANTED_MODULES!r}) & set(sys.modules)))"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        cwd=ROOT / "src",
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout.split() == []


#: What argparse loads to size its help, through shutil.get_terminal_size.
HELP_WIDTH_MODULES = ("shutil", "bz2", "lzma", "zlib")


def test_cli_run_loads_no_shutil():
    # a plain argv of each command loads neither these nor the unwanted
    # modules; help and a usage error load argparse, which sizes its help
    # by shutil
    probe = (
        "import sys\n"
        "from catalan_posets.cli import main\n"
        "def run(*argvs):\n"
        "    for argv in argvs:\n"
        "        try:\n"
        "            main(argv)\n"
        "        except SystemExit:\n"
        "            pass\n"
        f"    watched = {HELP_WIDTH_MODULES + UNWANTED_MODULES!r}\n"
        "    print('loaded:', *sorted(set(watched) & set(sys.modules)))\n"
        "run(['enumerate', 'ncp', '--n', '3'], ['map', 'f', '{1,2}'],"
        " ['poset', 'P', '--n', '3', '--format', 'json'], ['census', '--n', '3'],"
        " ['verify', '--checks', 'lemma', '--n', '4'])\n"
        "run(['census', '--n', 'x'], ['verify', '--help'])\n"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        cwd=ROOT / "src",
        capture_output=True,
        text=True,
        check=True,
    )
    assert "usage:" in result.stdout and "invalid int value" in result.stderr
    plain, other = [line for line in result.stdout.splitlines() if line.startswith("loaded:")]
    assert plain == "loaded:"
    assert "argparse" in other.split()
