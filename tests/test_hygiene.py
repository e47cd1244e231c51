"""Source hygiene of the package, checked with the standard library's ast.

No module imports a name it never uses, every private top-level function,
class and constant is referenced from somewhere other than its own
definition, every public method is called by the package, its benchmark
or its tools, no module reads the process environment, the CLI's command
table and the handler functions of its handler modules name each other, and
every annotation resolves at run time.
"""

import ast
import inspect
import typing
from collections import Counter
from importlib import import_module
from pathlib import Path

import pytest

from cantorval.cli import _COMMANDS

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cantorval"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TREES = {p.name: ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in MODULES}


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Names bound by import statements, with their line numbers."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                names[bound] = node.lineno
    return names


def referenced_names(nodes) -> set[str]:
    """Names loaded, attributes read and names imported anywhere below the nodes."""
    out = set()
    for root in nodes:
        for node in ast.walk(root):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                out.update(alias.name for alias in node.names)
    return out


@pytest.mark.parametrize("name", sorted(TREES))
def test_no_unused_imports(name):
    tree = TREES[name]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = sorted(
        f"{bound} (line {line})" for bound, line in imported_names(tree).items() if bound not in used
    )
    assert unused == [], f"{name} imports names it never uses: {unused}"


def private_definitions(tree: ast.Module):
    """(name, statement) of each private top-level function, class and constant."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            targets = [stmt.name]
        elif isinstance(stmt, ast.Assign):
            targets = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            targets = [stmt.target.id]
        else:
            continue
        yield from ((name, stmt) for name in targets if name.startswith("_") and not name.startswith("__"))


def unreferenced(name: str, trees: dict, kinds) -> list[str]:
    """The private definitions of the given statement kinds in module name that no
    statement of any module references, their own definitions left out."""
    dead = []
    for defined, stmt in private_definitions(trees[name]):
        if isinstance(stmt, kinds):
            others = [other for tree in trees.values() for other in tree.body if other is not stmt]
            if defined not in referenced_names(others):
                dead.append(f"{defined} (line {stmt.lineno})")
    return dead


CLASSES_AND_CONSTANTS = (ast.ClassDef, ast.Assign, ast.AnnAssign)


@pytest.mark.parametrize("name", sorted(TREES))
def test_private_functions_are_referenced(name):
    dead = unreferenced(name, TREES, ast.FunctionDef)
    assert dead == [], f"{name} defines private functions nothing references: {dead}"


@pytest.mark.parametrize("name", sorted(TREES))
def test_private_classes_and_constants_are_referenced(name):
    dead = unreferenced(name, TREES, CLASSES_AND_CONSTANTS)
    assert dead == [], f"{name} defines private classes or constants nothing references: {dead}"


def test_unreferenced_flags_dead_classes_and_constants():
    source = "_USED = 1\n_DEAD = 2\n_TYPED: int = 3\nclass _Gone:\n    pass\n\n\ndef f():\n    return _USED\n"
    # assigning the same name in another module is no reference
    trees = {"m.py": ast.parse(source), "n.py": ast.parse("_DEAD = 4\n")}
    assert unreferenced("m.py", trees, CLASSES_AND_CONSTANTS) == ["_DEAD (line 2)", "_TYPED (line 3)", "_Gone (line 4)"]


def public_methods(tree: ast.Module):
    """(class, method, definition) of each public method of each class in the tree."""
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            for stmt in cls.body:
                if isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("_"):
                    yield cls.name, stmt.name, stmt


def member_references(root) -> Counter:
    """Attribute reads and identifier strings below root, such as obj.name and
    the names in a table that getattr looks up."""
    refs = Counter()
    for node in ast.walk(root):
        if isinstance(node, ast.Attribute):
            refs[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            refs[node.value] += 1
    return refs


def unused_methods(package: dict, callers) -> set[tuple[str, str]]:
    """(class, method) of each public method in the package trees that nothing
    in the package or caller trees references but its own definition."""
    refs = sum((member_references(tree) for tree in (*package.values(), *callers)), Counter())
    return {
        (cls, name)
        for tree in package.values()
        for cls, name, stmt in public_methods(tree)
        if refs[name] == member_references(stmt)[name]
    }


# members kept as public API for users and tests though no module calls them
UNCALLED_API = {
    ("RatioSequence", "constant"),
    ("_Interval", "length"),
    ("ClosedInterval", "contains"),
    ("OpenInterval", "contains"),
}


def test_every_public_method_is_called():
    package = {p.name: ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in PACKAGE.glob("*.py")}
    callers = [
        ast.parse(p.read_text(encoding="utf-8"), filename=str(p))
        for folder in ("perfbench", "tools")
        for p in sorted((ROOT / folder).glob("*.py"))
    ]
    unused = unused_methods(package, callers)
    assert sorted(unused - UNCALLED_API) == [], "public methods nothing in src/, perfbench/ or tools/ calls"
    assert sorted(UNCALLED_API - unused) == [], "methods exempted here that something now calls"


def test_unused_methods_counts_attribute_reads_and_names_in_strings():
    source = (
        "class A:\n    def read(self):\n        return self.read\n    def named(self):\n        pass\n"
        "    def gone(self):\n        return self.gone()\n    def _private(self):\n        pass\n"
    )
    caller = ast.parse("a.read()\nTABLE = ('named',)\n")
    assert unused_methods({"m.py": ast.parse(source)}, [caller]) == {("A", "gone")}


ENVIRONMENT = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(tree: ast.Module) -> list[str]:
    """Each read of the process environment through the os module, by line."""
    imports = (a for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names)
    modules = {"os"} | {a.asname for a in imports if a.name == "os" and a.asname}
    reads = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "os":
            reads += [f"from os import {a.name} (line {node.lineno})" for a in node.names if a.name in ENVIRONMENT]
        elif isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT:
            if isinstance(node.value, ast.Name) and node.value.id in modules:
                reads.append(f"{node.value.id}.{node.attr} (line {node.lineno})")
    return reads


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_reads_the_environment(path):
    # a request's result depends on its command line alone
    reads = environment_reads(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
    assert reads == [], f"{path.name} reads the process environment: {reads}"


def test_environment_reads_flags_every_spelling():
    source = "import os\nimport os as o\nfrom os import getenvb, sep\nos.environ['A']\no.getenv('B')\nos.environb\nos.sep\n"
    assert set(environment_reads(ast.parse(source))) == {
        "from os import getenvb (line 3)", "os.environ (line 4)", "o.getenv (line 5)", "os.environb (line 6)"
    }


def command_handlers(trees: dict) -> set[tuple[str, str]]:
    """(module, function) of each top-level cmd_* function of the handler modules _cli_*.py."""
    return {
        (name.removesuffix(".py"), stmt.name)
        for name, tree in trees.items()
        if name.startswith("_cli_")
        for stmt in tree.body
        if isinstance(stmt, ast.FunctionDef) and stmt.name.startswith("cmd_")
    }


def test_each_command_reaches_a_handler_and_each_handler_a_command():
    # main runs cmd_<command> of the module the command's entry names
    wired = {(module, f"cmd_{command}") for command, (module, *_) in _COMMANDS.items()}
    defined = command_handlers(TREES)
    assert sorted(wired - defined) == [], "commands whose module defines no handler of that name"
    assert sorted(defined - wired) == [], "handlers that no command's entry reaches"


def test_command_handlers_reads_the_top_level_functions_of_handler_modules():
    source = (
        "def cmd_a(args, budget):\n    def cmd_inner():\n        pass\n"
        "class C:\n    def cmd_b(self):\n        pass\n\n\ndef _cmd_helper():\n    pass\n"
    )
    trees = {"_cli_x.py": ast.parse(source), "cli.py": ast.parse("def cmd_c(args, budget):\n    pass\n")}
    assert command_handlers(trees) == {("_cli_x", "cmd_a")}


def annotated_definitions(module) -> dict:
    """Each class, function and method that module defines, by qualified name: a
    method seen through its classmethod, staticmethod or property, and a function
    through its functools wrapper."""
    out = {}
    for value in vars(module).values():
        if getattr(value, "__module__", None) != module.__name__:
            continue
        members = vars(value).values() if isinstance(value, type) else ()
        for item in (value, *members):
            item = inspect.unwrap(getattr(item, "__func__", getattr(item, "fget", item)))
            if isinstance(item, type) or inspect.isfunction(item):
                out[item.__qualname__] = item
    return out


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_annotation_resolves(path):
    # typing.get_type_hints evaluates each annotation in the module's globals, so
    # a name imported only inside a function, or not at all, fails here
    name = "cantorval" if path.name == "__init__.py" else f"cantorval.{path.stem}"
    failures = []
    for qualname, item in sorted(annotated_definitions(import_module(name)).items()):
        try:
            typing.get_type_hints(item)
        except NameError as exc:
            failures.append(f"{qualname}: {exc}")
    assert failures == [], f"{path.name} has annotations that do not resolve: {failures}"
