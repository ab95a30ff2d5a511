"""Every public function and method of the package has a caller outside the tests.

A function or method defined at module or class level in `src/dyadiclab/*.py`,
whose name does not start with an underscore, counts as called when some module
of `src/dyadiclab`, `scripts` or `perfbench` uses it: a method only as an
attribute (`x.name`), a function as an attribute or a loaded name.  Three
things that share a name do not count: an attribute of numpy (`np.zeros`), a
name that the enclosing function (or one around it) binds itself, as an
argument, an assignment, a loop variable, an import or a nested definition,
and a name only imported or listed in `__all__`, as the package's `__init__`
re-exports every public function without calling it.  Tests do not count:
code only its own tests call is dead.  Only the standard library's `ast` is
needed.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFINING = sorted((ROOT / "src/dyadiclab").glob("*.py"))
CALLING = sorted(path for folder in ("src/dyadiclab", "scripts", "perfbench")
                 for path in (ROOT / folder).glob("*.py"))

# public entry points kept with no caller yet, each with its reason
KEEP = {
    "adjoint_spec": "the dual shift rows of the operator-valued and certified "
                    "experiments (ROADMAP items 9 and 14)",
    "cube_average": "an input of the per-cube oracles in tests/oracles.py (ROADMAP item 6)",
    "from_callable": "the closed-form inputs of the exact checks in the tests "
                     "(ROADMAP item 6)",
}


def public_definitions(source: str) -> list:
    """(name, whether a method) of each public function and method a module defines."""
    tree = ast.parse(source)
    bodies = [(tree.body, False)] + [(node.body, True) for node in tree.body
                                     if isinstance(node, ast.ClassDef)]
    return [(node.name, method) for body, method in bodies for node in body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def bound(function) -> set:
    """The names a function binds: its arguments, and the names its own body (not
    that of a function or class it defines) assigns, loops over, imports or defines."""
    args = function.args
    names = {arg.arg for arg in args.posonlyargs + args.args + args.kwonlyargs
             + [args.vararg, args.kwarg] if arg is not None}
    todo = list(function.body) if isinstance(function.body, list) else [function.body]
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        if not isinstance(node, ast.Lambda):
            todo.extend(ast.iter_child_nodes(node))
    return names


def references(source: str) -> tuple:
    """(attribute names, loaded names) of a module: the attributes it takes off
    anything but numpy, and the names it loads where no enclosing function binds them."""
    attributes, names = set(), set()
    todo = [(ast.parse(source), frozenset())]
    while todo:
        node, local = todo.pop()
        if isinstance(node, FUNCTIONS):
            local = local | bound(node)
        if isinstance(node, ast.Attribute):
            if not (isinstance(node.value, ast.Name) and node.value.id == "np"):
                attributes.add(node.attr)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id not in local:
                names.add(node.id)
        todo.extend((child, local) for child in ast.iter_child_nodes(node))
    return attributes, names


def uncalled(defining: list, calling: list) -> list:
    """Public definitions of the `defining` sources that no `calling` source refers to."""
    attributes, names = set(), set()
    for source in calling:
        found = references(source)
        attributes |= found[0]
        names |= found[1]
    return [name for source in defining for name, method in public_definitions(source)
            if name not in attributes and (method or name not in names)]


def test_scan_finds_an_uncalled_function():
    defining = ("def used(): pass\ndef dead(): pass\ndef _private(): pass\n"
                "def assigned(): pass\n"
                "class Box:\n    def open(self): pass\n    def shut(self): pass\n"
                "    def __len__(self): return 0\n    def inner(self):\n"
                "        def nested(): pass\n"
                "    def geometry(self): pass\n    def dual(self): pass\n")
    calling = ("used()\nBox().open()\nBox().inner()\n"
               "assigned = 1\ngeometry = {}\ngeometry[0] = 1\n"
               "for dual in (1, 2):\n    print(dual)\n")
    assert uncalled([defining], [calling]) == ["dead", "assigned", "shut", "geometry", "dual"]


def test_scan_does_not_count_numpy_attributes():
    defining = "def zeros(): pass\ndef ones(): pass\ndef norm(): pass\n"
    calling = "import numpy as np\nnp.zeros(3)\nnp.linalg.norm(x)\nlab.ones(3)\n"
    assert uncalled([defining], [calling]) == ["zeros"]


def test_scan_does_not_count_names_a_function_binds():
    defining = "".join(f"def {name}(): pass\n" for name in (
        "arg", "star", "local", "loop", "imported", "nested", "lam", "outer", "kept"))
    calling = ("def f(arg, *star):\n"
               "    local = 1\n"
               "    for loop in star:\n"
               "        from box import imported\n"
               "    def nested(): return local + outer\n"
               "    outer = lambda lam: lam + arg + star + loop + imported + nested\n"
               "    return kept, outer\n"
               "print(lam)\n")
    assert uncalled([defining], [calling]) == [
        "arg", "star", "local", "loop", "imported", "nested", "outer"]


def test_scan_does_not_count_reexports():
    defining = "def exported(): pass\ndef used(): pass\n"
    calling = "from .box import exported, used\n__all__ = ['exported', 'used']\nused()\n"
    assert uncalled([defining], [calling]) == ["exported"]


def test_every_public_function_has_a_caller_outside_the_tests():
    dead = uncalled([path.read_text() for path in DEFINING],
                    [path.read_text() for path in CALLING])
    assert sorted(dead) == sorted(KEEP)
