"""Every public function and method of the package has a caller outside the tests.

A function or method defined at module or class level in `src/dyadiclab/*.py`,
whose name does not start with an underscore, counts as called when some module
of `src/dyadiclab`, `scripts` or `perfbench` refers to it: a method only as an
attribute (`x.name`), a function as a loaded name, an attribute, an imported
name or an `__all__` entry.  A local variable that shares a method's name, or a
name only ever assigned, does not count.  Tests do not count: code only its own
tests call is dead.  Only the standard library's `ast` is needed.
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
}


def public_definitions(source: str) -> list:
    """(name, whether a method) of each public function and method a module defines."""
    tree = ast.parse(source)
    bodies = [(tree.body, False)] + [(node.body, True) for node in tree.body
                                     if isinstance(node, ast.ClassDef)]
    return [(node.name, method) for body, method in bodies for node in body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]


def references(source: str) -> tuple:
    """(attribute names, other references) of a module: the names it loads, the
    names it imports and its `__all__` entries."""
    attributes, names = set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            attributes.add(node.attr)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Assign) and any(getattr(target, "id", None) == "__all__"
                                                  for target in node.targets):
            names.update(ast.literal_eval(node.value))
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
                "def imported(): pass\ndef listed(): pass\ndef assigned(): pass\n"
                "class Box:\n    def open(self): pass\n    def shut(self): pass\n"
                "    def __len__(self): return 0\n    def inner(self):\n"
                "        def nested(): pass\n"
                "    def geometry(self): pass\n    def dual(self): pass\n")
    calling = ("from box import imported\n__all__ = ['listed', 'shut']\nused()\n"
               "Box().open()\nBox().inner()\n"
               "assigned = 1\ngeometry = {}\ngeometry[0] = 1\n"
               "for dual in (1, 2):\n    print(dual)\n")
    assert uncalled([defining], [calling]) == ["dead", "assigned", "shut", "geometry", "dual"]


def test_every_public_function_has_a_caller_outside_the_tests():
    dead = uncalled([path.read_text() for path in DEFINING],
                    [path.read_text() for path in CALLING])
    assert sorted(dead) == sorted(KEEP)
