"""Every public function and method of the package has a caller outside the tests.

A function or method defined at module or class level in `src/dyadiclab/*.py`,
whose name does not start with an underscore, counts as called when its name
appears as a name, an attribute or an `__all__` entry in some module of
`src/dyadiclab`, `scripts` or `perfbench`.  Tests do not count: code only its
own tests call is dead.  Only the standard library's `ast` is needed.
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
    """Names of the public functions and methods a module defines."""
    tree = ast.parse(source)
    bodies = [tree.body] + [node.body for node in tree.body if isinstance(node, ast.ClassDef)]
    return [node.name for body in bodies for node in body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]


def referenced_names(source: str) -> set:
    """Every name, attribute and `__all__` entry a module mentions."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Assign) and any(getattr(target, "id", None) == "__all__"
                                                  for target in node.targets):
            names.update(ast.literal_eval(node.value))
    return names


def uncalled(defining: list, calling: list) -> list:
    """Public definitions of the `defining` sources that no `calling` source names."""
    names = set().union(*map(referenced_names, calling))
    return [name for source in defining for name in public_definitions(source)
            if name not in names]


def test_scan_finds_an_uncalled_function():
    defining = ("def used(): pass\ndef dead(): pass\ndef _private(): pass\n"
                "class Box:\n    def open(self): pass\n    def shut(self): pass\n"
                "    def __len__(self): return 0\n    def inner(self):\n"
                "        def nested(): pass\n")
    calling = "__all__ = ['inner']\nused()\nBox().open()\n"
    assert uncalled([defining], [calling]) == ["dead", "shut"]


def test_every_public_function_has_a_caller_outside_the_tests():
    dead = uncalled([path.read_text() for path in DEFINING],
                    [path.read_text() for path in CALLING])
    assert sorted(dead) == sorted(KEEP)
