"""Every module of the package, the tests and the scripts uses each name it imports.

A name bound by an import counts as used when it appears as a name anywhere
in the module or is listed in the module's `__all__`; `from __future__`
imports are exempt.  Only the standard library's `ast` is needed.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = sorted(path for folder in ("src/dyadiclab", "tests", "scripts")
                 for path in (ROOT / folder).glob("*.py"))


def unused_imports(source: str) -> list:
    """(line, name) of every imported name the module never uses."""
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(target, "id", None) == "__all__"
                                                for target in node.targets):
            used.update(ast.literal_eval(node.value))
    return [(node.lineno, bound)
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for bound in (alias.asname or alias.name.split(".")[0] for alias in node.names)
            if bound not in used]


def test_scan_finds_an_unused_import():
    source = ("from __future__ import annotations\nimport os\nimport os.path as osp\n"
              "from json import dumps, loads as parse\n__all__ = ['dumps']\nparse(osp.sep)\n")
    assert unused_imports(source) == [(2, "os")]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: str(path.relative_to(ROOT)))
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []
