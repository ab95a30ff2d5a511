"""scripts/mutants.py: the mutant list stays applicable to the current tree.

The mutation run itself (one pytest run per mutant) is a separate CI step;
these checks only read files.
"""

import re

import pytest

from test_params import ROOT, load

mutants = load("scripts/mutants.py", "shipped_mutants")
ALL = [m for m in mutants.MUTANTS] + [m for m, _ in mutants.EQUIVALENT]


@pytest.mark.parametrize("mutant", ALL, ids=[m.name for m in ALL])
def test_old_text_occurs_exactly_once_and_changes(mutant):
    text = (ROOT / mutant.path).read_text()
    assert text.count(mutant.old) == 1
    assert mutant.new != mutant.old


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=[m.name for m in mutants.MUTANTS])
def test_named_tests_exist(mutant):
    assert mutant.tests
    for node in mutant.tests:
        path, name = node.split("::")
        assert re.search(rf"^def {name}\(", (ROOT / path).read_text(), re.M), node


def test_names_are_unique():
    names = [m.name for m in ALL]
    assert len(set(names)) == len(names)


def test_apply_writes_the_new_text_into_a_copy(tmp_path):
    mutant = mutants.MUTANTS[0]
    copy = tmp_path / mutant.path
    copy.parent.mkdir(parents=True)
    copy.write_text((ROOT / mutant.path).read_text())
    assert mutants.apply(mutant, str(tmp_path))
    text = copy.read_text()
    assert mutant.new in text and mutant.old not in text
    assert not mutants.apply(mutant, str(tmp_path))  # the old text is gone
