"""The mutant list of `tests/mutants.py` stays runnable: every patch applies
exactly once to the tree as it is, and every test named to kill a mutant
exists.  Nothing is run or patched here; `python tests/mutants.py` runs them.
"""

import ast
from pathlib import Path

import pytest
from mutants import MUTANTS, ROOT, label


@pytest.mark.parametrize("mutant", MUTANTS, ids=label)
def test_each_mutant_applies_once_and_names_a_test_that_exists(mutant):
    assert mutant.new != mutant.old
    assert (ROOT / mutant.file).read_text().count(mutant.old) == 1
    file, function = mutant.killer.split("::")
    tree = ast.parse((ROOT / file).read_text())
    assert function in {n.name for n in tree.body if isinstance(n, ast.FunctionDef)}


def test_the_list_holds_each_patch_once():
    assert len({(m.file, m.old) for m in MUTANTS}) == len(MUTANTS)
