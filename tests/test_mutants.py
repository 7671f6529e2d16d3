"""The mutant list of `tests/mutants.py` stays runnable: every patch applies
exactly once to the tree as it is, and every test named to kill a mutant
exists, and the runner refuses an entry the list does not hold.  Nothing is
run or patched here; `python tests/mutants.py [N ...]` runs them.
"""

import ast
import re
from pathlib import Path

import pytest
from mutants import MUTANTS, ROOT, chosen, label


@pytest.mark.parametrize("mutant", MUTANTS, ids=label)
def test_each_mutant_applies_once_and_names_a_test_that_exists(mutant):
    assert mutant.new != mutant.old
    assert (ROOT / mutant.file).read_text().count(mutant.old) == 1
    file, function = mutant.killer.split("::")
    tree = ast.parse((ROOT / file).read_text())
    assert function in {n.name for n in tree.body if isinstance(n, ast.FunctionDef)}


def test_the_list_holds_each_patch_once():
    assert len({(m.file, m.old) for m in MUTANTS}) == len(MUTANTS)


def test_the_runner_takes_the_listed_entries_or_all():
    assert chosen([]) == list(range(1, len(MUTANTS) + 1))
    assert chosen(["3", "1"]) == [3, 1]


@pytest.mark.parametrize("arg", ["0", str(len(MUTANTS) + 1), "-1", "x", "2.0", ""])
def test_the_runner_refuses_an_entry_outside_the_list(arg):
    with pytest.raises(SystemExit, match=re.escape(f"no entry {arg!r}; the list holds 1 to")):
        chosen(["1", arg])
