"""The mutation check's list (`tests/mutants.py`) still matches the source.

Running the mutants takes minutes, so tier-1 checks only that each one's
old text occurs exactly once in its file, as the script requires.
"""

import pytest

import mutants


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_old_text_occurs_once_in_src(mutant):
    text = (mutants.ROOT / "src" / "qselftest" / mutant.file).read_text()
    assert mutants.mutated(text, mutant) != text


def test_names_are_distinct():
    names = [m.name for m in mutants.MUTANTS]
    assert len(set(names)) == len(names)
