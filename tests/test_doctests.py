"""Run the library's docstring examples."""

import doctest
from pathlib import Path

import pytest

from hurwitznum import branchdata, formulas, perm, witnesses


@pytest.mark.parametrize("module", [perm, branchdata, formulas, witnesses])
def test_doctests(module):
    result = doctest.testmod(module)
    assert result.attempted > 0, module.__name__
    assert result.failed == 0


def test_readme_library_block():
    readme = Path(__file__).parent.parent / "README.md"
    result = doctest.testfile(str(readme), module_relative=False)
    assert result.attempted > 0
    assert result.failed == 0
