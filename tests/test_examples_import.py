"""Every example script still imports against the library.

Nothing else runs ``examples/``, so a deleted or renamed library name
would break them silently. Each script is executed with a run name
other than ``__main__``: its imports and definitions run, its
``main()`` does not, which keeps this cheap.
"""

from __future__ import annotations

import runpy
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parents[1] / "examples").glob("*.py"))


def test_examples_are_found():
    assert len(EXAMPLES) >= 7


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.name)
def test_example_imports(path):
    namespace = runpy.run_path(str(path), run_name="not_main")
    assert callable(namespace["main"])
