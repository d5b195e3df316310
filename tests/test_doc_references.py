"""Sphinx cross-references in ``src`` docstrings name things that exist.

Every ``:func:``, ``:meth:``, ``:class:``, ``:data:``, ``:exc:`` and
``:mod:`` target spelled as a full ``repro.…`` path (with or without
the leading ``~``) must import: a deleted or renamed definition leaves
no dangling reference behind.
"""

from __future__ import annotations

import importlib
import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
_REFERENCE = re.compile(r":(?:func|meth|class|data|exc|mod):`~?(repro(?:\.\w+)+)`")


def _resolve(target: str) -> None:
    parts = target.split(".")
    for split in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:split]))
        except ModuleNotFoundError:
            continue
        for name in parts[split:]:
            obj = getattr(obj, name)
        return
    raise ModuleNotFoundError(target)


def test_every_reference_resolves():
    references = {
        (path.relative_to(SRC).as_posix(), target)
        for path in SRC.rglob("*.py")
        for target in _REFERENCE.findall(path.read_text(encoding="utf-8"))
    }
    assert len(references) > 50
    dangling = []
    for where, target in sorted(references):
        try:
            _resolve(target)
        except (ImportError, AttributeError):
            dangling.append(f"{where}: {target}")
    assert not dangling, dangling
