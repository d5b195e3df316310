"""Opening corpus directories and tenant namespaces.

A corpus directory is served by one
:class:`~repro.corpus.sqlite_backend.SqliteCorpusBackend`, which owns
all four persistent collections in ``corpus.sqlite3``: entries,
finding buckets, the canonical (cmin-minimised) corpus and the
aggregate stats. Every caller — ``record_campaign``, the fleet
runtime's spec-order commit (a fleet's one writer; its workers never
open the corpus), the scheduler prior, replay, the CLI, the service's
tenant namespaces — opens a corpus with :func:`open_backend` and calls
the backend directly.

Directories written by older releases hold a JSON-file layout
(``entries/``, ``findings/``) instead. This release cannot read it:
opening one raises :class:`LegacyCorpusError` rather than silently
starting an empty database next to the old files. Commit 2994a58 is
the last that can import it (``repro corpus migrate``).
"""

from __future__ import annotations

import re
from pathlib import Path

from repro.corpus.sqlite_backend import SQLITE_FILE, SqliteCorpusBackend
from repro.errors import LegacyCorpusError

#: Directories of the legacy JSON-file layout.
ENTRIES_DIR = "entries"
FINDINGS_DIR = "findings"

#: Legal corpus namespace names: a path-safe single segment. Separators
#: and a leading dot are excluded by construction, so a namespace can
#: never escape its root or shadow the root's own files.
NAMESPACE_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")


def open_backend(root) -> SqliteCorpusBackend:
    """Open the corpus at *root* (created lazily on first write).

    :raises LegacyCorpusError: when *root* holds the legacy JSON-file
        layout and no ``corpus.sqlite3``.
    """
    root = Path(root)
    if not (root / SQLITE_FILE).is_file() and any(
        (root / name).is_dir() for name in (ENTRIES_DIR, FINDINGS_DIR)
    ):
        raise LegacyCorpusError(
            f"{root} holds a legacy JSON-file corpus, which this release"
            f" cannot read; import it with 'repro corpus migrate {root}'"
            " at commit 2994a58, the last that can"
        )
    return SqliteCorpusBackend(root)


def namespace_root(root, namespace: str) -> Path:
    """The directory serving *namespace* under the corpus root *root*.

    Namespaces are the multi-tenant unit: each one is an independent
    corpus directory (its own database, entries, findings) living at
    ``<root>/<namespace>``. Names are validated against
    :data:`NAMESPACE_RE` — a single path-safe segment — so a namespace
    can never resolve outside *root*.

    :raises ValueError: on a name that fails validation.
    """
    if not NAMESPACE_RE.match(namespace):
        raise ValueError(
            f"invalid corpus namespace {namespace!r}: use 1-64 letters, "
            "digits, '.', '_' or '-', starting with a letter or digit"
        )
    return Path(root) / namespace


def open_namespace(root, namespace: str) -> SqliteCorpusBackend:
    """Open the corpus namespace *namespace* under *root*."""
    return open_backend(namespace_root(root, namespace))


__all__ = [
    "NAMESPACE_RE",
    "LegacyCorpusError",
    "namespace_root",
    "open_backend",
    "open_namespace",
]
