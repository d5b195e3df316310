"""Atomic file publication: the one write-then-rename every store uses.

Corpus entries and finding buckets, telemetry manifests and metric
snapshots, shard checkpoints and service job manifests are all
published the same way: write a private temp file in the target's
directory, then ``os.replace`` it over the final name. A reader sees
the old file or the new one, never a torn mix.

The guarantee is *process-crash* durability. A writer killed at any
point (SIGKILL, the OOM killer, a supervisor's pool restart) leaves
either the complete new file or the previous state, plus at worst a
stale temp file. Nothing here calls ``fsync``, so a power loss or
kernel crash may still lose or truncate a recently published file.

Temp names start with a dot and end in ``.tmp``
(``.<name>.<pid>.<thread>.tmp``), so no reader glob — ``*.json``,
``job-*.json``, ``campaign-*.bin``, ``*.jsonl`` — can pick up a
leftover. The pid and thread id keep concurrent writers of one file
(shard workers racing on a corpus bucket) off each other's temp files.
"""

from __future__ import annotations

import os
import threading
from pathlib import Path


def temp_path(path: Path) -> Path:
    """The private temp file a writer of *path* publishes from."""
    return path.with_name(
        f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp"
    )


def atomic_write(path: Path, data: str | bytes) -> None:
    """Publish *data* at *path* atomically (same-directory rename).

    Text is written UTF-8. Survives a killed process, not a power loss:
    see the module docstring.
    """
    tmp = temp_path(path)
    if isinstance(data, bytes):
        tmp.write_bytes(data)
    else:
        tmp.write_text(data, encoding="utf-8")
    os.replace(tmp, path)
