"""Write corpora in the legacy JSON-file layout, for importer tests.

The layout older releases wrote, file for file::

    entries/<entry id>.json     the entry's canonical JSON line
    findings/<bucket id>.json   the bucket's record, sorted-key JSON
    corpus.jsonl                canonical (cmin) entries, one per line
    corpus.meta.json            {"entry_count", "max_entry_id"} census

Repeated records of one bucket fold the way the old store folded
them: the first record stays, occurrences add up.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

from repro.corpus.entry import entry_line
from repro.corpus.findings import record_to_dict
from repro.corpus.sqlite_backend import cmin_update


def legacy_canonical(entries) -> list:
    """Full-scan cmin over *entries*, sorted by entry ID."""
    winners: dict[str, tuple[int, str]] = {}
    by_id = cmin_update(winners, entries)
    return sorted(
        {by_id[entry_id] for _, entry_id in winners.values()},
        key=lambda entry: entry.entry_id,
    )


def write_legacy_corpus(
    root, entries=(), records=(), minimize=False, census=True
) -> Path:
    """Write *entries* and *records* under *root* in the legacy layout.

    With *minimize*, also write the canonical corpus, plus its census
    unless *census* is False.
    """
    root = Path(root)
    (root / "entries").mkdir(parents=True, exist_ok=True)
    (root / "findings").mkdir(parents=True, exist_ok=True)
    for entry in entries:
        (root / "entries" / f"{entry.entry_id}.json").write_text(
            entry_line(entry), encoding="utf-8"
        )
    buckets: dict[str, object] = {}
    for record in records:
        seen = buckets.get(record.bucket_id)
        buckets[record.bucket_id] = (
            record
            if seen is None
            else dataclasses.replace(
                seen, occurrences=seen.occurrences + record.occurrences
            )
        )
    for bucket_id, record in buckets.items():
        (root / "findings" / f"{bucket_id}.json").write_text(
            json.dumps(record_to_dict(record), sort_keys=True) + "\n",
            encoding="utf-8",
        )
    if minimize:
        canonical = legacy_canonical(entries)
        (root / "corpus.jsonl").write_text(
            "".join(entry_line(entry) for entry in canonical), encoding="utf-8"
        )
        if census:
            (root / "corpus.meta.json").write_text(
                json.dumps(
                    {
                        "entry_count": len(entries),
                        "max_entry_id": max(
                            (entry.entry_id for entry in entries), default=""
                        ),
                    },
                    sort_keys=True,
                )
                + "\n",
                encoding="utf-8",
            )
    return root
