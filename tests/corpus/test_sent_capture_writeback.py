"""Write-back from the sent capture stores what the full trace stores.

Fleet workers with a corpus run their campaigns on the sent capture
(``retain_trace="sent"``) instead of the full two-way trace. Write-back
reads only the sent packets, so the database it writes must be the same
byte for byte: the whole ``iterdump()``, entries, coverage and shrunk
findings included.
"""

from __future__ import annotations

import sqlite3

import pytest

from repro.analysis.sniffer import SENT_ONLY
from repro.core.config import FuzzConfig
from repro.corpus.store import record_campaign
from repro.testbed.profiles import D1
from repro.testbed.session import FuzzSession

#: The injected bugs live in the L2CAP and RFCOMM stacks; the SDP and
#: OBEX servers have none, so their campaigns store entries only.
TARGETS_WITH_FINDINGS = ("l2cap", "rfcomm")


def _dump(root) -> list[str]:
    connection = sqlite3.connect(root / "corpus.sqlite3")
    try:
        return list(connection.iterdump())
    finally:
        connection.close()


@pytest.mark.parametrize("target", ["l2cap", "rfcomm", "sdp", "obex"])
def test_sent_capture_and_full_trace_write_identical_corpora(tmp_path, target):
    dumps = []
    for retain in (SENT_ONLY, True):
        session = FuzzSession(
            D1,
            FuzzConfig(seed=3, max_packets=3_000),
            armed=True,
            retain_trace=retain,
            target=target,
        )
        report = session.run()
        if target in TARGETS_WITH_FINDINGS:
            assert report.findings, "the armed campaign must find its bug"
        root = tmp_path / f"corpus-{retain}"
        stats = record_campaign(root, D1, session.fuzzer, report, armed=True)
        assert stats["entries_added"] > 0
        assert stats["findings_new"] == len(report.findings)
        dumps.append(_dump(root))
    assert dumps[0] == dumps[1]
