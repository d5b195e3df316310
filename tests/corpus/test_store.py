"""Tests for the corpus database's entry side and cmin minimisation."""

from __future__ import annotations

import types

import pytest

from repro.core.config import FuzzConfig
from repro.corpus.entry import entry_from_packets
from repro.corpus.backend import open_backend
from repro.corpus.store import _detection_prefix
from repro.l2cap.packets import connection_request, echo_request
from repro.testbed.profiles import D2
from repro.testbed.session import FuzzSession


def _entry(tokens, packet_count=1, device_id="D2", armed=False, seed=7, ident=1):
    # *ident* varies the packet bytes, so entries with equal lengths can
    # still carry distinct content-hash IDs.
    packets = [
        echo_request(b"x", identifier=ident + i) for i in range(packet_count)
    ]
    return entry_from_packets(
        packets=packets,
        unlocked=tokens,
        covered=tokens,
        device_id=device_id,
        strategy="sequential",
        seed=seed,
        armed=armed,
    )


class TestStore:
    def test_empty_store(self, tmp_path):
        store = open_backend(tmp_path / "corpus")
        assert not store.exists()
        assert store.entry_count() == 0
        assert store.entries() == []
        assert store.coverage() == frozenset()

    def test_add_and_reload(self, tmp_path):
        store = open_backend(tmp_path / "corpus")
        entry = _entry(["CLOSED"], packet_count=2)
        assert store.ingest([([entry], ())])[0]["entries_added"] == 1
        assert store.exists()
        reloaded = open_backend(tmp_path / "corpus")
        assert reloaded.entries() == [entry]

    def test_add_is_idempotent(self, tmp_path):
        store = open_backend(tmp_path)
        entry = _entry(["CLOSED"])
        assert store.ingest([([entry], ())])[0]["entries_added"] == 1
        assert store.ingest([([entry], ())])[0]["entries_added"] == 0
        assert store.entry_count() == 1

    def test_entries_sorted_by_id(self, tmp_path):
        store = open_backend(tmp_path)
        for count in (3, 1, 2):
            store.ingest([([_entry(["CLOSED"], packet_count=count)], ())])
        ids = [entry.entry_id for entry in store.entries()]
        assert ids == sorted(ids)

    def test_coverage_union_and_frequencies(self, tmp_path):
        store = open_backend(tmp_path)
        store.ingest([([_entry(["CLOSED", "CLOSED>OPEN"], packet_count=1)], ())])
        store.ingest([([_entry(["CLOSED", "OPEN"], packet_count=2)], ())])
        assert store.coverage() == {"CLOSED", "OPEN", "CLOSED>OPEN"}
        # Transition tokens never count towards the state prior.
        assert store.state_frequencies() == {"CLOSED": 2, "OPEN": 1}


class TestMinimize:
    def test_cmin_prefers_cheapest_covering_entry(self, tmp_path):
        store = open_backend(tmp_path)
        store.ingest(
            [([_entry(["CLOSED", "OPEN", "WAIT_CONFIG"], packet_count=9)], ())]
        )
        store.ingest([([_entry(["CLOSED"], packet_count=1, ident=20)], ())])
        store.ingest([([_entry(["OPEN"], packet_count=1, ident=30)], ())])
        canonical = store.minimize()
        # The 9-packet entry is still the only witness of WAIT_CONFIG,
        # but CLOSED and OPEN pick their 1-packet entries.
        covered = set()
        for entry in canonical:
            covered.update(entry.covered)
        assert covered == store.coverage()
        assert len(canonical) == 3
        one_packet = [e for e in canonical if e.packet_count == 1]
        assert len(one_packet) == 2

    def test_cmin_drops_redundant_entries(self, tmp_path):
        store = open_backend(tmp_path)
        store.ingest([([_entry(["CLOSED"], packet_count=1)], ())])
        store.ingest([([_entry(["CLOSED"], packet_count=5)], ())])
        store.ingest([([_entry(["CLOSED"], packet_count=7)], ())])
        canonical = store.minimize()
        assert len(canonical) == 1
        assert canonical[0].packet_count == 1

    def test_canonical_file_round_trips(self, tmp_path):
        store = open_backend(tmp_path)
        store.ingest([([_entry(["CLOSED"], packet_count=1)], ())])
        store.ingest([([_entry(["OPEN"], packet_count=2)], ())])
        canonical = store.minimize()
        assert store.stats().canonical_count == len(canonical) == 2
        assert open_backend(tmp_path).canonical_entries() == canonical

    def test_minimize_without_write(self, tmp_path):
        store = open_backend(tmp_path)
        store.ingest([([_entry(["CLOSED"])], ())])
        assert store.minimize(write=False) == store.entries()
        assert open_backend(tmp_path).canonical_entries() == []


class TestDetectionPrefix:
    """The reproducer prefix is cut by send index, not by timestamp."""

    def test_cut_excludes_same_tick_post_detection_packets(self):
        # Five fuzz packets, then two liveness probes the detector put
        # on the wire at the detection tick itself.
        sent = [f"fuzz-{i}" for i in range(5)] + ["probe-echo", "probe-info"]
        finding = types.SimpleNamespace(sim_time=4.0, sent_index=5)
        assert _detection_prefix(sent, finding) == [
            "fuzz-0", "fuzz-1", "fuzz-2", "fuzz-3", "fuzz-4",
        ]

    def test_finding_without_send_index_is_refused(self):
        """The sent capture has no timestamps to fall back on, so a
        finding without a send index cannot be cut and must not be
        stored with a guessed prefix."""
        sent = [f"fuzz-{i}" for i in range(3)]
        finding = types.SimpleNamespace(sim_time=1.0, sent_index=None)
        with pytest.raises(ValueError, match="sent_index"):
            _detection_prefix(sent, finding)

    def test_campaign_prefix_excludes_diagnose_probes(self):
        """End-to-end pin: the detector's confirming ping shares the
        detection tick, so the old ``sim_time <=`` rule leaked it into
        the stored reproducer; the send-index cut never does."""
        session = FuzzSession(D2, FuzzConfig(max_packets=50_000))
        report = session.run()
        finding = report.findings[0]
        sent = session.fuzzer.sniffer.sent()
        assert finding.sent_index is not None
        same_tick_tail = [
            traced
            for traced in sent[finding.sent_index:]
            if traced.sim_time <= finding.sim_time
        ]
        assert same_tick_tail  # the probes the timestamp rule leaked
        prefix = _detection_prefix(session.fuzzer.sniffer.sent_packets(), finding)
        assert len(prefix) == finding.sent_index
        assert prefix[-1].describe() == finding.trigger


class TestExport:
    def test_export_jsonl(self, tmp_path):
        store = open_backend(tmp_path / "corpus")
        entry = entry_from_packets(
            [connection_request(psm=0x0001, scid=0x40, identifier=1)],
            ["WAIT_CONNECT"],
            ["WAIT_CONNECT"],
            "D5",
            "targeted",
            9,
            True,
        )
        store.ingest([([_entry(["CLOSED"])], ()), ([entry], ())])
        out = tmp_path / "all.jsonl"
        assert store.export_jsonl(out) == 2
        assert len(out.read_text().splitlines()) == 2
