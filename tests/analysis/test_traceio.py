"""Tests for trace serialisation and reload."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.metrics import measure
from repro.analysis.sniffer import Direction
from repro.analysis.state_coverage import StateCoverageAnalyzer, state_coverage
from repro.analysis.traceio import (
    dump_trace,
    load_trace,
    packets_from_hex,
    packets_to_hex,
    save_trace,
)
from repro.core.config import FuzzConfig
from repro.core.fuzzer import L2Fuzz
from repro.corpus.entry import dict_to_entry, entry_from_packets, entry_to_dict

from tests.conftest import make_rig


def _campaign_sniffer(max_packets=600):
    device, link, _ = make_rig(armed=False)
    fuzzer = L2Fuzz(
        link=link,
        inquiry=device.inquiry,
        browse=device.services.all_records,
        config=FuzzConfig(max_packets=max_packets),
    )
    fuzzer.run()
    return fuzzer.sniffer


class TestRoundTrip:
    def test_dump_and_load_preserve_length(self):
        sniffer = _campaign_sniffer()
        entries = load_trace(dump_trace(sniffer))
        assert len(entries) == len(sniffer.trace)

    def test_reloaded_metrics_match_original(self):
        """The key property: a saved trace carries the live run's Table VII counts."""
        sniffer = _campaign_sniffer()
        entries = load_trace(dump_trace(sniffer))
        sent = [e for e in entries if e.direction is Direction.SENT]
        received = [e for e in entries if e.direction is Direction.RECEIVED]
        original = measure(sniffer, 1.0)
        assert len(sent) == original.transmitted
        assert sum(e.malformed for e in sent) == original.malformed
        assert len(received) == original.received
        assert sum(e.rejection for e in received) == original.rejections

    def test_reloaded_state_coverage_matches(self):
        sniffer = _campaign_sniffer(1500)
        analyzer = StateCoverageAnalyzer()
        for entry in load_trace(dump_trace(sniffer)):
            analyzer.feed(entry)
        assert analyzer.coverage() == state_coverage(sniffer)
        assert len(analyzer.coverage()) > 1

    def test_directions_and_flags_survive(self):
        sniffer = _campaign_sniffer(100)
        entries = load_trace(dump_trace(sniffer))
        for original, reloaded in zip(sniffer.trace, entries):
            assert reloaded.direction is original.direction
            assert reloaded.malformed == original.malformed
            assert reloaded.rejection == original.rejection
            assert reloaded.packet.encode() == original.packet.encode()

    def test_file_round_trip(self, tmp_path):
        sniffer = _campaign_sniffer(200)
        path = tmp_path / "trace.jsonl"
        count = save_trace(sniffer, path)
        assert count == len(sniffer.trace)
        reloaded = load_trace(path.read_text(encoding="utf-8"))
        assert [entry.packet.encode() for entry in reloaded] == [
            entry.packet.encode() for entry in sniffer.trace
        ]

    def test_blank_lines_skipped(self):
        sniffer = _campaign_sniffer(50)
        text = dump_trace(sniffer) + "\n\n\n"
        assert len(load_trace(text)) == len(sniffer.trace)


class TestPacketSequences:
    """Hex packet-sequence helpers, the corpus entry wire format."""

    def test_hex_round_trip_is_byte_exact(self):
        sniffer = _campaign_sniffer(150)
        packets = [entry.packet for entry in sniffer.sent()]
        reloaded = packets_from_hex(packets_to_hex(packets))
        assert [p.encode() for p in reloaded] == [p.encode() for p in packets]

    def test_corpus_entry_round_trips_through_json(self):
        """Satellite property: a campaign-recorded corpus entry survives
        serialisation with its packets byte-exact and its ID intact."""
        sniffer = _campaign_sniffer(150)
        packets = [entry.packet for entry in sniffer.sent()][:20]
        entry = entry_from_packets(
            packets,
            unlocked=["WAIT_CONNECT"],
            covered=["CLOSED", "WAIT_CONNECT"],
            device_id="D2",
            strategy="sequential",
            seed=7,
            armed=False,
        )
        reloaded = dict_to_entry(json.loads(json.dumps(entry_to_dict(entry))))
        assert reloaded == entry
        assert reloaded.entry_id == entry.entry_id
        assert [p.encode() for p in reloaded.decode_packets()] == [
            p.encode() for p in packets
        ]

    @given(
        sniffer_budget=st.just(80),
        sort_keys=st.booleans(),
        indent=st.sampled_from([None, 2]),
    )
    @settings(max_examples=8, deadline=None)
    def test_entry_id_stable_under_serialisation_style(
        self, sniffer_budget, sort_keys, indent
    ):
        """Whatever JSON style a writer picked — sorted or insertion
        keys, compact or indented — the reloaded ID is identical."""
        sniffer = _campaign_sniffer(sniffer_budget)
        packets = [entry.packet for entry in sniffer.sent()][:10]
        entry = entry_from_packets(
            packets, ["CLOSED"], ["CLOSED"], "D2", "sequential", 7, False
        )
        rendered = json.dumps(
            entry_to_dict(entry), sort_keys=sort_keys, indent=indent
        )
        assert dict_to_entry(json.loads(rendered)).entry_id == entry.entry_id
