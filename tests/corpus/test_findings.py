"""Tests for finding records and the corpus database's finding buckets."""

from __future__ import annotations

import dataclasses

from repro.core.config import FuzzConfig
from repro.corpus.backend import open_backend
from repro.corpus.findings import (
    FindingRecord,
    dict_to_record,
    record_to_dict,
    shrink_finding,
    trigger_hash,
)
from repro.l2cap.packets import (
    configuration_request,
    connection_request,
    echo_request,
)
from repro.testbed.profiles import D2, D4
from repro.testbed.session import FuzzSession


def _record(**overrides) -> FindingRecord:
    packets = [
        connection_request(psm=0x0001, scid=0x40, identifier=1),
        configuration_request(dcid=0x0999, identifier=2),
    ]
    fields = dict(
        vendor="Google",
        vulnerability_class="DoS",
        trigger="CONFIGURATION_REQ(...)",
        trigger_hash=trigger_hash(packets),
        device_id="D2",
        state="WAIT_CONFIG",
        error_message="Connection Failed",
        packets=tuple(p.encode().hex() for p in packets),
        crash_id="bluedroid-cidp-null-deref",
        sim_time=12.5,
    )
    fields.update(overrides)
    return FindingRecord(**fields)


def record_from_campaign(database, finding, profile, packets, minimize=True):
    """:func:`shrink_finding`, then store the record in *database*.

    Returns the database status, or ``"not-reproducible"`` when the
    prefix does not crash a fresh target (nothing is stored).
    """
    record = shrink_finding(finding, profile, packets, minimize)
    if record is None:
        return "not-reproducible"
    counts = database.ingest([((), [record])])[0]
    return "new" if counts["findings_new"] else "duplicate"


class TestTriggerHash:
    def test_shape_invariant_to_field_values(self):
        """Same command skeleton, different seeds: one bucket."""
        first = [
            connection_request(psm=0x0001, scid=0x40, identifier=7),
            configuration_request(dcid=0x1234, identifier=8),
        ]
        second = [
            connection_request(psm=0x0019, scid=0x99, identifier=200),
            configuration_request(dcid=0xBEEF, identifier=201),
        ]
        assert trigger_hash(first) == trigger_hash(second)

    def test_different_shapes_bucket_apart(self):
        assert trigger_hash([echo_request(b"x")]) != trigger_hash(
            [connection_request(psm=1, scid=0x40)]
        )


class TestDatabase:
    def test_round_trip(self):
        record = _record()
        assert dict_to_record(record_to_dict(record)) == record

    def test_new_then_duplicate(self, tmp_path):
        database = open_backend(tmp_path)
        assert database.ingest([((), [_record()])])[0]["findings_new"] == 1
        counts = database.ingest([((), [_record()])])[0]
        assert counts["findings_duplicate"] == 1
        assert database.finding_count() == 1
        assert database.finding_records()[0].occurrences == 2

    def test_duplicate_across_database_instances(self, tmp_path):
        """Cross-run dedup: a fresh handle sees the stored buckets."""
        first = open_backend(tmp_path).ingest([((), [_record()])])[0]
        second = open_backend(tmp_path).ingest([((), [_record()])])[0]
        assert first["findings_new"] == 1
        assert second["findings_duplicate"] == 1

    def test_distinct_keys_make_distinct_buckets(self, tmp_path):
        database = open_backend(tmp_path)
        database.ingest([((), [_record()])])
        database.ingest([((), [_record(vendor="Apple")])])
        database.ingest([((), [_record(vulnerability_class="Crash")])])
        assert database.finding_count() == 3

    def test_garbage_dictionary(self, tmp_path):
        database = open_backend(tmp_path)
        trigger = configuration_request(dcid=0x0999, identifier=2)
        trigger = trigger.replace(garbage=b"\xd2\x3a\x91\x0e")
        record = _record(packets=tuple([trigger.encode().hex()]))
        database.ingest([((), [record])])
        assert database.garbage_dictionary() == (b"\xd2\x3a\x91\x0e",)

    def test_key_uses_trigger_hash(self):
        record = _record()
        assert record.key == ("l2cap", "Google", "DoS", record.trigger_hash)


class TestRecordFromCampaign:
    def _campaign(self):
        session = FuzzSession(D2, FuzzConfig(max_packets=50_000))
        report = session.run()
        assert report.vulnerability_found
        return session, report

    def test_campaign_finding_is_minimised_and_stored(self, tmp_path):
        session, report = self._campaign()
        database = open_backend(tmp_path)
        packets = [entry.packet for entry in session.fuzzer.sniffer.sent()]
        status = record_from_campaign(
            database, report.findings[0], D2, packets
        )
        assert status == "new"
        record = database.finding_records()[0]
        assert record.crash_id == "bluedroid-cidp-null-deref"
        assert len(record.packets) <= 4  # minimised from ~226
        assert record.vendor == "Google"

    def test_non_reproducible_prefix_not_stored(self, tmp_path):
        _, report = self._campaign()
        database = open_backend(tmp_path)
        benign = [echo_request(b"x", identifier=1)]
        status = record_from_campaign(
            database, report.findings[0], D2, benign
        )
        assert status == "not-reproducible"
        assert database.finding_count() == 0

    def test_same_bug_other_seed_is_duplicate(self, tmp_path):
        database = open_backend(tmp_path)
        for seed in (0x1202, 0x0707):
            session = FuzzSession(D2, FuzzConfig(max_packets=50_000, seed=seed))
            report = session.run()
            packets = [entry.packet for entry in session.fuzzer.sniffer.sent()]
            record_from_campaign(database, report.findings[0], D2, packets)
        assert database.finding_count() == 1
        assert database.finding_records()[0].occurrences == 2


def test_occurrences_merge_preserves_first_record(tmp_path):
    database = open_backend(tmp_path)
    database.ingest([((), [_record(sim_time=1.0)])])
    later = dataclasses.replace(_record(), sim_time=99.0, device_id="D4")
    database.ingest([((), [later])])
    record = database.finding_records()[0]
    assert record.sim_time == 1.0
    assert record.device_id == "D2"
    assert record.occurrences == 2


def test_clean_device_never_records(tmp_path):
    """D4 has no injected bugs: campaigns produce nothing to store."""
    session = FuzzSession(D4, FuzzConfig(max_packets=1500))
    report = session.run()
    assert not report.vulnerability_found
    assert open_backend(tmp_path).finding_count() == 0
