"""Tests for the SDP server, client and the over-the-air browse."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.target_scanning import TargetScanner
from repro.errors import ScanError
from repro.l2cap.constants import Psm
from repro.sdp.client import SdpClient
from repro.sdp.constants import (
    AttributeId,
    ErrorCode,
    PduId,
    ServiceClass,
)
from repro.sdp.data_elements import ElementType, sequence, uint, uint32, uuid16
from repro.sdp.pdu import (
    ErrorResponse,
    SdpPdu,
    ServiceAttributeRequest,
    ServiceAttributeResponse,
    ServiceSearchAttributeRequest,
    ServiceSearchRequest,
    ServiceSearchResponse,
)
from repro.sdp.records import build_records
from repro.sdp.server import SdpServer
from repro.stack.services import ServiceDirectory, ServiceRecord
from repro.testbed.profiles import ALL_PROFILES

from tests.conftest import make_rig, make_services


def _server() -> SdpServer:
    return SdpServer(make_services())


class TestRecords:
    def test_one_record_per_service(self):
        records = build_records(make_services())
        assert len(records) == 3
        assert len({r.handle for r in records}) == 3

    def test_record_attributes_carry_psm(self):
        records = build_records(make_services())
        sdp_record = next(r for r in records if r.service.psm == Psm.SDP)
        attrs = sdp_record.attributes()
        assert AttributeId.PROTOCOL_DESCRIPTOR_LIST in attrs
        assert AttributeId.SERVICE_NAME in attrs

    def test_browse_root_matches_everything(self):
        records = build_records(make_services())
        assert all(
            r.matches_uuid(ServiceClass.PUBLIC_BROWSE_ROOT) for r in records
        )


class TestServer:
    def test_service_search_finds_browse_root(self):
        server = _server()
        request = ServiceSearchRequest(
            sequence(uuid16(ServiceClass.PUBLIC_BROWSE_ROOT)), max_record_count=10
        )
        raw = server.handle_request(
            SdpPdu(PduId.SERVICE_SEARCH_REQUEST, 7, request.encode()).encode()
        )
        pdu = SdpPdu.decode(raw)
        assert pdu.pdu_id == PduId.SERVICE_SEARCH_RESPONSE
        assert pdu.transaction_id == 7
        response = ServiceSearchResponse.decode(pdu.parameters)
        assert len(response.handles) == 3

    def test_max_record_count_respected(self):
        server = _server()
        request = ServiceSearchRequest(
            sequence(uuid16(ServiceClass.PUBLIC_BROWSE_ROOT)), max_record_count=1
        )
        raw = server.handle_request(
            SdpPdu(PduId.SERVICE_SEARCH_REQUEST, 1, request.encode()).encode()
        )
        response = ServiceSearchResponse.decode(SdpPdu.decode(raw).parameters)
        assert len(response.handles) == 1

    def test_service_attribute_request(self):
        server = _server()
        handle = server.records[0].handle
        request = ServiceAttributeRequest(
            record_handle=handle,
            max_attribute_bytes=0xFFFF,
            attribute_id_list=sequence(uint32(0x0000FFFF)),
        )
        raw = server.handle_request(
            SdpPdu(PduId.SERVICE_ATTRIBUTE_REQUEST, 2, request.encode()).encode()
        )
        pdu = SdpPdu.decode(raw)
        assert pdu.pdu_id == PduId.SERVICE_ATTRIBUTE_RESPONSE
        response = ServiceAttributeResponse.decode(pdu.parameters)
        assert response.attribute_list.value  # non-empty

    def test_unknown_handle_yields_error(self):
        server = _server()
        request = ServiceAttributeRequest(
            record_handle=0xDEADBEEF,
            max_attribute_bytes=0xFFFF,
            attribute_id_list=sequence(uint32(0x0000FFFF)),
        )
        raw = server.handle_request(
            SdpPdu(PduId.SERVICE_ATTRIBUTE_REQUEST, 3, request.encode()).encode()
        )
        pdu = SdpPdu.decode(raw)
        assert pdu.pdu_id == PduId.ERROR_RESPONSE
        error = ErrorResponse.decode(pdu.parameters)
        assert error.error_code == ErrorCode.INVALID_SERVICE_RECORD_HANDLE

    def test_garbage_request_yields_error(self):
        server = _server()
        raw = server.handle_request(b"\xff\x00")
        pdu = SdpPdu.decode(raw)
        assert pdu.pdu_id == PduId.ERROR_RESPONSE

    def test_broken_syntax_yields_error(self):
        server = _server()
        raw = server.handle_request(
            SdpPdu(PduId.SERVICE_SEARCH_REQUEST, 5, b"\x00").encode()
        )
        pdu = SdpPdu.decode(raw)
        assert pdu.pdu_id == PduId.ERROR_RESPONSE

    def test_unknown_pdu_id_yields_error(self):
        server = _server()
        raw = server.handle_request(SdpPdu(0x7E, 5, b"").encode())
        assert SdpPdu.decode(raw).pdu_id == PduId.ERROR_RESPONSE


_PROFILE_SERVERS = tuple(
    SdpServer(ServiceDirectory(list(profile.services))) for profile in ALL_PROFILES
)
_LIVE_UUIDS = sorted(
    {
        uuid
        for server in _PROFILE_SERVERS
        for record in server.records
        for uuid in record.uuids
    }
)


class TestMatchingPrefilter:
    """Skipping the scan when a searched UUID is in no record changes nothing."""

    @settings(max_examples=300, deadline=None)
    @given(
        server=st.sampled_from(_PROFILE_SERVERS),
        children=st.lists(
            st.one_of(
                st.sampled_from(_LIVE_UUIDS).map(uuid16),
                st.integers(0, 0xFFFF).map(uuid16),
                st.integers(0, 0xFFFF).map(uint),
            ),
            max_size=4,
        ),
    )
    def test_prefiltered_match_equals_full_scan(self, server, children):
        pattern = sequence(*children)
        uuids = [
            child.value for child in children
            if child.element_type is ElementType.UUID
        ]
        full_scan = [
            record
            for record in server.records
            if uuids and all(record.matches_uuid(uuid) for uuid in uuids)
        ]
        assert server._matching_records(pattern) == full_scan


class TestOverAirBrowse:
    def test_client_browses_services(self):
        _, _, queue = make_rig()
        services = SdpClient(queue).browse()
        psms = {service.psm for service in services}
        assert psms == {Psm.SDP, Psm.AVDTP, Psm.RFCOMM}
        names = {service.name for service in services}
        assert "AVDTP" in names

    def test_client_channel_is_torn_down(self):
        device, _, queue = make_rig()
        SdpClient(queue).browse()
        assert len(device.engine.channels) == 0

    def test_browse_fails_without_sdp_service(self):
        services = ServiceDirectory(
            [ServiceRecord(Psm.AVDTP, "AVDTP", initiates_config=True)]
        )
        _, _, queue = make_rig(services=services)
        with pytest.raises(ScanError):
            SdpClient(queue).browse()

    def test_scanner_uses_over_air_browse_by_default(self):
        device, _, queue = make_rig()
        scanner = TargetScanner(queue, device.inquiry)  # no browse callable
        result = scanner.scan()
        assert Psm.SDP in result.open_psms
        assert Psm.AVDTP in result.open_psms
        # The RFCOMM port was advertised via SDP and probed as paired.
        rfcomm = next(p for p in result.probes if p.psm == Psm.RFCOMM)
        assert rfcomm.requires_pairing

    def test_over_air_traffic_lands_in_the_trace(self):
        device, _, queue = make_rig()
        TargetScanner(queue, device.inquiry).scan()
        assert queue.sniffer.transmitted_count() > 4
        # Data frames are spec-clean: the browse adds no malformed packets.
        assert queue.sniffer.malformed_count() == 0
