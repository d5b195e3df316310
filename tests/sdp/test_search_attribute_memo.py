"""The ServiceSearchAttribute memo serves the bytes a fresh encode would.

The reference server below answers ServiceSearchAttribute requests the
way the server did before the memo: it rebuilds and re-encodes every
matched record's attribute list on each request.
"""

from __future__ import annotations

import random
import struct

import pytest

from repro.sdp.constants import PduId, ProtocolUuid, ServiceClass
from repro.sdp.data_elements import sequence, uint, uint32, uuid16
from repro.sdp.pdu import (
    NO_CONTINUATION,
    SdpPdu,
    ServiceSearchAttributeRequest,
    ServiceSearchAttributeResponse,
)
from repro.sdp.server import (
    SdpServer,
    _attribute_ranges,
    _search_attribute_body,
)
from repro.testbed.profiles import ALL_PROFILES, D2


class _ReferenceServer(SdpServer):
    """Encodes every ServiceSearchAttribute response from scratch."""

    def _on_service_search_attribute(self, pdu: SdpPdu) -> bytes:
        req = ServiceSearchAttributeRequest.decode(pdu.parameters)
        matches = self._matching_records(req.search_pattern)
        ranges = _attribute_ranges(req.attribute_id_list)
        lists = sequence(*(record.attribute_list(ranges) for record in matches))
        return SdpPdu(
            PduId.SERVICE_SEARCH_ATTRIBUTE_RESPONSE,
            pdu.transaction_id,
            ServiceSearchAttributeResponse(lists).encode(),
        ).encode()


def _browse(transaction_id: int) -> bytes:
    """The scanner's browse: every attribute of every public record."""
    request = ServiceSearchAttributeRequest(
        search_pattern=sequence(uuid16(ServiceClass.PUBLIC_BROWSE_ROOT)),
        max_attribute_bytes=0xFFFF,
        attribute_id_list=sequence(uint32(0x0000FFFF)),
    )
    return SdpPdu(
        PduId.SERVICE_SEARCH_ATTRIBUTE_REQUEST, transaction_id, request.encode()
    ).encode()


def _fuzzed_requests(seed: int, count: int) -> list[bytes]:
    """Seeded ServiceSearchAttribute requests: live and random UUIDs,
    single IDs and ranges, occasional garbage past the continuation."""
    rng = random.Random(seed)
    live = [
        ServiceClass.PUBLIC_BROWSE_ROOT,
        ServiceClass.SERIAL_PORT,
        ServiceClass.AUDIO_SINK,
        ProtocolUuid.L2CAP,
        0x0001,
        0x0003,
        0x0019,
    ]
    requests = []
    for transaction_id in range(count):
        uuids = [
            rng.choice(live) if rng.random() < 0.7 else rng.getrandbits(16)
            for _ in range(rng.randint(1, 3))
        ]
        ids = [
            uint32(rng.getrandbits(32)) if rng.random() < 0.5
            else uint32((rng.randrange(0x10) << 16) | rng.randrange(0x200))
            if rng.random() < 0.5
            else uint(rng.choice((0x0000, 0x0001, 0x0004, 0x0100, 0x0200)))
            for _ in range(rng.randint(1, 3))
        ]
        parameters = (
            sequence(*(uuid16(value) for value in uuids)).encode()
            + struct.pack(">H", rng.getrandbits(16))
            + sequence(*ids).encode()
            + NO_CONTINUATION
        )
        if rng.random() < 0.2:
            parameters += rng.randbytes(rng.randint(1, 6))
        requests.append(
            SdpPdu(
                PduId.SERVICE_SEARCH_ATTRIBUTE_REQUEST,
                transaction_id & 0xFFFF,
                parameters,
            ).encode()
        )
    return requests


def _servers(profile) -> tuple[SdpServer, SdpServer]:
    device = profile.build(armed=True, zero_latency=True)
    return device.sdp_server, _ReferenceServer(device.services)


@pytest.mark.parametrize(
    "profile",
    [profile for profile in ALL_PROFILES if profile.build().sdp_server is not None],
    ids=lambda profile: profile.device_id,
)
def test_browse_is_byte_identical(profile):
    served, reference = _servers(profile)
    for transaction_id in (0, 1, 0x1234, 0xFFFF):
        request = _browse(transaction_id)
        assert served.handle_request(request) == reference.handle_request(request)


def test_fuzzed_requests_are_byte_identical():
    served, reference = _servers(D2)
    with_records = 0
    for request in _fuzzed_requests(seed=7, count=400):
        response = served.handle_request(request)
        assert response == reference.handle_request(request)
        # 10 bytes is an answer with an empty list of attribute lists.
        with_records += len(response) > 10
    assert with_records > 100


def test_devices_of_one_profile_share_memo_entries():
    _search_attribute_body.cache_clear()
    first = D2.build(armed=True, zero_latency=True).sdp_server
    first.handle_request(_browse(1))
    assert _search_attribute_body.cache_info().misses == 1
    second = D2.build(armed=True, zero_latency=True).sdp_server
    assert second is not first
    second.handle_request(_browse(2))
    info = _search_attribute_body.cache_info()
    assert (info.hits, info.misses) == (1, 1)
