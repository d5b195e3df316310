"""Codec for the 26 Bluetooth 5.2 L2CAP signaling commands.

This module replaces the paper's use of scapy. Packets are represented by
:class:`L2capPacket`, a generic container driven by declarative
:class:`CommandSpec` tables, so the fuzzer's mutation engine can reflect
over fields by name instead of hard-coding offsets.

Framing follows paper Fig. 3::

    | Payload Length (2) | Header CID (2) | Code (1) | Identifier (1) |
    | Data Length (2)    | Data Fields (n) | [garbage tail]           |

A key subtlety reproduced from paper Fig. 7: the *garbage tail* appended
by the mutator is **not** counted in ``Payload Length`` / ``Data Length``.
The declared lengths describe the un-garbaged packet, so a spec-conformant
receiver parses the declared region and is left with trailing bytes — the
exact situation that triggered the Pixel 3 null-pointer dereference.
"""

from __future__ import annotations

import dataclasses
import functools
import struct
from collections.abc import Mapping

from repro.errors import PacketDecodeError, PacketEncodeError
from repro.l2cap.constants import (
    COMMAND_HEADER_LEN,
    COMMAND_NAME_BY_VALUE,
    L2CAP_HEADER_LEN,
    MAX_L2CAP_PAYLOAD,
    SIGNALING_CID,
    CommandCode,
    ConfigOptionType,
)

@dataclasses.dataclass(frozen=True)
class FieldSpec:
    """One fixed-width data field of an L2CAP command.

    :param name: canonical lower-case field name (e.g. ``"psm"``).
    :param size: width in bytes (1 or 2; multi-byte fields are
        little-endian per the Bluetooth specification).
    :param default: value used when the caller does not supply one.
    """

    name: str
    size: int
    default: int = 0

    @property
    def max_value(self) -> int:
        """Largest value representable in this field."""
        return (1 << (8 * self.size)) - 1


@dataclasses.dataclass(frozen=True)
class CommandSpec:
    """Layout of one L2CAP command: fixed fields plus an optional tail.

    :param code: the :class:`CommandCode` this spec describes.
    :param fields: ordered fixed-width fields.
    :param tail_name: name of the trailing variable-length region
        (``"options"``, ``"data"``, ``"cid_list"``) or None if the
        command has no variable part.
    """

    code: CommandCode
    fields: tuple[FieldSpec, ...]
    tail_name: str | None = None

    @functools.cached_property
    def fixed_size(self) -> int:
        """Total bytes occupied by the fixed-width fields.

        Cached: specs are immutable module-level constants, and the hot
        path asks for this on every length computation.
        """
        return sum(field.size for field in self.fields)

    @functools.cached_property
    def defaults(self) -> dict[str, int]:
        """Field-name → default-value map (precomputed for construction)."""
        return {field.name: field.default for field in self.fields}

    @functools.cached_property
    def bounds(self) -> tuple[tuple[str, int], ...]:
        """``(name, largest value)`` per field, in layout order."""
        return tuple((field.name, field.max_value) for field in self.fields)

    @functools.cached_property
    def pack_format(self) -> str:
        """``struct`` format encoding all fixed fields in one call."""
        return "<" + "".join("B" if field.size == 1 else "H" for field in self.fields)

    @functools.cached_property
    def frame_format(self) -> str:
        """``struct`` format for both L2CAP headers plus the fixed fields.

        Lets the encoder emit ``Payload Length | CID | Code | Identifier
        | Data Length | fields...`` in a single pack call.
        """
        return "<HHBBH" + self.pack_format[1:]

    def field(self, name: str) -> FieldSpec:
        """Return the spec for field *name*.

        :raises KeyError: if the command has no such field.
        """
        for field in self.fields:
            if field.name == name:
                return field
        raise KeyError(f"{self.code.name} has no field {name!r}")

    def has_field(self, name: str) -> bool:
        """Return True if the command carries a field called *name*."""
        return any(field.name == name for field in self.fields)


def _u16(name: str, default: int = 0) -> FieldSpec:
    return FieldSpec(name, 2, default)


def _u8(name: str, default: int = 0) -> FieldSpec:
    return FieldSpec(name, 1, default)


#: Declarative layout of every Bluetooth 5.2 signaling command
#: (Core 5.2 Vol 3 Part A §4).
COMMAND_SPECS: dict[CommandCode, CommandSpec] = {
    spec.code: spec
    for spec in (
        CommandSpec(
            CommandCode.COMMAND_REJECT,
            (_u16("reason"),),
            tail_name="data",
        ),
        CommandSpec(
            CommandCode.CONNECTION_REQ,
            (_u16("psm"), _u16("scid")),
        ),
        CommandSpec(
            CommandCode.CONNECTION_RSP,
            (_u16("dcid"), _u16("scid"), _u16("result"), _u16("status")),
        ),
        CommandSpec(
            CommandCode.CONFIGURATION_REQ,
            (_u16("dcid"), _u16("flags")),
            tail_name="options",
        ),
        CommandSpec(
            CommandCode.CONFIGURATION_RSP,
            (_u16("scid"), _u16("flags"), _u16("result")),
            tail_name="options",
        ),
        CommandSpec(
            CommandCode.DISCONNECTION_REQ,
            (_u16("dcid"), _u16("scid")),
        ),
        CommandSpec(
            CommandCode.DISCONNECTION_RSP,
            (_u16("dcid"), _u16("scid")),
        ),
        CommandSpec(CommandCode.ECHO_REQ, (), tail_name="data"),
        CommandSpec(CommandCode.ECHO_RSP, (), tail_name="data"),
        CommandSpec(
            CommandCode.INFORMATION_REQ,
            (_u16("info_type", default=0x0002),),
        ),
        CommandSpec(
            CommandCode.INFORMATION_RSP,
            (_u16("info_type", default=0x0002), _u16("result")),
            tail_name="data",
        ),
        CommandSpec(
            CommandCode.CREATE_CHANNEL_REQ,
            (_u16("psm"), _u16("scid"), _u8("cont_id")),
        ),
        CommandSpec(
            CommandCode.CREATE_CHANNEL_RSP,
            (_u16("dcid"), _u16("scid"), _u16("result"), _u16("status")),
        ),
        CommandSpec(
            CommandCode.MOVE_CHANNEL_REQ,
            (_u16("icid"), _u8("cont_id")),
        ),
        CommandSpec(
            CommandCode.MOVE_CHANNEL_RSP,
            (_u16("icid"), _u16("result")),
        ),
        CommandSpec(
            CommandCode.MOVE_CHANNEL_CONFIRMATION_REQ,
            (_u16("icid"), _u16("result")),
        ),
        CommandSpec(
            CommandCode.MOVE_CHANNEL_CONFIRMATION_RSP,
            (_u16("icid"),),
        ),
        CommandSpec(
            CommandCode.CONNECTION_PARAMETER_UPDATE_REQ,
            (
                _u16("interval_min", default=0x0006),
                _u16("interval_max", default=0x0C80),
                _u16("latency"),
                _u16("timeout", default=0x0A00),
            ),
        ),
        CommandSpec(
            CommandCode.CONNECTION_PARAMETER_UPDATE_RSP,
            (_u16("result"),),
        ),
        CommandSpec(
            CommandCode.LE_CREDIT_BASED_CONNECTION_REQ,
            (
                _u16("spsm", default=0x0080),
                _u16("scid"),
                _u16("mtu", default=0x00F7),
                _u16("mps", default=0x00F7),
                _u16("credit", default=0x0001),
            ),
        ),
        CommandSpec(
            CommandCode.LE_CREDIT_BASED_CONNECTION_RSP,
            (
                _u16("dcid"),
                _u16("mtu", default=0x00F7),
                _u16("mps", default=0x00F7),
                _u16("credit", default=0x0001),
                _u16("result"),
            ),
        ),
        CommandSpec(
            CommandCode.FLOW_CONTROL_CREDIT_IND,
            (_u16("cid"), _u16("credit", default=0x0001)),
        ),
        CommandSpec(
            CommandCode.CREDIT_BASED_CONNECTION_REQ,
            (
                _u16("spsm", default=0x0080),
                _u16("mtu", default=0x00F7),
                _u16("mps", default=0x00F7),
                _u16("credit", default=0x0001),
            ),
            tail_name="cid_list",
        ),
        CommandSpec(
            CommandCode.CREDIT_BASED_CONNECTION_RSP,
            (
                _u16("mtu", default=0x00F7),
                _u16("mps", default=0x00F7),
                _u16("credit", default=0x0001),
                _u16("result"),
            ),
            tail_name="cid_list",
        ),
        CommandSpec(
            CommandCode.CREDIT_BASED_RECONFIGURE_REQ,
            (_u16("mtu", default=0x00F7), _u16("mps", default=0x00F7)),
            tail_name="cid_list",
        ),
        CommandSpec(
            CommandCode.CREDIT_BASED_RECONFIGURE_RSP,
            (_u16("result"),),
        ),
    )
}

assert len(COMMAND_SPECS) == 26, "Bluetooth 5.2 defines 26 L2CAP commands"

#: Hot-path spec lookup keyed by plain int code — a dict hit instead of a
#: ``CommandCode(...)`` enum construction per packet.
SPEC_BY_CODE: dict[int, CommandSpec] = {
    int(code): spec for code, spec in COMMAND_SPECS.items()
}


_new_instance = object.__new__


def _b_frame_loops_back(header_cid: object, payload: object) -> bool:
    """Whether a B-frame to *header_cid* carrying *payload* (code 0,
    identifier 0, no fields, no garbage) survives a decode round trip
    unchanged: the data-frame rule of :meth:`L2capPacket.loopback_view`."""
    return (
        header_cid.__class__ is int
        and 0 <= header_cid <= 0xFFFF
        and payload.__class__ is bytes
        and len(payload) <= MAX_L2CAP_PAYLOAD
    )


def _round_trips(spec, identifier, fields, tail, garbage) -> bool:
    """Whether a signaling frame of these parts, lengths derived, decodes
    back to the same parts (see :meth:`L2capPacket.loopback_view`)."""
    if spec is None or tail.__class__ is not bytes or garbage.__class__ is not bytes:
        return False
    try:
        if identifier & 0xFF != identifier or len(fields) != len(spec.bounds):
            return False
        # ``v & high == v`` holds exactly for the ints (and int enums)
        # that pack into the field's width; any other value fails it or
        # raises TypeError.
        for name, high in spec.bounds:
            if fields[name] & high != fields[name]:
                return False
    except (KeyError, TypeError):
        return False
    return not tail or (
        COMMAND_HEADER_LEN + spec.fixed_size + len(tail) <= MAX_L2CAP_PAYLOAD
    )


#: The parts that make up a packet's value, in constructor order.
_PARTS = (
    "code",
    "identifier",
    "fields",
    "tail",
    "garbage",
    "header_cid",
    "declared_payload_len",
    "declared_data_len",
)


@dataclasses.dataclass(init=False)
class L2capPacket:
    """One L2CAP signaling packet: an immutable value.

    :param code: command code (may be an int outside :class:`CommandCode`
        when deliberately malformed).
    :param identifier: matching identifier for request/response pairing.
    :param fields: fixed-width data-field values keyed by canonical name.
    :param tail: variable-length region (config options, echo data, CID
        lists) in already-encoded form.
    :param garbage: extra bytes appended *beyond* the declared lengths —
        the paper's garbage tail. Never counted in Payload/Data Length.
    :param header_cid: destination channel of the packet; 0x0001 for
        signaling (the fixed ``F`` field).
    :param declared_payload_len: explicit override of the Payload Length
        header; None derives it from the content (the valid value).
    :param declared_data_len: explicit override of Data Length; None
        derives it. Baseline fuzzers mutate these to model ``D``-field
        corruption.
    :param fill_defaults: fill absent fields with spec defaults at
        construction. The decoder turns this off so that truncated
        packets stay truncated.

    A built packet never changes: assigning an attribute raises, and a
    fuzzer builds each malformed packet with its final values (or
    derives one with :meth:`replace`). ``fields`` is a plain dict that
    no code writes into after construction; a tier-1 scan of the
    sources enforces that. So the codec caches — the wire bytes of the
    first :meth:`encode`, the validator's structural facts and the
    loopback verdict — are filled on first use (or primed by the
    builder that already knows them) and never invalidated.
    """

    # No instance dict and no weakref slot: a campaign builds tens of
    # thousands of packets. ``spec``, the command layout (None for an
    # unknown code), is resolved at construction; the last three slots
    # are the caches, None until filled.
    __slots__ = _PARTS + ("spec", "_wire", "_intrinsic", "_loopback")

    code: int
    identifier: int
    fields: dict[str, int]
    tail: bytes
    garbage: bytes
    header_cid: int
    declared_payload_len: int | None
    declared_data_len: int | None

    def __new__(
        cls,
        code: int,
        identifier: int = 1,
        fields: dict[str, int] | None = None,
        tail: bytes = b"",
        garbage: bytes = b"",
        header_cid: int = SIGNALING_CID,
        declared_payload_len: int | None = None,
        declared_data_len: int | None = None,
        fill_defaults: bool = True,
    ) -> "L2capPacket":
        # The caller's dict is copied, never adopted; spec defaults come
        # from a precomputed map.
        spec = SPEC_BY_CODE.get(code)
        if fields:
            fields = dict(fields)
            if spec is not None and fill_defaults:
                for name, default in spec.defaults.items():
                    if name not in fields:
                        fields[name] = default
        elif spec is not None and fill_defaults:
            fields = dict(spec.defaults)
        else:
            fields = {}
        loopback = None
        if (
            fill_defaults
            and header_cid == SIGNALING_CID
            and declared_payload_len is None
            and declared_data_len is None
        ):
            # Prime the loopback verdict for builder-made packets (route
            # commands, engine responses): the direct hop reads it.
            loopback = _round_trips(spec, identifier, fields, tail, garbage)
        return _packet(
            code,
            identifier,
            fields,
            tail,
            garbage,
            header_cid,
            declared_payload_len,
            declared_data_len,
            spec,
            None,
            None,
            loopback,
        )

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(
            f"L2capPacket is immutable: build the changed packet with "
            f"replace({name}=...) instead of changing {name!r}"
        )

    # ``del packet.name`` is refused the same way.
    __delattr__ = __setattr__

    def __reduce__(self):
        # Copies, deep copies and pickles rebuild through the constructor
        # with their own field dict; the caches are cheap to recompute.
        return (L2capPacket, (*[getattr(self, name) for name in _PARTS], False))

    def replace(self, **changes) -> "L2capPacket":
        """A new packet equal to this one except for *changes*.

        Takes the constructor's parameter names. No spec defaults are
        filled, so a packet built without a field stays without it.
        """
        parts = {name: getattr(self, name) for name in _PARTS}
        parts.update(changes)
        return L2capPacket(**parts, fill_defaults=False)

    # -- reflection --------------------------------------------------------

    @property
    def is_data_frame(self) -> bool:
        """True for non-signaling frames (basic B-frames).

        Data frames have no command header: the payload region is the
        upper-layer payload verbatim, carried in :attr:`tail`.
        """
        return self.header_cid != SIGNALING_CID

    @property
    def command_name(self) -> str:
        """Human-readable command name (``"UNKNOWN_0xNN"`` if invalid)."""
        name = COMMAND_NAME_BY_VALUE.get(self.code)
        if name is None:
            return f"UNKNOWN_0x{self.code:02X}"
        return name

    # -- length bookkeeping -------------------------------------------------

    @property
    def wire_length(self) -> int:
        """Actual bytes on the wire, including the garbage tail.

        Computed arithmetically in O(1) — the body length never depends
        on the declared-length overrides (those only lie in the headers),
        so no encoding pass is needed.
        """
        wire = self._wire
        if wire is not None:
            return len(wire)
        if self.header_cid != SIGNALING_CID:
            return L2CAP_HEADER_LEN + len(self.tail) + len(self.garbage)
        spec = self.spec
        fixed = spec.fixed_size if spec is not None else 2 * len(self.fields)
        return (
            L2CAP_HEADER_LEN
            + COMMAND_HEADER_LEN
            + fixed
            + len(self.tail)
            + len(self.garbage)
        )

    # -- codec ---------------------------------------------------------------

    def encode(self) -> bytes:
        """Serialise to wire bytes (paper Fig. 3 framing).

        The result is cached on the packet.

        :raises PacketEncodeError: if a field value does not fit its width
            or the payload would exceed the 65,535-byte L2CAP maximum.
        """
        wire = self._wire
        if wire is None:
            wire = self._encode_wire()
            _set_wire(self, wire)
        return wire

    def _encode_wire(self) -> bytes:
        declared_payload = self.declared_payload_len
        if self.header_cid != SIGNALING_CID:
            # B-frame: the payload is the upper-layer bytes verbatim.
            payload_len = (
                len(self.tail) if declared_payload is None else declared_payload
            )
            if payload_len > MAX_L2CAP_PAYLOAD:
                raise PacketEncodeError(
                    f"payload length {payload_len} exceeds L2CAP maximum"
                )
            return (
                struct.pack("<HH", payload_len, self.header_cid)
                + self.tail
                + self.garbage
            )
        spec = self.spec
        fields = self.fields
        fixed = spec.fixed_size if spec is not None else 2 * len(fields)
        natural = fixed + len(self.tail)
        payload_len = (
            COMMAND_HEADER_LEN + natural if declared_payload is None else declared_payload
        )
        if payload_len > MAX_L2CAP_PAYLOAD:
            raise PacketEncodeError(
                f"payload length {payload_len} exceeds L2CAP maximum"
            )
        data_len = (
            natural if self.declared_data_len is None else self.declared_data_len
        )
        if spec is not None:
            try:
                # Headers and fixed fields in a single pack call.
                head = struct.pack(
                    spec.frame_format,
                    payload_len,
                    self.header_cid,
                    self.code & 0xFF,
                    self.identifier & 0xFF,
                    data_len,
                    *[fields.get(field.name, field.default) for field in spec.fields],
                )
                return head + self.tail + self.garbage
            except struct.error:
                # A field value does not fit its width (or a non-int
                # header slipped in): fall through to the field-by-field
                # path, which names the offender.
                pass
        return (
            struct.pack(
                "<HHBBH",
                payload_len,
                self.header_cid,
                self.code & 0xFF,
                self.identifier & 0xFF,
                data_len,
            )
            + self._encode_fields()
            + self.tail
            + self.garbage
        )

    def _encode_fields(self) -> bytes:
        spec = self.spec
        fields = self.fields
        if spec is None:
            # Unknown command: encode whatever fields exist as u16 in
            # insertion order so deliberately-invalid codes still fuzz.
            return b"".join(
                struct.pack("<H", value & 0xFFFF) for value in fields.values()
            )
        try:
            return struct.pack(
                spec.pack_format,
                *[fields.get(field.name, field.default) for field in spec.fields],
            )
        except struct.error:
            # Some value does not fit its width: redo field by field to
            # name the offender in the error.
            for field in spec.fields:
                value = fields.get(field.name, field.default)
                if not 0 <= value <= field.max_value:
                    raise PacketEncodeError(
                        f"{self.command_name}.{field.name}={value:#x} does not "
                        f"fit in {field.size} byte(s)"
                    ) from None
            raise  # pragma: no cover - struct failure without a bad field

    @classmethod
    def decode(cls, raw: bytes) -> "L2capPacket":
        """Parse wire bytes into a packet.

        Trailing bytes beyond the declared Data Length are preserved in
        :attr:`garbage`, mirroring how a real stack sees a garbage tail.

        :raises PacketDecodeError: on truncated or inconsistent framing.
        """
        if len(raw) < L2CAP_HEADER_LEN:
            raise PacketDecodeError(
                f"packet too short: {len(raw)} bytes < header {L2CAP_HEADER_LEN}"
            )
        payload_len, header_cid = struct.unpack_from("<HH", raw, 0)
        if header_cid != SIGNALING_CID:
            return cls._decode_data_frame(raw, payload_len, header_cid)
        if len(raw) < L2CAP_HEADER_LEN + COMMAND_HEADER_LEN:
            raise PacketDecodeError(
                f"signaling packet too short: {len(raw)} bytes < minimum "
                f"{L2CAP_HEADER_LEN + COMMAND_HEADER_LEN}"
            )
        code, identifier, data_len = struct.unpack_from("<BBH", raw, L2CAP_HEADER_LEN)
        body = raw[L2CAP_HEADER_LEN + COMMAND_HEADER_LEN :]
        if data_len > len(body):
            raise PacketDecodeError(
                f"declared data length {data_len} exceeds available "
                f"{len(body)} bytes"
            )
        declared = body[:data_len]
        garbage = body[data_len:]

        fields: dict[str, int] = {}
        tail = b""
        spec = SPEC_BY_CODE.get(code)
        if spec is None:
            tail = declared
        else:
            offset = 0
            for field in spec.fields:
                if offset + field.size > len(declared):
                    # Short packet: remaining fields absent. Keep what we
                    # parsed; stacks treat this as malformed.
                    break
                if field.size == 1:
                    (value,) = struct.unpack_from("<B", declared, offset)
                else:
                    (value,) = struct.unpack_from("<H", declared, offset)
                fields[field.name] = value
                offset += field.size
            tail = declared[offset:]

        # Declared lengths that disagree with the content are kept
        # verbatim, so re-encoding is byte-faithful and length lies survive
        # a decode/encode round trip. The encode cache is primed with the
        # bytes just parsed.
        natural = (0 if spec is None else spec.fixed_size) + len(tail)
        return _packet(
            code,
            identifier,
            fields,
            tail,
            garbage,
            header_cid,
            None if payload_len == COMMAND_HEADER_LEN + natural else payload_len,
            None if data_len == natural else data_len,
            spec,
            bytes(raw),
            None,
            None,
        )

    @classmethod
    def _decode_data_frame(
        cls, raw: bytes, payload_len: int, header_cid: int
    ) -> "L2capPacket":
        body = raw[L2CAP_HEADER_LEN:]
        if payload_len > len(body):
            raise PacketDecodeError(
                f"declared payload length {payload_len} exceeds available "
                f"{len(body)} bytes"
            )
        return _packet(
            0,
            0,
            {},
            body[:payload_len],
            body[payload_len:],
            header_cid,
            None,
            None,
            None,
            bytes(raw),
            None,
            None,
        )

    def loopback_view(self) -> "L2capPacket | None":
        """Return self when ``decode(encode(self))`` is logically identical.

        The in-process virtual link uses this to hand the receiving stack
        the packet object itself instead of serialising it and parsing
        the bytes back. None means the packet does not survive a decode
        round trip unchanged (length lies, missing or extra fields,
        unknown codes, values that do not fit their width or would not
        encode at all) and must cross as real bytes, so the receiver
        sees what a conformant stack sees.

        The verdict is memoized on the packet; template builders prime
        it at construction so the hot path never recomputes it.
        """
        eligible = self._loopback
        if eligible is None:
            header_cid = self.header_cid
            if (
                self.declared_payload_len is not None
                or self.declared_data_len is not None
            ):
                eligible = False
            elif header_cid == SIGNALING_CID:
                eligible = _round_trips(
                    self.spec, self.identifier, self.fields, self.tail, self.garbage
                )
            else:
                # B-frame: decode yields code=0, identifier=0, empty fields.
                eligible = (
                    self.code == 0
                    and self.identifier == 0
                    and not self.fields
                    and self.garbage.__class__ is bytes
                    and _b_frame_loops_back(header_cid, self.tail)
                )
            _set_loopback(self, eligible)
        return self if eligible else None

    @classmethod
    def from_wire_parts(
        cls,
        code: int,
        identifier: int,
        field_values: dict[str, int],
        tail: bytes,
        garbage: bytes,
        wire: bytes,
        spec: CommandSpec | None,
        header_cid: int = SIGNALING_CID,
        intrinsic: tuple | None = None,
        loopback: bool | None = None,
    ) -> "L2capPacket":
        """Build a packet around already-assembled *wire* bytes.

        The bytes-level mutation fast path serialises the frame itself
        (template patching instead of a field walk), so the constructor
        and :meth:`encode` would each redo work the caller has in hand.
        This bypasses both: *field_values* becomes the packet's
        :attr:`fields` as is (not copied) and the encode cache is primed
        with *wire*, exactly as :meth:`decode` primes a parsed packet.
        The caller guarantees that *wire* is what :meth:`encode` would
        produce for these parts — the wire-fast-path equivalence tests
        pin that contract per target.

        A template builder that also knows the packet's structural
        validation facts (*intrinsic*, see
        :mod:`repro.l2cap.validation`) and its loopback eligibility
        (*loopback*, see :meth:`loopback_view`) primes them here; None
        leaves them to be computed on first use. The parity tests pin
        primed values to the freshly computed ones.
        """
        return _packet(
            code,
            identifier,
            field_values,
            tail,
            garbage,
            header_cid,
            None,
            None,
            spec,
            wire,
            intrinsic,
            loopback,
        )

    @classmethod
    def data_frame(
        cls, header_cid: int, payload: bytes, wire: bytes | None = None
    ) -> "L2capPacket":
        """A B-frame carrying *payload* to *header_cid*, built for the hop.

        Equal to ``L2capPacket(code=0, identifier=0, header_cid=header_cid,
        tail=payload, fill_defaults=False)``, but the loopback verdict is
        set at build time (the B-frame rule of :meth:`loopback_view`), so
        neither the
        sender's nor the device's hop recomputes it. *wire*, when given,
        primes the encode cache; the caller guarantees it is the frame's
        encoding. Every data frame a protocol target sends and every
        upper-layer server response is built here.
        """
        # On the signalling CID a code-0 frame has no command layout, so
        # it never survives the round trip (see :func:`_round_trips`).
        return _packet(
            0,
            0,
            {},
            payload,
            b"",
            header_cid,
            None,
            None,
            None,
            wire,
            None,
            header_cid != SIGNALING_CID and _b_frame_loops_back(header_cid, payload),
        )

    def describe(self) -> str:
        """One-line human-readable rendering for logs."""
        if self.is_data_frame:
            # Upper-layer traffic (SDP/RFCOMM/OBEX): the payload bytes
            # are the whole story.
            return f"DATA(cid=0x{self.header_cid:04X}) payload={self.tail.hex()}"
        fields = ", ".join(f"{k}=0x{v:04X}" for k, v in self.fields.items())
        extra = ""
        if self.tail:
            extra += f" tail={self.tail.hex()}"
        if self.garbage:
            extra += f" garbage={self.garbage.hex()}"
        return f"{self.command_name}(id={self.identifier}, {fields}){extra}"


class _Draft(L2capPacket):
    """A packet under construction: its slots take plain stores.

    :func:`_packet` fills every slot of a draft and then makes it an
    :class:`L2capPacket` by assigning ``__class__`` (the layouts are
    identical). Both attribute hooks are reset to :class:`object`'s:
    they share one type slot, and leaving either one Python-level sends
    every store through it, several times slower than the generic path.
    """

    __slots__ = ()
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__


def _packet(
    code,
    identifier,
    fields,
    tail,
    garbage,
    header_cid,
    declared_payload_len,
    declared_data_len,
    spec,
    wire,
    intrinsic,
    loopback,
) -> L2capPacket:
    """The packet of these parts and caches, every slot set once.

    *fields* is adopted, not copied. Every constructor ends here.
    """
    packet = _new_instance(_Draft)
    packet.code = code
    packet.identifier = identifier
    packet.fields = fields
    packet.tail = tail
    packet.garbage = garbage
    packet.header_cid = header_cid
    packet.declared_payload_len = declared_payload_len
    packet.declared_data_len = declared_data_len
    packet.spec = spec
    packet._wire = wire
    packet._intrinsic = intrinsic
    packet._loopback = loopback
    packet.__class__ = L2capPacket
    return packet


#: Cache fills on a built packet, through the slot descriptors: the
#: packet's own ``__setattr__`` refuses every assignment.
_set_wire = L2capPacket._wire.__set__
_set_loopback = L2capPacket._loopback.__set__


# ---------------------------------------------------------------------------
# Signalling templates: spec-clean frames built at template cost
# ---------------------------------------------------------------------------

#: Structural validation facts of a spec-clean signalling frame without a
#: PSM field (see :func:`repro.l2cap.validation._structural_facts`).
_CLEAN_FACTS = ((), False)


def _fits(value, high: int) -> bool:
    """Whether *value* packs into a field whose largest value is *high*:
    the per-field test of :func:`_round_trips`."""
    try:
        return value & high == value
    except TypeError:
        return False


class SignalTemplate:
    """A spec-clean signalling frame with its call-site constants resolved.

    Made once per ``(code, constant fields, per-call field names,
    constant tail)`` by :func:`signal_template` and kept in
    :data:`SIGNAL_TEMPLATES`. The spec, the field order, the structural
    validation facts and the loopback verdict of the constant parts are
    settled here; :meth:`build` checks only what changes per call.
    """

    __slots__ = (
        "code",
        "fields",
        "per_call",
        "tail",
        "room",
        "loopback",
        "spec",
        "intrinsic",
    )

    def __init__(self, code, fixed: Mapping[str, int], per_call, tail) -> None:
        spec = SPEC_BY_CODE.get(code)
        if spec is None:
            raise ValueError(f"no signalling command with code {code!r}")
        unknown = (set(fixed) | set(per_call)) - set(spec.defaults)
        if unknown:
            raise KeyError(f"{spec.code.name} has no field(s) {sorted(unknown)}")
        if (tail is None or tail) and spec.tail_name is None:
            raise ValueError(f"{spec.code.name} carries no tail")
        # Spec order, as the constructor gives a caller's spec-ordered
        # dict; the per-call fields hold their defaults until built.
        fields = dict(spec.defaults)
        fields.update(fixed)
        self.code = code
        self.fields = fields
        self.per_call = tuple((name, spec.field(name).max_value) for name in per_call)
        self.tail = tail
        self.room = MAX_L2CAP_PAYLOAD - COMMAND_HEADER_LEN - spec.fixed_size
        self.loopback = _round_trips(
            spec, 0, fields, b"" if tail is None else tail, b""
        )
        self.spec = spec
        # A PSM's validity is a structural fact; a constant one is judged
        # on first use like any packet's.
        self.intrinsic = None if "psm" in spec.defaults else _CLEAN_FACTS

    def build(self, identifier: int, *values) -> L2capPacket:
        """The frame with *identifier* and this call's *values*.

        *values* holds one value per per-call field, in the order given
        to :func:`signal_template`, then the tail when the template
        echoes one. Equal to ``L2capPacket(code, identifier, fields,
        tail)`` with *fields* in spec order, including the loopback
        verdict; the identifier, the per-call values and an echoed
        tail's length are checked here.
        """
        fields = self.fields.copy()
        loopback = self.loopback and (
            identifier.__class__ is int and 0 <= identifier <= 0xFF
            or _fits(identifier, 0xFF)
        )
        if self.per_call:
            for (name, high), value in zip(self.per_call, values):
                fields[name] = value
                if loopback and not (
                    value.__class__ is int and 0 <= value <= high or _fits(value, high)
                ):
                    loopback = False
        tail = self.tail
        if tail is None:
            tail = values[-1]
            loopback = loopback and tail.__class__ is bytes and len(tail) <= self.room
        return _packet(
            self.code,
            identifier,
            fields,
            tail,
            b"",
            SIGNALING_CID,
            None,
            None,
            self.spec,
            None,
            self.intrinsic,
            loopback,
        )


#: Every signalling template, keyed by what its call site fixes. Call
#: sites make theirs once, at import, so fuzzed values never become keys
#: and the table does not grow while a campaign runs.
SIGNAL_TEMPLATES: dict[tuple, SignalTemplate] = {}


def signal_template(
    code: int,
    fixed: Mapping[str, int] | None = None,
    per_call: tuple[str, ...] = (),
    tail: bytes | None = b"",
) -> SignalTemplate:
    """The table's template for one call site's spec-clean frames.

    :param code: the command code.
    :param fixed: field values constant at the call site; fields in
        neither *fixed* nor *per_call* take their spec defaults.
    :param per_call: fields whose values each :meth:`SignalTemplate.build`
        call passes (values echoed from a request, allocated CIDs).
    :param tail: the constant tail, or None when each build passes its
        own (an echoed tail).
    :raises ValueError: for an unknown code, or a tail on a command
        without one.
    :raises KeyError: for a field the command does not carry.
    """
    fixed = {} if fixed is None else dict(fixed)
    key = (code, tuple(sorted(fixed.items())), tuple(per_call), tail)
    template = SIGNAL_TEMPLATES.get(key)
    if template is None:
        template = SIGNAL_TEMPLATES[key] = SignalTemplate(code, fixed, per_call, tail)
    return template


# ---------------------------------------------------------------------------
# Configuration options (the OPT / QoS / MTU members of MA)
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class ConfigOption:
    """One configuration option TLV (type, length, value)."""

    option_type: int
    value: bytes

    def encode(self) -> bytes:
        """Serialise as ``type(1) | length(1) | value``."""
        if len(self.value) > 0xFF:
            raise PacketEncodeError("config option value exceeds 255 bytes")
        return struct.pack("<BB", self.option_type & 0xFF, len(self.value)) + self.value


def mtu_option(mtu: int = 0x0400) -> ConfigOption:
    """Build the standard MTU configuration option."""
    return ConfigOption(ConfigOptionType.MTU, struct.pack("<H", mtu & 0xFFFF))


def encode_options(options: list[ConfigOption]) -> bytes:
    """Concatenate configuration options into a tail region."""
    return b"".join(option.encode() for option in options)


def decode_options(raw: bytes) -> list[ConfigOption]:
    """Parse a tail region into configuration options.

    :raises PacketDecodeError: on a truncated TLV.
    """
    options = []
    offset = 0
    while offset < len(raw):
        if offset + 2 > len(raw):
            raise PacketDecodeError("truncated config option header")
        option_type, length = struct.unpack_from("<BB", raw, offset)
        offset += 2
        if offset + length > len(raw):
            raise PacketDecodeError("truncated config option value")
        options.append(ConfigOption(option_type, raw[offset : offset + length]))
        offset += length
    return options


# ---------------------------------------------------------------------------
# Builders for the normal packets the state-guiding phase sends
# ---------------------------------------------------------------------------


def connection_request(psm: int, scid: int, identifier: int = 1) -> L2capPacket:
    """Build a spec-valid Connection Request."""
    return L2capPacket(
        CommandCode.CONNECTION_REQ,
        identifier,
        {"psm": psm, "scid": scid},
    )


def configuration_request(
    dcid: int,
    identifier: int = 1,
    options: list[ConfigOption] | None = None,
    flags: int = 0,
) -> L2capPacket:
    """Build a Configuration Request (default: a single MTU option)."""
    if options is None:
        options = [mtu_option()]
    return L2capPacket(
        CommandCode.CONFIGURATION_REQ,
        identifier,
        {"dcid": dcid, "flags": flags},
        tail=encode_options(options),
    )


def configuration_response(
    scid: int, result: int = 0, identifier: int = 1, flags: int = 0
) -> L2capPacket:
    """Build a Configuration Response."""
    return L2capPacket(
        CommandCode.CONFIGURATION_RSP,
        identifier,
        {"scid": scid, "flags": flags, "result": result},
    )


def disconnection_request(dcid: int, scid: int, identifier: int = 1) -> L2capPacket:
    """Build a Disconnection Request."""
    return L2capPacket(
        CommandCode.DISCONNECTION_REQ,
        identifier,
        {"dcid": dcid, "scid": scid},
    )


def echo_request(data: bytes = b"", identifier: int = 1) -> L2capPacket:
    """Build an Echo Request — the "ping" of the detection phase."""
    return L2capPacket(CommandCode.ECHO_REQ, identifier, tail=data)


def information_request(info_type: int = 0x0002, identifier: int = 1) -> L2capPacket:
    """Build an Information Request."""
    return L2capPacket(CommandCode.INFORMATION_REQ, identifier, {"info_type": info_type})


def create_channel_request(
    psm: int, scid: int, cont_id: int = 0, identifier: int = 1
) -> L2capPacket:
    """Build a Create Channel Request."""
    return L2capPacket(
        CommandCode.CREATE_CHANNEL_REQ,
        identifier,
        {"psm": psm, "scid": scid, "cont_id": cont_id},
    )


def move_channel_request(icid: int, cont_id: int = 1, identifier: int = 1) -> L2capPacket:
    """Build a Move Channel Request."""
    return L2capPacket(
        CommandCode.MOVE_CHANNEL_REQ,
        identifier,
        {"icid": icid, "cont_id": cont_id},
    )


def command_reject(reason: int, identifier: int, data: bytes = b"") -> L2capPacket:
    """Build a Command Reject response (from the signalling template)."""
    return _COMMAND_REJECT.build(identifier, reason, data)


_COMMAND_REJECT = signal_template(
    CommandCode.COMMAND_REJECT, per_call=("reason",), tail=None
)


def default_packet(code: CommandCode, identifier: int = 1, **fields: int) -> L2capPacket:
    """Build any command with spec defaults, overriding chosen *fields*."""
    spec = SPEC_BY_CODE.get(code)
    values = {} if spec is None else dict(spec.defaults)
    for name in fields:
        if name not in values:
            raise KeyError(f"{code.name} has no field {name!r}")
    values.update(fields)
    return L2capPacket(code, identifier, values)
