"""Trace serialisation: save and reload packet captures.

Campaign traces are the primary evaluation artefact (every metric and
the state-coverage inference derive from them), so they can be exported
to JSON Lines — one classified packet per line, with the raw frame hex —
and reloaded later for offline analysis, exactly like keeping the
Wireshark capture of a physical run.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Iterator

from repro.analysis.sniffer import Direction, PacketSniffer, TracedPacket
from repro.errors import PacketDecodeError
from repro.l2cap.packets import L2capPacket


def entry_to_dict(entry: TracedPacket) -> dict:
    """Render one trace entry as a JSON-ready dict."""
    return {
        "t": round(entry.sim_time, 6),
        "dir": entry.direction.value,
        "raw": entry.packet.encode().hex(),
        "cmd": entry.packet.command_name
        if not entry.packet.is_data_frame
        else f"DATA_0x{entry.packet.header_cid:04X}",
        "malformed": entry.malformed,
        "rejection": entry.rejection,
    }


def dict_to_entry(record: dict) -> TracedPacket:
    """Rebuild a trace entry from its dict form.

    :raises KeyError: on missing fields.
    :raises PacketDecodeError: on undecodable raw bytes.
    """
    return TracedPacket(
        sim_time=float(record["t"]),
        direction=Direction(record["dir"]),
        packet=L2capPacket.decode(bytes.fromhex(record["raw"])),
        malformed=bool(record["malformed"]),
        rejection=bool(record["rejection"]),
    )


def packets_to_hex(packets: Iterable[L2capPacket]) -> list[str]:
    """Serialise a packet sequence as raw-frame hex strings.

    The hex frames are the corpus subsystem's canonical packet
    representation: byte-exact, JSON-safe, and the sole input to corpus
    content-hash IDs.
    """
    return [packet.encode().hex() for packet in packets]


def packets_from_hex(frames: Iterable[str]) -> list[L2capPacket]:
    """Decode a hex-frame sequence back into packets.

    :raises PacketDecodeError: on undecodable frames.
    :raises ValueError: on non-hex input.
    """
    return [L2capPacket.decode(bytes.fromhex(frame)) for frame in frames]


def dump_trace(sniffer: PacketSniffer) -> str:
    """Serialise a sniffer's whole trace as JSON Lines.

    :raises ValueError: if the sniffer did not retain its trace.
    """
    sniffer.require_trace("dump_trace()")
    return "\n".join(json.dumps(entry_to_dict(entry)) for entry in sniffer.trace)


def iter_load(lines: Iterable[str]) -> Iterator[TracedPacket]:
    """Parse JSONL lines back into trace entries (skipping blanks)."""
    for line in lines:
        line = line.strip()
        if not line:
            continue
        yield dict_to_entry(json.loads(line))


def load_trace(text: str) -> list[TracedPacket]:
    """Parse a whole JSONL document into a trace list."""
    return list(iter_load(text.splitlines()))


def save_trace(sniffer: PacketSniffer, path) -> int:
    """Write a trace to *path*; returns the number of entries written."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dump_trace(sniffer))
        handle.write("\n")
    return len(sniffer.trace)
