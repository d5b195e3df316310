"""Phase 3 — core field mutating (paper §III.D, Algorithm 1).

Generates valid malformed packets: for each valid command of the current
job, build the command with its spec layout, then

* keep ``F`` fixed (the signaling Header CID, 0x0001),
* keep ``D`` consistent (lengths derived, code valid for the job,
  identifier freshly assigned),
* keep ``MA`` at defaults ("used without changes"),
* mutate ``MC``: PSM ← ``random(abnormal)`` from the Table IV abnormal
  ranges, CIDP ← ``random(normal)`` from 0x0040–0xFFFF ignoring the
  target's dynamic allocation,
* append a garbage tail that never pushes the frame past the signaling
  MTU.

The result is exactly the Fig. 7 transformation: a packet the target
parses (no "command not understood", no "invalid length", no "MTU
exceeded") whose port/channel plumbing is poisoned.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Sequence

from repro.core.config import FuzzConfig
from repro.l2cap.constants import (
    ABNORMAL_PSM_RANGES,
    CIDP_MUTATION_RANGE,
    CommandCode,
    MIN_SIGNALING_MTU,
    SIGNALING_CID,
)
from repro.l2cap.fields import (
    CIDP_FIELD_NAMES,
    random_abnormal_psm,
    random_normal_cidp,
)
from repro.l2cap.packets import COMMAND_SPECS, L2capPacket
from repro.l2cap.validation import Violation

#: Offset of the identifier byte inside an encoded signaling frame
#: (Payload Length 2 | Header CID 2 | Code 1 | *Identifier* | ...).
_IDENTIFIER_OFFSET = 4 + 1

#: Offset of the first fixed data field (after the 2-byte Data Length).
_FIELDS_OFFSET = 4 + 4

# The wire path inlines the ``random.Random`` draws of the object path.
# ``randrange(low, low + width)`` (and ``randint``, and ``choice`` over
# *width* items) is ``low + r`` where r is the first ``getrandbits(k)``
# below *width*, ``k = width.bit_length()`` — CPython's
# ``_randbelow_with_getrandbits``. Repeating that loop here consumes the
# RNG stream exactly as the methods do; the RNG identity property tests
# pin value and ``getstate()`` equality for every range below.

#: ``choice(ABNORMAL_PSM_RANGES)``: index width and bits.
_PSM_RANGE_COUNT = len(ABNORMAL_PSM_RANGES)
_PSM_RANGE_BITS = _PSM_RANGE_COUNT.bit_length()
#: ``randrange(start, end + 1)`` per abnormal range: (start, width, bits).
_PSM_RANGE_DRAWS = tuple(
    (start, end + 1 - start, (end + 1 - start).bit_length())
    for start, end in ABNORMAL_PSM_RANGES
)
#: ``randrange(0x0000, 0x10000, 2)``: an index over the 0x8000 even PSMs.
_EVEN_PSM_COUNT = 0x8000
_EVEN_PSM_BITS = _EVEN_PSM_COUNT.bit_length()


def _draw_range(low: int, high: int) -> tuple[int, int, int]:
    """``randrange(low, high + 1)`` as (low, width, bits)."""
    width = high + 1 - low
    return low, width, width.bit_length()


#: CIDP draws: 2-byte fields from Table IV, 1-byte CONT_ID from 0..0xFF.
_CIDP_DRAWS = {2: _draw_range(*CIDP_MUTATION_RANGE), 1: _draw_range(0x00, 0xFF)}

#: Probability that a garbage tail is spliced from the corpus dictionary
#: instead of drawn fresh.
SPLICE_RATE = 0.25


def draw_garbage(
    rng: random.Random,
    max_garbage: int,
    dictionary: Sequence[bytes] = (),
    headroom: int | None = None,
) -> bytes:
    """Draw a Fig.-7 garbage tail: the one tail draw of every mutator.

    With a non-empty *dictionary*, a quarter of the tails splice a
    harvested token (cut to the limit); the rest are fresh random bytes
    of 1..``max_garbage``, clamped to *headroom* when set (the L2CAP
    mutator passes the room left under the signaling MTU). No room, no
    draw: the RNG is left untouched.

    Draw order and RNG consumption are part of the campaign's
    deterministic contract. The draws are the inlined equivalents of
    ``rng.random()``, ``rng.randrange(len(dictionary))``,
    ``rng.randint(1, limit)`` and one ``rng.getrandbits(8)`` per byte;
    the RNG identity property tests pin value and ``getstate()``
    equality against those methods.
    """
    limit = max_garbage if headroom is None or max_garbage < headroom else headroom
    if limit <= 0:
        return b""
    getrandbits = rng.getrandbits
    if dictionary and rng.random() < SPLICE_RATE:
        count = len(dictionary)
        bits = count.bit_length()
        index = getrandbits(bits)
        while index >= count:
            index = getrandbits(bits)
        return dictionary[index][:limit]
    bits = limit.bit_length()
    length = getrandbits(bits)
    while length >= limit:
        length = getrandbits(bits)
    return random_bytes(getrandbits, length + 1)


def random_bytes(getrandbits, count: int) -> bytes:
    """*count* bytes of ``getrandbits(8)`` draws, in one call.

    ``getrandbits(8)`` is the top byte of one 32-bit Mersenne Twister
    output, and ``getrandbits(32 * n)`` packs n outputs little-endian:
    byte 3 of every 4-byte word is the per-byte draw, from the same n
    outputs. ``getrandbits(0)`` draws nothing, so a zero *count*
    leaves the RNG untouched, as the generator expression would.
    """
    return getrandbits(32 * count).to_bytes(4 * count, "little")[3::4]


class CoreFieldMutator:
    """Algorithm 1 implementation, and the L2CAP target's mutator.

    It speaks the generic mutator protocol of
    :class:`~repro.targets.base.FuzzTarget`; Algorithm 1 reads only the
    command, so the guided position both methods take goes unused.

    :param config: campaign configuration (garbage sizing, ``n``).
    :param rng: seeded random source (determinism for replay).
    :param signaling_mtu: the target's signaling MTU; garbage tails are
        clamped so ``wire length <= MTU`` always holds.
    :param dictionary: garbage tails harvested from a shared corpus
        (known-crashing reproducer tails); when non-empty, a quarter of
        the generated tails splice a dictionary token instead of fresh
        random bytes — cross-campaign seed sharing at the mutation
        level. Empty (the default) leaves the RNG stream untouched, so
        seeded campaigns without a corpus stay byte-identical.
    """

    def __init__(
        self,
        config: FuzzConfig,
        rng: random.Random,
        signaling_mtu: int = MIN_SIGNALING_MTU,
        dictionary: Iterable[bytes] = (),
    ) -> None:
        self.config = config
        self.rng = rng
        self.signaling_mtu = signaling_mtu
        self.dictionary = tuple(tail for tail in dictionary if tail)
        self._plans: dict[int, tuple | None] = {}

    def mutate(self, position, code: CommandCode, identifier: int) -> L2capPacket:
        """Build one malformed packet for *code* (Algorithm 1 lines 5-21).

        :param identifier: the packet ID to stamp (a ``D`` field, kept
            valid).
        """
        packet = L2capPacket(code, identifier)  # D defaults, F fixed, MA defaults
        spec = COMMAND_SPECS[code]
        for field in spec.fields:
            if field.name == "psm":
                packet.fields["psm"] = random_abnormal_psm(self.rng)
            elif field.name in CIDP_FIELD_NAMES:
                packet.fields[field.name] = random_normal_cidp(
                    self.rng, field_size=field.size
                )
        if not self.config.mutate_core_fields_only:
            # Ablation: BFuzz-style corruption of the dependent fields.
            if self.rng.random() < 0.5:
                packet.declared_data_len = self.rng.randrange(0, 4)
        if self.config.append_garbage:
            # The tail never pushes the frame past the signaling MTU.
            packet.garbage = draw_garbage(
                self.rng,
                self.config.max_garbage,
                self.dictionary,
                self.signaling_mtu - packet.wire_length,
            )
        return packet

    # -- bytes-level fast path ------------------------------------------------------

    def mutate_wire(
        self, position, code: CommandCode, identifiers
    ) -> list[L2capPacket] | None:
        """Bytes-level twin of :meth:`mutate`: one packet per identifier,
        drawn as one :meth:`mutate` call each would, or None if ineligible.

        Each frame is the code's plan patched (identifier byte and core
        fields written into the wire image, garbage appended), and the
        packet is built around it with its encode cache, structural facts
        and loopback eligibility primed (:meth:`L2capPacket.from_wire_parts`).

        Structural safety gate: the fast path only covers the paper's
        default mutation plan (``MC`` only). The BFuzz-style ablation
        (``mutate_core_fields_only=False``) rewrites dependent length
        fields mid-draw and must keep taking the object path, as must
        codes without a spec. Byte and RNG-stream identity with
        :meth:`mutate` is pinned by the fast-path equivalence tests.
        """
        plan = self._plans.get(code, False)
        if plan is False:
            plan = self._plans[code] = self._plan(code)
        if plan is None:
            return None
        spec, base, mutations, defaults, limit, tail_bits, dictionary, facts = plan
        rng = self.rng
        getrandbits = rng.getrandbits
        from_wire_parts = L2capPacket.from_wire_parts
        batch = []
        for identifier in identifiers:
            values = dict(defaults)
            frame = bytearray(base)
            frame[_IDENTIFIER_OFFSET] = identifier & 0xFF
            for name, offset, size, low, width, bits in mutations:
                if width:
                    # random_normal_cidp: randrange(low, low + width).
                    value = getrandbits(bits)
                    while value >= width:
                        value = getrandbits(bits)
                    value += low
                elif rng.random() < 0.5:
                    # random_abnormal_psm, odd-MSB family: choice(ranges),
                    # then randrange(start, end + 1).
                    index = getrandbits(_PSM_RANGE_BITS)
                    while index >= _PSM_RANGE_COUNT:
                        index = getrandbits(_PSM_RANGE_BITS)
                    start, span, span_bits = _PSM_RANGE_DRAWS[index]
                    value = getrandbits(span_bits)
                    while value >= span:
                        value = getrandbits(span_bits)
                    value += start
                else:
                    # random_abnormal_psm, even family: randrange(0, 0x10000, 2).
                    value = getrandbits(_EVEN_PSM_BITS)
                    while value >= _EVEN_PSM_COUNT:
                        value = getrandbits(_EVEN_PSM_BITS)
                    value *= 2
                values[name] = value
                frame[offset] = value & 0xFF
                if size == 2:
                    frame[offset + 1] = value >> 8
            if limit <= 0:
                garbage = b""
            elif dictionary:
                garbage = draw_garbage(rng, limit, dictionary)
            else:  # draw_garbage's fresh tail, inlined: one per fuzz frame
                length = getrandbits(tail_bits)
                while length >= limit:
                    length = getrandbits(tail_bits)
                length += 1
                garbage = getrandbits(32 * length).to_bytes(4 * length, "little")[3::4]
            batch.append(
                from_wire_parts(
                    code,
                    identifier,
                    values,
                    b"",
                    garbage,
                    bytes(frame) + garbage,
                    spec,
                    SIGNALING_CID,
                    facts[1] if garbage else facts[0],
                    0 <= identifier <= 0xFF,
                )
            )
        return batch

    def _plan(self, code: CommandCode) -> tuple | None:
        """*code*'s bytes-level mutation plan, or None off the fast path.

        ``(spec, base, mutations, defaults, limit, tail_bits,
        dictionary, facts)``: ``base`` is the default frame with identifier 0;
        ``mutations`` lists the core fields Algorithm 1 touches as
        ``(name, wire offset, size, low, width, bits)`` in spec order,
        the object path's draw order. ``width`` 0 marks the PSM (from
        the abnormal pool), the others draw ``low + randrange(width)``.
        ``limit`` caps the garbage tail under the signaling MTU (0: no
        tails). ``facts`` are the structural validation facts without
        and with a tail (:mod:`repro.l2cap.validation`): lengths derived
        and the PSM, when there is one, always invalid (Table IV).
        """
        spec = COMMAND_SPECS.get(code)
        if spec is None or not self.config.mutate_core_fields_only:
            return None
        base = L2capPacket(code, 0).encode()
        mutations = []
        offset = _FIELDS_OFFSET
        for field in spec.fields:
            if field.name == "psm":
                mutations.append((field.name, offset, field.size, 0, 0, 0))
            elif field.name in CIDP_FIELD_NAMES:
                draw = _CIDP_DRAWS[field.size]
                mutations.append((field.name, offset, field.size, *draw))
            offset += field.size
        config = self.config
        limit = min(config.max_garbage, self.signaling_mtu - len(base))
        limit = limit if config.append_garbage else 0
        invalid_psm = spec.has_field("psm")
        return (
            spec,
            base,
            tuple(mutations),
            dict(spec.defaults),
            limit,
            limit.bit_length(),
            self.dictionary,
            (((), invalid_psm), ((Violation.GARBAGE_TAIL,), invalid_psm)),
        )
