"""The protocol-agnostic fuzz-target interface.

The paper's method — state guiding, core-field mutating, vulnerability
detecting — is protocol-generic (§V), but the seed engine hard-wired it
to L2CAP. A :class:`FuzzTarget` packages everything the campaign engine
needs to fuzz one protocol:

* a **state model** — the ordered state plan the guide walks (states are
  enum members; their ``.value`` strings become coverage tokens, corpus
  keys and report rows);
* a **guide** — routes the target into each plan state using only valid
  frames (phase 2);
* a **mutator** — produces valid-malformed frames for the current state
  (phase 3), wrapped as L2CAP wire packets so the whole transport,
  sniffer, corpus and replay machinery works unchanged;
* **codec hooks** — encode/decode the protocol's payload unit and
  expose the wire bytes, feeding the cross-protocol property suite;
* a **structural-validity predicate** — "would a conformant parser
  accept this frame?", the boundary the mutator must stay inside;
* **coverage / finding keys** — the target's name flows into corpus
  entry IDs and :func:`repro.core.detection.finding_key`, so findings
  from different protocols never collapse into one bucket.

Targets register themselves in a module-level registry. Registration
validates the full hook surface up front: a target missing a required
hook fails at import/registration time, not mid-campaign. The built-in
targets' modules load on first use (:func:`make_target`).
"""

from __future__ import annotations

import dataclasses
import importlib
import struct

from repro.l2cap.packets import L2capPacket


def wire_data_frame(target_cid: int, payload: bytes):
    """Wrap a protocol payload as an L2CAP data frame to *target_cid*.

    Every non-L2CAP target ships its frames this way, exactly as on a
    real link, so the transport, sniffer, corpus and replay machinery
    is shared unchanged. The frame is
    ``L2capPacket(code=0, identifier=0, header_cid=target_cid,
    tail=payload, fill_defaults=False)``, built with its loopback
    verdict set (:meth:`~repro.l2cap.packets.L2capPacket.data_frame`).
    """
    return L2capPacket.data_frame(target_cid, payload)


def wire_data_frame_fast(target_cid: int, payload: bytes):
    """Bytes-level twin of :func:`wire_data_frame` (primed encode cache).

    Produces a packet indistinguishable from
    ``wire_data_frame(target_cid, payload)`` — same fields, same wire
    image — but assembles the 4-byte B-frame header itself and primes
    the encode cache with the finished bytes, so the later ``encode()``
    pass is a cache hit. This is the ``mutate_wire`` building block for
    every target whose fuzz frames ride as data frames.
    """
    return L2capPacket.data_frame(
        target_cid, payload, _B_FRAME_HEADER(len(payload), target_cid) + payload
    )


#: The B-frame header: Payload Length, Header CID (little-endian).
_B_FRAME_HEADER = struct.Struct("<HH").pack


def open_l2cap_channel(queue, psm: int, our_cid: int, failure_message: str) -> int:
    """Open the L2CAP channel a protocol session rides on.

    Sends one valid Connection Request and returns the CID the target
    allocated. Shared by every non-L2CAP guide so the handshake (and
    any future fix to it) lives in one place.

    :raises ScanError: with *failure_message* when the port refuses.
    :raises TransportError: if the target dies during the handshake.
    """
    from repro.errors import ScanError
    from repro.l2cap.constants import CommandCode, ConnectionResult
    from repro.l2cap.packets import connection_request

    responses = queue.send(
        connection_request(
            psm=psm, scid=our_cid, identifier=queue.take_identifier()
        )
    )
    for response in responses:
        if (
            response.code == CommandCode.CONNECTION_RSP
            and response.fields.get("result") == ConnectionResult.SUCCESS
        ):
            return response.fields.get("dcid", 0)
    raise ScanError(failure_message)


@dataclasses.dataclass
class GuidedPosition:
    """Where the guide parked the target.

    :param state: the plan state (an enum member; ``.value`` is its name).
    :param label: human label for the state's command family (the L2CAP
        job name, the RFCOMM mux role, ...) — appears in the campaign log.
    :param context: opaque per-protocol routing context (live channel,
        learned handles, open DLCIs); consumed only by the owning target.
    """

    state: object
    label: str
    context: object = None


#: The hook surface every registered target must provide. Each entry is
#: ``(attribute, is_callable)``; registration checks presence and shape.
REQUIRED_HOOKS: tuple[tuple[str, bool], ...] = (
    ("name", False),
    ("state_universe", True),
    ("state_plan", True),
    ("fallback_state", True),
    ("build_guide", True),
    ("build_mutator", True),
    ("commands_for", True),
    ("encode_payload", True),
    ("decode_payload", True),
    ("is_structurally_valid", True),
    ("covered_states", True),
    ("prepare_device", True),
)


class FuzzTarget:
    """Base class (and documentation) for protocol targets.

    Subclasses must provide every hook in :data:`REQUIRED_HOOKS`:

    * ``name`` — registry key ("l2cap", "rfcomm", ...); flows into
      corpus entry IDs, finding keys and fleet reports.
    * ``state_universe()`` — every state of the protocol's model (the
      coverage denominator).
    * ``state_plan()`` — the ordered subset a campaign routes through.
    * ``fallback_state()`` — posture fuzzed when state guiding is
      ablated away.
    * ``build_guide(queue, scan)`` — phase-2 router, built per
      campaign: ``plan()`` (the ordered states, shallow→deep),
      ``enter(state)`` (drive the target there with valid frames and
      return a :class:`GuidedPosition`) and ``leave(position)`` (valid
      teardown). Optional: ``confirmed_states`` (see
      :meth:`covered_states`) and ``on_target_reset()``, called after
      an auto-reset campaign resets a crashed target so cached
      channels and sessions are re-established.
    * ``build_mutator(config, rng, dictionary)`` — phase-3 generator,
      built per campaign: ``mutate(position, command, identifier)``
      returns one valid-malformed :class:`~repro.l2cap.packets.L2capPacket`
      (a signalling command, or a data frame carrying the protocol's
      payload). Optional, used when ``FuzzConfig.wire_fast_path`` is
      on: ``mutate_wire(position, command, identifiers)``, the
      bytes-level fast path, one call per command batch (of one in
      auto-reset campaigns). It returns one packet per identifier, each
      byte-identical to what ``mutate`` would produce, drawing from the
      RNG identically, or None to fall back to ``mutate``.
    * ``commands_for(position)`` — the valid commands of the state the
      guide just entered, in deterministic order.
    * ``encode_payload(obj)`` / ``decode_payload(raw)`` — protocol codec
      (the payload unit inside the wire packet).
    * ``is_structurally_valid(payload)`` — would a conformant parser
      accept these payload bytes?
    * ``covered_states(fuzzer)`` — the campaign's demonstrated coverage.
    * ``prepare_device(device, armed)`` — wire the protocol's server
      into a virtual device (and lift pairing gates the way a paired
      dongle would); a no-op for protocols the stack serves by default.
    """

    name: str = ""

    # -- convenience defaults -------------------------------------------------------

    def fallback_state(self):
        """Ablation posture: the shallowest plan state by default."""
        return self.state_plan()[0]

    def state_universe(self) -> tuple:
        """Defaults to the plan (protocols modelled plan == universe)."""
        return self.state_plan()

    def prepare_device(self, device, armed: bool = True) -> None:
        """Default: the stack already serves this protocol."""

    def covered_states(self, fuzzer) -> frozenset:
        """Default: the states the guide *confirmed* the target entered.

        A guide that exposes a ``confirmed_states`` set (states whose
        routing handshake was answered as expected — the protocol
        analogue of L2CAP's wire-inferred coverage) is trusted over the
        raw visit counter, which only records that routing was
        *attempted*.
        """
        confirmed = getattr(fuzzer.guide, "confirmed_states", None)
        if confirmed is not None:
            return frozenset(confirmed)
        return frozenset(fuzzer.state_visits)


class TargetRegistrationError(TypeError):
    """A target was registered without its full hook surface."""


#: Built-in target names → the module that registers each, in
#: presentation order. A module loads on its target's first
#: :func:`make_target`, so a campaign imports only what it fuzzes.
_BUILTINS: dict[str, str] = {
    "l2cap": "repro.targets.l2cap",
    "rfcomm": "repro.targets.rfcomm",
    "sdp": "repro.targets.sdp",
    "obex": "repro.targets.obex",
}

_REGISTRY: dict[str, type] = {}


def register_target(target_cls: type) -> type:
    """Register *target_cls* after validating its hook surface.

    Usable as a class decorator. Fails fast — at registration, never
    mid-campaign — when a required hook is missing or not callable. A
    built-in is validated when its module loads.

    :raises TargetRegistrationError: on a missing/malformed hook or a
        duplicate/empty name (a built-in name is taken before its
        module loads).
    """
    for attribute, expect_callable in REQUIRED_HOOKS:
        if not hasattr(target_cls, attribute):
            raise TargetRegistrationError(
                f"fuzz target {target_cls.__name__!r} is missing required "
                f"hook {attribute!r}"
            )
        if expect_callable and not callable(getattr(target_cls, attribute)):
            raise TargetRegistrationError(
                f"fuzz target {target_cls.__name__!r} hook {attribute!r} "
                "must be callable"
            )
    name = target_cls.name
    if not isinstance(name, str) or not name:
        raise TargetRegistrationError(
            f"fuzz target {target_cls.__name__!r} must declare a non-empty "
            "string name"
        )
    taken = _REGISTRY.get(name, target_cls) is not target_cls
    if taken or _BUILTINS.get(name) not in (None, target_cls.__module__):
        raise TargetRegistrationError(f"fuzz target {name!r} already registered")
    _REGISTRY[name] = target_cls
    return target_cls


def target_names() -> tuple[str, ...]:
    """The built-in names, then registered targets in registration order.

    Loads no target module.
    """
    return (*_BUILTINS, *(name for name in _REGISTRY if name not in _BUILTINS))


def make_target(name: str) -> FuzzTarget:
    """Build a target from its registry name, loading a built-in's module
    on its first use.

    :raises ValueError: for an unknown name, listing the valid ones.
    """
    target_cls = _REGISTRY.get(name)
    if target_cls is None and name in _BUILTINS:
        importlib.import_module(_BUILTINS[name])
        target_cls = _REGISTRY[name]
    if target_cls is None:
        raise ValueError(
            f"unknown fuzz target {name!r}; choose from {', '.join(target_names())}"
        )
    return target_cls()
