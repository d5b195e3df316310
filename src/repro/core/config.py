"""Campaign configuration for L2Fuzz, and the fleet job description."""

from __future__ import annotations

import dataclasses

from repro.errors import ReproError


@dataclasses.dataclass(frozen=True)
class FuzzConfig:
    """Tunable knobs of an L2Fuzz campaign.

    :param seed: RNG seed; campaigns are fully deterministic given a seed.
    :param packets_per_command: ``n`` of Algorithm 1 — malformed packets
        generated per valid command per state visit.
    :param max_packets: total transmission budget for the campaign
        (the paper's efficiency experiments use 100,000).
    :param max_garbage: largest garbage tail appended to a mutated packet,
        in bytes; kept well under the signaling MTU so the tail itself
        never provokes an "MTU exceeded" reject (paper §III.D).
    :param ping_every_commands: run the detection ping test after this
        many fuzzed command batches (1 = after every batch).
    :param stop_on_first_finding: mirror the paper's behaviour — "when a
        valid vulnerability is found, the device and fuzzing are
        terminated". False enables the auto-reset long-term-fuzzing
        extension (paper §V future work).
    :param max_sweeps: upper bound on full state-plan sweeps (0 = until
        the packet budget runs out).
    :param echo_payload: payload carried by detection pings.
    :param wire_fast_path: let mutators that implement ``mutate_wire``
        assemble fuzz frames at the bytes level (template patching with
        a primed encode cache) instead of the field-object→encode round
        trip. Byte-for-byte and RNG-stream identical to the object path
        by contract — False forces the reference path (equivalence
        tests, debugging).

    Ablation switches (all default to the paper's design; flipping one
    removes one of the two key techniques — used by the ablation bench):

    :param state_guiding: walk the 13-state plan. False fuzzes only from
        the CLOSED posture, like a stateless fuzzer.
    :param mutate_core_fields_only: restrict mutation to ``MC``. False
        additionally corrupts the dependent length fields (BFuzz-style),
        which conformant stacks reject wholesale.
    :param append_garbage: append the Fig. 7 garbage tail.
    """

    seed: int = 0x1202
    packets_per_command: int = 5
    max_packets: int = 100_000
    max_garbage: int = 16
    ping_every_commands: int = 1
    stop_on_first_finding: bool = True
    max_sweeps: int = 0
    echo_payload: bytes = b"l2fuzz-ping"
    wire_fast_path: bool = True
    state_guiding: bool = True
    mutate_core_fields_only: bool = True
    append_garbage: bool = True

    def __post_init__(self) -> None:
        if self.packets_per_command < 1:
            raise ValueError("packets_per_command must be >= 1")
        if self.max_packets < 1:
            raise ValueError("max_packets must be >= 1")
        if self.max_garbage < 1:
            raise ValueError("max_garbage must be >= 1")
        if self.ping_every_commands < 1:
            raise ValueError("ping_every_commands must be >= 1")


class FleetSpecError(ReproError, ValueError):
    """A fleet job description that names something unknown or holds a
    bad value. The message names the field at fault."""


#: The JSON shape each spec field annotation accepts, and how an error
#: names it. ``type(v) is int`` refuses booleans and floats.
_JSON_SHAPES = {
    "tuple[str, ...]": (
        lambda v: isinstance(v, (list, tuple)) and all(isinstance(i, str) for i in v),
        "a list of strings",
    ),
    "int": (lambda v: type(v) is int, "an integer"),
    "int | None": (lambda v: v is None or type(v) is int, "an integer or null"),
    "bool": (lambda v: type(v) is bool, "a boolean"),
    "str": (lambda v: isinstance(v, str), "a string"),
}


@dataclasses.dataclass(frozen=True)
class FleetSpec:
    """One fleet job: the profile × strategy × target matrix and its run.

    ``repro fleet``, ``repro jobs submit`` and the control plane's job
    manifests all describe a fleet with this type. :meth:`validate` is
    the only check of it, and
    :meth:`~repro.core.fleet.FleetOrchestrator.from_spec` the only
    place that turns one into an orchestrator. The registries are
    imported on first validation, so holding a spec loads none of them.

    :param profiles: testbed profile ids (``D1``..).
    :param strategies: exploration strategy registry names.
    :param targets: protocol fuzz-target registry names.
    :param budget: per-campaign packet budget (``max_packets``).
    :param seed: fleet seed (campaign seeds derive from it).
    :param armed: False disarms the injected bugs fleet-wide.
    :param target_state: focus state (a ``ChannelState`` value) for the
        ``targeted`` strategy; it must be routable from CLOSED.
    :param batch: campaigns per worker shard; None auto-sizes.
    """

    profiles: tuple[str, ...]
    strategies: tuple[str, ...] = ("sequential",)
    targets: tuple[str, ...] = ("l2cap",)
    budget: int = 600
    seed: int = 7
    armed: bool = True
    target_state: str = "OPEN"
    batch: int | None = None

    @property
    def campaigns(self) -> int:
        """Matrix size: one campaign per profile × strategy × target."""
        return len(self.profiles) * len(self.strategies) * len(self.targets)

    @property
    def packets_requested(self) -> int:
        """Worst-case packet spend — what the budget quota charges."""
        return self.campaigns * self.budget

    def validate(self) -> None:
        """Check every field against the live registries.

        :raises FleetSpecError: naming the first offending field.
        """
        from repro.core.strategies import STRATEGY_NAMES, bfs_route
        from repro.l2cap.states import ChannelState
        from repro.targets import target_names
        from repro.testbed.profiles import PROFILES_BY_ID

        for names, known, noun in (
            (self.profiles, tuple(PROFILES_BY_ID), "profile"),
            (self.strategies, STRATEGY_NAMES, "strategy"),
            (self.targets, target_names(), "fuzz target"),
        ):
            if not names:
                raise FleetSpecError(f"fleet needs at least one {noun}")
            for name in names:
                if name not in known:
                    raise FleetSpecError(
                        f"unknown {noun} {name!r}; choose from {', '.join(known)}"
                    )
        if self.budget < 1:
            raise FleetSpecError("budget must be >= 1 packet")
        if self.batch is not None and self.batch < 1:
            raise FleetSpecError("batch must be >= 1")
        try:
            state = ChannelState(self.target_state)
        except ValueError:
            raise FleetSpecError(
                f"unknown target state {self.target_state!r}"
            ) from None
        if "targeted" in self.strategies:
            try:
                bfs_route(state)
            except ValueError as error:
                raise FleetSpecError(
                    f"target state {state.value} cannot be targeted: {error}"
                ) from None

    def to_dict(self) -> dict:
        """The flat JSON form (the HTTP body and the job manifest)."""
        data = dataclasses.asdict(self)
        for field in ("profiles", "strategies", "targets"):
            data[field] = list(data[field])
        return data

    @classmethod
    def from_dict(cls, data: dict):
        """Read the flat JSON form, refusing a value of the wrong JSON type
        rather than coercing it (``"false"`` is not False). Unknown keys
        are ignored; a missing key takes its default.

        :raises FleetSpecError: naming the field at fault.
        """
        values = {}
        for field in dataclasses.fields(cls):
            if field.name not in data:
                if field.default is dataclasses.MISSING:
                    raise FleetSpecError(f"missing field {field.name!r}")
                continue
            value = data[field.name]
            accepts, shape = _JSON_SHAPES[field.type]
            if not accepts(value):
                raise FleetSpecError(f"{field.name} must be {shape}, got {value!r}")
            values[field.name] = tuple(value) if isinstance(value, list) else value
        return cls(**values)
