"""The campaign orchestrator (paper Fig. 5), protocol-agnostic.

Wires the four phases together for any registered
:class:`~repro.targets.base.FuzzTarget`:

1. :class:`~repro.core.target_scanning.TargetScanner` finds the device
   and a pairing-free port;
2. the target's **guide** walks its protocol's state plan with valid
   frames, in the order an
   :class:`~repro.core.strategies.ExplorationStrategy` schedules them;
3. the target's **mutator** generates *n* valid malformed packets per
   valid command of the state's job;
4. :class:`~repro.core.detection.VulnerabilityDetector` watches for
   socket errors, runs ping tests and pulls crash dumps.

The engine itself never mentions a protocol: states, commands, routing
and mutation all come from the target. :class:`L2Fuzz` defaults to the
L2CAP reference target and reproduces the seed campaign byte-for-byte;
``target=make_target("rfcomm")`` (or ``"sdp"``, ``"obex"``) fuzzes the
same virtual device's other layers with the same machinery.

The campaign is fully deterministic given the config seed, and every
packet in both directions passes through the sniffer, whose streaming
counters give the report the paper's metrics. What the sniffer also
keeps per packet is the ``retain_trace`` level (see
:mod:`repro.analysis.sniffer`).
"""

from __future__ import annotations

import random
from collections.abc import Callable, Sequence

from repro.analysis.metrics import measure
from repro.analysis.sniffer import PacketSniffer
from repro.core.config import FuzzConfig
from repro.core.detection import Finding, VulnerabilityDetector
from repro.core.fuzz_log import FuzzLog
from repro.core.packet_queue import PacketQueue
from repro.core.report import CampaignReport
from repro.core.strategies import ExplorationStrategy, SequentialStrategy
from repro.core.target_scanning import TargetScanner
from repro.errors import TargetTimeoutError, TransportError
from repro.hci.transport import VirtualLink


class L2Fuzz:
    """A stateful fuzzer for one protocol layer of a Bluetooth target.

    The class keeps its historical name: with the default target it *is*
    the paper's L2Fuzz, and the name is how the tool is known. Every
    protocol-specific decision is delegated to :attr:`target`.

    :param link: virtual link to the target.
    :param inquiry: discovery callable returning the device meta.
    :param browse: SDP-browse callable returning service records; None
        performs the real over-the-air SDP exchange.
    :param config: campaign knobs.
    :param dump_probe: optional crash-dump side channel (phase 4).
    :param reset_hook: optional callable that power-cycles a crashed
        target and restores the link — enables long-term fuzzing (the
        paper's §V future-work extension). Only used when
        ``config.stop_on_first_finding`` is False.
    :param target_name: label used in reports.
    :param strategy: exploration strategy scheduling the state plan;
        None keeps the seed behaviour (sequential).
    :param dictionary: corpus-harvested garbage tails handed to the
        mutator for cross-campaign splicing; empty keeps the seed
        mutation stream byte-identical.
    :param retain_trace: what the sniffer keeps per packet. True keeps
        the full two-way trace for trace export and triage; ``"sent"``
        keeps only the sent packets in send order, all that corpus
        write-back replays (fleet workers with a corpus); False runs the
        campaign on streaming analysis alone, in memory bounded by the
        number of plan states instead of the packet budget (fleet
        workers without a corpus).
    :param sample_every: granularity of the sniffer's streamed Fig. 8/9
        series (must match the grain later asked of ``mp_curve`` /
        ``pr_curve`` when the trace is not retained).
    :param target: the protocol under test — a
        :class:`~repro.targets.base.FuzzTarget` instance or registry
        name; None selects the L2CAP reference target.
    """

    def __init__(
        self,
        link: VirtualLink,
        inquiry: Callable[[], object],
        browse: Callable[[], Sequence] | None = None,
        config: FuzzConfig | None = None,
        dump_probe: Callable[[], list[str]] | None = None,
        reset_hook: Callable[[], None] | None = None,
        target_name: str = "target",
        strategy: ExplorationStrategy | None = None,
        dictionary: Sequence[bytes] = (),
        retain_trace: bool | str = True,
        sample_every: int = 1000,
        target=None,
    ) -> None:
        from repro.targets import make_target

        if target is None:
            target = make_target("l2cap")
        elif isinstance(target, str):
            target = make_target(target)
        self.target = target
        self.config = config if config is not None else FuzzConfig()
        self.link = link
        self.sniffer = PacketSniffer(
            retain_trace=retain_trace, sample_every=sample_every
        )
        self.queue = PacketQueue(link, self.sniffer)
        self.scanner = TargetScanner(self.queue, inquiry, browse)
        self.detector = VulnerabilityDetector(self.queue, dump_probe)
        self.mutator = self.target.build_mutator(
            self.config, random.Random(self.config.seed), dictionary=dictionary
        )
        self.log = FuzzLog()
        self.reset_hook = reset_hook
        self.target_name = target_name
        self.strategy = strategy if strategy is not None else SequentialStrategy()
        self.findings: list[Finding] = []
        self.state_visits: dict[object, int] = {}
        self.transition_visits: dict[tuple[object, object], int] = {}
        #: Coverage-unlock log for the corpus subsystem: each time a
        #: state or plan transition is seen for the first time, the new
        #: tokens plus the sent-packet prefix length that got there.
        self.coverage_log: list[tuple[tuple[str, ...], int]] = []
        #: The campaign's live guide (set by :meth:`run`); targets read
        #: its confirmed-coverage set when building the report.
        self.guide = None
        self._previous_state = None
        self._last_packet = None
        self._sweeps = 0

    # -- public -------------------------------------------------------------------

    def run(self) -> CampaignReport:
        """Execute the campaign and return the report."""
        self.log.info(self._now, "scan", "target scanning started")
        scan = self.scanner.scan()
        self.log.info(
            self._now,
            "scan",
            "target scanned",
            open_psms=[hex(psm) for psm in scan.open_psms],
            probed=len(scan.probes),
        )
        guide = self.target.build_guide(self.queue, scan)
        self.guide = guide

        while not self._budget_exhausted():
            stop = self._run_sweep(guide)
            if stop:
                break
            self._sweeps += 1
            if self.config.max_sweeps and self._sweeps >= self.config.max_sweeps:
                break
        return self._build_report()

    # -- internals ------------------------------------------------------------------

    @property
    def _now(self) -> float:
        return self.queue.clock.now

    def _budget_exhausted(self) -> bool:
        return self.sniffer.transmitted_count() >= self.config.max_packets

    def _run_sweep(self, guide) -> bool:
        """One strategy-scheduled pass over the plan. Returns True to stop."""
        base_plan = guide.plan()
        if self.config.state_guiding:
            plan = self.strategy.plan(base_plan, self.state_visits)
            if not plan:
                # A strategy with nothing to say about this target's
                # states (e.g. targeted on a foreign state space) falls
                # back to the guide's canonical plan.
                plan = base_plan
        else:
            # Ablation: stateless fuzzing from the shallowest posture.
            plan = (self.target.fallback_state(),)
        for state in plan:
            if self._budget_exhausted():
                return True
            stop = self._fuzz_state(guide, state)
            if stop:
                return True
        return False

    def _fuzz_state(self, guide, state) -> bool:
        """Route to *state*, fuzz its job's commands. True = stop campaign."""
        state_name = state.value
        try:
            position = guide.enter(state)
        except TransportError as error:
            return self._on_transport_error(error, state_name)
        self._record_visit(state)
        self.log.info(
            self._now,
            "state-guiding",
            f"entered {state_name}",
            job=position.label,
        )

        commands = self.target.commands_for(position)
        packets_per_command = self.strategy.packets_per_command(
            state, self.config.packets_per_command
        )
        # Hot-loop locals: one attribute walk per state visit instead of
        # four per packet. mutate_wire is the optional bytes-level fast
        # path (None falls back to the field-object reference path).
        queue = self.queue
        take_identifiers = queue.take_identifiers
        send = queue.send
        mutate = self.mutator.mutate
        mutate_wire = (
            getattr(self.mutator, "mutate_wire", None)
            if self.config.wire_fast_path
            else None
        )
        transmitted = self.sniffer.transmitted_count
        max_packets = self.config.max_packets
        # A campaign that a crash ends draws each command's batch in one call;
        # one that resets and goes on draws singly, never ahead of the wire.
        draw_ahead = self.config.stop_on_first_finding or self.reset_hook is None
        step = packets_per_command if draw_ahead else 1
        batches_since_ping = 0
        for code in commands:
            # Every send below puts exactly one packet on the wire, so the
            # batch is cut to the budget left instead of re-checking it
            # per packet.
            left = max_packets - transmitted()
            if left <= 0:
                break
            count = min(packets_per_command, left)
            while count:
                size = step if step < count else count
                count -= size
                identifiers = take_identifiers(size)
                batch = None
                if mutate_wire is not None:
                    batch = mutate_wire(position, code, identifiers)
                if batch is None:
                    batch = [mutate(position, code, ident) for ident in identifiers]
                for identifier, packet in zip(identifiers, batch):
                    # Its description is rendered only if a finding needs it.
                    self._last_packet = packet
                    try:
                        send(packet)
                    except TransportError as error:
                        # The detector's probes follow this identifier.
                        queue.rewind_identifiers(identifier)
                        return self._on_transport_error(error, state_name)
            batches_since_ping += 1
            if batches_since_ping >= self.config.ping_every_commands:
                batches_since_ping = 0
                stop = self._ping_checkpoint(state_name)
                if stop:
                    return True

        try:
            guide.leave(position)
        except TransportError as error:
            return self._on_transport_error(error, state_name)
        return False

    def _record_visit(self, state) -> None:
        """Count one successful entry (and its plan-order transition)."""
        unlocked: list[str] = []
        self.state_visits[state] = self.state_visits.get(state, 0) + 1
        if self.state_visits[state] == 1:
            unlocked.append(state.value)
        if self._previous_state is not None:
            edge = (self._previous_state, state)
            self.transition_visits[edge] = self.transition_visits.get(edge, 0) + 1
            if self.transition_visits[edge] == 1:
                unlocked.append(f"{edge[0].value}>{edge[1].value}")
        self._previous_state = state
        if unlocked:
            # The routing packets that reached *state* are already on the
            # wire, so this prefix is a replayable witness of the unlock.
            self.coverage_log.append(
                (tuple(unlocked), self.sniffer.transmitted_count())
            )

    def _ping_checkpoint(self, state_name: str) -> bool:
        """Detection-phase ping test. True = stop campaign."""
        if self.detector.ping_test(self.config.echo_payload):
            return False
        error_cls = self.link.down_error or TargetTimeoutError
        return self._on_transport_error(error_cls(), state_name)

    @property
    def _last_trigger(self) -> str:
        """Description of the most recent fuzz packet (lazy)."""
        if self._last_packet is None:
            return "(none)"
        return self._last_packet.describe()

    def _on_transport_error(self, error: TransportError, state_name: str) -> bool:
        """Record a finding; decide whether the campaign stops."""
        # The prefix cut must be read before diagnose(): its confirming
        # ping test transmits more packets at the same simulated tick.
        finding = self.detector.diagnose(
            error,
            state_name,
            self._last_trigger,
            target=self.target.name,
            sent_index=self.sniffer.transmitted_count(),
        )
        self.findings.append(finding)
        self.log.vulnerability(
            self._now,
            "detection",
            f"{finding.vulnerability_class.value}: {finding.error_message}",
            state=state_name,
            trigger=finding.trigger,
            dump=bool(finding.crash_dump),
        )
        if self.config.stop_on_first_finding or self.reset_hook is None:
            return True
        self.reset_hook()
        # Channels and sessions the guide cached died with the old stack
        # instance; let it drop them so the next route reconnects.
        on_reset = getattr(self.guide, "on_target_reset", None)
        if on_reset is not None:
            on_reset()
        self.log.info(self._now, "detection", "target reset, campaign continues")
        return False

    def _build_report(self) -> CampaignReport:
        return CampaignReport(
            target_name=self.target_name,
            findings=tuple(self.findings),
            elapsed_seconds=self._now,
            packets_sent=self.sniffer.transmitted_count(),
            sweeps_completed=self._sweeps,
            efficiency=measure(self.sniffer, self._now),
            covered_states=self.target.covered_states(self),
            strategy=self.strategy.name,
            state_visits=tuple(
                sorted(
                    (state.value, count)
                    for state, count in self.state_visits.items()
                )
            ),
            transition_visits=tuple(
                sorted(
                    (source.value, destination.value, count)
                    for (source, destination), count in self.transition_visits.items()
                )
            ),
            fuzz_target=self.target.name,
            state_space=len(self.target.state_universe()),
        )
