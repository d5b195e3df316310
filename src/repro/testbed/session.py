"""Fuzzing sessions: wire a fuzzer to a virtual device and run it.

A :class:`FuzzSession` is the reproduction's equivalent of plugging the
dongle in and launching the tool against one Table V device: it builds
the virtual device from its profile, strings a link between them with the
fuzzer's throughput model, and runs the campaign — for any registered
protocol target (L2CAP by default; RFCOMM, SDP and OBEX ride the same
machinery).
"""

from __future__ import annotations

import dataclasses
import functools

from repro.core.config import FuzzConfig
from repro.core.fuzzer import L2Fuzz
from repro.core.report import CampaignReport
from repro.core.strategies import ExplorationStrategy, make_strategy
from repro.hci.transport import SimClock, VirtualLink
from repro.testbed.profiles import DeviceProfile

#: Throughput the paper measured for L2Fuzz on D2 (§IV.C): 524.27 packets
#: per second, dominating the link's per-frame cost.
L2FUZZ_PPS = 524.27


@dataclasses.dataclass
class FuzzSession:
    """One fuzzer-vs-device campaign.

    :param profile: the target's Table V profile.
    :param config: fuzzer configuration.
    :param armed: False disables the injected bugs (ratio measurements).
    :param zero_latency: strip device response latency (throughput runs).
    :param pps: fuzzer throughput model (packets per simulated second).
    :param auto_reset: enable the long-term-fuzzing extension — crashed
        devices are reset and the campaign continues.
    :param strategy: exploration strategy (instance or registry name);
        None keeps the seed's sequential schedule.
    :param corpus_dir: shared corpus directory; when set, the campaign's
        coverage-unlock sequences and minimised findings are written
        back after the run (safe under parallel fleet workers). Needs
        the sent packets: ``retain_trace`` ``"sent"`` or True.
    :param dictionary: corpus-harvested garbage tails spliced into the
        mutation stream; empty keeps the seed behaviour byte-identical.
    :param retain_trace: what the sniffer keeps per packet. True (the
        default) keeps the full two-way trace; ``"sent"`` keeps the sent
        packets only, which is all :attr:`corpus_dir` write-back
        replays; False runs on streaming analysis in bounded memory and
        is refused together with :attr:`corpus_dir`.
    :param sample_every: grain of the sniffer's streamed Fig. 8/9 series.
    :param target: protocol fuzz target (instance or registry name);
        None keeps the seed behaviour (L2CAP). The session prepares the
        device for the chosen protocol the way a paired dongle would —
        mounting the RFCOMM mux or OBEX server and lifting the pairing
        gate on the protocol's port.
    """

    profile: DeviceProfile
    config: FuzzConfig = dataclasses.field(default_factory=FuzzConfig)
    armed: bool = True
    zero_latency: bool = False
    pps: float = L2FUZZ_PPS
    auto_reset: bool = False
    strategy: ExplorationStrategy | str | None = None
    corpus_dir: str | None = None
    dictionary: tuple[bytes, ...] = ()
    retain_trace: bool | str = True
    sample_every: int = 1000
    target: object | str | None = None

    def __post_init__(self) -> None:
        from repro.targets import make_target

        if self.corpus_dir is not None and not self.retain_trace:
            raise ValueError(
                "corpus write-back replays the sent packets; use "
                'retain_trace="sent" or True (or drop corpus_dir)'
            )
        target = self.target
        if target is None:
            target = make_target("l2cap")
        elif isinstance(target, str):
            target = make_target(target)
        self.target = target
        self.clock = SimClock()
        self.device = self.profile.build(
            clock=self.clock, armed=self.armed, zero_latency=self.zero_latency
        )
        self.target.prepare_device(self.device, armed=self.armed)
        self.link = VirtualLink(clock=self.clock, tx_cost=1.0 / self.pps)
        self.device.attach_to(self.link)
        config = self.config
        if self.auto_reset and config.stop_on_first_finding:
            config = dataclasses.replace(config, stop_on_first_finding=False)
        strategy = self.strategy
        if isinstance(strategy, str):
            strategy = make_strategy(strategy)
        self.fuzzer = L2Fuzz(
            link=self.link,
            inquiry=self.device.inquiry,
            browse=None,  # browse over the air via the real SDP exchange
            config=config,
            # Hooks bind the device and link, never the session: a
            # session the fuzzer pointed back to would form a cycle that
            # keeps the finished campaign alive until the cyclic GC runs.
            dump_probe=lambda device=self.device: device.crash_dumps,
            reset_hook=functools.partial(self.device.reset, self.link),
            target_name=f"{self.profile.device_id} ({self.profile.name})",
            strategy=strategy,
            dictionary=self.dictionary,
            retain_trace=self.retain_trace,
            sample_every=self.sample_every,
            target=self.target,
        )

    def run(self) -> CampaignReport:
        """Run the campaign to completion and return the report.

        With :attr:`corpus_dir` set, the finished campaign is written
        back into the shared corpus before the report is returned.
        """
        report = self.fuzzer.run()
        if self.corpus_dir is not None:
            from repro.corpus.store import record_campaign

            record_campaign(
                self.corpus_dir,
                self.profile,
                self.fuzzer,
                report,
                armed=self.armed,
            )
        return report


def run_campaign(
    profile: DeviceProfile,
    config: FuzzConfig | None = None,
    armed: bool = True,
    zero_latency: bool = False,
    pps: float = L2FUZZ_PPS,
    auto_reset: bool = False,
    strategy: ExplorationStrategy | str | None = None,
    corpus_dir: str | None = None,
    dictionary: tuple[bytes, ...] = (),
    retain_trace: bool | str = True,
    sample_every: int = 1000,
    target: object | str | None = None,
) -> CampaignReport:
    """Convenience one-shot: build a session and run it."""
    session = FuzzSession(
        profile=profile,
        config=config if config is not None else FuzzConfig(),
        armed=armed,
        zero_latency=zero_latency,
        pps=pps,
        auto_reset=auto_reset,
        strategy=strategy,
        corpus_dir=corpus_dir,
        dictionary=dictionary,
        retain_trace=retain_trace,
        sample_every=sample_every,
        target=target,
    )
    return session.run()
