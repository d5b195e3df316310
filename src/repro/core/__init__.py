"""The paper's contribution: the L2Fuzz stateful fuzzer."""

from repro.core.config import FuzzConfig
from repro.core.detection import Finding, VulnerabilityClass, VulnerabilityDetector
from repro.core.fleet import (
    CampaignSpec,
    FleetFinding,
    FleetOrchestrator,
    FleetReport,
    SummaryRun,
    derive_campaign_seed,
    merge_reports,
)
from repro.core.fuzz_log import FuzzLog, LogEntry, LogLevel
from repro.core.fuzzer import L2Fuzz
from repro.core.mutation import CoreFieldMutator
from repro.core.packet_queue import PacketQueue
from repro.core.report import CampaignReport, format_elapsed
from repro.core.state_guiding import STATE_PLAN, ChannelContext, GuidedState, StateGuide
from repro.core.strategies import (
    STRATEGY_NAMES,
    BreadthFirstStrategy,
    DepthFirstStrategy,
    ExplorationStrategy,
    SequentialStrategy,
    TargetedStrategy,
    make_strategy,
)
from repro.core.target_scanning import PortProbe, ScanResult, TargetScanner
from repro.core.triage import ReplayOutcome, minimize_trigger, replay, sent_packets

__all__ = [
    "BreadthFirstStrategy",
    "CampaignReport",
    "CampaignSpec",
    "ChannelContext",
    "CoreFieldMutator",
    "DepthFirstStrategy",
    "ExplorationStrategy",
    "Finding",
    "FleetFinding",
    "FleetOrchestrator",
    "FleetReport",
    "FuzzConfig",
    "FuzzLog",
    "GuidedState",
    "L2Fuzz",
    "LogEntry",
    "LogLevel",
    "PacketQueue",
    "PortProbe",
    "ReplayOutcome",
    "STATE_PLAN",
    "STRATEGY_NAMES",
    "ScanResult",
    "SequentialStrategy",
    "StateGuide",
    "SummaryRun",
    "TargetScanner",
    "TargetedStrategy",
    "VulnerabilityClass",
    "VulnerabilityDetector",
    "derive_campaign_seed",
    "format_elapsed",
    "make_strategy",
    "merge_reports",
    "minimize_trigger",
    "replay",
    "sent_packets",
]
