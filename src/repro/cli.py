"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``devices`` — list the Table V testbed profiles.
* ``scan D2`` — run the target-scanning phase against one profile.
* ``fuzz D2`` — run a full campaign (``--disarm`` for ratio mode;
  ``--target {l2cap,rfcomm,sdp,obex}`` picks the protocol).
* ``fleet`` — run a profile × strategy × protocol fleet and merge
  the reports.
* ``compare`` — run the four-fuzzer comparison (Table VII, Fig. 10).
* ``survey`` — run Table VI across all eight devices.
* ``replay`` — replay a saved JSONL trace against a fresh target.
* ``corpus`` — inspect, minimise, replay or export a shared corpus.
* ``runs`` — list, show or live-tail telemetry runs recorded by
  ``fleet --telemetry``.
* ``serve`` — run the fuzzing-as-a-service control plane.
* ``jobs`` — submit/list/show/cancel/resume jobs on a running control
  plane over HTTP.

All command output flows through stdlib ``logging``: the ``repro.cli``
logger carries user-facing text to stdout (``--quiet`` keeps warnings
and errors only), and the ``repro`` library logger writes its warnings
to stderr — ``--verbose`` lowers it to debug diagnostics — so neither
pollutes machine-readable stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import logging
import sys

_cli_log = logging.getLogger("repro.cli")


def _echo(message: object = "") -> None:
    """Print *message* to the console via the CLI logger.

    Every piece of user-facing command output funnels through here so
    ``--quiet`` can silence it wholesale and tests can capture it with
    standard logging fixtures. The INFO level is the CLI's "normal
    stdout" channel.
    """
    _cli_log.info("%s", message)


class _StderrHandler(logging.StreamHandler):
    """A stream handler bound to whatever ``sys.stderr`` is at emit time.

    The library logger outlives one ``main()`` call, so a handler that
    kept the stream current at configuration would write into a closed
    capture stream after an in-process run (the test suite, a REPL).
    """

    @property
    def stream(self):
        return sys.stderr

    @stream.setter
    def stream(self, _value) -> None:
        pass


def _configure_logging(verbose: bool, quiet: bool) -> None:
    """Wire console handlers for one ``main()`` invocation.

    Rebuilt (not accumulated) per call so repeated in-process ``main()``
    invocations — the test suite, REPL experiments — never stack
    duplicate handlers, and so pytest's ``capsys`` sees the stream
    objects current at call time.
    """
    _cli_log.handlers.clear()
    _cli_log.setLevel(logging.WARNING if quiet else logging.INFO)
    _cli_log.propagate = False
    console = logging.StreamHandler(sys.stdout)
    console.setFormatter(logging.Formatter("%(message)s"))
    # A downstream `| head` closing the pipe is normal CLI life, not a
    # logging error worth a traceback on stderr.
    console.handleError = lambda record: None
    _cli_log.addHandler(console)

    library = logging.getLogger("repro")
    library.handlers[:] = [
        handler
        for handler in library.handlers
        if isinstance(handler, logging.NullHandler)
    ]
    diagnostics = _StderrHandler()
    diagnostics.setFormatter(
        logging.Formatter("%(levelname)s %(name)s: %(message)s")
    )
    library.addHandler(diagnostics)
    library.setLevel(logging.DEBUG if verbose else logging.WARNING)

from repro.analysis.comparison import figure10_bars, run_comparison, table7_rows
from repro.analysis.state_coverage import coverage_report
from repro.analysis.traceio import save_trace
from repro.core.config import FleetSpec, FuzzConfig
from repro.core.fleet import FleetOrchestrator
from repro.core.packet_queue import PacketQueue
from repro.core.runtime import CHECKPOINTS_DIRNAME, SHARD_TIMEOUT, TIMEOUT_FACTOR
from repro.core.strategies import STRATEGY_NAMES, make_strategy
from repro.core.target_scanning import TargetScanner
from repro.errors import LegacyCorpusError
from repro.faults import FAULT_KINDS, seeded_plan
from repro.hci.transport import VirtualLink
from repro.targets import make_target, target_names
from repro.testbed.profiles import ALL_PROFILES, PROFILES_BY_ID
from repro.testbed.session import FuzzSession


def _profile(device_id: str):
    profile = PROFILES_BY_ID.get(device_id.upper())
    if profile is None:
        raise SystemExit(
            f"unknown device {device_id!r}; choose from {', '.join(PROFILES_BY_ID)}"
        )
    return profile


def cmd_devices(_args) -> int:
    """List the testbed."""
    for profile in ALL_PROFILES:
        vulns = ", ".join(v.vulnerability_id for v in profile.vulnerabilities) or "-"
        _echo(
            f"{profile.device_id}  {profile.name:<16} {profile.bt_stack:<14} "
            f"{profile.os_or_fw:<16} ports={len(profile.services):<3} bugs: {vulns}"
        )
    return 0


def cmd_scan(args) -> int:
    """Phase 1 only: discover the target's ports."""
    profile = _profile(args.device)
    device = profile.build(armed=False)
    link = VirtualLink(clock=device.clock)
    device.attach_to(link)
    queue = PacketQueue(link)
    result = TargetScanner(queue, device.inquiry).scan()
    meta = result.meta
    _echo(f"{meta.name}  [{meta.mac_address}, OUI {meta.oui}, {meta.device_class}]")
    for probe in result.probes:
        status = (
            "open (no pairing)"
            if probe.connectable
            else ("requires pairing" if probe.requires_pairing else "closed")
        )
        _echo(f"  PSM 0x{probe.psm:04X}  {probe.name:<28} {status}")
    _echo(f"fuzzing port: 0x{result.primary_psm:04X}")
    return 0


def cmd_fuzz(args) -> int:
    """Full campaign against one device (any registered protocol target)."""
    from repro.core.fleet import load_corpus_seeds

    profile = _profile(args.device)
    config = FuzzConfig(max_packets=args.budget, seed=args.seed)
    prior_visits, dictionary = load_corpus_seeds(args.corpus)
    # Bad names never reach here: both flags carry registry-generated
    # argparse choices.
    strategy = make_strategy(args.strategy, prior_visits=prior_visits or None)
    target = make_target(args.target)
    session = FuzzSession(
        profile,
        config,
        armed=not args.disarm,
        zero_latency=args.disarm,
        auto_reset=args.auto_reset,
        strategy=strategy,
        corpus_dir=args.corpus,
        dictionary=dictionary,
        target=target,
    )
    report = session.run()
    _echo(report.summary())
    _echo()
    _echo(coverage_report(report.covered_states, target.state_universe()))
    if args.save_trace:
        count = save_trace(session.fuzzer.sniffer, args.save_trace)
        _echo(f"trace: {count} packets written to {args.save_trace}")
    if args.show_log:
        _echo(session.fuzzer.log.to_jsonl())
    return 0 if (args.disarm or report.vulnerability_found) else 1


def _csv(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _fleet_spec(args) -> FleetSpec:
    """The fleet job the shared spec flags describe (not yet validated).

    ``--profiles`` is a count ("4": the first N testbed profiles) or a
    comma-separated id list ("d1,D5").
    """
    if args.profiles.isdigit():
        count = int(args.profiles)
        if not 1 <= count <= len(ALL_PROFILES):
            raise SystemExit(
                f"--profiles count must be 1..{len(ALL_PROFILES)}, got {count}"
            )
        profiles = tuple(profile.device_id for profile in ALL_PROFILES[:count])
    else:
        profiles = _csv(args.profiles.upper())
    return FleetSpec(
        profiles=profiles,
        strategies=_csv(args.strategies),
        targets=_csv(args.targets),
        budget=args.budget,
        seed=args.seed,
        armed=not args.disarm,
        target_state=args.target_state.upper(),
        batch=args.batch,
    )


def _fleet_workers(spec: str) -> int:
    """Resolve ``--workers``: a count or ``auto`` (one per CPU core)."""
    if spec == "auto":
        import os

        return max(1, os.cpu_count() or 1)
    try:
        workers = int(spec)
    except ValueError:
        raise SystemExit(
            f"--workers must be a positive integer or 'auto', got {spec!r}"
        ) from None
    if workers < 1:
        raise SystemExit("--workers must be >= 1")
    return workers


def cmd_fleet(args) -> int:
    """Run a profile × strategy fleet and print the merged report."""
    spec = _fleet_spec(args)
    workers = _fleet_workers(args.workers)
    chaos_kinds = _csv(args.chaos or "")
    if chaos_kinds:
        unknown = [kind for kind in chaos_kinds if kind not in FAULT_KINDS]
        if unknown:
            raise SystemExit(
                f"unknown --chaos kind(s) {', '.join(unknown)} "
                f"(choose from {', '.join(FAULT_KINDS)})"
            )
        if workers < 2 and {"crash", "hang"} & set(chaos_kinds):
            raise SystemExit(
                "--chaos crash/hang needs --workers >= 2: a single worker "
                "runs shards inline, so there is no supervisor to recover"
            )
    shard_timeout = args.shard_timeout
    if shard_timeout is not None and shard_timeout <= 0:
        raise SystemExit("--shard-timeout must be > 0")
    if shard_timeout is None:
        # A hang demo should trip the deadline in seconds, not minutes.
        shard_timeout = 5.0 if "hang" in chaos_kinds else SHARD_TIMEOUT
    chaos_ledger = None
    try:
        fault_plan = None
        if chaos_kinds:
            import tempfile

            chaos_ledger = tempfile.mkdtemp(prefix="repro-chaos-")
            fault_plan = seeded_plan(
                seed=args.chaos_seed,
                spec_count=spec.campaigns,
                kinds=chaos_kinds,
                ledger_dir=chaos_ledger,
                hang_seconds=shard_timeout * 4,
            )
        try:
            orchestrator = FleetOrchestrator.from_spec(
                spec,
                workers=workers,
                corpus_dir=args.corpus,
                telemetry_dir=args.telemetry,
                profile_workers=args.profile,
                fault_plan=fault_plan,
                resume_run_id=args.resume,
                shard_timeout=shard_timeout,
            )
        except ValueError as error:
            raise SystemExit(str(error)) from None
        try:
            with orchestrator:
                report = orchestrator.run()
        except Exception as error:  # noqa: BLE001 - partial-failure summary
            _cli_log.error(
                "fleet run aborted: %s: %s", type(error).__name__, error
            )
            if orchestrator.run_dir is not None:
                checkpoint_dir = orchestrator.run_dir / CHECKPOINTS_DIRNAME
                completed = (
                    len(list(checkpoint_dir.glob("campaign-*.bin")))
                    if checkpoint_dir.is_dir()
                    else 0
                )
                _cli_log.error(
                    "partial progress: %d campaign checkpoint(s) under %s",
                    completed,
                    orchestrator.run_dir,
                )
                _cli_log.error(
                    "resume with: repro fleet --telemetry %s --resume %s",
                    args.telemetry,
                    orchestrator.run_id,
                )
            return 2
    finally:
        if chaos_ledger is not None:
            import shutil

            shutil.rmtree(chaos_ledger, ignore_errors=True)
    rendered = report.to_json() if args.json else report.to_markdown()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(rendered + "\n")
        _echo(f"fleet report written to {args.output}")
    else:
        _echo(rendered)
    if orchestrator.run_id is not None:
        _echo(f"telemetry run {orchestrator.run_id}: {orchestrator.run_dir}")
    stats = orchestrator.last_supervision
    if stats is not None and stats.eventful:
        _echo(
            "supervision: "
            f"retries={stats.retries} requeued={stats.requeued} "
            f"worker_crashes={stats.worker_crashes} timeouts={stats.timeouts} "
            f"pool_restarts={stats.pool_restarts} "
            f"decode_failures={stats.decode_failures} "
            f"bisections={stats.bisections}"
        )
    if report.quarantined:
        for item in report.quarantined:
            _cli_log.error(
                "quarantined campaign %d (%s/%s/%s): %s after %d attempt(s)",
                item.index,
                item.device_id,
                item.strategy,
                item.target,
                item.reason,
                item.attempts,
            )
        return 1
    return 0


def cmd_compare(args) -> int:
    """Four-fuzzer comparison (Table VII + Fig. 10)."""
    results = run_comparison(max_packets=args.budget)
    _echo(f"{'fuzzer':<11}{'MP%':>8}{'PR%':>8}{'eff%':>8}{'pps':>9}")
    for row in table7_rows(results):
        _echo(
            f"{row['fuzzer']:<11}{row['mp_ratio']:>8}{row['pr_ratio']:>8}"
            f"{row['mutation_efficiency']:>8}{row['pps']:>9}"
        )
    _echo()
    for name, count in figure10_bars(results).items():
        _echo(f"{name:<11} {count:>2}/19  {'#' * count}")
    return 0


def cmd_replay(args) -> int:
    """Replay a saved JSONL trace's sent packets against a fresh target.

    Exit code 0 when the trace crashes the target (the finding
    reproduces), 1 when the target survives — CI-friendly either way.
    """
    from repro.analysis.traceio import load_trace
    from repro.core.triage import (
        profile_target_factory,
        replay,
        sent_packets,
        shrink_trigger,
        triage_report,
    )

    profile = _profile(args.device)
    try:
        with open(args.trace, encoding="utf-8") as handle:
            packets = sent_packets(load_trace(handle.read()))
    except OSError as error:
        raise SystemExit(f"cannot read trace: {error}") from None
    if not packets:
        raise SystemExit(f"no sent packets in trace {args.trace!r}")
    factory = profile_target_factory(profile, armed=not args.disarm)
    outcome = replay(packets, factory)
    if outcome.crashed:
        _echo(
            f"crash reproduced after {outcome.frames_replayed} packet(s): "
            f"{outcome.error_message}"
            + (f" [{outcome.crash_id}]" if outcome.crash_id else "")
        )
    else:
        _echo(f"no crash: target survived all {outcome.frames_replayed} packet(s)")
    if args.minimize:
        if not outcome.crashed:
            _echo("nothing to minimise (sequence does not crash the target)")
        else:
            _echo(triage_report(*shrink_trigger(packets, factory, outcome)))
    return 0 if outcome.crashed else 1


@contextlib.contextmanager
def _open_corpus(args):
    """The corpus database at ``args.dir``, closed when the command ends."""
    from repro.corpus import open_backend

    corpus = open_backend(args.dir)
    try:
        if not corpus.exists():
            raise SystemExit(f"no corpus at {args.dir!r}")
        yield corpus
    finally:
        corpus.close()


def cmd_corpus_stats(args) -> int:
    """Summarise a corpus directory."""
    with _open_corpus(args) as corpus:
        stats = corpus.stats()  # indexed aggregate queries, no entry parsing
        records = corpus.finding_records()
    canonical_note = " STALE" if stats.canonical_stale else ""
    _echo(f"corpus: {args.dir}")
    _echo(
        f"entries: {stats.entry_count}"
        f" ({stats.packet_total} packets,"
        f" canonical: {stats.canonical_count}{canonical_note})"
    )
    _echo(
        f"coverage: {len(stats.state_tokens)} state(s),"
        f" {len(stats.transition_tokens)} transition(s)"
    )
    for token, count in sorted(stats.state_frequencies.items()):
        _echo(f"  {token:<22} {count}")
    _echo(f"findings: {len(records)} bucket(s)")
    for record in records:
        _echo(
            f"  [{record.vulnerability_class}] {record.vendor} {record.state}"
            f" x{record.occurrences}"
            + (f" [{record.crash_id}]" if record.crash_id else "")
            + f" ({len(record.packets)}-packet reproducer)"
        )
    return 0


def cmd_corpus_minimize(args) -> int:
    """cmin: write the canonical minimised corpus."""
    with _open_corpus(args) as corpus:
        before = corpus.entry_count()
        canonical = corpus.minimize()
    packets = sum(entry.packet_count for entry in canonical)
    _echo(
        f"minimised {before} entr(ies) to {len(canonical)} canonical"
        f" ({packets} packets) -> {corpus.describe_canonical()}"
    )
    return 0


def cmd_corpus_replay(args) -> int:
    """Regression-replay every stored finding (and optionally entries).

    Exit code 0 when everything reproduces exactly as stored, 1 when
    any bucket regressed.
    """
    from repro.corpus import replay_entry, replay_finding

    with _open_corpus(args) as corpus:
        records = corpus.finding_records()
        # seed_entries(): the canonical set while fresh, the live entry
        # set once entries were added past the last minimize.
        entries = corpus.seed_entries() if args.entries else []
    regressions = 0
    for record in records:
        result = replay_finding(record, PROFILES_BY_ID)
        status = "ok" if not result.regression else "REGRESSION"
        _echo(
            f"finding {record.bucket_id} [{record.vulnerability_class}]"
            f" {record.vendor}: {status}"
            + (
                ""
                if result.reproduced
                else " (no longer crashes)"
            )
        )
        regressions += int(result.regression)
    for entry in entries:
        result = replay_entry(entry, PROFILES_BY_ID)
        _echo(
            f"entry {entry.entry_id[:12]} ({entry.device_id}):"
            f" {result.packets_replayed} packet(s),"
            f" {len(result.covered_states)} state(s)"
            + (f", crashed: {result.error_message}" if result.crashed else "")
        )
    _echo(f"{len(records)} finding(s), {regressions} regression(s)")
    return 1 if regressions else 0


def cmd_corpus_export(args) -> int:
    """Export every corpus entry as a single JSONL document."""
    with _open_corpus(args) as corpus:
        count = corpus.export_jsonl(args.output)
    _echo(f"{count} entr(ies) exported to {args.output}")
    return 0


def cmd_survey(args) -> int:
    """Table VI across the whole testbed."""
    for profile in ALL_PROFILES:
        budget = args.d8_budget if profile.device_id == "D8" else args.budget
        session = FuzzSession(profile, FuzzConfig(max_packets=budget))
        report = session.run()
        row = report.as_table6_row()
        _echo(
            f"{profile.device_id}  {profile.name:<16} vuln={row['vuln']:<4}"
            f"{row['description']:<7} elapsed={row['elapsed']}"
        )
    return 0


def cmd_runs_list(args) -> int:
    """List telemetry runs under a root directory, newest first."""
    import json

    from repro.telemetry import list_runs, run_info_dict

    runs = list_runs(args.root)
    if args.json:
        _echo(json.dumps([run_info_dict(info) for info in runs], indent=2))
        return 0
    if not runs:
        _echo(f"no telemetry runs under {args.root!r}")
        return 0
    _echo(
        f"{'run id':<22} {'status':<9} {'workers':>7} {'campaigns':>9}"
        f" {'packets':>10} {'findings':>8}  started"
    )
    for info in runs:
        flags = " (resumed)" if info.resumed else ""
        _echo(
            f"{info.run_id:<22} {info.status:<9} {info.workers:>7}"
            f" {info.campaigns:>9} {info.packets:>10} {info.findings:>8}"
            f"  {info.started or '-'}{flags}"
        )
        if info.failure_reason:
            _echo(f"  failure: {info.failure_reason}")
    return 0


def cmd_runs_show(args) -> int:
    """One run's manifest, status table and metric exposition paths."""
    import json

    from repro.telemetry import (
        read_manifest,
        render_status,
        resolve_run,
        run_status,
        status_to_dict,
    )

    try:
        run_dir = resolve_run(args.root, args.run)
    except FileNotFoundError as error:
        raise SystemExit(str(error)) from None
    if args.json:
        _echo(
            json.dumps(
                status_to_dict(run_status(run_dir)), indent=2, sort_keys=True
            )
        )
        return 0
    manifest = read_manifest(run_dir)
    if manifest is not None:
        _echo(json.dumps(manifest, indent=2, sort_keys=True))
        _echo("")
    _echo(render_status(run_status(run_dir)))
    for name in ("events.jsonl", "metrics.json", "metrics.prom"):
        path = run_dir / name
        if path.exists():
            _echo(f"{name}: {path}")
    return 0


def cmd_runs_tail(args) -> int:
    """Follow a live run, re-rendering the fleet status table."""
    from repro.telemetry import resolve_run, tail_run

    try:
        run_dir = resolve_run(args.root, args.run)
    except FileNotFoundError as error:
        raise SystemExit(str(error)) from None
    status = tail_run(
        run_dir, _echo, interval=args.interval, once=args.once
    )
    return 1 if status == "aborted" else 0


def cmd_serve(args) -> int:
    """Run the fuzzing-as-a-service control plane (blocking)."""
    from repro.faults import install_service_faults_from_env
    from repro.service import ControlPlane, ServiceConfig

    if args.shard_deadline <= 0:
        raise SystemExit("--shard-deadline must be > 0")
    install_service_faults_from_env()  # chaos harnesses only; no-op otherwise
    config = ServiceConfig(
        data_dir=args.data_dir,
        host=args.host,
        port=args.port,
        pool_workers=args.workers,
        max_active_jobs=args.max_active_jobs,
        packet_budget=args.packet_budget,
        shard_timeout=args.shard_deadline,
        max_queue_depth=args.max_queue_depth,
        wedge_deadline=args.wedge_deadline,
        auto_resume=args.auto_resume,
        auto_resume_max_attempts=args.auto_resume_max_attempts,
    )
    app = ControlPlane(config)
    _echo(f"control plane data dir: {args.data_dir}")
    _echo(f"listening on http://{args.host}:{args.port}")
    app.run()
    return 0


def _service_client(args):
    from repro.service import ServiceClient

    return ServiceClient(args.url, tenant=args.tenant)


def _print_job(record: dict) -> None:
    import json

    _echo(json.dumps(record, indent=2, sort_keys=True))


def cmd_jobs_submit(args) -> int:
    """Submit a fleet job to a running control plane."""
    from repro.service import ServiceError

    spec = {
        **_fleet_spec(args).to_dict(),
        "priority": args.priority,
        "use_corpus": args.corpus,
    }
    client = _service_client(args)
    try:
        record = client.submit(spec, idempotency_key=args.idempotency_key)
    except ServiceError as error:
        raise SystemExit(str(error)) from None
    if args.wait:
        record = client.wait(record["job_id"], timeout=args.timeout)
    if args.json:
        _print_job(record)
    else:
        _echo(f"job {record['job_id']} [{record['status']}]")
        if record.get("error"):
            _echo(f"  error: {record['error']}")
    return 0 if record["status"] in ("queued", "running", "finished") else 1


def cmd_jobs_list(args) -> int:
    """List this tenant's jobs on a control plane."""
    import json

    from repro.service import ServiceError

    try:
        jobs = _service_client(args).jobs()
    except ServiceError as error:
        raise SystemExit(str(error)) from None
    if args.json:
        _echo(json.dumps(jobs, indent=2, sort_keys=True))
        return 0
    if not jobs:
        _echo(f"no jobs for tenant {args.tenant!r}")
        return 0
    _echo(
        f"{'job id':<30} {'status':<10} {'priority':>8} {'campaigns':>9}"
        f" {'packets':>10} {'findings':>8}  created"
    )
    for record in jobs:
        _echo(
            f"{record['job_id']:<30} {record['status']:<10}"
            f" {record['spec']['priority']:>8} {record['campaigns']:>9}"
            f" {record['packets']:>10} {record['findings']:>8}"
            f"  {record.get('created_at') or '-'}"
        )
    return 0


def cmd_jobs_show(args) -> int:
    """One job's record (``--report`` adds the merged fleet report)."""
    from repro.service import ServiceError

    client = _service_client(args)
    try:
        record = client.job(args.job_id)
        _print_job(record)
        if args.report:
            _echo(client.report_text(args.job_id).rstrip("\n"))
    except ServiceError as error:
        raise SystemExit(str(error)) from None
    return 0


def cmd_jobs_cancel(args) -> int:
    """Cancel a queued or running job."""
    from repro.service import ServiceError

    try:
        record = _service_client(args).cancel(args.job_id)
    except ServiceError as error:
        raise SystemExit(str(error)) from None
    if args.json:
        _print_job(record)
    else:
        _echo(f"job {record['job_id']} [{record['status']}]")
    return 0


def cmd_jobs_resume(args) -> int:
    """Resume a cancelled/aborted job from its checkpoints."""
    from repro.service import ServiceError

    client = _service_client(args)
    try:
        record = client.resume(args.job_id)
        if args.wait:
            record = client.wait(record["job_id"], timeout=args.timeout)
    except ServiceError as error:
        raise SystemExit(str(error)) from None
    if args.json:
        _print_job(record)
    else:
        _echo(
            f"job {record['job_id']} [{record['status']}]"
            f" (resumes {record['resume_of']})"
        )
    return 0 if record["status"] in ("queued", "running", "finished") else 1


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="L2Fuzz reproduction: stateful Bluetooth L2CAP fuzzing "
        "against a virtual testbed.",
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="store_true",
        help="show library debug diagnostics on stderr",
    )
    parser.add_argument(
        "-q",
        "--quiet",
        action="store_true",
        help="suppress normal output (warnings and errors only)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("devices", help="list testbed devices").set_defaults(
        func=cmd_devices
    )

    scan = commands.add_parser("scan", help="run the target-scanning phase")
    scan.add_argument("device", help="device id (D1..D8)")
    scan.set_defaults(func=cmd_scan)

    fuzz = commands.add_parser("fuzz", help="run a fuzzing campaign")
    fuzz.add_argument("device", help="device id (D1..D8)")
    fuzz.add_argument("--budget", type=int, default=50_000, help="packet budget")
    fuzz.add_argument("--seed", type=int, default=0x1202, help="campaign seed")
    fuzz.add_argument(
        "--disarm", action="store_true", help="disable injected bugs (ratio mode)"
    )
    fuzz.add_argument(
        "--auto-reset",
        action="store_true",
        help="reset crashed targets and continue (long-term fuzzing)",
    )
    fuzz.add_argument("--save-trace", metavar="PATH", help="write the trace as JSONL")
    fuzz.add_argument("--show-log", action="store_true", help="print the campaign log")
    # Choices and help are generated from the registries at parser-build
    # time, so a newly registered strategy or protocol target appears
    # here automatically and a bad value fails with the valid names
    # listed. target_names() is read live (not the import-time
    # TARGET_NAMES snapshot) so user-registered targets are accepted.
    fuzz.add_argument(
        "--strategy",
        default="sequential",
        choices=STRATEGY_NAMES,
        help=f"exploration strategy (one of: {', '.join(STRATEGY_NAMES)})",
    )
    fuzz.add_argument(
        "--target",
        default="l2cap",
        choices=target_names(),
        help=f"protocol fuzz target (one of: {', '.join(target_names())})",
    )
    fuzz.add_argument(
        "--corpus",
        metavar="DIR",
        help="shared corpus directory to seed from and write back to",
    )
    fuzz.set_defaults(func=cmd_fuzz)

    def _fleet_spec_flags(subparser, **defaults) -> None:
        """The flags :func:`_fleet_spec` reads, one spelling for both
        ``fleet`` and ``jobs submit``; *defaults* are the command's own."""
        subparser.add_argument(
            "--profiles",
            help="profile count (first N of the testbed) or comma-separated ids",
        )
        subparser.add_argument(
            "--strategies",
            default="sequential",
            help=f"comma-separated strategies: {', '.join(STRATEGY_NAMES)}",
        )
        subparser.add_argument(
            "--targets",
            default="l2cap",
            help=f"comma-separated protocol targets: {', '.join(target_names())}",
        )
        subparser.add_argument(
            "--batch",
            type=int,
            default=None,
            metavar="N",
            help="campaigns per worker shard (default: auto, ~4 shards/worker)",
        )
        subparser.add_argument("--seed", type=int, default=7, help="fleet master seed")
        subparser.add_argument(
            "--budget", type=int, help="packet budget per campaign"
        )
        subparser.add_argument(
            "--disarm", action="store_true", help="disable injected bugs fleet-wide"
        )
        subparser.add_argument(
            "--target-state",
            default="OPEN",
            help="focus state for the targeted strategy",
        )
        subparser.set_defaults(**defaults)

    fleet = commands.add_parser(
        "fleet", help="run a profile × strategy fleet campaign"
    )
    _fleet_spec_flags(fleet, profiles="4", budget=3000)
    fleet.add_argument(
        "--workers",
        default="1",
        help="worker-pool size, or 'auto' for one worker per CPU core",
    )
    fleet.add_argument(
        "--json", action="store_true", help="print the report as JSON"
    )
    fleet.add_argument("--output", metavar="PATH", help="write the report to a file")
    fleet.add_argument(
        "--corpus",
        metavar="DIR",
        help="shared corpus directory to seed from and write back to",
    )
    fleet.add_argument(
        "--telemetry",
        nargs="?",
        const="runs",
        default=None,
        metavar="DIR",
        help="record a telemetry run (journal + metrics) under DIR "
        "(default: ./runs); inspect with 'repro runs'",
    )
    fleet.add_argument(
        "--profile",
        action="store_true",
        help="dump a cProfile per worker shard into the telemetry run "
        "directory (requires --telemetry)",
    )
    fleet.add_argument(
        "--chaos",
        metavar="KINDS",
        default=None,
        help="inject deterministic faults to exercise the supervisor: "
        f"comma-separated kinds from {', '.join(FAULT_KINDS)}",
    )
    fleet.add_argument(
        "--chaos-seed",
        type=int,
        default=1202,
        metavar="N",
        help="seed for the deterministic fault plan (default: 1202)",
    )
    fleet.add_argument(
        "--resume",
        metavar="RUN_ID",
        default=None,
        help="resume an interrupted telemetry run: campaigns already "
        "checkpointed under RUN_ID are restored, only the rest re-run "
        "(requires --telemetry pointing at the same directory)",
    )
    fleet.add_argument(
        "--shard-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-shard deadline floor before the supervisor restarts "
        f"the worker pool; the deadline is max(floor, {TIMEOUT_FACTOR:g} x "
        "median campaign time x shard size) (default: "
        f"{SHARD_TIMEOUT:g}s; 5s when --chaos includes hang)",
    )
    fleet.set_defaults(func=cmd_fleet)

    replay = commands.add_parser(
        "replay", help="replay a saved JSONL trace against a fresh target"
    )
    replay.add_argument("trace", help="trace file written by fuzz --save-trace")
    replay.add_argument("--device", default="D2", help="device id (D1..D8)")
    replay.add_argument(
        "--disarm", action="store_true", help="replay against a disarmed target"
    )
    replay.add_argument(
        "--minimize",
        action="store_true",
        help="delta-debug the trace down to a minimal reproducer",
    )
    replay.set_defaults(func=cmd_replay)

    corpus = commands.add_parser(
        "corpus", help="inspect, minimise, replay or export a shared corpus"
    )
    corpus_commands = corpus.add_subparsers(dest="corpus_command", required=True)

    corpus_stats = corpus_commands.add_parser("stats", help="corpus summary")
    corpus_stats.add_argument("dir", help="corpus directory")
    corpus_stats.set_defaults(func=cmd_corpus_stats)

    corpus_minimize = corpus_commands.add_parser(
        "minimize", help="cmin: write the canonical minimised corpus"
    )
    corpus_minimize.add_argument("dir", help="corpus directory")
    corpus_minimize.set_defaults(func=cmd_corpus_minimize)

    corpus_replay = corpus_commands.add_parser(
        "replay", help="regression-replay every stored finding"
    )
    corpus_replay.add_argument("dir", help="corpus directory")
    corpus_replay.add_argument(
        "--entries",
        action="store_true",
        help="also replay corpus entries and report their coverage",
    )
    corpus_replay.set_defaults(func=cmd_corpus_replay)

    corpus_export = corpus_commands.add_parser(
        "export", help="export all entries as one JSONL document"
    )
    corpus_export.add_argument("dir", help="corpus directory")
    corpus_export.add_argument(
        "--output", required=True, metavar="PATH", help="output JSONL path"
    )
    corpus_export.set_defaults(func=cmd_corpus_export)

    runs = commands.add_parser(
        "runs", help="list, show or live-tail telemetry runs"
    )
    runs_commands = runs.add_subparsers(dest="runs_command", required=True)

    runs_list = runs_commands.add_parser("list", help="list recorded runs")
    runs_list.add_argument(
        "--root", default="runs", metavar="DIR", help="telemetry root directory"
    )
    runs_list.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    runs_list.set_defaults(func=cmd_runs_list)

    runs_show = runs_commands.add_parser(
        "show", help="manifest, status table and artifact paths for one run"
    )
    runs_show.add_argument("run", help="run id (under --root) or run directory")
    runs_show.add_argument(
        "--root", default="runs", metavar="DIR", help="telemetry root directory"
    )
    runs_show.add_argument(
        "--json", action="store_true", help="machine-readable live status"
    )
    runs_show.set_defaults(func=cmd_runs_show)

    runs_tail = runs_commands.add_parser(
        "tail", help="follow a live run's fleet status table"
    )
    runs_tail.add_argument("run", help="run id (under --root) or run directory")
    runs_tail.add_argument(
        "--root", default="runs", metavar="DIR", help="telemetry root directory"
    )
    runs_tail.add_argument(
        "--interval", type=float, default=0.5, help="poll interval in seconds"
    )
    runs_tail.add_argument(
        "--once", action="store_true", help="render a single frame and exit"
    )
    runs_tail.set_defaults(func=cmd_runs_tail)

    compare = commands.add_parser("compare", help="four-fuzzer comparison")
    compare.add_argument("--budget", type=int, default=20_000)
    compare.set_defaults(func=cmd_compare)

    survey = commands.add_parser("survey", help="Table VI across all devices")
    survey.add_argument("--budget", type=int, default=40_000)
    survey.add_argument("--d8-budget", type=int, default=250_000)
    survey.set_defaults(func=cmd_survey)

    serve = commands.add_parser(
        "serve", help="run the fuzzing-as-a-service control plane"
    )
    serve.add_argument(
        "--data-dir",
        default="service-data",
        metavar="DIR",
        help="service state root (job manifests, tenant runs and corpora)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8979)
    serve.add_argument(
        "--workers",
        type=int,
        default=2,
        help="shared warm worker-pool size",
    )
    serve.add_argument(
        "--max-active-jobs",
        type=int,
        default=None,
        metavar="N",
        help="per-tenant queued+running job limit",
    )
    serve.add_argument(
        "--packet-budget",
        type=int,
        default=None,
        metavar="N",
        help="per-tenant cumulative worst-case packet budget",
    )
    serve.add_argument(
        "--shard-deadline",
        type=float,
        default=SHARD_TIMEOUT,
        metavar="SECONDS",
        help="per-shard deadline floor before the supervisor restarts "
        f"the worker pool; the deadline is max(floor, {TIMEOUT_FACTOR:g} x "
        "median campaign time x shard size) (default: %(default)gs)",
    )
    serve.add_argument(
        "--max-queue-depth",
        type=int,
        default=256,
        metavar="N",
        help="global queued-job bound; a full queue answers 503 + Retry-After",
    )
    serve.add_argument(
        "--wedge-deadline",
        type=float,
        default=120.0,
        metavar="SECONDS",
        help="watchdog aborts (resumable) a running job with no observable "
        "progress for this long",
    )
    serve.add_argument(
        "--auto-resume",
        action="store_true",
        help="automatically resume aborted(resumable) jobs on start-up and "
        "after watchdog aborts, with capped retries",
    )
    serve.add_argument(
        "--auto-resume-max-attempts",
        type=int,
        default=3,
        metavar="N",
        help="automatic resume attempts per job chain before giving up",
    )
    serve.set_defaults(func=cmd_serve)

    jobs = commands.add_parser(
        "jobs", help="submit and manage jobs on a running control plane"
    )
    jobs_commands = jobs.add_subparsers(dest="jobs_command", required=True)

    def _jobs_common(subparser) -> None:
        subparser.add_argument(
            "--url",
            default="http://127.0.0.1:8979",
            help="control plane base URL",
        )
        subparser.add_argument(
            "--tenant", required=True, help="tenant namespace to act as"
        )
        subparser.add_argument(
            "--json", action="store_true", help="machine-readable output"
        )

    jobs_submit = jobs_commands.add_parser("submit", help="submit a fleet job")
    _jobs_common(jobs_submit)
    _fleet_spec_flags(jobs_submit, profiles="D1", budget=600)
    jobs_submit.add_argument(
        "--priority",
        type=int,
        default=5,
        help="0 (most urgent) to 9; FIFO within a priority",
    )
    jobs_submit.add_argument(
        "--corpus",
        action="store_true",
        help="seed from and write back to the tenant's corpus namespace",
    )
    jobs_submit.add_argument(
        "--idempotency-key",
        default=None,
        metavar="KEY",
        help="deduplication key: resubmitting with the same key returns the "
        "original job and charges nothing (makes the submit retry-safe)",
    )
    jobs_submit.add_argument(
        "--wait", action="store_true", help="block until the job finishes"
    )
    jobs_submit.add_argument(
        "--timeout", type=float, default=600.0, help="--wait timeout seconds"
    )
    jobs_submit.set_defaults(func=cmd_jobs_submit)

    jobs_list = jobs_commands.add_parser("list", help="list this tenant's jobs")
    _jobs_common(jobs_list)
    jobs_list.set_defaults(func=cmd_jobs_list)

    jobs_show = jobs_commands.add_parser("show", help="one job's record")
    _jobs_common(jobs_show)
    jobs_show.add_argument("job_id")
    jobs_show.add_argument(
        "--report",
        action="store_true",
        help="also print the merged fleet report JSON",
    )
    jobs_show.set_defaults(func=cmd_jobs_show)

    jobs_cancel = jobs_commands.add_parser(
        "cancel", help="cancel a queued or running job"
    )
    _jobs_common(jobs_cancel)
    jobs_cancel.add_argument("job_id")
    jobs_cancel.set_defaults(func=cmd_jobs_cancel)

    jobs_resume = jobs_commands.add_parser(
        "resume", help="resume a cancelled/aborted job from its checkpoints"
    )
    _jobs_common(jobs_resume)
    jobs_resume.add_argument("job_id")
    jobs_resume.add_argument(
        "--wait", action="store_true", help="block until the job finishes"
    )
    jobs_resume.add_argument(
        "--timeout", type=float, default=600.0, help="--wait timeout seconds"
    )
    jobs_resume.set_defaults(func=cmd_jobs_resume)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    _configure_logging(verbose=args.verbose, quiet=args.quiet)
    try:
        return args.func(args)
    except LegacyCorpusError as error:
        raise SystemExit(str(error)) from None


if __name__ == "__main__":
    sys.exit(main())
