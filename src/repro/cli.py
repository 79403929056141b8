"""Command-line interface: the fuzzer's command-and-control surface.

The paper's C# fuzzer carried "UI screens for command and control"
(Fig 3).  This CLI is our equivalent: each subcommand configures and
runs one of the reproduced workflows.

Subcommands:

- ``survey``       print the Fig 1 testing-methods chart,
- ``capture``      boot the simulated car and print captured traffic,
- ``byte-stats``   Fig 4/5 byte-position statistics,
- ``coverage``     the §V combinatorial-explosion arithmetic,
- ``fuzz-bench``   one blind-fuzz campaign against the unlock bench,
- ``fuzz-serve``   run the lease-based campaign job service over HTTP,
- ``fuzz-chaos``   seeded cross-layer chaos drill against a live
  service stack (storage/process/clock/network faults, invariants
  checked, reproducible from ``(seed, schedule)``),
- ``table5``       a full Table V row (N trials),
- ``obd-scan``     scan the car's OBD PIDs and stored DTCs.

Run ``repro <subcommand> --help`` for options.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.sim.clock import MS, SECOND


def _cmd_survey(_args: argparse.Namespace) -> int:
    from repro.surveydata.altinger import render_bar_chart

    print("Testing methods in the automotive industry (Fig 1):")
    print(render_bar_chart())
    return 0


def _cmd_capture(args: argparse.Namespace) -> int:
    from repro.analysis import BusCapture
    from repro.can.log import format_candump, format_csv
    from repro.vehicle import TargetCar

    car = TargetCar(seed=args.seed)
    capture = BusCapture(car.bus(args.bus), limit=args.limit)
    car.ignition_on()
    car.run_seconds(args.seconds)
    records = capture.records()
    if args.format == "candump":
        print(format_candump(records))
    elif args.format == "csv":
        print(format_csv(records), end="")
    else:
        print(capture.as_paper_table(head=args.head))
    return 0


def _cmd_byte_stats(args: argparse.Namespace) -> int:
    from repro.fuzz import FuzzConfig, RandomFrameGenerator, \
        byte_position_means
    from repro.sim.random import RandomStreams

    generator = RandomFrameGenerator(
        FuzzConfig.full_range(), RandomStreams(args.seed).stream("fuzzer"))
    stats = byte_position_means(generator.frames(args.frames))
    print(f"byte-position means over {args.frames} fuzzer frames:")
    for position, count, mean in stats.rows():
        if count:
            print(f"  position {position}: {mean:6.1f}  ({count} samples)")
    print(f"overall mean: {stats.overall_mean:.1f} (uniform ideal 127.5)")
    return 0


def _cmd_coverage(args: argparse.Namespace) -> int:
    from repro.fuzz.coverage import combination_count, \
        time_to_exhaust_seconds

    combos = combination_count(args.id_bits, args.payload_bytes)
    seconds = time_to_exhaust_seconds(combos, args.interval_ms * MS)
    print(f"{args.id_bits}-bit id x {args.payload_bytes} payload byte(s): "
          f"{combos:,} combinations")
    if seconds < 3600:
        print(f"exhaustive transmission at 1/{args.interval_ms} ms: "
              f"{seconds / 60:.1f} minutes")
    else:
        print(f"exhaustive transmission at 1/{args.interval_ms} ms: "
              f"{seconds / 86400:.2f} days")
    return 0


def _minimize_record(replayer, finding, window, encode) -> dict:
    """Minimise one finding's recorded window with a snapshot replayer.

    Returns a JSON-ready record: the minimised steps (each passed
    through ``encode``), the ddmin probe counts, and the replayer's
    checkpoint counters.  Keys name the replayer's step unit
    (``window_frames``/``minimized_frames`` or
    ``window_requests``/``minimized_requests``).  A window that does
    not reproduce on the replay grid is reported as such rather than
    aborting the run (replay is best-effort forensics).
    """
    from repro.fuzz import MinimizeStats

    unit = replayer.unit
    record = {
        "oracle": finding.oracle,
        "time": finding.time,
        f"window_{unit}": len(window),
        "reproduced": False,
    }
    stats = MinimizeStats()
    try:
        minimal = replayer.minimize(list(window), stats=stats)
    except ValueError:
        return record
    record.update({
        "reproduced": True,
        f"minimized_{unit}": [encode(step) for step in minimal],
        "probes": stats.tests_used,
        "probe_cache_hits": stats.cache_hits,
        "exhausted": stats.exhausted,
        "replayer": replayer.stats(),
    })
    return record


def _minimize_finding(finding, *, check_mode: str, seed: int) -> dict:
    """Minimise one unlock-bench finding's frame window."""
    from repro.fuzz import SnapshotReplayer
    from repro.fuzz.session import frame_to_dict
    from repro.testbench import UnlockReplayFactory

    replayer = SnapshotReplayer(
        UnlockReplayFactory(check_mode=check_mode, seed=seed,
                            monitor_limit=64))
    return _minimize_record(replayer, finding, finding.recent_frames,
                            frame_to_dict)


def _print_minimized(minimized: list[dict]) -> None:
    from repro.can.frame import CanFrame
    from repro.fuzz.session import frame_from_dict

    for record in minimized:
        if not record["reproduced"]:
            print(f"finding[{record['oracle']}]: window of "
                  f"{record['window_frames']} frame(s) did not reproduce "
                  f"on the replay grid")
            continue
        frames = [frame_from_dict(item)
                  for item in record["minimized_frames"]]
        rendered = ", ".join(str(frame) for frame in frames)
        print(f"finding[{record['oracle']}]: minimised "
              f"{record['window_frames']} -> {len(frames)} frame(s) "
              f"in {record['probes']} probe(s): {rendered}")


def _write_report(path: str, payload: dict) -> None:
    from repro.fuzz.durability import atomic_write_json

    # Atomic replace: a crash mid-report leaves the previous report
    # (or nothing), never a torn JSON file.
    atomic_write_json(path, payload)
    print(f"report written to {path}")


def _channel_config(args: argparse.Namespace):
    """Build the adversarial-channel config the noise flags describe.

    ``--ber``/``--burst``/``--ack-loss`` imply ``--channel-noise``;
    bare ``--channel-noise`` gets a mild default bit error rate so the
    flag is useful on its own, and ``--ack-loss`` adds no bit errors of
    its own.  Returns None when no noise was requested.
    """
    from repro.can.channel import ChannelConfig

    if not (args.channel_noise or args.ber or args.burst or args.ack_loss):
        return None
    ber = args.ber or (1e-4 if args.channel_noise and not args.burst
                       else 0.0)
    if args.burst:
        return ChannelConfig(ber=ber, burst_ber=args.burst,
                             burst_enter=0.01, burst_exit=0.2,
                             ack_loss=args.ack_loss)
    return ChannelConfig(ber=ber, ack_loss=args.ack_loss)


def _confirm_findings(findings, *, check_mode: str, seed: int):
    """Clean-channel replay confirmation for noisy-campaign findings."""
    from repro.fuzz import confirm_findings
    from repro.testbench import UnlockReplayFactory

    report = confirm_findings(
        findings, UnlockReplayFactory(check_mode=check_mode, seed=seed,
                                      monitor_limit=64))
    print(f"clean-channel confirmation: {len(report.confirmed)} "
          f"confirmed, {report.noise_filtered} noise artefact(s) filtered")
    return report


def _cmd_fuzz_bench(args: argparse.Namespace) -> int:
    from repro.fuzz import (AckMessageOracle, CampaignLimits,
                            CampaignSupervisor, FuzzCampaign, FuzzConfig,
                            PhysicalStateOracle, RandomFrameGenerator)
    from repro.fuzz.campaign import journal_of_kind
    from repro.sim.random import RandomStreams
    from repro.testbench import UNLOCK_ACK_ID, UnlockTestbench

    if args.resume and not args.journal:
        print("--resume requires --journal DIR", file=sys.stderr)
        return 2
    try:
        channel_config = _channel_config(args)
        journal = (journal_of_kind(args.journal, "frame")
                   if args.journal else None)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if (args.journal and not args.resume
            and _holds_previous_run(args.journal, journal)):
        print(f"journal dir {args.journal} already holds campaign "
              f"state; pass --resume to continue it", file=sys.stderr)
        return 2
    if args.shards > 1:
        return _run_sharded_bench(args, channel_config)
    benches = []

    def build() -> FuzzCampaign:
        from repro.can.channel import AdversarialChannel

        bench = UnlockTestbench(seed=args.seed, check_mode=args.check_mode)
        bench.power_on()
        benches.append(bench)
        adapter = bench.attacker_adapter()
        generator = RandomFrameGenerator(
            FuzzConfig.full_range(),
            RandomStreams(args.seed).stream("fuzzer"))
        oracles = [
            AckMessageOracle(bench.bus, UNLOCK_ACK_ID,
                             predicate=lambda f: f.data[:1] == b"\x01",
                             exclude_sender=adapter.controller.name,
                             name="unlock-ack"),
            PhysicalStateOracle(lambda: bench.bcm.led_on, expected=False,
                                period=20 * MS, name="led"),
        ]
        channel = None
        if channel_config is not None:
            channel = AdversarialChannel(
                channel_config, RandomStreams(args.seed).stream("channel"))
            bench.bus.attach_channel(channel)
            oracles.append(CampaignSupervisor(bench.bus))
        return FuzzCampaign(
            bench.sim, adapter, generator,
            limits=CampaignLimits(
                max_duration=round(args.max_seconds * SECOND)),
            oracles=oracles, name="cli-fuzz-bench", channel=channel)

    if journal is None:
        result = build().run()
    elif args.resume:
        result = FuzzCampaign.resume(
            journal, build, checkpoint_every=args.checkpoint_every)
    else:
        campaign = build()
        campaign.attach_journal(
            journal, checkpoint_every=args.checkpoint_every)
        result = campaign.run()
    print(result.summary())
    if benches:
        print(f"lock LED: "
              f"{'ON (unlocked)' if benches[-1].bcm.led_on else 'off'}")
    if journal is not None:
        for warning in journal.warnings:
            print(f"durability: {warning}")
    confirmation = None
    findings = result.findings
    if channel_config is not None and result.findings:
        confirmation = _confirm_findings(result.findings,
                                         check_mode=args.check_mode,
                                         seed=args.seed)
        findings = confirmation.confirmed
    minimized = None
    if args.minimize:
        minimized = [_minimize_finding(finding,
                                       check_mode=args.check_mode,
                                       seed=args.seed)
                     for finding in findings]
        _print_minimized(minimized)
    if args.report:
        payload = {
            "mode": "single",
            "seed": args.seed,
            "check_mode": args.check_mode,
            "result": result.to_dict(),
        }
        if channel_config is not None:
            payload["channel"] = [list(row)
                                  for row in channel_config.describe()]
        if confirmation is not None:
            payload["confirmation"] = confirmation.to_dict()
        if minimized is not None:
            payload["minimized"] = minimized
        _write_report(args.report, payload)
    return 0 if findings else 1


def _holds_previous_run(directory: str, journal) -> bool:
    """Whether a ``--journal`` directory of ``fuzz-bench`` or
    ``fuzz-uds`` holds a previous run.

    That is a sharded run's ``master.json`` manifest or shard journals,
    or any record in ``journal``, the log in the directory itself that
    a single-process run writes.  Every mode continues such a
    directory only with ``--resume``, so a rerun never reports saved
    results as new or appends a second run to one log.
    """
    root = Path(directory)
    if (root / "master.json").exists() or any(root.glob("shard-*")):
        return True
    return bool(journal.records)


def _run_sharded_bench(args: argparse.Namespace, channel_config) -> int:
    """``fuzz-bench --shards N``: fan the hunt across worker processes.

    Each shard is an independent hunt (own bench, own seed derived
    from ``(--seed, shard_index)``) with the full simulated-time
    budget; the merged record carries shard provenance per finding.
    With ``--minimize``, each finding is minimised against a replay
    target rebuilt from its *own shard's* seed -- the world the
    finding was actually made in.  With channel noise, every shard
    gets its own supervised adversarial channel (seeded per shard),
    and findings are confirmed against their shard's clean build.
    """
    from repro.fuzz import CampaignLimits, ShardedCampaign
    from repro.testbench import UnlockBenchFactory

    try:
        runner = ShardedCampaign(
            UnlockBenchFactory(check_mode=args.check_mode,
                               channel=channel_config,
                               supervise=channel_config is not None),
            shards=args.shards,
            jobs=args.jobs,
            batch_size=args.batch_size,
            master_seed=args.seed,
            limits=CampaignLimits(
                max_duration=round(args.max_seconds * SECOND)),
            journal_dir=args.journal,
            checkpoint_every=args.checkpoint_every)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    merged = runner.run()
    print(merged.summary())
    for warning in runner.manifest_warnings:
        print(f"durability: {warning}")
    findings_with_seeds = list(merged.findings_with_seeds)
    noise_filtered = 0
    if channel_config is not None and findings_with_seeds:
        kept = []
        for shard_index, shard_seed, finding in findings_with_seeds:
            report = _confirm_findings([finding],
                                       check_mode=args.check_mode,
                                       seed=shard_seed)
            if report.confirmed:
                kept.append((shard_index, shard_seed, finding))
            else:
                noise_filtered += 1
        findings_with_seeds = kept
    minimized = None
    if args.minimize:
        minimized = []
        for shard_index, shard_seed, finding in findings_with_seeds:
            record = _minimize_finding(finding,
                                       check_mode=args.check_mode,
                                       seed=shard_seed)
            record["shard"] = shard_index
            record["shard_seed"] = shard_seed
            minimized.append(record)
        _print_minimized(minimized)
    if args.report:
        payload = {
            "mode": "sharded",
            "seed": args.seed,
            "check_mode": args.check_mode,
            "shards": args.shards,
            "batch_size": args.batch_size,
            "ok": merged.ok,
            "fingerprint": merged.fingerprint(),
            "findings": len(findings_with_seeds),
            "fallback_reasons": {str(index): reason
                                 for index, reason
                                 in merged.fallback_reasons.items()},
            "retries": merged.retry_report(),
        }
        if channel_config is not None:
            payload["channel"] = [list(row)
                                  for row in channel_config.describe()]
            payload["noise_filtered"] = noise_filtered
        if minimized is not None:
            payload["minimized"] = minimized
        _write_report(args.report, payload)
    return 0 if merged.ok and findings_with_seeds else 1


def _cmd_fuzz_uds(args: argparse.Namespace) -> int:
    from repro.fuzz import CampaignLimits, ShardSpec
    from repro.fuzz.campaign import journal_of_kind
    from repro.fuzz.uds_campaign import UdsFuzzCampaign
    from repro.testbench import UdsBenchFactory, UdsReplayFactory
    from repro.uds.replay import UdsSnapshotReplayer, confirm_uds_findings

    if args.resume and not args.journal:
        print("--resume requires --journal DIR", file=sys.stderr)
        return 2
    factory = UdsBenchFactory()
    spec = ShardSpec(index=0, shard_count=1, master_seed=args.seed,
                     seed=args.seed,
                     limits=CampaignLimits(
                         max_frames=args.requests,
                         stop_on_finding=not args.keep_going))
    journal = None
    if args.journal:
        try:
            journal = journal_of_kind(args.journal, "uds")
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if args.resume:
            result = UdsFuzzCampaign.resume(
                journal, lambda: factory(spec),
                checkpoint_every=args.checkpoint_every)
        else:
            if _holds_previous_run(args.journal, journal):
                print(f"journal dir {args.journal} already holds campaign "
                      f"state; pass --resume to continue it",
                      file=sys.stderr)
                return 2
            campaign = factory(spec)
            campaign.attach_journal(
                journal, checkpoint_every=args.checkpoint_every)
            result = campaign.run()
    else:
        result = factory(spec).run()
    print(result.summary())
    health = result.health.get("uds", {})
    coverage = health.get("coverage", {})
    print(f"protocol-state coverage: {coverage.get('tuples', 0)} "
          f"(service, sub-function, NRC, session) tuple(s) over "
          f"{coverage.get('exchanges', 0)} exchange(s)")
    key_algorithm = health.get("key_algorithm_index")
    if key_algorithm is not None:
        print(f"security-access key algorithm learned: "
              f"{health.get('key_algorithm')}")
    if journal is not None:
        for warning in journal.warnings:
            print(f"durability: {warning}")
    confirmation = None
    findings = result.findings
    if findings:
        confirmation = confirm_uds_findings(
            findings, UdsReplayFactory(seed=args.seed),
            key_algorithm=key_algorithm)
        print(f"clean-replay confirmation: {len(confirmation.confirmed)} "
              f"confirmed, {len(confirmation.rejected)} rejected")
        findings = confirmation.confirmed
    minimized = None
    if args.minimize:
        minimized = [_minimize_record(
            UdsSnapshotReplayer(UdsReplayFactory(seed=args.seed),
                                key_algorithm=key_algorithm),
            finding, finding.recent_requests, bytes.hex)
            for finding in findings]
        for record in minimized:
            if not record["reproduced"]:
                print(f"finding[{record['oracle']}]: window of "
                      f"{record['window_requests']} request(s) did not "
                      f"reproduce on the replay grid")
                continue
            rendered = ", ".join(
                request if len(request) <= 16 else f"{request[:16]}..."
                for request in record["minimized_requests"])
            print(f"finding[{record['oracle']}]: minimised "
                  f"{record['window_requests']} -> "
                  f"{len(record['minimized_requests'])} request(s) "
                  f"in {record['probes']} probe(s): {rendered}")
    if args.report:
        payload = {
            "mode": "uds",
            "seed": args.seed,
            "requests": args.requests,
            "result": result.to_dict(),
            "fallback_reasons": list(result.fallback_reasons),
        }
        if confirmation is not None:
            payload["confirmation"] = confirmation.to_dict()
        if minimized is not None:
            payload["minimized"] = minimized
        _write_report(args.report, payload)
    return 0 if findings else 1


def _cmd_fuzz_serve(args: argparse.Namespace) -> int:
    """Run the fuzzing-as-a-service orchestrator until SIGINT/SIGTERM.

    Jobs arrive over the HTTP API, run under heartbeat-renewed leases
    on worker processes, and survive crashes of workers *and* of this
    process: the queue journals every lifecycle event into
    ``--data-dir``, so restarting the service on the same directory
    resumes exactly where the dead one durably got to.
    """
    import asyncio
    import signal

    from repro.fuzz.durability import RetryPolicy
    from repro.service import JobQueue, Orchestrator, ServiceApi

    queue = JobQueue(args.data_dir)
    orchestrator = Orchestrator(
        queue,
        workers=args.workers,
        lease_duration=args.lease_seconds,
        checkpoint_every=args.checkpoint_every,
        quarantine_after=args.quarantine_after,
        backoff=RetryPolicy(attempts=1, backoff=args.retry_backoff,
                            jitter=0.5, seed=0))
    guards = None
    if args.worker_cpu_seconds or args.worker_memory_mb:
        from repro.fuzz.parallel import ResourceGuards
        guards = ResourceGuards(
            cpu_seconds=args.worker_cpu_seconds or None,
            address_space_bytes=(args.worker_memory_mb << 20
                                 if args.worker_memory_mb else None))
        orchestrator.resource_guards = guards
    if args.job_quota_mb:
        orchestrator.job_quota_bytes = args.job_quota_mb << 20
    api = ServiceApi(queue, orchestrator, rate=args.rate,
                     burst=args.burst,
                     max_active_per_tenant=args.max_active_per_tenant,
                     header_timeout=args.header_timeout,
                     body_timeout=args.body_timeout,
                     max_body_bytes=args.max_body_kb << 10)

    async def serve() -> None:
        host, port = await api.start(args.host, args.port)
        print(f"fuzz service listening on http://{host}:{port}",
              flush=True)
        print(f"data dir: {queue.root}", flush=True)
        for warning in queue.warnings:
            print(f"durability: {warning}", flush=True)
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, ValueError):
                pass
        try:
            await orchestrator.run(stop)
        finally:
            await api.close()

    asyncio.run(serve())
    print("fuzz service stopped; jobs requeued for the next start",
          flush=True)
    return 0


def _cmd_fuzz_chaos(args: argparse.Namespace) -> int:
    """Run one seeded cross-layer chaos drill and report the verdict.

    Exit 0 when every invariant held (all jobs completed, fingerprints
    bit-identical to undisturbed runs, reopened state consistent);
    exit 1 with the violations and the exact ``(seed, schedule)``
    replay pair otherwise.
    """
    import tempfile

    from repro.chaos import ChaosSchedule, run_chaos_drill

    schedule = None
    if args.schedule:
        text = args.schedule
        if text.startswith("@"):
            with open(text[1:], "r", encoding="utf-8") as handle:
                text = handle.read()
        schedule = ChaosSchedule.from_json(text)

    def drill(root: str):
        return run_chaos_drill(
            args.seed, root, jobs=args.jobs,
            max_frames=args.max_frames, duration=args.duration,
            intensity=args.intensity, schedule=schedule)

    if args.data_dir:
        report = drill(args.data_dir)
    else:
        with tempfile.TemporaryDirectory(prefix="fuzz-chaos-") as root:
            report = drill(root)

    plan = ChaosSchedule.from_dict(report.schedule)
    print(plan.describe())
    fired = report.controller.get("fired", [])
    network = report.controller.get("network", {})
    print(f"fired {len(fired)} scheduled event(s); proxy saw "
          f"{network.get('connections', 0)} connection(s) "
          f"{network.get('behaviours')}")
    print(f"api shed: {report.api.get('shed')}")
    for job in report.jobs:
        mark = "ok " if job.get("match") else "BAD"
        print(f"  [{mark}] {job['job_id']}: {job.get('state')} "
              f"after {job.get('faults', 0)} fault strike(s)")
    if args.report:
        _write_report(args.report, report.to_dict())
    if report.ok:
        print(f"chaos drill passed in {report.elapsed:.1f}s "
              f"({len(report.jobs)} job(s) bit-identical to "
              f"undisturbed runs)")
        return 0
    print("chaos drill FAILED:")
    for violation in report.violations:
        print(f"  - {violation}")
    print(f"replay with: {report.repro}")
    print(f"or exact schedule: --schedule '{plan.to_json()}'")
    return 1


def _cmd_table5(args: argparse.Namespace) -> int:
    from repro.testbench import UnlockExperiment

    experiment = UnlockExperiment(check_mode=args.check_mode,
                                  seed=args.seed)
    row = experiment.run_trials(args.trials)
    print(row.format())
    if row.timeouts:
        print(f"({row.timeouts} trial(s) hit the per-trial cap)")
    for reason in row.fallback_reasons:
        print(f"scalar fallback: {reason}")
    return 0


def _cmd_obd_scan(args: argparse.Namespace) -> int:
    from repro.obd import ObdScanner, Pid
    from repro.vehicle import TargetCar

    car = TargetCar(seed=args.seed)
    car.ignition_on()
    car.run_seconds(2.0)
    scanner = ObdScanner(car.sim, car.powertrain_bus)
    print("OBD-II scan of the simulated vehicle:")
    for pid in (Pid.ENGINE_RPM, Pid.VEHICLE_SPEED, Pid.COOLANT_TEMP,
                Pid.THROTTLE_POSITION, Pid.FUEL_LEVEL):
        value = scanner.read_pid(pid)
        rendered = "no response" if value is None else f"{value:.1f}"
        print(f"  {pid.name:<18} {rendered}")
    count, codes = scanner.read_dtcs()
    print(f"  stored DTCs: {count} "
          f"{['%04X' % c for c in codes] if codes else ''}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Fuzz Testing for Automotive "
                    "Cyber-security' (DSN 2018)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("survey", help="print the Fig 1 chart") \
        .set_defaults(func=_cmd_survey)

    capture = sub.add_parser("capture",
                             help="capture traffic from the simulated car")
    capture.add_argument("--bus", choices=("powertrain", "body"),
                         default="powertrain")
    capture.add_argument("--seconds", type=float, default=2.0)
    capture.add_argument("--seed", type=int, default=0)
    capture.add_argument("--limit", type=int, default=10_000)
    capture.add_argument("--head", type=int, default=20,
                         help="rows to print in paper format")
    capture.add_argument("--format",
                         choices=("paper", "candump", "csv"),
                         default="paper")
    capture.set_defaults(func=_cmd_capture)

    stats = sub.add_parser("byte-stats",
                           help="Fig 5 byte statistics of fuzzer output")
    stats.add_argument("--frames", type=int, default=66_144)
    stats.add_argument("--seed", type=int, default=0)
    stats.set_defaults(func=_cmd_byte_stats)

    coverage = sub.add_parser("coverage",
                              help="combinatorial-explosion arithmetic")
    coverage.add_argument("--id-bits", type=int, default=11)
    coverage.add_argument("--payload-bytes", type=int, default=1)
    coverage.add_argument("--interval-ms", type=int, default=1)
    coverage.set_defaults(func=_cmd_coverage)

    bench = sub.add_parser("fuzz-bench",
                           help="blind-fuzz the unlock bench once")
    bench.add_argument("--check-mode", default="byte",
                       choices=("byte", "byte+dlc", "two-byte"))
    bench.add_argument("--seed", type=int, default=19)
    bench.add_argument("--max-seconds", type=float, default=3600.0,
                       help="simulated-time budget (per shard when sharded)")
    bench.add_argument("--shards", type=int, default=1,
                       help="independent campaigns to fan out "
                            "(1 = classic single-process run)")
    bench.add_argument("--jobs", type=int, default=None,
                       help="concurrent worker processes "
                            "(default min(shards, cpu count))")
    bench.add_argument("--batch-size", type=int, default=1,
                       metavar="K",
                       help="shards per worker process (IPC "
                            "chunking only; every shard runs the same "
                            "way); shards the fast-path prover rejects "
                            "run on the reference kernel and their "
                            "reasons are printed in the summary and "
                            "recorded in --report")
    bench.add_argument("--minimize", action="store_true",
                       help="ddmin each finding's recorded window via "
                            "the snapshot replayer and print the "
                            "minimal failing trace")
    bench.add_argument("--report", metavar="PATH", default=None,
                       help="write a JSON run report (includes the "
                            "minimised traces with --minimize)")
    bench.add_argument("--journal", metavar="DIR", default=None,
                       help="durable journal directory: findings stream "
                            "to disk as they fire, checkpoints are taken "
                            "every --checkpoint-every frames, and a "
                            "killed run continues with --resume "
                            "(per-shard subdirectories when sharded)")
    bench.add_argument("--resume", action="store_true",
                       help="continue the campaign recorded in --journal "
                            "from its last durable state (sharded runs "
                            "skip shards whose results were saved); a "
                            "--journal directory that holds a previous "
                            "run is refused without it")
    bench.add_argument("--checkpoint-every", type=int, default=5000,
                       metavar="FRAMES",
                       help="frames between durable checkpoints "
                            "(default 5000)")
    bench.add_argument("--channel-noise", action="store_true",
                       help="fuzz across an adversarial channel (seeded "
                            "bit errors on the wire) with a mild default "
                            "profile; adds a campaign supervisor that "
                            "survives bus-DoS and adapter bus-off, and "
                            "confirms findings by clean-channel replay")
    bench.add_argument("--ber", type=float, default=0.0, metavar="P",
                       help="per-bit error probability of the channel's "
                            "good state (implies --channel-noise)")
    bench.add_argument("--burst", type=float, default=0.0, metavar="P",
                       help="per-bit error probability inside "
                            "Gilbert-Elliott noise bursts "
                            "(implies --channel-noise)")
    bench.add_argument("--ack-loss", type=float, default=0.0, metavar="P",
                       help="per-frame probability the acknowledgement "
                            "slot is lost (sender retransmits; implies "
                            "--channel-noise, without its default bit "
                            "error rate)")
    bench.set_defaults(func=_cmd_fuzz_bench)

    uds = sub.add_parser("fuzz-uds",
                         help="stateful UDS-over-ISO-TP campaign against "
                              "the diagnostic bench")
    uds.add_argument("--seed", type=int, default=0)
    uds.add_argument("--requests", type=int, default=1500,
                     help="request budget for the campaign")
    uds.add_argument("--keep-going", action="store_true",
                     help="hunt to the full request budget instead of "
                          "stopping at the first finding (surfaces "
                          "multiple seeded defects in one run)")
    uds.add_argument("--minimize", action="store_true",
                     help="ddmin each confirmed finding's request record "
                          "via the UDS snapshot replayer and print the "
                          "minimal failing sequence")
    uds.add_argument("--report", metavar="PATH", default=None,
                     help="write a JSON run report (includes the "
                          "minimised sequences with --minimize)")
    uds.add_argument("--journal", metavar="DIR", default=None,
                     help="durable journal directory: findings stream to "
                          "disk as they fire, checkpoints are taken every "
                          "--checkpoint-every requests, and a killed run "
                          "continues with --resume")
    uds.add_argument("--resume", action="store_true",
                     help="continue the campaign recorded in --journal "
                          "from its last durable state")
    uds.add_argument("--checkpoint-every", type=int, default=200,
                     metavar="REQUESTS",
                     help="requests between durable checkpoints "
                          "(default 200)")
    uds.set_defaults(func=_cmd_fuzz_uds)

    serve = sub.add_parser("fuzz-serve",
                           help="run the campaign job service: HTTP "
                                "submit/status/findings, lease-based "
                                "workers, crash-safe queue")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8650,
                       help="listen port (0 picks a free one)")
    serve.add_argument("--data-dir", required=True, metavar="DIR",
                       help="service state root: the queue journal and "
                            "per-job campaign journals live here, and "
                            "restarting on the same directory resumes "
                            "interrupted jobs")
    serve.add_argument("--workers", type=int, default=2,
                       help="concurrent worker processes")
    serve.add_argument("--lease-seconds", type=float, default=30.0,
                       help="heartbeat deadline before a silent "
                            "worker's job is re-granted")
    serve.add_argument("--checkpoint-every", type=int, default=200,
                       metavar="FRAMES",
                       help="frames between a job's durable "
                            "checkpoints; one heartbeats when the "
                            "service's 50 ms poll interval (at most a "
                            "quarter of the lease) has passed since "
                            "the job's last heartbeat")
    serve.add_argument("--quarantine-after", type=int, default=3,
                       metavar="N",
                       help="faults before a repeat-crashing job is "
                            "quarantined instead of retried")
    serve.add_argument("--retry-backoff", type=float, default=0.25,
                       metavar="SECONDS",
                       help="base of the jittered exponential backoff "
                            "between a job's fault and its re-grant")
    serve.add_argument("--rate", type=float, default=10.0,
                       help="per-tenant sustained requests/second "
                            "before 429 load shedding")
    serve.add_argument("--burst", type=float, default=20.0,
                       help="per-tenant token-bucket burst capacity")
    serve.add_argument("--max-active-per-tenant", type=int, default=8,
                       metavar="N",
                       help="live jobs one tenant may hold; submits "
                            "beyond it are shed with 429")
    serve.add_argument("--header-timeout", type=float, default=10.0,
                       metavar="SECONDS",
                       help="slow-loris deadline on the request head "
                            "(shed with 408)")
    serve.add_argument("--body-timeout", type=float, default=10.0,
                       metavar="SECONDS",
                       help="deadline on the declared request body "
                            "(shed with 408)")
    serve.add_argument("--max-body-kb", type=int, default=1024,
                       metavar="KB",
                       help="Content-Length cap; larger declarations "
                            "are shed with 413 before reading")
    serve.add_argument("--worker-cpu-seconds", type=int, default=0,
                       metavar="SECONDS",
                       help="CPU budget per job, as RLIMIT_CPU on its "
                            "worker (0 = unlimited); a breach dies by "
                            "SIGXCPU and is recorded as a fault strike")
    serve.add_argument("--worker-memory-mb", type=int, default=0,
                       metavar="MB",
                       help="RLIMIT_AS per worker, the same for every "
                            "job (0 = unlimited); a breach raises "
                            "MemoryError in the worker")
    serve.add_argument("--job-quota-mb", type=int, default=0,
                       metavar="MB",
                       help="disk quota on each jobs/<id>/ directory, "
                            "whose log keeps every checkpoint "
                            "(0 = unlimited); a breach is a fault "
                            "strike, never a hang")
    serve.set_defaults(func=_cmd_fuzz_serve)

    chaos = sub.add_parser(
        "fuzz-chaos",
        help="run the seeded cross-layer chaos drill: storage, "
             "process, clock and network faults against a live "
             "service, invariants checked")
    chaos.add_argument("--seed", type=int, default=0,
                       help="master seed; the whole run is "
                            "reproducible from it")
    chaos.add_argument("--jobs", type=int, default=3,
                       help="jobs submitted through the hostile proxy")
    chaos.add_argument("--max-frames", type=int, default=120,
                       help="per-job campaign budget")
    chaos.add_argument("--duration", type=float, default=8.0,
                       help="seconds of scheduled chaos activity")
    chaos.add_argument("--intensity", type=float, default=0.5,
                       help="fault-rate scale in [0, 1]")
    chaos.add_argument("--schedule", metavar="JSON",
                       help="replay an explicit schedule (JSON string "
                            "or @file), overriding generation")
    chaos.add_argument("--data-dir", metavar="DIR",
                       help="service state root (default: a fresh "
                            "temporary directory)")
    chaos.add_argument("--report", metavar="FILE",
                       help="write the full chaos report as JSON")
    chaos.set_defaults(func=_cmd_fuzz_chaos)

    table5 = sub.add_parser("table5", help="run a Table V row")
    table5.add_argument("--check-mode", default="byte",
                        choices=("byte", "byte+dlc", "two-byte"))
    table5.add_argument("--trials", type=int, default=12)
    table5.add_argument("--seed", type=int, default=0)
    table5.set_defaults(func=_cmd_table5)

    obd = sub.add_parser("obd-scan", help="OBD-II scan the simulated car")
    obd.add_argument("--seed", type=int, default=0)
    obd.set_defaults(func=_cmd_obd_scan)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
