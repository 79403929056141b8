"""Which program functions the traced run wraps, and the per-layer
metrics it reports from them.

``install`` must run before any world is built (see ``tracer.py``).
``per_layer`` turns the tracer's aggregates plus the counts a workload
read from the program into the metric names ``BENCHMARK.json`` lists.
Every workload reports every name; a layer the workload never enters
reports 0.
"""

from __future__ import annotations

import os
import statistics

#: (metric name, unit) in BENCHMARK.json order.
PER_LAYER = (
    ("sim.events", "count"), ("sim.ns_per_event", "ns"),
    ("can.frames_delivered", "count"), ("can.arbitration_rounds", "count"),
    ("can.frame_duration_calls", "count"), ("can.frame_duration_s", "s"),
    ("can.adapter.writes", "count"), ("can.adapter.write_s", "s"),
    ("can.adapter.write_errors", "count"),
    ("fuzz.generator.next_frame_calls", "count"),
    ("fuzz.generator.next_frame_s", "s"),
    ("ecu.sends", "count"), ("ecu.send_s", "s"),
    ("fuzz.oracle.probes", "count"), ("fuzz.oracle.probe_s", "s"),
    ("fuzz.campaign.run_s", "s"), ("fuzz.campaign.self_s", "s"),
    ("fuzz.uds_campaign.run_s", "s"), ("fuzz.uds_campaign.self_s", "s"),
    ("uds.client.requests", "count"), ("uds.client.request_s", "s"),
    ("uds.isotp.frames", "count"), ("uds.isotp.handle_frame_s", "s"),
    ("uds.stategen.next_request_s", "s"), ("uds.stategen.observe_s", "s"),
    ("fuzz.coverage.record_s", "s"),
    ("sim.snapshot.captures", "count"), ("sim.snapshot.capture_s", "s"),
    ("sim.snapshot.restores", "count"), ("sim.snapshot.restore_s", "s"),
    ("replay.uds.probes", "count"), ("replay.uds.probe_s", "s"),
    ("replay.frame.probes", "count"), ("replay.frame.probe_s", "s"),
    ("replay.confirm_s", "s"), ("replay.uds.reuse_ratio", "ratio"),
    ("replay.frame.reuse_ratio", "ratio"), ("minimize.probes", "count"),
    ("journal.appends", "count"), ("journal.append_s", "s"),
    ("journal.checkpoints", "count"), ("journal.checkpoint_s", "s"),
    ("journal.checkpoint_bytes", "bytes"), ("journal.result_s", "s"),
    ("journal.scan_s", "s"),
    ("batch.worlds", "count"), ("batch.fallback_worlds", "count"),
    ("batch.admit_ratio", "ratio"), ("batch.plan_s", "s"),
    ("batch.run_s", "s"), ("batch.rng_s", "s"), ("batch.kernel_s", "s"),
    ("batch.self_s", "s"),
    ("parallel.workers", "count"), ("parallel.retries", "count"),
    ("parallel.overhead_s", "s"),
    ("service.http.requests", "count"), ("service.http.rejected", "count"),
    ("service.http.rtt_p50_s", "s"), ("service.http.rtt_p90_s", "s"),
    ("service.queue.wait_p50_s", "s"), ("service.queue.submit_s", "s"),
    ("service.queue.complete_s", "s"), ("service.lease.grants", "count"),
    ("service.lease.renewals", "count"), ("service.lease.expiries", "count"),
    ("service.lease.useful_ratio", "ratio"),
    ("service.job.start_p50_s", "s"), ("service.job.run_p50_s", "s"),
    ("service.orch.ticks", "count"), ("service.orch.tick_s", "s"),
    ("service.retries", "count"),
    ("bench.late_max_s", "s"),
    ("trace.workload_s", "s"), ("trace.overhead", "ratio"),
    ("trace.unattributed_s", "s"), ("trace.unattributed_share", "ratio"),
)

#: Names whose value is a wrapped function's call count / total time.
_CALLS = {
    "can.frame_duration_calls": "can.frame_duration",
    "can.adapter.writes": "can.adapter.write",
    "fuzz.generator.next_frame_calls": "fuzz.generator.next_frame",
    "ecu.sends": "ecu.send",
    "fuzz.oracle.probes": "fuzz.oracle.probe",
    "uds.client.requests": "uds.client.request",
    "uds.isotp.frames": "uds.isotp.handle_frame",
    "sim.snapshot.captures": "sim.snapshot.capture",
    "sim.snapshot.restores": "sim.snapshot.restore",
    "replay.uds.probes": "replay.uds.probe",
    "replay.frame.probes": "replay.frame.probe",
    "journal.appends": "journal.append",
    "journal.checkpoints": "journal.checkpoint",
    "service.orch.ticks": "service.orch.tick",
}
_TOTALS = {
    "can.frame_duration_s": "can.frame_duration",
    "can.adapter.write_s": "can.adapter.write",
    "fuzz.generator.next_frame_s": "fuzz.generator.next_frame",
    "ecu.send_s": "ecu.send",
    "fuzz.oracle.probe_s": "fuzz.oracle.probe",
    "fuzz.campaign.run_s": "fuzz.campaign.run",
    "fuzz.uds_campaign.run_s": "fuzz.uds_campaign.run",
    "uds.client.request_s": "uds.client.request",
    "uds.isotp.handle_frame_s": "uds.isotp.handle_frame",
    "uds.stategen.next_request_s": "uds.stategen.next_request",
    "uds.stategen.observe_s": "uds.stategen.observe",
    "fuzz.coverage.record_s": "fuzz.coverage.record",
    "sim.snapshot.capture_s": "sim.snapshot.capture",
    "sim.snapshot.restore_s": "sim.snapshot.restore",
    "replay.uds.probe_s": "replay.uds.probe",
    "replay.frame.probe_s": "replay.frame.probe",
    "replay.confirm_s": "replay.confirm",
    "journal.append_s": "journal.append",
    "journal.checkpoint_s": "journal.checkpoint",
    "journal.result_s": "journal.result",
    "journal.scan_s": "journal.scan",
    "batch.plan_s": "batch.plan",
    "batch.run_s": "batch.run",
    "batch.kernel_s": "sim.run_until",
    "service.queue.submit_s": "service.queue.submit",
    "service.queue.complete_s": "service.queue.complete",
    "service.orch.tick_s": "service.orch.tick",
}
_SELF = {
    "fuzz.campaign.self_s": "fuzz.campaign.run",
    "fuzz.uds_campaign.self_s": "fuzz.uds_campaign.run",
    "batch.rng_s": "batch.rng",
    "batch.self_s": "batch.run",
}


def _count_events(tracer, method):
    """``Simulator`` loop wrapper adding the events it fired."""
    def counted(sim, *args, **kwargs):
        before = sim.events_fired
        try:
            return method(sim, *args, **kwargs)
        finally:
            tracer.counts["sim.events"] += sim.events_fired - before
    counted.__name__ = method.__name__
    return counted


def _adapter_status(tracer, status, _args):
    if status.name != "OK":
        tracer.counts["can.adapter.write_errors"] += 1


def _register_bus(tracer, _result, args):
    tracer.buses.append(args[0])


def _checkpoint_size(tracer, _result, args):
    journal = args[0]
    try:
        size = os.path.getsize(journal.store.path(journal.CHECKPOINT))
    except (AttributeError, OSError):
        return
    tracer.counts["journal.checkpoint_bytes"] += size


def install(tracer, *, time_kernel: bool = False) -> None:
    """Wrap every layer boundary the per-layer table measures.

    ``time_kernel`` also times ``Simulator.run_until``.  Only the
    lockstep workload asks for it: in a scalar campaign the kernel loop
    encloses every per-frame call, and timing it would hide the
    campaign loop's own time inside the kernel's.
    """
    from repro.can import timing
    from repro.can.adapter import PcanStyleAdapter
    from repro.can.bus import CanBus
    from repro.ecu.base import Ecu
    from repro.fuzz import batch, durability, minimize
    from repro.fuzz.campaign import FuzzCampaign
    from repro.fuzz.coverage import ProtocolStateCoverage
    from repro.fuzz.generator import RandomFrameGenerator
    from repro.fuzz.replay import SnapshotReplayer
    from repro.fuzz.uds_campaign import UdsFuzzCampaign
    from repro.service.orchestrator import Orchestrator
    from repro.service.queue import JobQueue
    from repro.sim import snapshot
    from repro.sim.batch import BatchRandom, BatchRandomView
    from repro.sim.kernel import Simulator
    from repro.testbench import factory
    from repro.testbench.bcm import BenchBcm
    from repro.testbench.experiment import UnlockExperiment
    from repro.uds import replay as uds_replay
    from repro.uds.client import UdsClient
    from repro.uds.isotp import IsoTpEndpoint
    from repro.uds.stategen import UdsStateGenerator

    method, function = tracer.wrap_method, tracer.wrap_function
    #: Buses built while tracing (snapshot-restored clones bypass
    #: ``__init__`` and are not counted).
    tracer.buses = []
    # Kernel: events fired inside the two dispatch loops.
    Simulator.run_until = _count_events(tracer, Simulator.run_until)
    Simulator.run_until_idle = _count_events(tracer,
                                             Simulator.run_until_idle)
    if time_kernel:
        method(Simulator, "run_until", "sim.run_until")
        method(Simulator, "run_until_idle", "sim.run_until")
    # Bus, timing, adapter, generator, target and oracle.
    method(CanBus, "__init__", "can.bus.init", on_result=_register_bus)
    method(timing.BitTiming, "frame_duration", "can.frame_duration")
    method(PcanStyleAdapter, "write", "can.adapter.write",
           on_result=_adapter_status)
    method(RandomFrameGenerator, "next_frame", "fuzz.generator.next_frame")
    method(Ecu, "send", "ecu.send")
    method(BenchBcm, "led_on", "fuzz.oracle.probe")
    # Campaign loops and world construction.
    method(UnlockExperiment, "run_trial", "table5.trial", span=True)
    method(FuzzCampaign, "run", "fuzz.campaign.run", span=True)
    method(UdsFuzzCampaign, "run", "fuzz.uds_campaign.run", span=True)
    for name in ("UnlockBenchFactory", "UdsBenchFactory",
                 "UdsReplayFactory", "CarReplayFactory"):
        method(getattr(factory, name), "__call__", "testbench.build")
    # ISO-TP, UDS, the stateful generator and coverage.
    method(UdsClient, "request", "uds.client.request")
    method(IsoTpEndpoint, "handle_frame", "uds.isotp.handle_frame")
    method(UdsStateGenerator, "next_request", "uds.stategen.next_request")
    method(UdsStateGenerator, "observe", "uds.stategen.observe")
    method(ProtocolStateCoverage, "record", "fuzz.coverage.record")
    method(ProtocolStateCoverage, "record_batch", "fuzz.coverage.record")
    # Snapshots, replayers, ddmin.
    function(snapshot, "capture", "sim.snapshot.capture")
    method(snapshot.Snapshot, "restore", "sim.snapshot.restore")
    method(uds_replay.UdsSnapshotReplayer, "probe", "replay.uds.probe",
           span=True)
    method(uds_replay.UdsReplayer, "probe_finding",
           "replay.uds.confirm_probe", span=True)
    method(SnapshotReplayer, "probe", "replay.frame.probe", span=True)
    function(uds_replay, "confirm_uds_findings", "replay.confirm",
             span=True)
    function(minimize, "minimize_trace", "minimize.trace", span=True)
    # Journal.
    method(durability.CampaignJournal, "append", "journal.append")
    method(durability.CampaignJournal, "save_checkpoint",
           "journal.checkpoint", on_result=_checkpoint_size)
    method(durability.CampaignJournal, "save_result", "journal.result")
    function(durability, "scan_records", "journal.scan")
    # Lockstep engine.
    function(batch, "plan_frame_world", "batch.plan")
    function(batch, "plan_uds_world", "batch.plan")
    function(batch, "run_shard_batch", "batch.run", span=True)
    for name in ("from_randoms", "next_words", "randbelow", "randbytes8",
                 "getstate"):
        method(BatchRandom, name, "batch.rng")
    for name in ("random", "getrandbits", "randbytes", "randrange",
                 "randint", "choice", "getstate"):
        method(BatchRandomView, name, "batch.rng")
    # Service control plane (hosted in-process by the traced run).
    method(JobQueue, "submit", "service.queue.submit")
    method(JobQueue, "mark_completed", "service.queue.complete",
           on_result=lambda t, _r, a: t.mark("job-completed", a[1]))
    method(JobQueue, "mark_leased", "service.queue.lease",
           on_result=lambda t, _r, a: t.mark("job-leased", a[1]))
    method(JobQueue, "update_progress", "service.queue.progress",
           on_result=lambda t, _r, a: t.mark("job-heartbeat", a[1]))
    method(Orchestrator, "tick", "service.orch.tick")


def _p50(values) -> float:
    return statistics.median(values) if values else 0.0


def per_layer(tracer, extra: dict, workload_s: float,
              untraced_s: float) -> dict:
    """All per-layer metrics; ``extra`` holds values the workload read
    from the program (replayer stats, sharded results, service status)."""
    values = {name: 0.0 for name, _ in PER_LAYER}
    for name, key in _CALLS.items():
        values[name] = tracer.calls.get(key, 0)
    for name, key in _TOTALS.items():
        values[name] = tracer.total.get(key, 0.0)
    for name, key in _SELF.items():
        values[name] = tracer.self_time.get(key, 0.0)
    for key in ("sim.events", "can.adapter.write_errors",
                "journal.checkpoint_bytes"):
        values[key] = tracer.counts.get(key, 0)
    buses = getattr(tracer, "buses", [])
    values["can.frames_delivered"] = sum(b.stats.frames_delivered
                                         for b in buses)
    values["can.arbitration_rounds"] = sum(b.stats.arbitration_rounds
                                           for b in buses)
    campaign_s = values["fuzz.campaign.run_s"] + values["fuzz.uds_campaign.run_s"]
    if values["sim.events"]:
        values["sim.ns_per_event"] = campaign_s / values["sim.events"] * 1e9
    leased = tracer.marks.get("job-leased", {})
    beats = tracer.marks.get("job-heartbeat", {})
    done = tracer.marks.get("job-completed", {})
    values["service.job.start_p50_s"] = _p50(
        [beats[j] - leased[j] for j in beats if j in leased])
    values["service.job.run_p50_s"] = _p50(
        [done[j] - leased[j] for j in done if j in leased])
    values.update(extra)
    values["trace.workload_s"] = workload_s
    values["trace.overhead"] = workload_s / untraced_s - 1.0
    residual = workload_s - tracer.top_level_seconds()
    values["trace.unattributed_s"] = residual
    values["trace.unattributed_share"] = residual / workload_s
    units = dict(PER_LAYER)
    return {name: {"value": values[name], "unit": units[name]}
            for name, _ in PER_LAYER}
