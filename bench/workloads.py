"""The four benchmark workloads.

Each workload drives the program through the entry points its users
call, in rounds: a round is a fixed-size unit of work whose inputs are
a pure function of ``(seed, round index)``.  ``run`` repeats rounds
until the time budget is spent, or replays exactly the rounds it is
given (the traced run re-runs the untraced run's rounds that way).

A round reports the operations it completed, the operations it
attempted and failed, a fingerprint per unit of output, and the
headline numbers behind the workload's end-to-end metric.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.can.frame import CanFrame
from repro.fuzz import batch as batch_engine
from repro.fuzz.campaign import CampaignLimits
from repro.fuzz.durability import CampaignJournal, RetryPolicy
from repro.fuzz.minimize import MinimizeStats
from repro.fuzz.parallel import (ShardedCampaign, ShardSpec,
                                 derive_shard_seed, slice_limits)
from repro.fuzz.replay import Replayer, SnapshotReplayer
from repro.fuzz.session import FALLBACK_WARNING_PREFIX
from repro.service.api import ServiceApi
from repro.service.orchestrator import (Orchestrator, build_factory,
                                        shard_spec_for)
from repro.service.queue import JobQueue, JobSpec, result_fingerprint
from repro.sim.snapshot import fingerprint
from repro.testbench.experiment import UnlockExperiment
from repro.testbench.factory import (CarReplayFactory, UdsBenchFactory,
                                     UdsReplayFactory, UnlockBenchFactory)
from repro.uds import replay as uds_replay

clock = time.perf_counter


def digest(value) -> str:
    """sha256 of a value's canonical JSON."""
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode(
        "utf-8")).hexdigest()


def percentile(values, q: float) -> float:
    """The ``q``-quantile (0 < q < 1) by linear interpolation."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


@dataclass
class Outcome:
    """What a workload did in one run (or one traced replay)."""

    ops: float = 0.0
    seconds: float = 0.0
    attempted: int = 0
    failed: int = 0
    rounds: list = field(default_factory=list)
    fingerprints: dict = field(default_factory=dict)
    #: Workload-specific headline numbers (report lines, steadiness).
    details: dict = field(default_factory=dict)
    #: Contract violations found (empty when the output is correct).
    errors: list = field(default_factory=list)
    #: Per-layer values the workload read from the program.
    layers: dict = field(default_factory=dict)
    durations: list = field(default_factory=list)


class Workload:
    """Round-based workload; subclasses define ``run_round``."""

    name = ""
    #: Whether the traced run times the event kernel's dispatch loop.
    time_kernel = False

    def __init__(self, root: Path, work: Path) -> None:
        self.root = root
        self.work = work
        #: Set by ``traced``; stamps span ids while it runs.
        self.tracer = None

    def prepare(self, seed: int) -> None:
        """Untimed warm-up that fills module memos (part of set-up)."""

    def run_round(self, seed: int, index: int, out: Outcome) -> None:
        raise NotImplementedError

    def run(self, seed: int, seconds: float,
            rounds: list | None = None) -> Outcome:
        out = Outcome()
        durations = []
        index = 0
        while True:
            current = rounds[index] if rounds is not None else index
            if self.tracer is not None:
                self.tracer.ident = f"round-{current}"
            started = clock()
            self.run_round(seed, current, out)
            durations.append(clock() - started)
            out.rounds.append(current)
            index += 1
            if rounds is not None:
                if index == len(rounds):
                    break
            elif sum(durations) + statistics.fmean(durations) / 2 >= seconds:
                break
        out.seconds = sum(durations)
        out.durations = durations
        return out

    def traced(self, seed: int, out: Outcome, tracer, install):
        """Re-run the first rounds of ``out`` (at least half its time)
        with tracing installed; returns the traced outcome and the
        untraced seconds of the same rounds."""
        chosen, untraced = [], 0.0
        for index, duration in zip(out.rounds, out.durations):
            chosen.append(index)
            untraced += duration
            if untraced >= out.seconds / 2:
                break
        install()
        self.tracer = tracer
        return self.run(seed, 0.0, rounds=chosen), untraced

    def check_contracts(self, seed: int, out: Outcome) -> None:
        """Checks for seeds with no recorded fingerprints."""

    def finish(self) -> None:
        """Release processes and files the workload still holds."""


# ----------------------------------------------------------------------
# table5: the paper's Table V byte row on the scalar per-frame path
# ----------------------------------------------------------------------
class Table5(Workload):
    """The paper's Table V byte row: the whole scalar per-frame path and
    no journal, batch, UDS or service code.  A round is one trial."""

    name = "table5"

    def prepare(self, seed: int) -> None:
        UnlockExperiment(check_mode="byte", seed=seed,
                         trial_timeout_seconds=2.0).run_trial(0)

    def run_round(self, seed: int, index: int, out: Outcome) -> None:
        experiment = UnlockExperiment(check_mode="byte", seed=seed)
        out.attempted += 1
        started = clock()
        try:
            trial = experiment.run_trial(index)
        except Exception:  # a raising trial is a failed operation
            out.failed += 1
            return
        elapsed = clock() - started
        out.ops += trial.frames_sent
        out.fingerprints[f"trial-{index}"] = digest(
            [trial.unlocked, trial.seconds_to_unlock, trial.frames_sent])
        details = out.details
        details.setdefault("trials", []).append(
            [index, trial.seconds_to_unlock, trial.frames_sent])
        details["timeouts"] = details.get("timeouts", 0) + (
            trial.seconds_to_unlock is None)
        details["frames"] = details.get("frames", 0) + trial.frames_sent
        details["trial_s"] = details.get("trial_s", 0.0) + elapsed
        details["frames_per_s"] = details["frames"] / details["trial_s"]

    def check_contracts(self, seed: int, out: Outcome) -> None:
        # A trial sends one frame per simulated millisecond from its
        # start until the unlock acknowledgement (or the timeout), so
        # its frame count pins its recorded unlock time.
        timeout = UnlockExperiment(check_mode="byte",
                                   seed=seed).trial_timeout_seconds
        for index, seconds, frames in out.details.get("trials", []):
            limit = timeout if seconds is None else seconds
            if not (seconds is None or 0 < seconds <= timeout) \
                    or not 0 <= frames - limit * 1000 <= 1:
                out.errors.append(
                    f"trial {index}: {frames} frames do not match an "
                    f"unlock at {seconds} s (timeout {timeout} s)")


# ----------------------------------------------------------------------
# triage: fuzz-uds --keep-going --minimize --journal, then a car trace
# ----------------------------------------------------------------------
TRIAGE_REQUESTS = 3000
TRIAGE_MINIMISED = 48
CAR_TRACE_FRAMES = 500
CAR_CULPRITS = 8
#: Body-bus identifiers the car-trace noise draws from; none is the
#: body-command id, so only the planted culprits can unlock the car.
CAR_NOISE_IDS = (0x101, 0x180, 0x2F0, 0x400, 0x512)


def car_trace(seed: int) -> list[CanFrame]:
    """A noise trace with ``CAR_CULPRITS`` cooperating unlock commands,
    none removable alone: the ddmin worst case."""
    rng = random.Random(seed)
    frames = []
    for _ in range(CAR_TRACE_FRAMES):
        data = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 9)))
        frames.append(CanFrame(can_id=rng.choice(CAR_NOISE_IDS), data=data))
    for salt in range(CAR_CULPRITS):
        position = int((salt + 0.5) * CAR_TRACE_FRAMES / CAR_CULPRITS)
        frames[position] = CanFrame(can_id=0x215,
                                    data=bytes((0x20, 0x01, salt, 0, 0, 0, 0)))
    return frames


class Triage(Workload):
    """A journalled keep-going UDS hunt, clean-replay confirmation,
    snapshot ddmin of its findings and of a long car trace.  A round is
    one such session."""

    name = "triage"

    def __init__(self, root: Path, work: Path) -> None:
        super().__init__(root, work)
        self._journals = 0
        #: Round -> what the contract check replays on a fresh replayer.
        self._last = {}

    def prepare(self, seed: int) -> None:
        self._session(seed + 7_000_000, requests=300, minimised=1,
                      car_frames=40, out=Outcome())

    def run_round(self, seed: int, index: int, out: Outcome) -> None:
        self._session(seed * 1000 + index, requests=TRIAGE_REQUESTS,
                      minimised=TRIAGE_MINIMISED,
                      car_frames=CAR_TRACE_FRAMES, out=out, tag=index)

    def _session(self, sub: int, *, requests: int, minimised: int,
                 car_frames: int, out: Outcome, tag=None) -> None:
        self._journals += 1
        journal_dir = self.work / f"triage-journal-{self._journals}"
        factory = UdsBenchFactory()
        spec = ShardSpec(index=0, shard_count=1, master_seed=sub, seed=sub,
                         limits=CampaignLimits(max_frames=requests,
                                               stop_on_finding=False))
        started = clock()
        campaign = factory(spec)
        campaign.attach_journal(CampaignJournal(str(journal_dir)),
                                checkpoint_every=200)
        result = campaign.run()
        hunted = clock()
        key_algorithm = result.health.get("uds", {}).get(
            "key_algorithm_index")
        replay_factory = UdsReplayFactory(seed=sub)
        confirmation = uds_replay.confirm_uds_findings(
            result.findings, replay_factory, key_algorithm=key_algorithm)
        out.attempted += len(result.findings) + 1
        out.failed += len(confirmation.rejected)
        minimal_traces = []
        probes = 0
        reuse = [0, 0]
        for number, finding in enumerate(confirmation.confirmed[:minimised]):
            if self.tracer is not None:
                self.tracer.ident = f"round-{tag}.finding-{number}"
            replayer = uds_replay.UdsSnapshotReplayer(
                replay_factory, key_algorithm=key_algorithm)
            stats = MinimizeStats()
            try:
                minimal = replayer.minimize(list(finding.recent_requests),
                                            stats=stats)
            except ValueError:  # the window no longer fails: not reproduced
                out.failed += 1
                continue
            probes += stats.tests_used
            reuse[0] += replayer.requests_restored
            reuse[1] += replayer.requests_simulated
            minimal_traces.append([request.hex() for request in minimal])
        trace = car_trace(sub)[:car_frames]
        culprits = sum(1 for frame in trace if frame.can_id == 0x215)
        car_factory = CarReplayFactory(seed=sub, min_unlock_events=culprits)
        car = SnapshotReplayer(car_factory, checkpoint_stride=64)
        car_stats = MinimizeStats()
        car_minimal = car.minimize(trace, stats=car_stats)
        finished = clock()
        shutil.rmtree(journal_dir, ignore_errors=True)
        if tag is None:
            return
        out.ops += result.frames_sent
        details = out.details
        details["hunt_s"] = details.get("hunt_s", 0.0) + (hunted - started)
        details["requests"] = details.get("requests", 0) + result.frames_sent
        details["requests_per_s"] = details["requests"] / details["hunt_s"]
        details.setdefault("repro_s", []).append(finished - hunted)
        details["findings"] = details.get("findings", 0) + len(result.findings)
        out.fingerprints[f"round-{tag}.hunt"] = result_fingerprint(
            result.to_dict())
        out.fingerprints[f"round-{tag}.minimal"] = digest(minimal_traces)
        out.fingerprints[f"round-{tag}.car"] = fingerprint(car_minimal)
        car_reuse = car.stats()
        layers = out.layers
        layers["minimize.probes"] = (layers.get("minimize.probes", 0)
                                     + probes + car_stats.tests_used)
        layers["_uds_reuse"] = [a + b for a, b in zip(
            layers.get("_uds_reuse", [0, 0]), reuse)]
        layers["_frame_reuse"] = [a + b for a, b in zip(
            layers.get("_frame_reuse", [0, 0]),
            [car_reuse["frames_restored"], car_reuse["frames_simulated"]])]
        self._last[tag] = (sub, key_algorithm, minimal_traces,
                           car_factory, car_minimal)

    def traced(self, seed: int, out: Outcome, tracer, install):
        traced, untraced = super().traced(seed, out, tracer, install)
        layers = traced.layers
        for name, key in (("replay.uds.reuse_ratio", "_uds_reuse"),
                          ("replay.frame.reuse_ratio", "_frame_reuse")):
            restored, simulated = layers.pop(key)
            layers[name] = restored / max(1, restored + simulated)
        return traced, untraced

    def check_contracts(self, seed: int, out: Outcome) -> None:
        # Every minimal trace must still fail on a fresh replayer that
        # shares no snapshot with the one that minimised it.
        for tag, (sub, key_algorithm, traces, car_factory,
                  car_minimal) in self._last.items():
            fresh = uds_replay.UdsReplayer(UdsReplayFactory(seed=sub),
                                           key_algorithm=key_algorithm)
            for number, trace in enumerate(traces):
                if not fresh.probe([bytes.fromhex(r) for r in trace]):
                    out.errors.append(f"round {tag}: minimal trace {number} "
                                      f"does not fail on a fresh replayer")
            if not Replayer(car_factory).probe(car_minimal):
                out.errors.append(f"round {tag}: minimal car trace does not "
                                  f"fail on a fresh replayer")


# ----------------------------------------------------------------------
# sharded-batch: both lockstep tracks behind the sharded runner
# ----------------------------------------------------------------------
SHARDS = 128
BATCH_SIZE = 64
UNLOCK_SHARD_FRAMES = 30_000
UDS_SHARD_REQUESTS = 800


def shard_tracks():
    """(kind, factory, total limits) of the two batch-engine tracks.

    Unlock shards stop at their first finding, the only frame-level
    mode the lockstep prover admits; UDS shards hunt their whole
    budget, as ``fuzz-uds --keep-going`` does.
    """
    return (("unlock", UnlockBenchFactory(),
             CampaignLimits(max_frames=SHARDS * UNLOCK_SHARD_FRAMES)),
            ("uds", UdsBenchFactory(stop_on_finding=False),
             CampaignLimits(max_frames=SHARDS * UDS_SHARD_REQUESTS,
                            stop_on_finding=False)))


def shard_specs(master: int, limits: CampaignLimits,
                count: int = SHARDS) -> list:
    """The specs ``ShardedCampaign`` derives, for in-process twins."""
    return [ShardSpec(index=i, shard_count=SHARDS, master_seed=master,
                      seed=derive_shard_seed(master, i), limits=sliced)
            for i, sliced in enumerate(slice_limits(limits, SHARDS)[:count])]


class ShardedBatch(Workload):
    """``ShardedCampaign(jobs=2)`` handing 64-shard chunks of unlock and
    UDS shards to the lockstep engine.  A round is one sharded run of
    each track."""

    name = "sharded-batch"
    time_kernel = True

    def __init__(self, root: Path, work: Path) -> None:
        super().__init__(root, work)
        #: (round, kind) -> (master seed, factory, limits, ShardedResult).
        self._last = {}

    def prepare(self, seed: int) -> None:
        for _, factory, limits in shard_tracks():
            small = replace(limits, max_frames=SHARDS * 50)
            batch_engine.run_shard_batch(
                factory, shard_specs(seed + 7_000_000, small, count=2))

    def run_round(self, seed: int, index: int, out: Outcome) -> None:
        master = seed * 1000 + index
        for kind, factory, limits in shard_tracks():
            campaign = ShardedCampaign(
                factory, shards=SHARDS, limits=limits, master_seed=master,
                jobs=2, batch_size=BATCH_SIZE)
            started = clock()
            result = campaign.run()
            elapsed = clock() - started
            work = sum(o.result.frames_sent for o in result.outcomes)
            out.ops += work
            out.attempted += SHARDS
            out.failed += len(result.failures)
            out.fingerprints[f"round-{index}.{kind}"] = result.fingerprint()
            details = out.details
            details[f"{kind}_s"] = details.get(f"{kind}_s", 0.0) + elapsed
            details[f"{kind}_work"] = details.get(f"{kind}_work", 0) + work
            unit = "frames" if kind == "unlock" else "requests"
            details[f"{unit}_per_s"] = (details[f"{kind}_work"]
                                        / details[f"{kind}_s"])
            layers = out.layers
            layers["parallel.workers"] = result.jobs
            layers["parallel.retries"] = (layers.get("parallel.retries", 0)
                                          + result.total_retries)
            self._last[(index, kind)] = (master, factory, limits, result)

    def traced(self, seed: int, out: Outcome, tracer, install):
        """One worker's chunk of each track, run in this process: once
        untraced (the worker-pool overhead is the sharded wall time
        minus it), then traced."""
        index = out.rounds[0]
        tracks = [(kind, factory, shard_specs(self._last[(index, kind)][0],
                                              limits, count=BATCH_SIZE))
                  for kind, factory, limits in shard_tracks()]
        untraced = 0.0
        for _, factory, specs in tracks:
            started = clock()
            batch_engine.run_shard_batch(factory, specs)
            untraced += clock() - started
        install()
        self.tracer = tracer
        traced = Outcome(rounds=[index])
        worlds = fallbacks = 0
        for kind, factory, specs in tracks:
            tracer.ident = f"round-{index}.{kind}.chunk-0"
            started = clock()
            pairs = batch_engine.run_shard_batch(factory, specs)
            traced.seconds += clock() - started
            sharded = {o.index: o.result.to_dict()
                       for o in self._last[(index, kind)][3].outcomes}
            for spec, (result, warnings) in zip(specs, pairs):
                worlds += 1
                fallbacks += any(w.startswith(FALLBACK_WARNING_PREFIX)
                                 for w in warnings)
                if result.to_dict() != sharded.get(spec.index):
                    traced.errors.append(f"traced {kind} shard {spec.index} "
                                         f"differs from the sharded run")
        sharded_s = sum(out.durations[:1])
        traced.layers = {
            "batch.worlds": worlds, "batch.fallback_worlds": fallbacks,
            "batch.admit_ratio": 1 - fallbacks / worlds,
            "parallel.workers": out.layers["parallel.workers"],
            "parallel.retries": out.layers["parallel.retries"],
            "parallel.overhead_s": sharded_s - untraced,
        }
        return traced, untraced

    def check_contracts(self, seed: int, out: Outcome) -> None:
        # One sampled world of each kind, run on the scalar kernel in
        # this process, must equal its batched twin bit for bit.
        for (index, kind), (master, factory, limits,
                            result) in self._last.items():
            pick = random.Random(f"{seed}:{index}:{kind}").randrange(SHARDS)
            spec = shard_specs(master, limits, count=pick + 1)[pick]
            scalar = factory(spec).run().to_dict()
            batched = {o.index: o for o in result.outcomes}.get(pick)
            if batched is None or batched.result.to_dict() != scalar:
                out.errors.append(f"round {index}: {kind} shard {pick} "
                                  f"differs from its scalar twin")


# ----------------------------------------------------------------------
# service: fuzz-serve driven over HTTP by one open-loop client
# ----------------------------------------------------------------------
SERVICE_WORKERS = 2
TENANTS = 3
UDS_JOB_REQUESTS = 200
UNLOCK_JOB_FRAMES = 4000
#: Open-loop submit rate (jobs/s) and job count; the rate sits well
#: below the backlog drain rate (see README.md) and the count leaves
#: ten samples beyond the 90th percentile.
OPEN_LOOP_RATE = 6.0
OPEN_LOOP_JOBS = 100
BACKLOG_JOBS = 60
POLL_SECONDS = 0.02
#: A phase whose jobs have not all completed by then is cut off; its
#: missing jobs count as failed.
PHASE_TIMEOUT = 90.0
#: Outstanding jobs polled per round (jobs finish roughly in order).
POLL_WINDOW = 4
#: Tenant limits high enough that the schedule itself is never shed.
TENANT_LIMITS = {"rate": 10_000.0, "burst": 10_000.0, "max_active": 10_000}


def job_spec(seed: int, index: int) -> dict:
    """The ``index``-th job of a schedule: alternating kinds, seeded."""
    rng = random.Random(seed * 1_000_003 + index)
    kind = ("uds", "unlock")[index % 2]
    return {"job_id": f"job-{index:04d}", "tenant": f"tenant-{index % TENANTS}",
            "kind": kind, "seed": rng.randrange(1 << 30),
            "max_frames": UDS_JOB_REQUESTS if kind == "uds"
            else UNLOCK_JOB_FRAMES,
            "stop_on_finding": False}


def direct_fingerprint(fields: dict, journal_dir: Path | None = None) -> str:
    """A job run in this process, as a worker runs it."""
    spec = JobSpec(**fields)
    campaign = build_factory(spec)(shard_spec_for(spec))
    if journal_dir is not None:
        campaign.attach_journal(CampaignJournal(str(journal_dir)),
                                checkpoint_every=200)
    return result_fingerprint(campaign.run().to_dict())


async def http(address, method: str, path: str, body: dict | None = None):
    """One HTTP/1.1 exchange; returns (status, payload, round-trip s)."""
    started = clock()
    reader, writer = await asyncio.open_connection(*address)
    data = json.dumps(body).encode("utf-8") if body is not None else b""
    writer.write(f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
                 f"Content-Length: {len(data)}\r\nConnection: close\r\n\r\n"
                 .encode("latin-1") + data)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    head, _, payload = raw.partition(b"\r\n\r\n")
    return int(head.split(b" ", 2)[1]), json.loads(payload), clock() - started


class LoadClient:
    """One client process: open-loop submits plus a single poller."""

    def __init__(self, address, tracer=None) -> None:
        self.address = address
        self.tracer = tracer
        self.rtts: list[float] = []
        self.requests = 0
        self.non_2xx = 0
        self.late: list[float] = []
        self.jobs: dict[str, dict] = {}
        self.outstanding: list[str] = []

    async def call(self, method: str, path: str, body: dict | None = None):
        status, payload, rtt = await http(self.address, method, path, body)
        if self.tracer is not None:
            end = clock()
            self.tracer.spans.append({"name": "service.http",
                                      "start": end - rtt, "end": end,
                                      "parent": None,
                                      "id": f"{method} {path}"})
        self.requests += 1
        self.rtts.append(rtt)
        if not 200 <= status < 300:
            self.non_2xx += 1
        return status, payload

    async def submit(self, fields: dict, due: float) -> None:
        await asyncio.sleep(max(0.0, due - clock()))
        sent = clock()
        self.late.append(sent - due)
        job = {"due": due, "sent": sent}
        self.jobs[fields["job_id"]] = job
        status, _ = await self.call("POST", "/jobs", fields)
        if status == 201:
            self.outstanding.append(fields["job_id"])
        else:
            job["state"] = "refused"

    async def poll_until_done(self, total: int) -> None:
        deadline = clock() + PHASE_TIMEOUT
        while sum("done" in j or j.get("state") == "refused"
                  for j in self.jobs.values()) < total \
                and clock() < deadline:
            for job_id in list(self.outstanding[:POLL_WINDOW]):
                job = self.jobs[job_id]
                status, payload = await self.call("GET", f"/jobs/{job_id}")
                if status != 200:
                    continue
                state = payload["state"]
                if state != "pending":
                    job.setdefault("leased", clock())
                if state in ("completed", "quarantined"):
                    job["state"] = state
                    job["fingerprint"] = payload.get("fingerprint")
                    await self.call("GET", f"/jobs/{job_id}/findings")
                    job["done"] = clock()
                    self.outstanding.remove(job_id)
            await asyncio.sleep(POLL_SECONDS)

    async def schedule(self, jobs: list[dict], dues: list[float]) -> None:
        submits = [asyncio.create_task(self.submit(fields, due))
                   for fields, due in zip(jobs, dues)]
        known = len(self.jobs)
        await self.poll_until_done(known + len(jobs))
        for task in submits:
            await task


async def warm_up(client: LoadClient, seed: int) -> None:
    """One job of each kind, run to completion before timing starts."""
    warm = [dict(job_spec(seed + 7_000_000, i), job_id=f"warm-{i}")
            for i in range(2)]
    await client.schedule(warm, [clock()] * 2)


async def drive(address, seed: int, tracer=None) -> LoadClient:
    """Warm-up, the open loop, then the backlog, against one server."""
    client = LoadClient(address, tracer)
    await warm_up(client, seed)
    client.jobs.clear()
    client.rtts.clear()
    client.late.clear()
    client.requests = client.non_2xx = 0
    start = clock() + 0.05
    open_jobs = [job_spec(seed, i) for i in range(OPEN_LOOP_JOBS)]
    await client.schedule(open_jobs, [start + i / OPEN_LOOP_RATE
                                      for i in range(OPEN_LOOP_JOBS)])
    backlog = [job_spec(seed, OPEN_LOOP_JOBS + i)
               for i in range(BACKLOG_JOBS)]
    client.backlog_start = clock()
    await client.schedule(backlog, [client.backlog_start] * BACKLOG_JOBS)
    client.backlog_end = max(client.jobs[f["job_id"]].get("done", 0.0)
                             for f in backlog)
    status, client.status = await client.call("GET", "/status")
    return client


def serve_command(data_dir: Path) -> list[str]:
    return [sys.executable, "-m", "repro.cli", "fuzz-serve", "--port", "0",
            "--data-dir", str(data_dir), "--workers", str(SERVICE_WORKERS),
            "--rate", str(TENANT_LIMITS["rate"]),
            "--burst", str(TENANT_LIMITS["burst"]),
            "--max-active-per-tenant", str(TENANT_LIMITS["max_active"])]


def start_server(root: Path, data_dir: Path, env: dict):
    """Start ``repro fuzz-serve``; returns (process, (host, port))."""
    process = subprocess.Popen(serve_command(data_dir), env=env,
                               cwd=root, stdout=subprocess.PIPE,
                               stderr=subprocess.DEVNULL, text=True)
    line = process.stdout.readline()
    if "listening on http://" not in line:
        stop_server(process)
        raise RuntimeError(f"fuzz-serve did not start: {line!r}")
    host, port = line.rsplit("http://", 1)[1].strip().rsplit(":", 1)
    return process, (host, int(port))


def stop_server(process) -> None:
    if process.poll() is None:
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout=20)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
    process.stdout.close()


class Service(Workload):
    """``fuzz-serve --workers 2`` over HTTP: an open loop of small jobs
    below capacity, then a drained backlog (one fixed schedule)."""

    name = "service"

    def __init__(self, root: Path, work: Path) -> None:
        super().__init__(root, work)
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.server = None

    def prepare(self, seed: int) -> None:
        self.server, address = start_server(self.root,
                                            self.work / "service-warm",
                                            self.env)
        asyncio.run(warm_up(LoadClient(address), seed))

    def finish(self) -> None:
        if self.server is not None:
            stop_server(self.server)
            self.server = None

    def run(self, seed: int, seconds: float,
            rounds: list | None = None) -> Outcome:
        data_dir = self.work / "service-data"
        process, address = start_server(self.root, data_dir, self.env)
        try:
            client = asyncio.run(drive(address, seed))
        finally:
            stop_server(process)
            shutil.rmtree(data_dir, ignore_errors=True)
        return self.outcome(client)

    def outcome(self, client: LoadClient) -> Outcome:
        out = Outcome(rounds=[0])
        jobs = client.jobs
        open_ids = [f"job-{i:04d}" for i in range(OPEN_LOOP_JOBS)]
        done = [j for j in jobs.values() if j.get("state") == "completed"]
        latencies = [jobs[j]["done"] - jobs[j]["due"] for j in open_ids
                     if jobs[j].get("state") == "completed"]
        out.ops = BACKLOG_JOBS
        out.seconds = client.backlog_end - client.backlog_start
        queue = client.status.get("queue", {})
        out.attempted = client.requests + len(jobs)
        out.failed = (client.non_2xx + len(jobs) - len(done)
                      + queue.get("divergent_completions", 0))
        for job_id, job in sorted(jobs.items()):
            out.fingerprints[job_id] = job.get("fingerprint")
        out.details = {
            "job_p50_s": percentile(latencies, 0.5),
            "job_p90_s": percentile(latencies, 0.9),
            "jobs_per_s": BACKLOG_JOBS / out.seconds,
            "open_loop_jobs": len(latencies),
            "open_loop_rate": OPEN_LOOP_RATE,
            "late_max_s": max(client.late),
            "http_requests": client.requests,
            "http_non_2xx": client.non_2xx,
        }
        waits = [j["leased"] - j["sent"] for j in jobs.values()
                 if "leased" in j]
        leases = client.status.get("leases", {})
        api = client.status.get("api", {})
        completed = queue.get("states", {}).get("completed", 0)
        out.layers = {
            "service.http.requests": api.get("requests", 0),
            "service.http.rejected": api.get("rejected", 0),
            "service.http.rtt_p50_s": percentile(client.rtts, 0.5),
            "service.http.rtt_p90_s": percentile(client.rtts, 0.9),
            "service.queue.wait_p50_s": percentile(waits, 0.5),
            "service.lease.grants": leases.get("granted", 0),
            "service.lease.renewals": leases.get("renewed", 0),
            "service.lease.expiries": leases.get("expired", 0),
            "service.lease.useful_ratio": (completed / leases["granted"]
                                           if leases.get("granted") else 0.0),
            "service.retries": queue.get("total_retries", 0),
            "bench.late_max_s": max(client.late),
        }
        return out

    def traced(self, seed: int, out: Outcome, tracer, install):
        """The same schedule against a queue, orchestrator and API hosted
        in this process, after one job of each kind run in-process with
        its journal (the worker side)."""
        install()
        self.tracer = tracer
        errors = []
        for index in (0, 1):
            fields = job_spec(seed, index)
            tracer.ident = fields["job_id"]
            value = direct_fingerprint(
                fields, self.work / f"direct-{fields['job_id']}")
            if value != out.fingerprints.get(fields["job_id"]):
                errors.append(f"traced direct run of {fields['job_id']} "
                              f"differs from the service's result")
        tracer.ident = None
        client = asyncio.run(self._hosted(seed, tracer))
        traced = self.outcome(client)
        traced.errors.extend(errors)
        return traced, out.seconds

    async def _hosted(self, seed: int, tracer) -> LoadClient:
        queue = JobQueue(str(self.work / "service-hosted"))
        orchestrator = Orchestrator(
            queue, workers=SERVICE_WORKERS,
            backoff=RetryPolicy(attempts=1, backoff=0.25, jitter=0.5,
                                seed=0))
        api = ServiceApi(queue, orchestrator, rate=TENANT_LIMITS["rate"],
                         burst=TENANT_LIMITS["burst"],
                         max_active_per_tenant=TENANT_LIMITS["max_active"])
        address = await api.start("127.0.0.1", 0)
        stop = asyncio.Event()
        loop_task = asyncio.create_task(orchestrator.run(stop))
        try:
            return await drive(address, seed, tracer)
        finally:
            stop.set()
            await loop_task
            await api.close()

    def check_contracts(self, seed: int, out: Outcome) -> None:
        # Sampled jobs of each kind must equal their direct runs.
        for index in (0, 1):
            fields = job_spec(seed, index)
            expected = direct_fingerprint(fields)
            if out.fingerprints.get(fields["job_id"]) != expected:
                out.errors.append(f"{fields['job_id']} ({fields['kind']}) "
                                  f"differs from its direct run")


WORKLOADS = {cls.name: cls for cls in (Table5, Triage, ShardedBatch, Service)}
