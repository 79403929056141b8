"""The fast path: each campaign world on the cheapest kernel proven exact.

``FuzzCampaign.run``, ``UdsFuzzCampaign.run`` and
:func:`~repro.fuzz.campaign.resume_campaign` all end in
:func:`run_world`.  A campaign that pins its bench on
``campaign.bench`` (the bench factories and the Table V trials do) is
judged by a prover -- :func:`plan_frame_world` or
:func:`plan_uds_world` -- and an admitted world runs on its one-world
kernel:

- **frames.**  For the unlock bench almost every event is
  *predictable* -- the fuzzer transmits on a fixed interval grid, the
  bench answers only to command frames, and the BCM's status broadcast
  rides the same grid -- so :class:`_FrameEngine` *block-steps* the
  world instead of dispatching its events.  A block of upcoming frames
  is parsed at once, vectorised over time, straight from the
  generator's MT19937 word stream
  (:meth:`~repro.sim.batch.BatchRandom.peek`), consuming words exactly
  as CPython's generator calls would.  The block ends at the next
  rare-event candidate -- a frame that matches the BCM's command check
  or a watched id -- the next checkpoint frame or the step limit,
  where an exact scalar handler whose timing arithmetic mirrors the
  discrete-event kernel tick for tick runs the episode, writes the
  checkpoint, reports a finding or ends the world (a world that keeps
  going after a finding latches the oracle that reported and runs
  on).  The world then resumes at the next frame's first word
  (:meth:`~repro.sim.batch.BatchRandom.commit`).
- **UDS requests.**  The campaign's own loop
  (``UdsFuzzCampaign._execute``) runs on the real bench objects --
  the generator with its own RNG, the server's service handlers, the
  probe / recovery / checkpoint logic -- while
  :func:`install_uds_exchange` stands in for the wire: it puts a
  closed-form ISO-TP exchange on ``client.request`` and
  ``server._respond``, which replaces the poll loop and segmentation
  events between sending a request and taking its response.  The UDS
  replay track (:mod:`repro.uds.replay`) installs the same exchange
  on every replayed world its bench check (:func:`check_uds_bench`)
  admits.

The contract is **bit-identical results**: an admitted world returns
the same :meth:`~repro.fuzz.session.FuzzResult.to_dict` payload, and
writes the same journal records and checkpoints, as the reference
kernel ``campaign._execute`` from the same seed.  A world the prover
cannot admit runs on ``_execute`` with the violated rule on
:attr:`~repro.fuzz.session.FuzzResult.fallback_reasons`, so the fast
path never changes a result -- only wall-clock.  A campaign with no
pinned bench goes straight to ``_execute`` and records no reason.  The
rules are documented on the two provers and in DESIGN.md §15-§16.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

import numpy as np

from repro.can.bitstuff import (FRAME_TAIL_BITS, INTERFRAME_BITS,
                                _crc_and_stuff_from, _header_crc_state)
from repro.can.frame import trusted_frame
from repro.ecu.base import EcuState
from repro.fuzz.campaign import FuzzCampaign, resume_campaign
from repro.fuzz.durability import CampaignJournal, DirectoryStore
from repro.fuzz.generator import (RandomFrameGenerator,
                                  TargetedFrameGenerator)
from repro.fuzz.oracle import AckMessageOracle, Finding, PhysicalStateOracle
from repro.fuzz.session import (FALLBACK_WARNING_PREFIX, FuzzResult,
                                finding_to_dict, frame_from_dict,
                                frame_to_dict)
from repro.fuzz.uds_campaign import UdsFuzzCampaign
from repro.sim.batch import BatchRandom, state_from_random
from repro.sim.clock import MS, SECOND
from repro.sim.random import rng_state_from_json, rng_state_to_json
from repro.uds.client import UdsResponse
from repro.uds.stategen import UdsStateGenerator

#: Next checkpoint frame of a world without a journal.
_NEVER = 1 << 62

#: BCM check modes the command test models (``BenchBcm._matches``).
_CHECK_MODES = ("byte", "byte+dlc", "two-byte")

#: Most frames one block parses.  A block's arrays cost a few dozen
#: bytes per frame, so this constant -- not the world's length --
#: bounds the frame engine's working memory.
BLOCK_FRAMES = 1024


class ScalarFallback(Exception):
    """A world cannot be proven eligible for its fast kernel.

    Raised by the provers and caught by :func:`run_world`; the message
    names the first violated rule and is surfaced through
    :attr:`~repro.fuzz.session.FuzzResult.fallback_reasons`.
    """


def _ack_description(frame) -> str:
    """The exact AckMessageOracle finding text for ``frame``."""
    return (f"response frame {frame.id_hex()} observed "
            f"({frame.data_hex() or 'no data'})")


def _next_grid(base: int, period: int, after: int) -> int:
    """Smallest ``base + j*period`` (j >= 0) strictly greater than
    ``after``."""
    if after < base:
        return base
    return base + ((after - base) // period + 1) * period


class _WorldPlan:
    """Everything the engine precomputes about one eligible world.

    A plain attribute bag (filled by :func:`plan_frame_world`); the
    mutable run state (lock flag, ack counter, pending candidate) lives
    on the :class:`_FrameEngine`.
    """

    __slots__ = (
        "campaign", "bench", "journal", "checkpoint_every",
        "name", "seed_label", "config", "extended", "timing",
        "started_at", "first_tx", "interval", "deadline",
        "base_frames", "base_skipped", "base_generated",
        "natural_steps", "natural_end", "natural_reason",
        "mode", "pool_ids", "pool_dlcs", "full_byte_range",
        "byte_min", "byte_span", "max_dlc",
        "rng_state", "jitter_json", "recent_maxlen", "recent_rows",
        "ack_oracles", "watch_ids", "led_oracles", "poll_base",
        "adapter_name", "bcm", "locked0", "counter0",
        "status_base", "status_period", "status_id", "is_resume",
        "status_frames", "status_durs", "hot_by_state",
        "unlock_ack_id", "body_command_id",
        "write_errors0", "stop_on_finding",
    )


def plan_frame_world(campaign: FuzzCampaign, bench,
                     resume_state: dict | None) -> _WorldPlan:
    """Prove one campaign eligible for the frame engine, or raise.

    Eligibility is a *proof obligation*, not a heuristic: every rule
    below guards an assumption the analytic timeline model makes.  Any
    violation raises :class:`ScalarFallback` and the world runs on the
    reference kernel (``campaign._execute``) instead, so the worst case
    is the old speed, never a wrong result.  The rules, by layer:

    campaign -- plain :class:`FuzzCampaign`, zero interval jitter, no
    tx gate / bus-off handler / reset hook / adversarial channel, and a
    bounded recent window (``recent_window=None`` keeps every frame).
    A resumed checkpoint carries no findings and no latched oracle.

    generator -- exactly :class:`RandomFrameGenerator` (or its
    targeted subclass), classic frames only, and an RNG whose state is
    a plain version-3 MT19937 word stream.

    target -- an :class:`~repro.testbench.bench.UnlockTestbench` with
    no authenticator, an initialised adapter on its bus, no fault
    injector or channel, all controllers idle, and an event queue that
    is *quiescent*: the only pending event is the BCM's own status
    broadcast.

    oracles -- each one either an :class:`AckMessageOracle` (unlatched)
    or a :class:`PhysicalStateOracle` whose probe is behaviourally
    verified to be the BCM lock state (toggling ``bcm.locked`` flips
    it) with an aligned sampling period.  A campaign that keeps going
    after a finding (``stop_on_finding=False``) needs every oracle to
    latch at its first match (``once=True``), so each reports at most
    once.

    alignment -- the status period and every oracle poll period divide
    the transmit interval grid, and the worst-case episode chain
    (status + command + acknowledgement on the wire) fits strictly
    inside one interval, so rare events never collide across ticks.
    """
    from repro.testbench.bcm import (STATUS_ID, STATUS_LABEL, STATUS_PERIOD,
                                     UNLOCK_ACK_ID, BenchBcm)
    from repro.testbench.bench import UnlockTestbench
    from repro.vehicle.database import BODY_COMMAND_ID

    def fail(reason: str):
        raise ScalarFallback(reason)

    c = campaign
    if type(c) is not FuzzCampaign:
        fail(f"campaign type {type(c).__name__} is not FuzzCampaign")
    if c.interval_jitter != 0:
        fail("interval jitter requires the scalar kernel")
    if c._tx_gate is not None or c._busoff_handler is not None:
        fail("campaign has supervisor hooks installed")
    if c._reset_target is not None:
        fail("campaign has a reset-target hook")
    if c.channel is not None:
        fail("adversarial channel attached")
    if c._running:
        fail("campaign already running")
    if c._recent.maxlen is None:
        fail("unbounded recent window runs scalar")
    if resume_state is None and (c.frames_sent or c.frames_skipped
                                 or c._findings or c._recent
                                 or c._write_errors):
        fail("campaign object is not pristine")

    generator = c.generator
    if type(generator) not in (RandomFrameGenerator, TargetedFrameGenerator):
        fail(f"generator type {type(generator).__name__} not vectorised")
    if generator._fd:
        fail("FD frame generation runs scalar")

    if not isinstance(bench, UnlockTestbench):
        fail(f"bench type {type(bench).__name__} is not UnlockTestbench")
    if bench.sim is not c.sim:
        fail("campaign and bench disagree about the simulator")
    if bench.authenticated or bench.bcm.authenticator is not None:
        fail("authenticated bench runs scalar")
    bcm = bench.bcm
    if not isinstance(bcm, BenchBcm):
        fail("bench BCM is not the standard BenchBcm")
    if bcm.check_mode not in _CHECK_MODES:
        fail(f"unknown check mode {bcm.check_mode!r}")

    adapter = c.adapter
    if not adapter.initialised:
        fail("adapter not initialised")
    if adapter._bus is not bench.bus:
        fail("adapter is wired to a different bus")
    bus = bench.bus
    if bus._busy or bus._channel is not None or bus.fault_injector is not None:
        fail("bus is busy or instrumented")
    for node in bus.nodes:
        if node._tx_queue:
            fail(f"controller {node.name!r} has queued transmissions")
        if node.counters.bus_off_latched:
            fail(f"controller {node.name!r} is bus-off")

    entries = c.sim.pending_entries()
    if len(entries) != 1 or entries[0][2] != STATUS_LABEL:
        fail(f"event queue not quiescent: {entries!r}")
    status_base = entries[0][0]

    plan = _WorldPlan()
    plan.campaign = c
    plan.bench = bench
    plan.journal = c.journal
    plan.checkpoint_every = c.checkpoint_every
    plan.name = c.name
    plan.config = generator.config
    plan.seed_label = generator.config.seed_label
    plan.extended = generator._extended
    plan.timing = bus.timing
    plan.interval = c.interval
    plan.mode = bcm.check_mode
    plan.adapter_name = adapter.controller.name
    plan.bcm = bcm
    plan.unlock_ack_id = UNLOCK_ACK_ID
    plan.body_command_id = BODY_COMMAND_ID
    plan.status_base = status_base
    plan.status_id = None  # filled below with the status frames

    now = c.sim.now
    plan.is_resume = resume_state is not None
    if resume_state is None:
        plan.started_at = now
        plan.first_tx = now
        plan.base_frames = 0
        plan.base_skipped = 0
        plan.base_generated = generator.generated
        plan.write_errors0 = {}
        plan.recent_rows = []
        try:
            rng_state = state_from_random(generator._rng)
        except ValueError as exc:
            fail(f"generator RNG not transplantable: {exc}")
        plan.rng_state = rng_state
    else:
        if resume_state.get("kind", "frame") != "frame":
            fail("resume state from a non-frame campaign")
        if resume_state.get("channel") is not None:
            fail("resume state carries channel state")
        if resume_state.get("findings"):
            fail("resume state carries findings")
        gen_state = resume_state.get("generator")
        if not gen_state or gen_state.get("kind") != "random":
            fail("resume state has no random-generator position")
        for oracle_state in resume_state.get("oracles", {}).values():
            if (oracle_state.get("findings_reported", 0)
                    or oracle_state.get("first_match_time") is not None
                    or oracle_state.get("first_deviation_time") is not None):
                fail("resume state carries a latched oracle")
        plan.started_at = resume_state["started_at"]
        plan.first_tx = resume_state["next_tx_time"]
        if plan.first_tx < now:
            fail("resumed next-tx time is in the rebuilt bench's past")
        plan.base_frames = resume_state["frames_sent"]
        plan.base_skipped = resume_state.get("frames_skipped", 0)
        plan.base_generated = gen_state.get("generated", 0)
        plan.write_errors0 = dict(resume_state.get("write_errors", {}))
        rows = []
        for time, payload in resume_state.get("recent", []):
            frame = frame_from_dict(payload)
            if (frame.extended != plan.extended or frame.fd or frame.remote
                    or frame.brs):
                fail("resumed recent window holds foreign frame flags")
            rows.append((time, frame.can_id, frame.data))
        plan.recent_rows = rows
        try:
            plan.rng_state = state_from_random(
                _RestoredRng(rng_state_from_json(gen_state["rng"])))
        except (ValueError, KeyError, TypeError) as exc:
            fail(f"resumed RNG state not transplantable: {exc}")

    deadline_candidates = []
    if c.limits.max_duration is not None:
        deadline_candidates.append(plan.started_at + c.limits.max_duration)
    if c.limits.max_frames is not None:
        deadline_candidates.append(
            plan.started_at + c.limits.max_frames * c.interval + 100 * MS)
    plan.deadline = min(deadline_candidates)
    if plan.deadline < now:
        fail("deadline is already in the past")

    interval = c.interval
    max_frames = c.limits.max_frames
    if max_frames is not None:
        t_lim = plan.first_tx + max(0, max_frames - plan.base_frames) * interval
    if max_frames is not None and t_lim <= plan.deadline:
        plan.natural_steps = max(0, max_frames - plan.base_frames)
        plan.natural_end = t_lim
        plan.natural_reason = "frame limit reached"
    else:
        if plan.deadline >= plan.first_tx:
            plan.natural_steps = (plan.deadline - plan.first_tx) // interval + 1
        else:
            plan.natural_steps = 0
        plan.natural_end = plan.deadline
        plan.natural_reason = "time limit reached"

    plan.pool_ids = np.fromiter(generator._ids, dtype=np.int64,
                                count=generator._id_count)
    plan.pool_dlcs = np.fromiter(generator._dlcs, dtype=np.int64,
                                 count=generator._dlc_count)
    plan.full_byte_range = generator._full_byte_range
    plan.byte_min = generator.config.byte_min
    plan.byte_span = (generator.config.byte_max
                      - generator.config.byte_min + 1)
    plan.max_dlc = int(plan.pool_dlcs.max()) if plan.pool_dlcs.size else 0
    plan.recent_maxlen = c._recent.maxlen
    plan.stop_on_finding = c.limits.stop_on_finding
    plan.jitter_json = (rng_state_to_json(c._rng.getstate())
                        if c._rng is not None else None)

    # -- oracles -------------------------------------------------------
    ack_oracles: list[tuple[AckMessageOracle, bool]] = []
    led_oracles: list[tuple[PhysicalStateOracle, object]] = []
    for oracle in c.oracles:
        if (type(oracle) in (AckMessageOracle, PhysicalStateOracle)
                and not oracle.once and not c.limits.stop_on_finding):
            fail(f"oracle {oracle.name!r} reports every match (once=False) "
                 f"runs scalar")
        if type(oracle) is AckMessageOracle:
            if oracle.first_match_time is not None:
                fail(f"oracle {oracle.name!r} is already latched")
            sees_fuzzer = not (oracle.exclude_sender
                               and oracle.exclude_sender == plan.adapter_name)
            if (oracle.exclude_sender
                    and oracle.exclude_sender != plan.adapter_name):
                # Excluding some *other* sender (the bench BCM?) would
                # change which deliveries count; the model only knows
                # how to exclude the fuzzer itself.
                fail(f"oracle {oracle.name!r} excludes a non-adapter "
                     f"sender")
            ack_oracles.append((oracle, sees_fuzzer))
        elif type(oracle) is PhysicalStateOracle:
            if oracle.first_deviation_time is not None:
                fail(f"oracle {oracle.name!r} is already latched")
            if oracle.period <= 0 or oracle.period % interval != 0:
                fail(f"oracle {oracle.name!r} period off the tick grid")
            before = oracle.probe()
            if before != oracle.expected:
                fail(f"oracle {oracle.name!r} deviates at start")
            bcm.locked = not bcm.locked
            toggled = oracle.probe()
            bcm.locked = not bcm.locked
            if toggled == before or oracle.probe() != before:
                fail(f"oracle {oracle.name!r} probe is not the BCM "
                     f"lock state")
            led_oracles.append((oracle, toggled))
        else:
            fail(f"oracle type {type(oracle).__name__} not modelled")
    plan.ack_oracles = ack_oracles
    plan.watch_ids = sorted({o.can_id for o, sees in ack_oracles if sees})
    plan.led_oracles = led_oracles
    plan.poll_base = now  # oracles start when the scalar run would
    if led_oracles and (plan.first_tx - now) % interval != 0:
        fail("oracle poll grid misaligned with the transmit grid")

    # -- bench timing model --------------------------------------------
    plan.status_id = STATUS_ID
    plan.status_period = STATUS_PERIOD
    if STATUS_PERIOD % interval != 0:
        fail("status period off the transmit grid")
    if (status_base - plan.first_tx) % interval != 0:
        fail("status broadcast misaligned with the transmit grid")

    plan.locked0 = bcm.locked
    plan.counter0 = bcm._ack_counter
    status_frames = {}
    status_durs = {}
    hot_by_state = {}
    for locked in (True, False):
        bcm.locked = locked
        payload = bcm.status_payload()
        bcm.locked = plan.locked0
        frame = trusted_frame(STATUS_ID, payload, False, False)
        status_frames[locked] = frame
        status_durs[locked] = plan.timing.frame_duration(frame)
        hot = []
        for oracle, _sees in ack_oracles:
            if oracle.can_id != STATUS_ID:
                continue
            if oracle.predicate is None or oracle.predicate(frame):
                hot.append(oracle)
        hot_by_state[locked] = hot
    plan.status_frames = status_frames
    plan.status_durs = status_durs
    plan.hot_by_state = hot_by_state

    worst_status = max(status_durs.values())
    worst_cmd = plan.timing.worst_case_duration(
        dlc=plan.max_dlc, extended=plan.extended)
    worst_ack = plan.timing.worst_case_duration(dlc=2, extended=False)
    if worst_status + worst_cmd + worst_ack >= interval:
        fail("episode chain does not fit inside one transmit interval")
    return plan


class _RestoredRng:
    """Minimal getstate() shim so resumed JSON states reuse the
    validation in :func:`~repro.sim.batch.state_from_random`."""

    def __init__(self, state: tuple) -> None:
        self._state = state

    def getstate(self) -> tuple:
        return self._state


#: Longest request the analytic ISO-TP model will segment itself.  The
#: stock generator tops out at 259 bytes (a 256-byte attack write plus
#: the service/DID header), so the cap only ever trips on bespoke
#: generators or tests; a longer request drops its world back onto the
#: real kernel mid-run, bit-identically.
SAFE_UDS_REQUEST = 1024

#: The flow-control payload both default endpoints emit: continue to
#: send, block size 0 (no further FCs), STmin 1 ms.
_UDS_FLOW_CONTROL = b"\x30\x00\x01"

#: Post-CRC framing plus interframe space -- the unstuffed bits every
#: classic frame pays beyond header/data/CRC.
_FRAME_OVERHEAD_BITS = FRAME_TAIL_BITS + INTERFRAME_BITS


#: Header CRC/stuffing states per (can_id, dlc): the engine's frames
#: use a handful of fixed headers, so the 19 header bits are walked
#: once each and every call resumes at the payload.
_HEADER_STATES: dict[tuple[int, int], tuple[int, int, int]] = {}


def _wire_ticks(can_id: int, data: bytes, bitrate: int) -> int:
    """On-wire ticks of a classic standard-id data frame, with IFS.

    Equals ``timing.frame_duration(trusted_frame(can_id, data))`` for
    the frames the UDS engine synthesises (standard addressing is an
    admission rule), minus the frame-object construction: the header
    bits are assembled inline, their CRC/stuffing state memoised per
    ``(can_id, dlc)``, and the table-driven stuffing walk resumes at
    the payload bytes.  Used only behind the engine's duration memo,
    so it runs about once per unique payload, not once per exchange.
    """
    dlc = len(data)
    head = _HEADER_STATES.get((can_id, dlc))
    if head is None:
        head = _HEADER_STATES[(can_id, dlc)] = _header_crc_state(
            (can_id << 7) | dlc, 19)
    _, stuffed = _crc_and_stuff_from(head[0], head[1], head[2], data)
    bits = 19 + dlc * 8 + 15 + stuffed + _FRAME_OVERHEAD_BITS
    return -(-bits * SECOND // bitrate)  # ceiling division


def check_uds_bench(bench, dids: dict[int, bytes] | None = None) -> None:
    """Prove one diagnostic bench fits the analytic exchange, or raise.

    The bench half of the UDS admission proof, run by both callers of
    :func:`install_uds_exchange`: :func:`plan_uds_world` for a
    campaign and the UDS replay track (:mod:`repro.uds.replay`) for
    every pristine replay world.  Any violation raises
    :class:`ScalarFallback`.  The rules, by layer:

    target -- a plain :class:`~repro.ecu.base.Ecu` that is running,
    carries no fault models, watchdog, cyclic tasks, receive guard or
    limp-home filter, and dispatches frames to nothing but the UDS
    endpoint.

    transport -- both ISO-TP endpoints idle with default flow-control
    parameters (block size 0, STmin 1 ms), a distinct request/response
    id pair, and a client timeout that undercuts ISO-TP supervision
    (so a transfer stuck by a dead target is always aborted by the
    next request before its N_Bs timer fires).

    bus -- uninstrumented, idle, exactly the two diagnostic nodes.

    DID store -- the client timeout covers the worst-case segmented
    exchange the engine will ever model (a request at the
    segmentation cap answered by the longest response the server can
    build), so the response can never race the deadline.  ``dids``
    stands in for the server's store when a checkpoint is about to
    replace it.
    """
    from repro.ecu.base import Ecu
    from repro.testbench.diag import DiagTestbench
    from repro.uds.server import SCRATCH_BUFFER_SIZE

    def fail(reason: str):
        raise ScalarFallback(reason)

    if not isinstance(bench, DiagTestbench):
        fail(f"bench type {type(bench).__name__} is not DiagTestbench")
    server = bench.server
    client = bench.client
    ecu = server.ecu
    if type(ecu) is not Ecu:
        fail(f"target ECU type {type(ecu).__name__} is specialised")
    if not ecu.running:
        fail("target ECU is not running at admission")
    if ecu.fault_model.vulnerabilities:
        fail("target ECU carries latent fault models")
    if ecu.watchdog is not None:
        fail("target ECU has a watchdog")
    if ecu._tasks:
        fail("target ECU runs cyclic tasks")
    if ecu._limp_ids is not None:
        fail("target ECU is in limp-home mode")
    if ecu.rx_guard is not None:
        fail("target ECU has a receive guard installed")
    if ecu._any_handlers:
        fail("target ECU has wildcard receive handlers")

    ce = client.endpoint
    se = server.endpoint
    handlers = ecu._handlers
    if (list(handlers) != [server.rx_id]
            or handlers[server.rx_id] != [se.handle_frame]):
        fail("target ECU receive dispatch is not the lone UDS endpoint")
    if ce.tx_id != se.rx_id or ce.rx_id != se.tx_id or ce.tx_id == ce.rx_id:
        fail("endpoint ids are not a distinct request/response pair")
    if ce.tx_id >= 0x800 or se.tx_id >= 0x800:
        # The engine's wire-time arithmetic assembles 19-bit standard
        # headers; 29-bit addressing would need the extended layout.
        fail("endpoint ids are outside standard 11-bit addressing")
    for label, endpoint in (("client", ce), ("server", se)):
        if endpoint.block_size != 0:
            fail(f"{label} endpoint advertises a flow-control block size")
        if endpoint.st_min != 1 * MS:
            fail(f"{label} endpoint advertises a non-default STmin")
        if not endpoint.idle:
            fail(f"{label} endpoint has an exchange in flight")
    if client._responses:
        fail("client holds undelivered responses")
    if client.timeout >= min(ce.timeout, se.timeout):
        fail("client timeout does not undercut ISO-TP supervision")

    bus = bench.bus
    if bus._busy or bus._channel is not None or bus.fault_injector is not None:
        fail("bus is busy or instrumented")
    if len(bus.nodes) != 2:
        fail("unexpected extra node on the diagnostic bus")
    for node in bus.nodes:
        if node._tx_queue:
            fail(f"controller {node.name!r} has queued transmissions")
        if node.counters.bus_off_latched:
            fail(f"controller {node.name!r} is bus-off")

    if dids is None:
        dids = server.data_identifiers
    longest = max([len(v) for v in dids.values()] + [SCRATCH_BUFFER_SIZE])
    worst = bus.timing.worst_case_duration(dlc=8, extended=False)
    request_cfs = -(-(SAFE_UDS_REQUEST - 6) // 7)
    response_cfs = max(1, -(-(3 + longest - 6) // 7))
    exchange = ((3 * worst + (request_cfs - 1) * MS)
                + (3 * worst + (response_cfs - 1) * MS))
    if client.timeout <= exchange + MS:
        fail("client timeout cannot absorb a worst-case segmented "
             "exchange")


def plan_uds_world(campaign: UdsFuzzCampaign, bench,
                   resume_state: dict | None) -> None:
    """Prove one UDS campaign eligible for the analytic exchange.

    Same philosophy as :func:`plan_frame_world`: every rule guards an
    assumption the analytic exchange model makes, and any violation
    raises :class:`ScalarFallback` so the world runs on the reference
    kernel instead -- the worst case is the old speed, never a wrong
    result.  The bench must pass :func:`check_uds_bench` (target,
    transport, bus and DID store; a resumed run's store is the
    checkpoint's).  The campaign's own rules:

    campaign -- plain :class:`~repro.fuzz.uds_campaign.UdsFuzzCampaign`
    with no reset-target hook, driving exactly the bench's own server
    and client, with a settle window that covers a commanded reboot
    (response + 10 ms reset delay + boot) so the event queue is always
    drained at request boundaries, pristine counters and a quiescent
    event queue.

    generator -- exactly :class:`~repro.uds.stategen.UdsStateGenerator`
    (wrapping generators, such as the chaos drills' throttles and crash
    points, keep the reference kernel).
    """
    def fail(reason: str):
        raise ScalarFallback(reason)

    c = campaign
    if type(c) is not UdsFuzzCampaign:
        fail(f"campaign type {type(c).__name__} is not UdsFuzzCampaign")
    if c._reset_target is not None:
        fail("campaign has a reset-target hook")
    generator = c.generator
    if type(generator) is not UdsStateGenerator:
        fail(f"generator type {type(generator).__name__} not modelled")

    dids = None
    if resume_state is not None:
        if resume_state.get("kind") != "uds":
            fail("resume state comes from a non-UDS campaign")
        saved = (resume_state.get("server") or {}).get("data_identifiers")
        if saved is not None:
            try:
                dids = {int(key, 16): bytes.fromhex(value)
                        for key, value in saved.items()}
            except (AttributeError, TypeError, ValueError) as exc:
                fail(f"resume state DID store unreadable: {exc!r}")
    check_uds_bench(bench, dids)
    if bench.sim is not c.sim:
        fail("campaign and bench disagree about the simulator")
    if bench.server is not c.server or bench.client is not c.client:
        fail("campaign endpoints are not the bench's")
    if c.reset_settle < 11 * MS + c.server.ecu.boot_time:
        fail("reset settle does not cover a commanded reboot")

    if resume_state is None and (c.requests_sent or c.timeouts
                                 or c.positives or c.probes_sent
                                 or c.nrc_counts or c._recent
                                 or c._findings):
        fail("campaign object is not pristine")
    entries = c.sim.pending_entries()
    if entries:
        fail(f"event queue not quiescent: {entries!r}")


def _next_accepted(accepted: np.ndarray) -> np.ndarray:
    """``out[p]``: the first accepted word at or after ``p``.

    ``len(accepted)`` stands for "none"; the result has two trailing
    entries so ``out[q + 1]`` is defined for every ``q`` in ``out``.
    """
    size = accepted.size
    out = np.full(size + 2, size, dtype=np.int64)
    hits = np.flatnonzero(accepted)
    out[hits] = hits
    return np.minimum.accumulate(out[::-1])[::-1]


def _command_matches(mode: str, payload: bytes, code: int) -> bool:
    """``BenchBcm._matches`` for one payload: the command byte, plus a
    data length of 7 (``byte+dlc``) or the 0x5F channel byte
    (``two-byte``)."""
    if not payload or payload[0] != code:
        return False
    if mode == "byte":
        return True
    if mode == "byte+dlc":
        return len(payload) == 7
    return len(payload) >= 2 and payload[1] == 0x5F


class _Block:
    """A run of one world's consecutive frames, parsed at once.

    Frame ``i`` transmits at ``tick0 + i * interval``, carries
    ``ids[i]``/``dlcs[i]``, and leaves ``ends[i]`` of the block's words
    consumed.  Its payload starts at word ``pay[i]`` (full byte range,
    ``randbytes`` words) or at entry ``pay[i]`` of ``byte_values``
    (narrow range, one accepted draw per byte).
    """

    __slots__ = ("tick0", "interval", "ids", "dlcs", "ends", "pay",
                 "words", "byte_values")

    @property
    def size(self) -> int:
        return self.ids.size

    def tick(self, i: int) -> int:
        return self.tick0 + i * self.interval

    def payload(self, i: int) -> bytes:
        dlc = int(self.dlcs[i])
        start = int(self.pay[i])
        if self.byte_values is not None:
            return self.byte_values[start:start + dlc].tobytes()
        if not dlc:
            return b""
        value = int(self.words[start])
        if dlc <= 4:
            value >>= 32 - 8 * dlc
        else:
            value |= (int(self.words[start + 1]) >> (64 - 8 * dlc)) << 32
        return value.to_bytes(dlc, "little")

    def __getitem__(self, i: int) -> tuple[int, int, bytes]:
        """Frame ``i`` as a ``(time, id, payload)`` row."""
        return self.tick(i), int(self.ids[i]), self.payload(i)


class _BlockParser:
    """Parses one world's upcoming frames straight from its words.

    Per frame the generator draws an id index and a DLC index by
    rejection (``_randbelow``: one word per try, its top bits kept,
    redrawn while out of range), then the payload: ``randbytes``
    words for the full byte range (none for 0 bytes, one for 1-4, two
    for 5-8), one ``_randbelow`` per byte otherwise.  :meth:`scan`
    computes, vectorised over every word of a peeked block, where a
    frame starting at that word would end; the frames are the chain of
    those ends from word 0, and the block's consumption is exactly the
    words CPython would draw for them.
    """

    def __init__(self, plan: _WorldPlan) -> None:
        self.pool_ids = plan.pool_ids
        self.pool_dlcs = plan.pool_dlcs
        self.id_count = plan.pool_ids.size
        self.id_shift = 32 - self.id_count.bit_length()
        self.dlc_count = plan.pool_dlcs.size
        dlc_bits = self.dlc_count.bit_length()
        self.dlc_shift = 32 - dlc_bits
        # Per raw DLC draw (rejected values included, never read as a
        # frame's DLC): the DLC, and the payload's randbytes words.
        self.dlc_of = np.zeros(1 << dlc_bits, dtype=np.int64)
        self.dlc_of[:self.dlc_count] = plan.pool_dlcs
        self.tail_words = ((self.dlc_of > 0).astype(np.int64)
                           + (self.dlc_of > 4))
        per_frame = ((1 << self.id_count.bit_length()) / self.id_count
                     + (1 << dlc_bits) / self.dlc_count)
        if plan.full_byte_range:
            self.byte_span = None
            per_frame += self.tail_words[:self.dlc_count].mean()
        else:
            self.byte_min = plan.byte_min
            self.byte_span = plan.byte_span
            self.byte_shift = 32 - plan.byte_span.bit_length()
            per_frame += (plan.pool_dlcs.mean()
                          * (1 << plan.byte_span.bit_length())
                          / plan.byte_span)
        #: Expected words per frame, with headroom: a block that runs
        #: out of words just ends early.
        self.words_per_frame = 1.1 * per_frame

    def scan(self, words: np.ndarray, count: int, tick0: int,
             interval: int) -> _Block:
        """The first ``count`` frames ``words`` holds completely (fewer
        when the words run out)."""
        size = words.size
        id_draw = words >> self.id_shift
        dlc_draw = words >> self.dlc_shift
        id_at = _next_accepted(id_draw < self.id_count)
        dlc_at = _next_accepted(dlc_draw < self.dlc_count)
        # A frame starting at word p draws its id at id_at[p] and its
        # DLC at dlc_at[id_at[p] + 1]; ``size`` there means the block
        # ran out, which pushes the frame's end past the block.
        dlc_word = dlc_at[id_at[:size] + 1]
        dlc_raw = dlc_draw[np.minimum(dlc_word, size - 1)]
        byte_values = None
        if self.byte_span is None:
            end = dlc_word + 1 + self.tail_words[dlc_raw]
        else:
            byte_draw = words >> self.byte_shift
            accepted = byte_draw < self.byte_span
            hits = np.flatnonzero(accepted)
            byte_values = (self.byte_min + byte_draw[hits]).astype(np.uint8)
            # rank[q]: accepted byte draws at or before word q, so the
            # payload after a DLC at q starts at hits[rank[q]].
            rank = np.cumsum(accepted)
            first = rank[np.minimum(dlc_word, size - 1)]
            dlc = self.dlc_of[dlc_raw]
            after = np.concatenate([hits + 1, np.full(9, size + 1)])
            end = np.where(dlc > 0, after[first + dlc - 1], dlc_word + 1)
        ends = end.tolist()
        ends.append(size + 1)
        starts = []
        at = 0
        for _ in range(count):
            stop = ends[at]
            if stop > size:
                break
            starts.append(at)
            at = stop
        frames = np.array(starts, dtype=np.int64)
        id_word = id_at[frames]
        dlc_word = dlc_at[id_word + 1]
        block = _Block()
        block.tick0 = tick0
        block.interval = interval
        block.ids = self.pool_ids[id_draw[id_word]]
        block.dlcs = self.pool_dlcs[dlc_draw[dlc_word]]
        block.ends = end[frames]
        block.words = words
        block.byte_values = byte_values
        block.pay = (dlc_word + 1 if byte_values is None
                     else rank[dlc_word])
        return block


class _FrameEngine:
    """The block-stepped main loop over one admitted frame world.

    Pools, byte ranges, interval, limits, oracles and check mode come
    from the plan; the words come from a one-world
    :class:`~repro.sim.batch.BatchRandom`.  The mutable run state --
    lock flag, ack counter, pending candidate, findings, recent tail --
    is touched only on rare events.  ``recent`` holds the tail of the
    world's transmissions as ``(source, lo, hi)`` segments -- rows
    ``lo..hi-1`` of a parsed :class:`_Block` or of the resumed window's
    row list -- just long enough to cover the recent window;
    ``recent_len`` counts their frames.  Pending and delivery hits are
    ``(oracle, description)`` pairs; an oracle that has reported is
    latched on the live object, as the reference latches it, and
    matches nothing after that.
    """

    def __init__(self, plan: _WorldPlan) -> None:
        self.plan = plan
        self.rng = BatchRandom([plan.rng_state])
        self.parser = _BlockParser(plan)
        self.step = 0
        self.limit_step = plan.natural_steps
        self.sent = plan.base_frames
        self.next_cp = (plan.base_frames + plan.checkpoint_every
                        if plan.journal is not None else _NEVER)
        self.locked = plan.locked0
        self.counter = plan.counter0
        self.pending_time: int | None = None
        self.pending_hits: list[tuple[object, str]] = []
        self.findings: list[Finding] = []
        self.recent: deque = deque()
        self.recent_len = 0

    # ------------------------------------------------------------------
    # Block loop
    # ------------------------------------------------------------------
    def run(self) -> FuzzResult:
        plan = self.plan
        if plan.recent_rows:
            self._remember(plan.recent_rows, 0, len(plan.recent_rows))
        if plan.journal is not None:
            if plan.is_resume:
                plan.journal.append({"type": "resume",
                                     "frames_sent": plan.base_frames,
                                     "generation": plan.journal.generation})
            else:
                plan.journal.append({"type": "start", "name": plan.name,
                                     "started_at": plan.started_at})
        # Pre-known candidate: an oracle that matches the status
        # broadcast in the *current* lock state fires at the very first
        # delivery, before any command lands.
        self._recompute_pending(plan.status_base - 1)
        while True:
            base = self.step
            if base >= self.limit_step:
                if self.pending_time is None:
                    return self._assemble(ended_at=plan.natural_end,
                                          stop_reason=plan.natural_reason)
                # Every event before the candidate's time has happened
                # and its oracles latch, so the next candidate is
                # searched from just before it.
                time = self.pending_time
                result = self._report(time, self.pending_hits, time - 1)
                if result is not None:
                    return result
                continue
            block = self._parse(min(BLOCK_FRAMES, self.limit_step - base,
                                    self.next_cp - self.sent))
            done = 0
            for i, can_id, payload, is_unlock, is_lock in self._hot(block):
                if base + i >= self.limit_step:
                    break
                self._advance(block, done, i + 1)
                done = i + 1
                result = self._episode(block.tick(i), can_id, payload,
                                       is_unlock, is_lock)
                if result is not None:
                    return result
            stop = min(block.size, self.limit_step - base)
            if stop > done:
                self._advance(block, done, stop)

    def _parse(self, count: int) -> _Block:
        """The world's next frames, at most ``count`` and at least one."""
        plan = self.plan
        parser = self.parser
        tick0 = plan.first_tx + self.step * plan.interval
        need = int(count * parser.words_per_frame) + 32
        while True:
            block = parser.scan(self.rng.peek(0, need), count, tick0,
                                plan.interval)
            if block.size:
                return block
            need *= 2

    def _hot(self, block: _Block):
        """The block's rare-event candidates, in transmit order:
        ``(i, id, payload, is_unlock, is_lock)`` for each command frame
        the BCM recognises and each frame on a watched id."""
        plan = self.plan
        body_id = plan.body_command_id
        ids = block.ids
        mask = ids == body_id
        if plan.watch_ids:
            mask |= np.isin(ids, plan.watch_ids)
        for i in np.flatnonzero(mask).tolist():
            can_id = int(ids[i])
            payload = block.payload(i)
            is_unlock = is_lock = False
            if can_id == body_id:
                is_unlock = _command_matches(plan.mode, payload, 0x20)
                is_lock = _command_matches(plan.mode, payload, 0x10)
                if not (is_unlock or is_lock or can_id in plan.watch_ids):
                    continue
            yield i, can_id, payload, is_unlock, is_lock

    def _advance(self, block: _Block, lo: int, hi: int) -> None:
        """Transmit block frames ``lo..hi-1``: consume their words,
        count them, remember them, and checkpoint if one is due."""
        used = int(block.ends[hi - 1]) - (int(block.ends[lo - 1]) if lo
                                          else 0)
        self.rng.commit(0, used)
        self.step += hi - lo
        self.sent += hi - lo
        self._remember(block, lo, hi)
        if self.sent >= self.next_cp:
            self._write_checkpoint(block.tick(hi - 1))
            self.next_cp = self.sent + self.plan.checkpoint_every

    def _remember(self, source, lo: int, hi: int) -> None:
        """Append a segment to the recent tail, dropping the oldest
        segments the window no longer reaches."""
        maxlen = self.plan.recent_maxlen
        recent = self.recent
        recent.append((source, lo, hi))
        self.recent_len += hi - lo
        while recent and self.recent_len - (recent[0][2]
                                            - recent[0][1]) >= maxlen:
            _, old_lo, old_hi = recent.popleft()
            self.recent_len -= old_hi - old_lo

    # ------------------------------------------------------------------
    # Rare-event scalar handlers (exact discrete-event arithmetic)
    # ------------------------------------------------------------------
    def _check_delivery(self, frame,
                        from_fuzzer: bool) -> list[tuple[object, str]]:
        hits = []
        for oracle, sees_fuzzer in self.plan.ack_oracles:
            if from_fuzzer and not sees_fuzzer:
                continue
            if oracle.first_match_time is not None:
                continue
            if frame.can_id != oracle.can_id:
                continue
            if oracle.predicate is not None and not oracle.predicate(frame):
                continue
            hits.append((oracle, _ack_description(frame)))
        return hits

    def _episode(self, tick: int, can_id: int, payload: bytes,
                 is_unlock: bool, is_lock: bool) -> FuzzResult | None:
        """One interesting tick, replayed with exact event timing.

        Mirrors the reference kernel's event order at a tick: a
        colliding status broadcast transmits first (its event was
        scheduled earlier), then the fuzz frame, then -- if the BCM
        recognised a command -- the acknowledgement.  A delivery an
        oracle matches reports at that delivery's completion time
        (:meth:`_report`): a world that stops on findings ends there
        (the result is returned), a keep-going world finishes the
        episode.  Deliveries past the campaign deadline never happen.
        """
        plan = self.plan
        deadline = plan.deadline
        t = tick
        if (tick >= plan.status_base
                and (tick - plan.status_base) % plan.status_period == 0):
            t += plan.status_durs[self.locked]
            if t > deadline:
                return None
            hits = self._check_delivery(plan.status_frames[self.locked],
                                        False)
            if hits:
                result = self._report(t, hits, tick)
                if result is not None:
                    return result
        frame = trusted_frame(can_id, payload, plan.extended, False)
        t += plan.timing.frame_duration(frame)
        if t > deadline:
            return None
        hits = self._check_delivery(frame, True)
        if hits:
            result = self._report(t, hits, tick)
            if result is not None:
                return result
        if is_unlock or is_lock:
            t_cmd = t
            self.counter = (self.counter + 1) % 256
            self.locked = not is_unlock
            ack = trusted_frame(
                plan.unlock_ack_id,
                bytes((0x01 if is_unlock else 0x00, self.counter)),
                False, False)
            t_ack = t_cmd + plan.timing.frame_duration(ack)
            if t_ack <= deadline:
                hits = self._check_delivery(ack, False)
                if hits:
                    result = self._report(t_ack, hits, tick)
                    if result is not None:
                        return result
            self._recompute_pending(t_cmd)
        return None

    def _recompute_pending(self, after: int) -> None:
        """Earliest future finding implied by the current world state.

        Two sources exist: a physical-state oracle whose next poll
        observes the deviated state, and an ack-style oracle that
        matches the status broadcast of the current lock state; latched
        oracles are skipped.  The earliest wins; polls share a tick
        with the transmit grid, so a poll candidate caps the step loop
        *before* that tick's frame, while a status candidate
        (mid-interval delivery) caps it after.  Polls that share a tick
        fire in the order the kernel queued them -- the longest period
        first (its event was scheduled earliest), then the oracles'
        order -- and in a world that stops on findings only the first
        one reports.
        """
        plan = self.plan
        best_time = None
        best_hits: list[tuple[object, str]] = []
        if self.locked != plan.locked0:
            polls = sorted(
                (_next_grid(plan.poll_base, oracle.period, after),
                 -oracle.period, index)
                for index, (oracle, _toggled) in enumerate(plan.led_oracles)
                if oracle.first_deviation_time is None)
            if polls:
                best_time = polls[0][0]
                tied = [plan.led_oracles[index]
                        for poll, _, index in polls if poll == best_time]
                if plan.stop_on_finding:
                    tied = tied[:1]
                best_hits = [(oracle, f"physical state changed: expected "
                                      f"{oracle.expected!r}, observed "
                                      f"{toggled!r}")
                             for oracle, toggled in tied]
        hot = [oracle for oracle in plan.hot_by_state[self.locked]
               if oracle.first_match_time is None]
        if hot:
            status_tick = _next_grid(plan.status_base, plan.status_period,
                                     after)
            status_time = status_tick + plan.status_durs[self.locked]
            if best_time is None or status_time < best_time:
                best_time = status_time
                frame = plan.status_frames[self.locked]
                best_hits = [(oracle, _ack_description(frame))
                             for oracle in hot]
        if (best_time is not None and best_time <= plan.deadline
                and best_time <= plan.natural_end):
            self.pending_time = best_time
            self.pending_hits = best_hits
            cap = -((plan.first_tx - best_time) // plan.interval)
            self.limit_step = min(plan.natural_steps, max(0, cap))
        else:
            self.pending_time = None
            self.pending_hits = []
            self.limit_step = plan.natural_steps

    # ------------------------------------------------------------------
    # Findings and world completion
    # ------------------------------------------------------------------
    def _recent_rows(self) -> list[tuple[int, int, bytes]]:
        """The recent window as (time, id, payload), oldest first."""
        maxlen = self.plan.recent_maxlen
        rows: list[tuple[int, int, bytes]] = []
        for source, lo, hi in reversed(self.recent):
            take = min(hi - lo, maxlen - len(rows))
            rows.extend(source[i] for i in range(hi - 1, hi - 1 - take, -1))
        rows.reverse()
        return rows

    def _window(self):
        extended = self.plan.extended
        rows = self._recent_rows()
        frames = tuple(trusted_frame(can_id, data, extended, False)
                       for _, can_id, data in rows)
        times = tuple(time for time, _, _ in rows)
        return frames, times

    def _report(self, time: int, hits: list[tuple[object, str]],
                after: int) -> FuzzResult | None:
        """The findings ``hits`` make at ``time``, as the reference's
        ``_on_finding`` records them.

        Each finding carries the recent window as it stands, is written
        ahead to the journal with the frames sent so far, and latches
        its oracle the way the oracle latches itself.  A world that
        stops on findings ends here and its result is returned; a
        keep-going world derives its next candidate from the events
        after ``after`` and goes on (``None``).
        """
        plan = self.plan
        frames, times = self._window()
        for oracle, description in hits:
            finding = Finding(time=time, oracle=oracle.name,
                              description=description,
                              recent_frames=frames, recent_times=times)
            self.findings.append(finding)
            oracle.findings_reported += 1
            if type(oracle) is AckMessageOracle:
                oracle.first_match_time = time
            else:
                oracle.first_deviation_time = time
            if plan.journal is not None:
                plan.journal.append({"type": "finding",
                                     "frames_sent": int(self.sent),
                                     "finding": finding_to_dict(finding)})
        if plan.stop_on_finding:
            return self._assemble(ended_at=time,
                                  stop_reason=f"finding from oracle "
                                              f"{hits[0][0].name!r}")
        self._recompute_pending(after)
        return None

    def _assemble(self, *, ended_at: int, stop_reason: str) -> FuzzResult:
        plan = self.plan
        # The bench's BCM ends where the reference run would leave it.
        plan.bcm.locked = self.locked
        plan.bcm._ack_counter = self.counter
        result = FuzzResult(
            name=plan.name,
            seed_label=plan.seed_label,
            started_at=plan.started_at,
            ended_at=ended_at,
            frames_sent=int(self.sent),
            findings=list(self.findings),
            write_errors=dict(plan.write_errors0),
            stop_reason=stop_reason,
            config_rows=plan.config.describe(),
            frames_skipped=plan.base_skipped,
            health={},
        )
        if plan.journal is not None:
            plan.journal.append({"type": "end",
                                 "frames_sent": result.frames_sent,
                                 "findings": len(result.findings),
                                 "stop_reason": stop_reason})
            plan.journal.save_result(result.to_dict())
        return result

    def _write_checkpoint(self, tick: int) -> None:
        plan = self.plan
        recent = [[time,
                   frame_to_dict(trusted_frame(can_id, data, plan.extended,
                                               False))]
                  for time, can_id, data in self._recent_rows()]
        state = {
            "format": 1,
            "kind": "frame",
            "name": plan.name,
            "started_at": plan.started_at,
            "frames_sent": int(self.sent),
            "frames_skipped": plan.base_skipped,
            "sim_now": tick,
            "next_tx_time": tick + plan.interval,
            "recent": recent,
            "findings": [finding_to_dict(f) for f in self.findings],
            "write_errors": dict(plan.write_errors0),
            "oracles": {oracle.name: oracle.state_dict()
                        for oracle in plan.campaign.oracles},
            "generator": {
                "kind": "random",
                "generated": plan.base_generated
                + int(self.sent) - plan.base_frames,
                "rng": rng_state_to_json(self.rng.getstate(0)),
            },
        }
        if plan.jitter_json is not None:
            state["jitter_rng"] = plan.jitter_json
        plan.journal.append({"type": "progress",
                             "frames_sent": int(self.sent),
                             "sim_now": tick,
                             "findings": len(self.findings)})
        plan.journal.save_checkpoint(state)


def install_uds_exchange(bench, memos: dict,
                         on_bail: Callable[[str], None]
                         ) -> Callable[[], None]:
    """Put the analytic exchange on one bench; return its uninstaller.

    Two instance attributes are patched: ``client.request`` becomes a
    closure that mirrors the full ISO-TP exchange (counters,
    segmentation residuals, clock) without queueing a single kernel
    event, and ``server._respond`` becomes a capture list so the
    handler's reply is read back instead of transmitted.  Everything
    else -- the caller's loop, the server's service handlers
    (including the seeded defects), the kernel clock itself -- is the
    real object graph, which is what makes exactness cheap to argue:
    the exchange only ever *skips wire time*, it never reimplements
    behaviour.  The caller must have proven the bench with
    :func:`check_uds_bench` and must call the returned uninstaller
    (idempotent) in a ``finally``, so nothing that raises leaves the
    bench patched.  Two callers exist: :func:`_run_uds_world` (a
    campaign's ``_execute``) and the UDS replay track
    (:class:`~repro.uds.replay.UdsReplayer`, once per replayed world).

    The derivation the closure relies on (validated against the
    reference transport): frames chain on the bus at exact delivery
    ticks (arbitration of a queued frame happens inside the completion
    callback), consecutive frames pace at the decoded STmin of 1 ms,
    and the reference client's poll loop returns at the first 1 ms
    boundary at or after the response delivery.  A request longer than
    :data:`SAFE_UDS_REQUEST`, or one that finds kernel events pending,
    *bails*: the exchange uninstalls itself -- analytic and reference
    state are exactly equal between exchanges -- hands the request to
    the real :meth:`UdsClient.request`, and reports the rule to
    ``on_bail``.

    ``memos`` holds the wire-time memos, keyed by link (request id,
    response id, bitrate): single-frame request payload -> ticks,
    single-frame response message -> ticks, and (id, frame data) ->
    ticks for multi-frame pieces.  The caller decides how long they
    live -- one run of a campaign, one replayer's probes.  The
    collaborators are bound once per install: at ~30 µs per whole
    analytic exchange, the attribute walks and property descriptors of
    a straightforward transcription are themselves a measurable
    fraction of the budget.  A campaign's checkpoint restore rebinds
    none of them (it replaces ``client._responses``, which is read per
    call, and the server's DID store, which the exchange never reads).
    """
    captured: list[bytes] = []

    def respond(message):
        captured.append(bytes(message))

    client = bench.client
    server = bench.server
    ce = client.endpoint
    se = server.endpoint
    ecu = server.ecu
    sim = bench.sim
    clock = sim.clock
    queue = sim._queue
    run_until = sim.run_until
    on_request = server._on_request
    on_response = client._on_response
    take_matching = client._take_matching
    ce_tx = ce.tx_id
    se_tx = se.tx_id
    bitrate = bench.bus.timing.bitrate
    link = (ce_tx, se_tx, bitrate)
    memo = memos.get(link)
    if memo is None:
        memo = memos[link] = ({}, {}, {},
                              _wire_ticks(se_tx, _UDS_FLOW_CONTROL, bitrate),
                              _wire_ticks(ce_tx, _UDS_FLOW_CONTROL, bitrate))
    (sf_request_ticks, sf_response_ticks, piece_ticks,
     fc_from_server, fc_from_client) = memo
    running = EcuState.RUNNING
    ms = MS

    def piece(can_id, data):
        """Memoised wire time of one multi-frame piece."""
        key = (can_id, data)
        ticks = piece_ticks.get(key)
        if ticks is None:
            ticks = piece_ticks[key] = _wire_ticks(can_id, data, bitrate)
        return ticks

    def uninstall():
        client.__dict__.pop("request", None)
        server.__dict__.pop("_respond", None)

    def bail(reason, payload, timeout):
        uninstall()
        on_bail(reason)
        return client.request(payload, timeout)

    def request(payload, timeout=None):
        payload = bytes(payload)
        length = len(payload)
        if length > SAFE_UDS_REQUEST:
            return bail(f"request of {length} bytes exceeds the analytic "
                        f"segmentation cap of {SAFE_UDS_REQUEST} bytes",
                        payload, timeout)
        if queue._heap:
            return bail("pending kernel events at a request boundary",
                        payload, timeout)
        if not payload:
            raise ValueError("a UDS request needs at least the SID "
                             "byte")
        if timeout is None:
            timeout = client.timeout
        t0 = clock._now
        deadline = t0 + timeout
        if ce._tx_payload is not None:  # not tx_idle
            # A transfer stuck by a dead target: the reference client
            # aborts it before sending the next request.
            ce.abort_tx()
            client.aborted_requests += 1
        stale = client._responses
        if stale:
            client.stale_responses += len(stale)
            stale.clear()
        sid = payload[0]
        alive = ecu.state is running

        # Request leg: single frame, or first frame / flow control
        # / paced consecutive frames.  Only the terminal transport
        # state is materialised; intermediate segmentation states
        # are never observable at request boundaries.
        if length <= 7:
            ce.messages_sent += 1
            ticks = sf_request_ticks.get(payload)
            if ticks is None:
                ticks = sf_request_ticks[payload] = _wire_ticks(
                    ce_tx, bytes((length,)) + payload, bitrate)
            t_deliver = t0 + ticks
        else:
            first = bytes((0x10 | (length >> 8), length & 0xFF)) \
                + payload[:6]
            t_deliver = t0 + piece(ce_tx, first)
            if not alive:
                # The dead target drops the first frame: no flow
                # control arrives, the client stays stuck
                # mid-segmentation until the next request aborts it.
                ce._tx_payload = payload
                ce._tx_offset = 6
                ce._tx_sequence = 1
                if queue._heap:
                    run_until(deadline)
                elif deadline > clock._now:
                    clock._now = deadline
                return UdsResponse(None)
            cf_count = -(-(length - 6) // 7)
            t_control = t_deliver + fc_from_server
            ce._peer_st_min = ms
            ce._peer_block_size = 0
            ce._tx_frames_until_fc = 0
            last_cf = bytes((0x20 | (cf_count % 16),)) \
                + payload[6 + 7 * (cf_count - 1):]
            ce.messages_sent += 1
            ce._tx_payload = None
            ce._tx_offset = length
            ce._tx_sequence = (1 + cf_count) % 16
            se._rx_buffer = bytearray(payload)
            se._rx_expected = 0
            se._rx_sequence = (1 + cf_count) % 16
            se._rx_cfs_in_block = cf_count - 1
            t_deliver = (t_control + (cf_count - 1) * ms
                         + piece(ce_tx, last_cf))
        if t_deliver > deadline:
            raise RuntimeError(
                "analytic UDS request overran the client timeout; "
                "the check_uds_bench admission bound is unsound")

        # Server leg: advance the real clock to the delivery tick
        # first -- the handlers read ``sim.now`` (security seeds,
        # the stall gate) and schedule real events (the commanded
        # reset).  With an empty event heap ``run_until`` reduces
        # to a clock assignment (no events fire, the fired counter
        # gains zero), so the common case is a direct write.
        t_response = None
        if alive:
            if queue._heap:
                run_until(t_deliver)
            elif t_deliver > clock._now:
                clock._now = t_deliver
            se.messages_received += 1
            captured.clear()
            on_request(payload)
            for message in captured:
                if ecu.state is not running:
                    # The handler crashed the ECU before its reply
                    # left: the server-side send fails at the
                    # controller.
                    se.errors += 1
                    continue
                rlen = len(message)
                if rlen <= 7:
                    se.messages_sent += 1
                    ticks = sf_response_ticks.get(message)
                    if ticks is None:
                        ticks = sf_response_ticks[message] = \
                            _wire_ticks(se_tx,
                                        bytes((rlen,)) + message,
                                        bitrate)
                    t_arrive = t_deliver + ticks
                else:
                    first = bytes((0x10 | (rlen >> 8), rlen & 0xFF)) \
                        + message[:6]
                    t_first = t_deliver + piece(se_tx, first)
                    t_control = t_first + fc_from_client
                    cf_count = -(-(rlen - 6) // 7)
                    last_cf = bytes((0x20 | (cf_count % 16),)) \
                        + message[6 + 7 * (cf_count - 1):]
                    se._peer_st_min = ms
                    se._peer_block_size = 0
                    se._tx_frames_until_fc = 0
                    se.messages_sent += 1
                    se._tx_payload = None
                    se._tx_offset = rlen
                    se._tx_sequence = (1 + cf_count) % 16
                    ce._rx_buffer = bytearray(message)
                    ce._rx_expected = 0
                    ce._rx_sequence = (1 + cf_count) % 16
                    ce._rx_cfs_in_block = cf_count - 1
                    t_arrive = (t_control + (cf_count - 1) * ms
                                + piece(se_tx, last_cf))
                if t_arrive > deadline:
                    raise RuntimeError(
                        "analytic UDS response overran the client "
                        "timeout; the check_uds_bench admission "
                        "bound is unsound")
                ce.messages_received += 1
                on_response(message)  # respond() captured bytes
                if t_response is None:
                    t_response = t_arrive

        if t_response is None:
            if queue._heap:
                run_until(deadline)
            elif deadline > clock._now:
                clock._now = deadline
            return UdsResponse(None)
        # The reference client polls in 1 ms slices from t0 and
        # takes the response at the first boundary at or past its
        # delivery (the final slice may be shorter than 1 ms).
        boundary = t0 - ms * ((t0 - t_response) // ms)
        if boundary > deadline:
            boundary = deadline
        if queue._heap:
            run_until(boundary)
        elif boundary > clock._now:
            clock._now = boundary
        matched = take_matching(sid)
        if matched is not None:
            return UdsResponse(matched)
        return UdsResponse(None)

    server._respond = respond
    client.request = request
    return uninstall


def _run_uds_world(campaign: UdsFuzzCampaign, bench,
                   resume_state: dict | None) -> FuzzResult:
    """``campaign._execute`` with the analytic exchange as the wire.

    The exchange stays installed for the whole run, bails included on
    the result's ``fallback_reasons``, and comes off in ``finally`` so
    a run that raises (a kill) leaves the bench as it found it.  Its
    wire-time memos live for this run: common traffic -- probes,
    session sweeps, flow controls, NRC and seed responses -- is
    stuffed once per run, while a memo kept across runs would grow by
    about one entry per fresh request and mostly miss.
    """
    bail_reasons: list[str] = []
    uninstall = install_uds_exchange(bench, {}, bail_reasons.append)
    try:
        result = campaign._execute(resume_state)
    finally:
        uninstall()
    result.fallback_reasons = bail_reasons
    return result


def run_world(campaign, resume_state: dict | None = None) -> FuzzResult:
    """Run one campaign to completion on the fast path when proven exact.

    The one entry point behind ``FuzzCampaign.run``,
    ``UdsFuzzCampaign.run`` and
    :func:`~repro.fuzz.campaign.resume_campaign`.  A campaign with no
    pinned bench (``campaign.bench``) runs on ``campaign._execute``, the
    reference kernel, and records no reason.  Otherwise the prover of
    its layer decides: an admitted frame world runs on
    :class:`_FrameEngine`, an admitted UDS world on
    :func:`_run_uds_world`, and any other world on ``_execute`` with
    the violated rule on ``fallback_reasons``.  ``resume_state`` is a
    checkpoint dict (the campaign's ``_state_dict`` schema), or
    ``None`` for a fresh run.
    """
    bench = getattr(campaign, "bench", None)
    if bench is None:
        return campaign._execute(resume_state)
    try:
        if isinstance(campaign, UdsFuzzCampaign):
            plan_uds_world(campaign, bench, resume_state)
            plan = None
        else:
            plan = plan_frame_world(campaign, bench, resume_state)
    except ScalarFallback as exc:
        result = campaign._execute(resume_state)
        result.fallback_reasons = [str(exc)]
        return result
    if plan is None:
        return _run_uds_world(campaign, bench, resume_state)
    return _FrameEngine(plan).run()


def run_shard_batch(factory, specs, *, journal_infos=None):
    """Run one worker's chunk of shard specs, one world after another.

    The body of every sharded worker, whatever the chunk size.  Per
    spec, a journalled shard continues where its journal says
    (:func:`~repro.fuzz.campaign.resume_campaign`: a saved result short
    circuits, a checkpoint resumes, otherwise attempt zero), and the
    campaign is built just before it runs through :func:`run_world`.
    Each of the world's ``fallback_reasons`` becomes a ``"scalar
    fallback: ..."`` warning so
    :class:`~repro.fuzz.parallel.ShardedResult` can surface it.

    Args:
        factory: pickleable campaign factory (``spec -> campaign``).
        specs: the :class:`~repro.fuzz.parallel.ShardSpec` chunk.
        journal_infos: per-spec ``(store_factory, shard_dir,
            checkpoint_every)`` tuples (or ``None`` entries / ``None``
            for no durability), the shape
            :class:`~repro.fuzz.parallel.ShardedCampaign` ships.

    Returns:
        ``[(FuzzResult, warnings), ...]`` aligned with ``specs``.
    """
    if journal_infos is None:
        journal_infos = [None] * len(specs)
    out = []
    for spec, info in zip(specs, journal_infos):
        if info is None:
            result, warnings = factory(spec).run(), []
        else:
            store_factory, shard_dir, checkpoint_every = info
            journal = CampaignJournal(
                (store_factory or DirectoryStore)(shard_dir))
            result = resume_campaign(journal, lambda: factory(spec),
                                     checkpoint_every=checkpoint_every)
            warnings = list(journal.warnings)
        warnings += [f"{FALLBACK_WARNING_PREFIX}{reason}"
                     for reason in result.fallback_reasons]
        out.append((result, warnings))
    return out
