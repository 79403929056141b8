"""Request-level replay and minimisation for stateful UDS findings.

Frame replay retransmits recorded CAN frames verbatim; that cannot
work for UDS findings, because the security handshake is *stateful*:
the server's seed is derived from simulation time, so the recorded
``27 02 <key>`` bytes answer the seed of the original run, not the
seed a replay will be handed.  The replayers here do **semantic
replay**: a SecurityAccess sendKey request is rewritten on the fly,
re-deriving the key byte from the seed the client observed *in this
replay* using the algorithm the campaign learned
(:data:`~repro.uds.stategen.KEY_ALGORITHMS`).  Everything else is
replayed byte-for-byte.

This module is only the request track of the replay engine in
:mod:`repro.fuzz.replay`: a step is the *recorded* request bytes, and
running one is an exchange with sendKey rewriting and ECUReset
ride-out.  :class:`UdsReplayer` rebuilds a fresh bench per probe;
:class:`UdsSnapshotReplayer` adds the shared prefix-tree checkpoint
cache.  Keying the tree by pre-rewrite bytes is sound because pacing
is a fixed grid and rewriting is a deterministic function of the
restored world, so identical recorded prefixes reproduce identical
worlds.  Exchanges skip wire time: a bench the track admits steps on
the analytic exchange of the fuzzing fast path
(:func:`~repro.fuzz.batch.install_uds_exchange`), with the verdicts a
replay on the simulated wire gives.

Both are ddmin-ready: ``probe`` is a ``still_fails`` predicate over
request sequences, and ``minimize`` shrinks a finding's
witness-plus-window to the 1-minimal request sequence -- for the
seeded defect, session control, seed request, key, programming
session and the oversized write, and nothing else.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.fuzz.oracle import Finding
from repro.fuzz.replay import ConfirmationReport, PrefixCache, StepReplayer
from repro.sim.clock import MS
from repro.sim.kernel import Simulator
from repro.uds.client import UdsClient
from repro.uds.services import SECURITY_SEND_KEY, ServiceId
from repro.uds.stategen import KEY_ALGORITHMS

#: Builds a fresh diagnostic bench and returns (simulator, tester
#: client, failure probe).  The probe reports whether the target is in
#: the failed state (e.g. crashed) after the replay.
UdsTargetFactory = Callable[[], tuple[Simulator, UdsClient,
                                      Callable[[], bool]]]


class UdsReplayer(StepReplayer):
    """Replays request sequences against freshly built benches.

    Args:
        target_factory: builds an isolated bench per probe.
        interval: pacing between exchanges (match the campaign's).
        settle: simulated time after the last exchange before the
            failure probe is read.
        reset_settle: extra run time after a positive ECUReset response
            so the reboot completes before the next request.
        key_algorithm: index into
            :data:`~repro.uds.stategen.KEY_ALGORITHMS` for sendKey
            rewriting; ``None`` replays recorded key bytes verbatim.
    """

    unit = "requests"

    def __init__(self, target_factory: UdsTargetFactory, *,
                 interval: int = 2 * MS, settle: int = 50 * MS,
                 reset_settle: int = 80 * MS,
                 key_algorithm: int | None = None) -> None:
        if interval < 0:
            raise ValueError("interval must be >= 0")
        if reset_settle < 0:
            raise ValueError("reset_settle must be >= 0")
        if key_algorithm is not None \
                and not 0 <= key_algorithm < len(KEY_ALGORITHMS):
            raise ValueError(
                f"key_algorithm must index KEY_ALGORITHMS "
                f"(0-{len(KEY_ALGORITHMS) - 1})")
        super().__init__(target_factory, interval=interval, settle=settle)
        self.reset_settle = reset_settle
        self.key_algorithm = key_algorithm
        self.keys_rewritten = 0
        #: Each rule that kept an exchange off the wire, once: a bench
        #: the bench check rejected, or a request that bailed.
        self.fallback_reasons: list[str] = []
        #: The exchange's wire-time memos, shared by every probe.
        self._wire_memos: dict = {}
        #: Whether the last pristine world was admitted to the exchange.
        self._on_exchange = False

    def _attach(self, world, pristine: bool) -> Callable[[], None]:
        """Install the analytic exchange on an admitted world.

        Admission is decided on each pristine world (:meth:`_admit`);
        a world restored from the cache descends from the pristine
        root and inherits its verdict.  An admitted world steps on
        :func:`~repro.fuzz.batch.install_uds_exchange`, with this
        replayer's memos; any other steps on the real
        :meth:`UdsClient.request`.
        """
        if pristine:
            self._on_exchange = self._admit(world)
        if not self._on_exchange:
            return super()._attach(world, pristine)
        from repro.fuzz.batch import install_uds_exchange
        return install_uds_exchange(world[2].__self__, self._wire_memos,
                                    self._fall_back)

    def _admit(self, world) -> bool:
        """May the analytic exchange serve ``world``?

        Only when its failure probe is a ``failed``, ``crashed`` or
        ``hung`` method bound to the
        :class:`~repro.testbench.diag.DiagTestbench` that owns its
        client: those read ECU and server state only, never the bus
        statistics the exchange leaves untouched.  That bench must
        also pass :func:`~repro.fuzz.batch.check_uds_bench`; a
        rejection names its rule in :attr:`fallback_reasons`.
        """
        from repro.fuzz.batch import ScalarFallback, check_uds_bench
        from repro.testbench.diag import DiagTestbench

        sim, client, failed = world
        bench = getattr(failed, "__self__", None)
        if (type(bench) is not DiagTestbench or bench.client is not client
                or bench.sim is not sim
                or getattr(failed, "__func__", None) not in (
                    DiagTestbench.failed, DiagTestbench.crashed,
                    DiagTestbench.hung)):
            return False
        try:
            check_uds_bench(bench)
        except ScalarFallback as exc:
            self._fall_back(str(exc))
            return False
        return True

    def _fall_back(self, reason: str) -> None:
        if reason not in self.fallback_reasons:
            self.fallback_reasons.append(reason)

    def _rewrite(self, request: bytes, client: UdsClient) -> bytes:
        """Re-derive a sendKey's key byte from this replay's seed."""
        if (self.key_algorithm is not None
                and len(request) >= 3
                and request[0] == ServiceId.SECURITY_ACCESS
                and request[1] == SECURITY_SEND_KEY
                and client.last_seed is not None):
            key = KEY_ALGORITHMS[self.key_algorithm][1](client.last_seed)
            if key != request[2]:
                self.keys_rewritten += 1
            return request[:2] + bytes((key,)) + request[3:]
        return request

    def _step(self, sim: Simulator, client: UdsClient,
              request: bytes) -> None:
        """One replayed exchange, with pacing and reboot ride-out."""
        response = client.request(self._rewrite(request, client))
        if response.positive and request[:1] == bytes((ServiceId.ECU_RESET,)):
            sim.run_for(self.reset_settle)
        if self.interval:
            sim.run_for(self.interval)

    def probe(self, requests: Sequence[bytes]) -> bool:
        """Replay ``requests``; True if the target fails.

        Usable directly as ``minimize_trace``'s ``still_fails``.
        """
        return self._run(tuple(bytes(request) for request in requests))

    def probe_finding(self, finding: Finding) -> bool:
        """Replay a finding's witness-plus-window request record."""
        return self.probe(finding.recent_requests)

    def stats(self) -> dict:
        return {**super().stats(), "keys_rewritten": self.keys_rewritten,
                "fallback_reasons": list(self.fallback_reasons)}


class UdsSnapshotReplayer(PrefixCache, UdsReplayer):
    """A :class:`UdsReplayer` resuming probes from cached checkpoints.

    The bench is built once; see
    :class:`~repro.fuzz.replay.PrefixCache` for the checkpoint policy
    and counters.  :meth:`stats` also reports ``keys_rewritten`` and
    ``fallback_reasons``.
    """

    def __init__(self, target_factory: UdsTargetFactory, *,
                 interval: int = 2 * MS, settle: int = 50 * MS,
                 reset_settle: int = 80 * MS,
                 key_algorithm: int | None = None,
                 checkpoint_stride: int = 8,
                 max_snapshots: int = 128) -> None:
        super().__init__(target_factory, interval=interval, settle=settle,
                         reset_settle=reset_settle,
                         key_algorithm=key_algorithm,
                         checkpoint_stride=checkpoint_stride,
                         max_snapshots=max_snapshots)

    @property
    def requests_restored(self) -> int:
        return self.steps_restored

    @property
    def requests_simulated(self) -> int:
        return self.steps_simulated


def confirm_uds_findings(findings: list[Finding],
                         factory: UdsTargetFactory, *,
                         key_algorithm: int | None = None,
                         interval: int = 2 * MS,
                         settle: int = 50 * MS,
                         reset_settle: int = 80 * MS) -> ConfirmationReport:
    """Replay each UDS finding against a freshly built clean bench.

    The request-level analogue of
    :func:`repro.fuzz.health.confirm_findings`: a finding whose
    witness-plus-window record still drives the fresh target into the
    failed state is confirmed; the rest are filtered as noise.
    """
    return UdsReplayer(factory, interval=interval, settle=settle,
                       reset_settle=reset_settle,
                       key_algorithm=key_algorithm).confirm(findings)
