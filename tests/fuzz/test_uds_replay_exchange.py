"""UDS replay on the analytic exchange matches the reference client.

The UDS replay track installs the analytic exchange on every world it
admits, the same exchange a ``fuzz-uds`` hunt runs on.  Its reference
twin (:func:`tests.fuzz.reference.reference_uds_target`) replays the
same bench request for request on the real client.  For the three
seeded defects a hunt finds -- the NRC-path hang, the armed
calibration dump and the scratch overflow -- confirmation and ddmin
must agree with the twin on verdicts, minimal traces, probe counts,
``stats()`` counters and the client, server and ECU state at every
failure probe.  Bus statistics are the one documented difference: the
exchange moves no frame over the bus.  Checkpoints never hold the
exchange, a raising probe leaves its world unpatched, and a rejected
bench or a bailing request runs on the real client with its rule
named in ``stats()``.
"""

import pytest

from repro.fuzz import batch
from repro.fuzz.campaign import CampaignLimits
from repro.fuzz.minimize import MinimizeStats
from repro.fuzz.parallel import ShardSpec
from repro.sim.clock import MS
from repro.testbench.diag import DiagTestbench
from repro.testbench.factory import UdsBenchFactory, UdsReplayFactory
from repro.uds.client import UdsClient
from repro.uds.replay import UdsReplayer, UdsSnapshotReplayer
from repro.uds.server import BOOTLOADER_SCRATCH_DID, SCRATCH_BUFFER_SIZE

from .reference import reference_uds_target

TARGET = UdsReplayFactory(seed=0)
NOISE = [bytes((0x22, 0xF1, 0x80 + i)) for i in range(10)]
#: The scratch overflow's minimal core for ``TARGET`` (key algorithm
#: 0; the recorded key byte is stale and re-derived at replay).
OVERFLOW_WRITE = (bytes((0x2E, BOOTLOADER_SCRATCH_DID >> 8,
                         BOOTLOADER_SCRATCH_DID & 0xFF))
                  + bytes(SCRATCH_BUFFER_SIZE + 1))
OVERFLOW_CORE = [bytes.fromhex("1003"), bytes.fromhex("2701"),
                 bytes.fromhex("270200"), bytes.fromhex("1002"),
                 OVERFLOW_WRITE]
#: The overflow behind a hard reset: with no reset settle the reboot is
#: still pending when the next requests go out, and the fourth of them
#: times out while the target boots.
RESET_WITNESS = [NOISE[0], bytes.fromhex("1101"), *NOISE[1:5],
                 OVERFLOW_CORE[0], NOISE[5], *OVERFLOW_CORE[1:3], NOISE[6],
                 OVERFLOW_CORE[3], NOISE[7], OVERFLOW_CORE[4]]


@pytest.fixture(scope="module")
def hunt():
    """The seed-0 keep-going hunt's findings and learned key algorithm:
    one finding per seeded defect."""
    spec = ShardSpec(index=0, shard_count=1, master_seed=0, seed=0,
                     limits=CampaignLimits(max_frames=300,
                                           stop_on_finding=False))
    result = UdsBenchFactory()(spec).run()
    assert result.fallback_reasons == []
    assert len(result.findings) == 3
    return result.findings, result.health["uds"]["key_algorithm_index"]


def ecu_state(ecu):
    """The ECU's own state; its controller's counters are bus
    statistics."""
    return (ecu.state, ecu.power_cycles, ecu.watchdog_resets,
            ecu.modes.mode, ecu.modes.security_unlocked,
            tuple(ecu.fault_events), sorted(ecu.latched_flags),
            ecu._limp_ids, ecu.tx_suppressed)


@pytest.fixture
def seen(monkeypatch):
    """World state at every failure probe, and real-client requests.

    The recording probe replaces ``DiagTestbench.failed`` itself, so a
    bench's bound ``failed`` is still the method the track admits.
    """
    seen = {"states": [], "wire": 0}
    failed = DiagTestbench.failed

    def recording(bench):
        seen["states"].append((bench.sim.now, bench.client.state_digest(),
                               bench.server.state_digest(),
                               ecu_state(bench.ecu)))
        return failed(bench)

    request = UdsClient.request

    def counting(client, payload, timeout=None):
        seen["wire"] += 1
        return request(client, payload, timeout)

    monkeypatch.setattr(DiagTestbench, "failed", recording)
    monkeypatch.setattr(UdsClient, "request", counting)
    return seen


def triage(target, findings, key_algorithm, seen):
    """Confirm every finding on ``target``, then ddmin each confirmed
    one: the outcome, the states probed and the real-client requests."""
    seen["states"].clear()
    seen["wire"] = 0
    confirmer = UdsReplayer(target, key_algorithm=key_algorithm)
    report = confirmer.confirm(findings)
    minimized = []
    for finding in report.confirmed:
        replayer = UdsSnapshotReplayer(target, key_algorithm=key_algorithm)
        stats = MinimizeStats()
        minimal = replayer.minimize(list(finding.recent_requests),
                                    stats=stats)
        minimized.append(([request.hex() for request in minimal],
                          stats.tests_used, replayer.stats()))
    outcome = {"confirmed": [(f.oracle, f.time) for f in report.confirmed],
               "rejected": [(f.oracle, f.time) for f in report.rejected],
               "confirm_stats": confirmer.stats(),
               "minimized": minimized}
    return outcome, list(seen["states"]), seen["wire"]


def ddmin(replayer, witness):
    stats = MinimizeStats()
    minimal = replayer.minimize(witness, stats=stats)
    return minimal, stats.tests_used, replayer.stats()


class TestExchangeMatchesReference:
    def test_confirmation_and_ddmin_of_the_three_defects(self, hunt, seen):
        findings, algorithm = hunt
        fast, fast_states, fast_wire = triage(TARGET, findings, algorithm,
                                              seen)
        ref, ref_states, ref_wire = triage(reference_uds_target(TARGET),
                                           findings, algorithm, seen)
        assert fast == ref
        assert fast_states == ref_states
        # The exchange answered every request; the twin crossed the wire.
        assert fast_wire == 0 < ref_wire
        assert len(fast["confirmed"]) == 3
        assert fast["confirm_stats"]["fallback_reasons"] == []
        traces = [trace for trace, _, _ in fast["minimized"]]
        assert traces[0] == ["1004"]                    # NRC-path hang
        assert traces[1][-1] == "22f1a5"                # armed dump
        assert traces[2][-1].startswith("2ef1a0")       # scratch overflow
        for _, probes, stats in fast["minimized"]:
            assert probes > 1
            assert stats["fallback_reasons"] == []
        assert any(stats["keys_rewritten"]
                   for _, _, stats in fast["minimized"])


class TestSnapshotHygiene:
    def test_restored_checkpoints_hold_no_exchange(self, hunt):
        findings, algorithm = hunt
        replayer = UdsSnapshotReplayer(TARGET, key_algorithm=algorithm,
                                       checkpoint_stride=1)
        replayer.minimize(list(findings[2].recent_requests))
        snapshots = [replayer._root.snapshot] + [
            node.snapshot for node in replayer._lru.values()]
        assert len(snapshots) > 1
        for snapshot in snapshots:
            _, client, failed = snapshot.restore()
            assert "request" not in vars(client)
            assert "_respond" not in vars(failed.__self__.server)

    class Kill(Exception):
        pass

    @pytest.mark.parametrize("cls", [UdsReplayer, UdsSnapshotReplayer])
    def test_a_raising_step_leaves_the_world_unpatched(self, monkeypatch,
                                                       cls):
        patched = []
        install = batch.install_uds_exchange

        def recording(bench, memos, on_bail):
            patched.append(bench)
            return install(bench, memos, on_bail)

        monkeypatch.setattr(batch, "install_uds_exchange", recording)
        options = ({"checkpoint_stride": 1}
                   if cls is UdsSnapshotReplayer else {})
        replayer = cls(TARGET, key_algorithm=0, **options)
        # For the cached replayer a second walk of the same path
        # checkpoints every step, so the kill lands on an exchange put
        # back after a capture.
        replayer.probe(NOISE)
        step = replayer._step
        steps = []

        def killing(sim, client, request):
            assert "request" in vars(client)
            steps.append(request)
            if len(steps) == 6:
                raise self.Kill()
            step(sim, client, request)

        replayer._step = killing
        with pytest.raises(self.Kill):
            replayer.probe(NOISE)
        assert patched
        for bench in patched:
            assert "request" not in vars(bench.client)
            assert "_respond" not in vars(bench.server)


def slow_stmin_target():
    """``TARGET`` with a client that advertises a 2 ms STmin."""
    sim, client, failed = TARGET()
    client.endpoint.st_min = 2 * MS
    return sim, client, failed


class TestFallbacks:
    @pytest.mark.parametrize("cls", [UdsReplayer, UdsSnapshotReplayer])
    def test_rejected_bench_replays_on_the_real_client(self, seen, cls):
        witness = NOISE[:3] + OVERFLOW_CORE + NOISE[3:5]
        got = ddmin(cls(slow_stmin_target, key_algorithm=0), witness)
        assert seen["wire"] > 0
        want = ddmin(cls(reference_uds_target(slow_stmin_target),
                         key_algorithm=0), witness)
        assert got[:2] == want[:2]
        assert got[0] == OVERFLOW_CORE
        got_stats, want_stats = dict(got[2]), dict(want[2])
        assert got_stats.pop("fallback_reasons") == [
            "client endpoint advertises a non-default STmin"]
        assert want_stats.pop("fallback_reasons") == []
        assert got_stats == want_stats

    @pytest.mark.parametrize("cls", [UdsReplayer, UdsSnapshotReplayer])
    def test_bailing_probes_replay_on_the_real_client(self, monkeypatch,
                                                      seen, cls):
        cap = len(OVERFLOW_WRITE) - 1
        monkeypatch.setattr(batch, "SAFE_UDS_REQUEST", cap)
        got = ddmin(cls(TARGET, key_algorithm=0, reset_settle=0),
                    RESET_WITNESS)
        fast_wire = seen["wire"]
        want = ddmin(cls(reference_uds_target(TARGET), key_algorithm=0,
                         reset_settle=0), RESET_WITNESS)
        assert got[:2] == want[:2]
        assert got[0] == OVERFLOW_CORE
        # Only the bailed requests crossed the wire.
        assert 0 < fast_wire < seen["wire"] - fast_wire
        got_stats, want_stats = dict(got[2]), dict(want[2])
        assert got_stats.pop("fallback_reasons") == [
            "pending kernel events at a request boundary",
            f"request of {len(OVERFLOW_WRITE)} bytes exceeds the analytic "
            f"segmentation cap of {cap} bytes"]
        assert want_stats.pop("fallback_reasons") == []
        assert got_stats == want_stats
