"""End-to-end tests for the stateful UDS fuzz campaign.

The acceptance path of the subsystem: a seeded, journalled campaign
finds the NRC-path session-control hang through the generator's
deterministic sub-function sweep, keeps going to the programming
session bootloader-scratch overflow, kill-resumes bit-identically
mid-campaign, confirms both findings by clean replay, and minimises
each witness record -- the hang to its single request, the overflow to
the minimal session-control / security-access / oversized-write
sequence.
"""

import pytest

from repro.fuzz.campaign import CampaignLimits
from repro.fuzz.durability import CampaignJournal
from repro.fuzz.minimize import MinimizeStats
from repro.fuzz.parallel import ShardedCampaign, ShardSpec
from repro.fuzz.session import FuzzResult
from repro.fuzz.uds_campaign import UdsFuzzCampaign
from repro.testbench.factory import UdsBenchFactory, UdsReplayFactory
from repro.uds.replay import UdsReplayer, confirm_uds_findings
from repro.uds.server import (BOOTLOADER_SCRATCH_DID, CALIBRATION_DUMP_DID,
                              SCRATCH_BUFFER_SIZE)

SEED = 0
FACTORY = UdsBenchFactory()


def make_spec(seed=SEED, max_frames=1500, stop_on_finding=True):
    return ShardSpec(index=0, shard_count=1, master_seed=seed, seed=seed,
                     limits=CampaignLimits(max_frames=max_frames,
                                           stop_on_finding=stop_on_finding))


@pytest.fixture(scope="module")
def hunt_result():
    """One coverage-guided hunt, shared by the replay-side tests."""
    return FACTORY(make_spec()).run()


@pytest.fixture(scope="module")
def deep_result():
    """A keep-going hunt past the hang: exactly the three seed-0
    defect witnesses (hang, calibration read, scratch overflow)."""
    return FACTORY(make_spec(max_frames=300, stop_on_finding=False)).run()


def overflow_finding(result):
    """The first scratch-overflow witness of a keep-going hunt."""
    for finding in result.findings:
        last = finding.recent_requests[-1]
        if last[0] == 0x2E:
            return finding
    raise AssertionError("no overflow finding recorded")


class TestCampaignFindsTheDefects:
    def test_hang_found_first_and_recorded(self, hunt_result):
        # The deterministic session-sub sweep walks into the NRC-path
        # hang (sub-function 0x04) before anything crashes; with the
        # default stop-on-finding limits the campaign ends there.
        assert len(hunt_result.findings) == 1
        finding = hunt_result.findings[0]
        assert finding.oracle == "uds-liveness"
        assert finding.recent_requests[-1] == bytes((0x10, 0x04))

    def test_keep_going_reaches_the_overflow(self, deep_result):
        assert [f.oracle for f in deep_result.findings] \
            == ["uds-liveness"] * 3
        # First the hang, then the armed-state calibration read, then
        # the oversized write to the scratch DID.
        assert deep_result.findings[0].recent_requests[-1] \
            == bytes((0x10, 0x04))
        read = deep_result.findings[1].recent_requests[-1]
        assert read[0] == 0x22
        assert (read[1] << 8) | read[2] == CALIBRATION_DUMP_DID
        last = overflow_finding(deep_result).recent_requests[-1]
        assert last[0] == 0x2E
        assert (last[1] << 8) | last[2] == BOOTLOADER_SCRATCH_DID
        assert len(last) - 3 > SCRATCH_BUFFER_SIZE

    def test_health_reports_coverage_and_key_algorithm(self, hunt_result):
        health = hunt_result.health["uds"]
        assert health["coverage"]["tuples"] > 10
        assert health["key_algorithm"] == "xor-a5"
        assert health["key_algorithm_index"] == 0

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_other_seeds_also_find_it(self, seed):
        result = FACTORY(make_spec(seed=seed)).run()
        assert result.findings
        assert result.findings[0].oracle == "uds-liveness"

    def test_result_roundtrips_with_request_records(self, hunt_result,
                                                    deep_result):
        restored = FuzzResult.from_dict(hunt_result.to_dict())
        assert restored.to_dict() == hunt_result.to_dict()
        assert (restored.findings[0].recent_requests
                == hunt_result.findings[0].recent_requests)
        # The findings of one result share each decoded payload, as
        # the campaign's own findings share their request objects.
        restored = FuzzResult.from_dict(deep_result.to_dict())
        assert restored.to_dict() == deep_result.to_dict()
        decoded = {}
        for finding in restored.findings:
            for request in finding.recent_requests:
                assert decoded.setdefault(request, request) is request


class TestLearnedKeyAlgorithms:
    """Targets keyed with the CRC/LFSR routines are still cracked --
    the generator learns whichever algorithm the server ships -- and
    the armed-state read probes surface the state-dependent-read
    defect behind the calibration dump DID."""

    CRC8_INDEX = 5
    LFSR_INDEX = 6

    @pytest.fixture(scope="class")
    def crc8_result(self):
        factory = UdsBenchFactory(key_algorithm=self.CRC8_INDEX)
        return factory(make_spec(max_frames=2500,
                                 stop_on_finding=False)).run()

    @staticmethod
    def read_finding(result):
        for finding in result.findings:
            last = finding.recent_requests[-1]
            if (last[0] == 0x22
                    and (last[1] << 8) | last[2] == CALIBRATION_DUMP_DID):
                return finding
        raise AssertionError("no calibration-read finding recorded")

    def test_crc8_key_is_learned(self, crc8_result):
        health = crc8_result.health["uds"]
        assert health["key_algorithm"] == "crc8-j1850"
        assert health["key_algorithm_index"] == self.CRC8_INDEX

    def test_read_defect_found_behind_crc8_lock(self, crc8_result):
        # A keep-going hunt walks into the calibration dump read; the
        # crashing request is a plain read, only reachable from an
        # unlocked programming session.
        finding = self.read_finding(crc8_result)
        assert finding.oracle == "uds-liveness"

    def test_read_defect_confirmed_on_clean_replay(self, crc8_result):
        report = confirm_uds_findings(
            [self.read_finding(crc8_result)],
            UdsReplayFactory(seed=SEED, key_algorithm=self.CRC8_INDEX),
            key_algorithm=self.CRC8_INDEX)
        assert len(report.confirmed) == 1
        assert report.rejected == []

    def test_lfsr_key_is_learned(self):
        factory = UdsBenchFactory(key_algorithm=self.LFSR_INDEX)
        result = factory(make_spec(seed=1, max_frames=2500)).run()
        health = result.health["uds"]
        assert health["key_algorithm"] == "lfsr8-b8"
        assert health["key_algorithm_index"] == self.LFSR_INDEX
        assert result.findings  # still cracks through to a defect

    def test_dump_read_denied_while_locked(self):
        # The defect is state-dependent: the same read outside the
        # armed state is just an access denial, not a crash.
        from repro.testbench.diag import DiagTestbench

        bench = DiagTestbench(seed=0)
        bench.power_on()
        response = bench.client.request(bytes((
            0x22, CALIBRATION_DUMP_DID >> 8, CALIBRATION_DUMP_DID & 0xFF)))
        assert not response.positive
        assert response.nrc == 0x33
        assert not bench.crashed()


class TestConfirmAndMinimize:
    def test_hang_confirmed_on_clean_replay(self, hunt_result):
        # The hang leaves the target running but deaf, so the combined
        # crashed-or-hung probe is what confirms it.
        health = hunt_result.health["uds"]
        report = confirm_uds_findings(
            hunt_result.findings, UdsReplayFactory(seed=SEED),
            key_algorithm=health["key_algorithm_index"])
        assert len(report.confirmed) == 1
        assert report.rejected == []

    def test_hang_minimises_to_the_single_request(self, hunt_result):
        # No session, no unlock: the defective sub-function alone
        # wedges the server, so ddmin strips the witness to one line.
        finding = hunt_result.findings[0]
        algorithm = hunt_result.health["uds"]["key_algorithm_index"]
        replayer = UdsReplayer(UdsReplayFactory(seed=SEED),
                               key_algorithm=algorithm)
        assert replayer.minimize(finding.recent_requests) \
            == [bytes((0x10, 0x04))]

    def test_minimises_to_the_five_request_sequence(self, deep_result):
        finding = overflow_finding(deep_result)
        algorithm = deep_result.health["uds"]["key_algorithm_index"]
        replayer = UdsReplayer(UdsReplayFactory(seed=SEED),
                               key_algorithm=algorithm)
        stats = MinimizeStats()
        minimal = replayer.minimize(finding.recent_requests, stats=stats)
        assert [request[:2] for request in minimal] == [
            b"\x10\x03",  # extended session
            b"\x27\x01",  # request seed
            b"\x27\x02",  # send key (byte re-derived at replay)
            b"\x10\x02",  # programming session
            b"\x2e\xf1",  # the oversized scratch write
        ]
        assert len(minimal[-1]) - 3 > SCRATCH_BUFFER_SIZE
        assert stats.tests_used <= 200

    def test_stale_recorded_key_fails_without_rewriting(self, deep_result):
        """The recorded key byte answers the original run's seed; a
        verbatim replay (no key algorithm) must not reproduce.  (The
        overflow witness is the interesting one here -- the hang needs
        no unlock, so it replays even verbatim.)"""
        finding = overflow_finding(deep_result)
        replayer = UdsReplayer(UdsReplayFactory(seed=SEED))
        assert not replayer.probe_finding(finding)


class TestKillResume:
    class Kill(Exception):
        pass

    def test_kill_resume_is_bit_identical(self, tmp_path):
        spec = make_spec(seed=3)
        baseline = FACTORY(spec)._execute(None).to_dict()

        campaign = FACTORY(spec)
        journal = CampaignJournal(tmp_path)
        campaign.attach_journal(journal, checkpoint_every=50)
        real_checkpoint = campaign._maybe_checkpoint

        def killing_checkpoint():
            real_checkpoint()
            if (campaign.requests_sent >= 80
                    and journal.load_checkpoint() is not None):
                raise self.Kill()

        campaign._maybe_checkpoint = killing_checkpoint
        with pytest.raises(self.Kill):
            campaign.run()
        # The kill unwound through the fast path, which unpatched the
        # bench's client and server on the way out.
        assert "request" not in vars(campaign.client)
        assert "_respond" not in vars(campaign.server)
        checkpoint = journal.load_checkpoint()
        assert checkpoint is not None
        assert checkpoint["kind"] == "uds"
        assert checkpoint["requests_sent"] < baseline["frames_sent"]

        resumed = UdsFuzzCampaign.resume(
            journal, lambda: FACTORY(spec), checkpoint_every=50)
        assert resumed.to_dict() == baseline

    def test_completed_journal_returns_saved_result(self, tmp_path):
        spec = make_spec(seed=1)
        campaign = FACTORY(spec)
        journal = CampaignJournal(tmp_path)
        campaign.attach_journal(journal, checkpoint_every=50)
        first = campaign.run()
        again = UdsFuzzCampaign.resume(journal, lambda: FACTORY(spec))
        assert again.to_dict() == first.to_dict()

    def test_frame_campaign_refuses_uds_checkpoint(self, tmp_path):
        spec = make_spec(seed=1)
        campaign = FACTORY(spec)
        state = campaign._state_dict()
        assert state["kind"] == "uds"
        with pytest.raises(ValueError):
            campaign._restore({**state, "kind": "frame"})


class TestSharded:
    def test_serial_and_parallel_shards_agree(self, tmp_path):
        limits = CampaignLimits(max_frames=2000, stop_on_finding=True)
        serial = ShardedCampaign(FACTORY, shards=2, limits=limits,
                                 master_seed=7).run_serial()
        assert serial.ok
        assert len(serial.findings) == 2  # every shard hits the defect
        parallel = ShardedCampaign(FACTORY, shards=2, limits=limits,
                                   master_seed=7, jobs=2,
                                   journal_dir=tmp_path,
                                   checkpoint_every=100).run()
        assert parallel.ok
        assert parallel.fingerprint() == serial.fingerprint()
