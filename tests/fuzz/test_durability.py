"""Tests for the durability layer: stores, WAL, checkpoints, chaos IO."""

import errno
import json
import os
import random
import zlib

import pytest

from repro.can.adapter import PcanStyleAdapter
from repro.can.bus import CanBus
from repro.can.frame import CanFrame
from repro.can.timing import CAN_500K
from repro.fuzz.campaign import CampaignLimits, FuzzCampaign
from repro.fuzz.config import FuzzConfig
from repro.fuzz.durability import (
    CampaignJournal,
    DirectoryStore,
    FaultyStore,
    RetryPolicy,
    WriteAheadJournal,
    atomic_replace_bytes,
    atomic_write_json,
    encode_record,
    parse_records,
    scan_records,
)
from repro.fuzz.generator import BitWalkGenerator, RandomFrameGenerator
from repro.sim.kernel import Simulator
from repro.sim.random import (RandomStreams, rng_state_from_json,
                              rng_state_to_json)


def _no_sleep(_seconds: float) -> None:
    pass


FAST_RETRY = RetryPolicy(attempts=2, backoff=0.0, sleep=_no_sleep)


class TestAtomicWrite:
    def test_replaces_content(self, tmp_path):
        target = tmp_path / "out.json"
        atomic_write_json(target, {"a": 1})
        atomic_write_json(target, {"a": 2})
        assert json.loads(target.read_text()) == {"a": 2}

    def test_leaves_no_temp_files(self, tmp_path):
        atomic_replace_bytes(tmp_path / "x", b"data")
        assert os.listdir(tmp_path) == ["x"]

    def test_failed_write_removes_temp_and_keeps_old(self, tmp_path):
        target = tmp_path / "x"
        atomic_replace_bytes(target, b"old")
        # A directory where the temp file must go makes open() fail.
        (tmp_path / f".x.tmp.{os.getpid()}").mkdir()
        with pytest.raises(OSError):
            atomic_replace_bytes(target, b"new")
        assert target.read_bytes() == b"old"


class TestRecordFraming:
    def test_round_trip(self):
        record = {"type": "finding", "frames_sent": 7, "data": "00ff"}
        records, clean, reason = parse_records(encode_record(record))
        assert records == [record]
        assert reason is None

    def test_crc_is_over_the_body(self):
        line = encode_record({"k": 1})
        crc, body = line.split(b" ", 1)
        assert int(crc, 16) == zlib.crc32(body.rstrip(b"\n"))

    def test_non_dict_payload_rejected(self):
        body = json.dumps([1, 2]).encode()
        line = f"{zlib.crc32(body):08x} ".encode() + body + b"\n"
        records, _, reason = parse_records(line)
        assert records == [] and reason is not None


class TestDirectoryStore:
    def test_append_read_truncate(self, tmp_path):
        store = DirectoryStore(tmp_path)
        store.append("log", b"abc")
        store.append("log", b"def")
        assert store.read("log") == b"abcdef"
        store.truncate("log", 3)
        assert store.read("log") == b"abc"

    def test_sub_creates_nested_store(self, tmp_path):
        sub = DirectoryStore(tmp_path).sub("shard-0001")
        sub.replace("a", b"1")
        assert (tmp_path / "shard-0001" / "a").read_bytes() == b"1"


class TestWriteAheadJournal:
    def test_records_survive_reopen(self, tmp_path):
        store = DirectoryStore(tmp_path)
        journal = WriteAheadJournal(store)
        for i in range(20):
            journal.append({"i": i})
        reopened = WriteAheadJournal(store)
        assert [r["i"] for r in reopened.recovered_records] == list(range(20))
        assert reopened.recovery_warnings == []

    def test_segment_rotation(self, tmp_path):
        store = DirectoryStore(tmp_path)
        journal = WriteAheadJournal(store, max_segment_bytes=64)
        for i in range(10):
            journal.append({"i": i, "pad": "x" * 20})
        segments = [n for n in store.list() if n.endswith(".wal")]
        assert len(segments) > 1
        reopened = WriteAheadJournal(store, max_segment_bytes=64)
        assert [r["i"] for r in reopened.recovered_records] == list(range(10))
        # Appends continue in the highest segment, not a stale one.
        reopened.append({"i": 10, "pad": "y"})
        records, warnings = scan_records(store)
        assert [r["i"] for r in records] == list(range(11))
        assert warnings == []

    def test_torn_tail_truncated_on_open(self, tmp_path):
        store = DirectoryStore(tmp_path)
        journal = WriteAheadJournal(store)
        journal.append({"i": 0})
        journal.append({"i": 1})
        store.append("journal-000000.wal", b"deadbeef {\"torn\":")
        reopened = WriteAheadJournal(store)
        assert [r["i"] for r in reopened.recovered_records] == [0, 1]
        assert reopened.recovery_warnings
        # The repair is durable: a third open sees a clean log.
        assert WriteAheadJournal(store).recovery_warnings == []

    def test_damage_drops_later_segments(self, tmp_path):
        store = DirectoryStore(tmp_path)
        journal = WriteAheadJournal(store, max_segment_bytes=64)
        for i in range(10):
            journal.append({"i": i, "pad": "x" * 20})
        segments = sorted(n for n in store.list() if n.endswith(".wal"))
        assert len(segments) >= 3
        # Corrupt the middle segment: everything after it is untrusted.
        data = bytearray(store.read(segments[1]))
        data[4] ^= 0x40
        store.replace(segments[1], bytes(data))
        reopened = WriteAheadJournal(store, max_segment_bytes=64)
        prefix = [r["i"] for r in reopened.recovered_records]
        assert prefix == list(range(len(prefix)))  # an intact prefix
        assert len(prefix) < 10
        remaining = sorted(n for n in store.list() if n.endswith(".wal"))
        assert remaining == segments[:1]

    def test_scan_records_does_not_repair(self, tmp_path):
        store = DirectoryStore(tmp_path)
        WriteAheadJournal(store).append({"i": 0})
        store.append("journal-000000.wal", b"torn")
        before = store.read("journal-000000.wal")
        records, warnings = scan_records(store)
        assert [r["i"] for r in records] == [0]
        assert warnings
        assert store.read("journal-000000.wal") == before


class TestRetryPolicy:
    def test_retries_oserror_with_backoff(self):
        sleeps = []
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise OSError("transient")

        RetryPolicy(attempts=3, backoff=0.01,
                    sleep=sleeps.append).run(flaky)
        assert len(attempts) == 3
        assert sleeps == [0.01, 0.02]  # exponential

    def test_exhaustion_raises_last_error(self):
        def always():
            raise OSError("permanent")

        with pytest.raises(OSError, match="permanent"):
            RetryPolicy(attempts=2, backoff=0.0,
                        sleep=_no_sleep).run(always)

    def test_non_oserror_is_not_retried(self):
        attempts = []

        def buggy():
            attempts.append(1)
            raise ValueError("a bug, not weather")

        with pytest.raises(ValueError):
            RetryPolicy(attempts=3, backoff=0.0,
                        sleep=_no_sleep).run(buggy)
        assert len(attempts) == 1

    def test_jitter_is_bounded_and_seed_deterministic(self):
        def waits(seed):
            policy = RetryPolicy(attempts=4, backoff=0.01, jitter=0.5,
                                 seed=seed, sleep=_no_sleep)
            return [policy.delay(i) for i in range(3)]

        first, again = waits(7), waits(7)
        assert first == again  # reproducible from the seed alone
        assert first != waits(8)  # distinct holders spread out
        for i, wait in enumerate(first):
            base = 0.01 * 2 ** i
            assert base <= wait <= base * 1.5  # within the jitter band

    def test_zero_jitter_keeps_the_fixed_ladder(self):
        sleeps = []
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise OSError("transient")

        RetryPolicy(attempts=3, backoff=0.01, jitter=0.5, seed=3,
                    sleep=sleeps.append).run(flaky)
        assert len(sleeps) == 2
        assert sleeps[0] >= 0.01 and sleeps[1] >= 0.02
        # And with jitter off the historical exact ladder survives.
        assert RetryPolicy(backoff=0.01).delay(2) == 0.04

    def test_invalid_jitter_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(jitter=-0.1)


class TestFaultyStore:
    def test_deterministic_fault_schedule(self, tmp_path):
        def run(seed):
            store = FaultyStore(DirectoryStore(tmp_path / str(seed)),
                                seed=seed, fail_rate=0.5, sleep=_no_sleep)
            outcomes = []
            for i in range(20):
                try:
                    store.append("log", b"x")
                    outcomes.append(True)
                except OSError:
                    outcomes.append(False)
            return outcomes

        assert run(7) == run(7)
        assert run(7) != run(8)

    def test_enospc_errno(self, tmp_path):
        import errno

        store = FaultyStore(DirectoryStore(tmp_path), seed=0,
                            fail_rate=1.0, error="ENOSPC", sleep=_no_sleep)
        with pytest.raises(OSError) as exc_info:
            store.append("log", b"x")
        assert exc_info.value.errno == errno.ENOSPC

    def test_torn_append_persists_a_strict_prefix(self, tmp_path):
        inner = DirectoryStore(tmp_path)
        store = FaultyStore(inner, seed=3, torn_rate=1.0, sleep=_no_sleep)
        payload = encode_record({"i": 1, "pad": "x" * 50})
        with pytest.raises(OSError):
            store.append("log", payload)
        written = inner.read("log")
        assert len(written) < len(payload)
        assert payload.startswith(written)

    def test_replace_fault_never_corrupts_target(self, tmp_path):
        inner = DirectoryStore(tmp_path)
        inner.replace("f", b"old")
        store = FaultyStore(inner, seed=0, fail_rate=1.0, sleep=_no_sleep)
        with pytest.raises(OSError):
            store.replace("f", b"new")
        assert inner.read("f") == b"old"

    def test_latency_uses_injected_sleep(self, tmp_path):
        slept = []
        store = FaultyStore(DirectoryStore(tmp_path), latency=0.25,
                            sleep=slept.append)
        store.append("log", b"x")
        assert slept == [0.25]


class CountingStore(DirectoryStore):
    """A directory store that counts the calls of each write kind."""

    def __init__(self, root):
        super().__init__(root)
        self.calls = {"append": 0, "replace": 0}

    def append(self, name, data):
        self.calls["append"] += 1
        super().append(name, data)

    def replace(self, name, data):
        self.calls["replace"] += 1
        super().replace(name, data)


class TestCampaignJournal:
    def test_records_and_recovery(self, tmp_path):
        journal = CampaignJournal(tmp_path)
        journal.append({"type": "finding", "frames_sent": 3})
        journal.append({"type": "progress", "frames_sent": 9})
        reopened = CampaignJournal(tmp_path)
        assert len(reopened.records) == 2
        assert [r["type"] for r in reopened.records].count("finding") == 1
        assert reopened.records[-1]["frames_sent"] == 9

    def test_reopened_journal_keeps_only_the_latest_checkpoint(
            self, tmp_path):
        journal = CampaignJournal(tmp_path)
        journal.append({"type": "start"})
        for sent in (10, 20, 30):
            journal.append({"type": "progress", "frames_sent": sent})
            journal.save_checkpoint({"frames_sent": sent})
        journal.append({"type": "end"})
        journal.save_result({"frames_sent": 30})
        reopened = CampaignJournal(tmp_path)
        assert reopened.load_checkpoint() == {"frames_sent": 30}
        assert reopened.load_result() == {"frames_sent": 30}
        assert [r["type"] for r in reopened.records] == [
            "start", "progress", "progress", "progress", "end"]
        kinds = [r["type"] for r in scan_records(DirectoryStore(tmp_path))[0]]
        assert kinds.count("checkpoint") == 3 and kinds[-1] == "result"

    def test_checkpoint_generation_and_crc(self, tmp_path):
        journal = CampaignJournal(tmp_path)
        journal.save_checkpoint({"frames_sent": 10})
        journal.save_checkpoint({"frames_sent": 20})
        reopened = CampaignJournal(tmp_path)
        state = reopened.load_checkpoint()
        assert state["frames_sent"] == 20
        assert reopened.generation == 2
        # Next checkpoint continues the generation sequence.
        reopened.save_checkpoint({"frames_sent": 30})
        assert reopened.generation == 3
        assert reopened.load_checkpoint() == {"frames_sent": 30}

    def test_corrupt_checkpoint_is_ignored_with_warning(self, tmp_path):
        journal = CampaignJournal(tmp_path)
        journal.save_checkpoint({"frames_sent": 10})
        segment = tmp_path / "journal-000000.wal"
        data = segment.read_bytes()
        segment.write_bytes(data.replace(b":10}", b":99}"))  # CRC fails
        reopened = CampaignJournal(tmp_path)
        assert reopened.load_checkpoint() is None
        assert reopened.generation == 0
        assert any("corrupt record" in w for w in reopened.warnings)

    @pytest.mark.parametrize("damage", ["torn", "bit-flip"])
    def test_damaged_last_checkpoint_falls_back_to_the_one_before(
            self, tmp_path, damage):
        journal = CampaignJournal(tmp_path)
        journal.save_checkpoint({"frames_sent": 10})
        journal.save_checkpoint({"frames_sent": 20})
        segment = tmp_path / "journal-000000.wal"
        data = bytearray(segment.read_bytes())
        if damage == "torn":
            del data[-7:]
        else:
            data[-5] ^= 0x01
        segment.write_bytes(bytes(data))
        reopened = CampaignJournal(tmp_path)
        assert reopened.load_checkpoint() == {"frames_sent": 10}
        assert reopened.generation == 1
        assert len(reopened.warnings) == 1

    def test_torn_append_is_cut_before_the_retry(self, tmp_path):
        class TearOnce(DirectoryStore):
            torn = False

            def append(self, name, data):
                if not self.torn:
                    self.torn = True
                    super().append(name, data[:5])
                    raise OSError(errno.EIO, "torn append")
                super().append(name, data)

        journal = CampaignJournal(TearOnce(tmp_path), retry=FAST_RETRY)
        journal.save_checkpoint({"frames_sent": 10})
        assert not journal.degraded
        reopened = CampaignJournal(tmp_path)
        assert reopened.warnings == []
        assert reopened.load_checkpoint() == {"frames_sent": 10}

    def test_one_checkpoint_is_one_append(self, tmp_path):
        store = CountingStore(tmp_path)
        journal = CampaignJournal(store)
        journal.save_checkpoint({"frames_sent": 10})
        assert store.calls == {"append": 1, "replace": 0}
        journal.save_result({"frames_sent": 10})
        assert store.calls == {"append": 2, "replace": 0}

    @pytest.mark.parametrize("name", ["checkpoint.json", "result.json"])
    def test_directory_in_the_older_format_is_refused(self, tmp_path,
                                                      name):
        (tmp_path / name).write_text("{}")
        with pytest.raises(ValueError, match=f"{name}.*fresh directory"):
            CampaignJournal(tmp_path)

    def test_result_round_trip(self, tmp_path):
        journal = CampaignJournal(tmp_path)
        assert journal.load_result() is None
        journal.save_result({"name": "run", "frames_sent": 4})
        assert CampaignJournal(tmp_path).load_result()["name"] == "run"

    def test_degrades_instead_of_raising(self, tmp_path):
        store = FaultyStore(DirectoryStore(tmp_path), seed=0,
                            fail_rate=1.0, sleep=_no_sleep)
        journal = CampaignJournal(store, retry=FAST_RETRY)
        journal.append({"type": "finding", "frames_sent": 1})
        journal.save_checkpoint({"frames_sent": 1})
        journal.save_result({"frames_sent": 1})
        assert journal.degraded
        assert len(journal.records) == 1  # the in-memory mirror survives
        assert any("degraded to in-memory-only" in w
                   for w in journal.warnings)

    def test_transient_faults_are_retried_through(self, tmp_path):
        # fail_rate=0.3 with 4 attempts: every logical write succeeds
        # within its retry budget for this seed, so nothing degrades.
        store = FaultyStore(DirectoryStore(tmp_path), seed=11,
                            fail_rate=0.3, sleep=_no_sleep)
        retry = RetryPolicy(attempts=4, backoff=0.0, sleep=_no_sleep)
        journal = CampaignJournal(store, retry=retry)
        for i in range(30):
            journal.append({"type": "progress", "frames_sent": i})
        assert not journal.degraded
        assert store.faults_injected > 0
        records, warnings = scan_records(DirectoryStore(tmp_path))
        assert [r["frames_sent"] for r in records] == list(range(30))
        assert warnings == []


class TestRngStateCodec:
    def test_round_trip_resumes_the_stream(self):
        rng = random.Random(123)
        rng.random()
        payload = json.loads(json.dumps(rng_state_to_json(rng.getstate())))
        upcoming = [rng.random() for _ in range(5)]
        fresh = random.Random()
        fresh.setstate(rng_state_from_json(payload))
        assert [fresh.random() for _ in range(5)] == upcoming

    def test_random_streams_state_dict(self):
        streams = RandomStreams(7)
        streams.stream("fuzzer").random()
        payload = json.loads(json.dumps(streams.state_dict()))
        upcoming = streams.stream("fuzzer").random()
        restored = RandomStreams(7)
        restored.load_state(payload)
        assert restored.stream("fuzzer").random() == upcoming

    def test_random_streams_rejects_wrong_root_seed(self):
        streams = RandomStreams(7)
        with pytest.raises(ValueError):
            RandomStreams(8).load_state(streams.state_dict())


class TestGeneratorState:
    def test_random_generator_resumes_identically(self):
        config = FuzzConfig.full_range()
        generator = RandomFrameGenerator(config, random.Random(5))
        for _ in range(100):
            generator.next_frame()
        state = json.loads(json.dumps(generator.state_dict()))
        upcoming = [generator.next_frame() for _ in range(20)]
        restored = RandomFrameGenerator(config, random.Random(0))
        restored.load_state(state)
        assert restored.generated == 100
        assert [restored.next_frame() for _ in range(20)] == upcoming

    def test_bitwalk_resumes_at_cursor(self):
        base = CanFrame(0x123, bytes(4))
        generator = BitWalkGenerator(base)
        for _ in range(13):
            generator.next_frame()
        state = json.loads(json.dumps(generator.state_dict()))
        upcoming = [generator.next_frame() for _ in range(10)]
        restored = BitWalkGenerator(base)
        restored.load_state(state)
        assert [restored.next_frame() for _ in range(10)] == upcoming


def _build_chaos_campaign(journal: CampaignJournal) -> FuzzCampaign:
    sim = Simulator()
    bus = CanBus(sim, timing=CAN_500K, name="chaos")
    adapter = PcanStyleAdapter(bus, channel="PCAN_USBBUS_CHAOS")
    adapter.initialize()
    generator = RandomFrameGenerator(FuzzConfig.full_range(),
                                     random.Random(42))
    campaign = FuzzCampaign(
        sim, adapter, generator,
        limits=CampaignLimits(max_frames=300, stop_on_finding=False),
        name="chaos", journal=journal, checkpoint_every=50)
    return campaign


class TestChaosCampaign:
    """Acceptance: under injected IO faults the campaign completes --
    never a hang, a traceback, or a corrupt artefact."""

    @pytest.mark.parametrize("error", ["EIO", "ENOSPC"])
    def test_campaign_completes_under_heavy_faults(self, tmp_path, error):
        inner = DirectoryStore(tmp_path)
        store = FaultyStore(inner, seed=9, fail_rate=0.3, torn_rate=0.2,
                            error=error, sleep=_no_sleep)
        journal = CampaignJournal(store, retry=FAST_RETRY)
        result = _build_chaos_campaign(journal).run()
        assert result.frames_sent == 300
        assert result.stop_reason == "frame limit reached"
        # Whatever reached the disk is internally consistent: the WAL
        # scan yields an intact prefix and the JSON artefacts parse.
        records, _ = scan_records(inner)
        frames = [r["frames_sent"] for r in records
                  if r.get("type") == "progress"]
        assert frames == sorted(frames)
        checkpoints = [r["state"]["frames_sent"] for r in records
                       if r.get("type") == "checkpoint"]
        assert checkpoints == sorted(checkpoints)

    def test_total_outage_degrades_with_warning(self, tmp_path):
        store = FaultyStore(DirectoryStore(tmp_path), seed=1,
                            fail_rate=1.0, sleep=_no_sleep)
        journal = CampaignJournal(store, retry=FAST_RETRY)
        result = _build_chaos_campaign(journal).run()
        assert result.frames_sent == 300
        assert journal.degraded
        assert any("degraded" in w for w in journal.warnings)
        # The in-memory mirror still has the full record stream.
        assert [r for r in journal.records
                if "frames_sent" in r][-1]["frames_sent"] == 300
        assert journal.load_result()["frames_sent"] == 300

    def test_faults_do_not_change_the_result(self, tmp_path):
        clean = _build_chaos_campaign(
            CampaignJournal(tmp_path / "clean")).run()
        store = FaultyStore(DirectoryStore(tmp_path / "chaos"), seed=2,
                            fail_rate=0.5, torn_rate=0.3, sleep=_no_sleep)
        chaotic = _build_chaos_campaign(
            CampaignJournal(store, retry=FAST_RETRY)).run()
        assert chaotic.to_json() == clean.to_json()
