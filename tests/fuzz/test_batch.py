"""Reference-vs-fast-path parity for the block-stepped frame engine.

The fast path's whole contract is *bit-identical* results: the same
seeds must produce the same ``FuzzResult.to_dict()`` whether a world
runs through the reference event kernel (``campaign._execute``) or,
through ``run()``, on the block-stepped frame engine, including every
journal artefact (record stream, checkpoint file, result file) and
every resume path.  These tests pin that contract across finding
kinds, payload check modes, limit shapes, recent-window sizes, block
boundaries, durability and the sharded runner's workers.
"""

import functools
import random
import shutil

import pytest
from hypothesis import given, settings, strategies as st

from repro.fuzz import batch as batch_engine
from repro.fuzz.batch import run_shard_batch
from repro.fuzz.campaign import CampaignLimits, FuzzCampaign
from repro.fuzz.config import FuzzConfig
from repro.fuzz.durability import CampaignJournal, DirectoryStore, scan_records
from repro.fuzz.generator import RandomFrameGenerator, TargetedFrameGenerator
from repro.fuzz.oracle import AckMessageOracle, PhysicalStateOracle
from repro.fuzz.parallel import ShardSpec, ShardedCampaign, derive_shard_seed
from repro.sim.batch import BatchRandom
from repro.sim.clock import MS
from repro.testbench.bcm import STATUS_ID, UNLOCK_ACK_ID
from repro.testbench.bench import UnlockTestbench
from repro.testbench.factory import UnlockBenchFactory, _unlock_ack

from tests.journals import (kill_after_last_checkpoint, log_bytes,
                            record_types)

from .reference import reference_resume, reference_shards


def build_world(kind, seed, mode="byte", max_frames=4000, recent_window=32,
                stop_on_finding=True):
    """One deterministic campaign world; call twice for twin copies."""
    if kind == "factory":
        factory = UnlockBenchFactory(check_mode=mode)
        spec = ShardSpec(index=seed, shard_count=64, master_seed=7,
                         seed=derive_shard_seed(7, seed),
                         limits=CampaignLimits(
                             max_frames=max_frames,
                             stop_on_finding=stop_on_finding))
        return factory(spec)
    bench = UnlockTestbench(seed=seed, check_mode=mode)
    bench.power_on(settle_seconds=0.5)
    adapter = bench.attacker_adapter()
    cfg_kw = dict(id_choices=(0x215, 0x3A5, 0x4F2, 0x100),
                  dlc_min=0, dlc_max=8)
    if kind == "narrow":
        cfg_kw.update(byte_min=0x10, byte_max=0x6F)
    rng = random.Random(seed * 977 + 3)
    if kind == "targeted":
        # The known-id pool a real campaign narrows to after listening,
        # over the stock FuzzConfig's DLC and byte ranges.
        generator = TargetedFrameGenerator((0x215, 0x3A5, 0x100),
                                           FuzzConfig(), rng)
    else:
        generator = RandomFrameGenerator(FuzzConfig(**cfg_kw), rng)
    oracles = []
    if kind in ("ack", "time", "narrow", "targeted"):
        oracles = [
            AckMessageOracle(bench.bus, UNLOCK_ACK_ID,
                             predicate=_unlock_ack,
                             exclude_sender=adapter.controller.name,
                             name="unlock-ack"),
            PhysicalStateOracle(lambda: bench.bcm.led_on, expected=False,
                                period=20 * MS, name="led"),
        ]
    elif kind == "led":
        oracles = [PhysicalStateOracle(lambda: bench.bcm.led_on,
                                       expected=False, period=20 * MS,
                                       name="led")]
    elif kind == "status":
        oracles = [AckMessageOracle(
            bench.bus, STATUS_ID,
            predicate=lambda f: bool(f.data) and f.data[0] == 0x00,
            name="status-watch")]
    if kind == "time":
        limits = CampaignLimits(max_duration=150 * MS,
                                stop_on_finding=stop_on_finding)
    else:
        limits = CampaignLimits(max_frames=max_frames,
                                stop_on_finding=stop_on_finding)
    campaign = FuzzCampaign(bench.sim, adapter, generator, limits=limits,
                            oracles=oracles, interval=1 * MS,
                            recent_window=recent_window,
                            name=f"{kind}-{mode}-{seed}")
    campaign.bench = bench
    return campaign


def bcm_state(campaign):
    bcm = campaign.bench.bcm
    return bcm.locked, bcm._ack_counter


def oracle_states(campaign):
    return [oracle.state_dict() for oracle in campaign.oracles]


class TestFreshParity:
    # One case per finding kind / check mode / limit shape /
    # generator: ack finding, LED-only oracle, hot status watch, time
    # limit, narrowed byte range, the stock factory bench (full id
    # range), a TargetedFrameGenerator world, and an ack finding with
    # an empty recent window.  Then keep-going twins of the ack, LED,
    # status, targeted, time and empty-window cases: 2000 frames on
    # the small id pools toggle the BCM several times, so both paper
    # oracles report and later commands still land after them.
    CASES = [("ack", 0, "byte"), ("ack", 1, "byte+dlc"),
             ("ack", 2, "two-byte"), ("led", 0, "byte"),
             ("status", 1, "byte"), ("time", 0, "byte"),
             ("narrow", 2, "two-byte"), ("factory", 0, "byte"),
             ("targeted", 1, "byte"), ("ack", 3, "byte", 4000, 0),
             ("ack", 0, "byte", 2000, 32, False),
             ("led", 0, "byte", 2000, 32, False),
             ("status", 1, "byte", 2000, 32, False),
             ("targeted", 1, "byte", 2000, 32, False),
             ("time", 0, "byte", 2000, 32, False),
             ("ack", 3, "byte", 2000, 0, False)]

    def test_results_bit_identical_across_kinds(self, monkeypatch):
        twins = [build_world(*case) for case in self.CASES]
        reference = [campaign._execute(None).to_dict() for campaign in twins]
        worlds = [build_world(*case) for case in self.CASES]
        for case, want, world in zip(self.CASES, reference, worlds):
            result = world.run()
            assert result.fallback_reasons == [], case
            assert result.to_dict() == want, case
        # The fast path leaves the bench's BCM, and every oracle's
        # latch, where the reference run leaves them.
        for case, twin, world in zip(self.CASES, twins, worlds):
            assert bcm_state(world) == bcm_state(twin), case
            assert oracle_states(world) == oracle_states(twin), case
        assert reference[9]["findings"]
        assert reference[9]["findings"][0]["recent_frames"] == []
        keep_going = reference[10]
        assert keep_going["stop_reason"] == "frame limit reached"
        assert [f["oracle"] for f in keep_going["findings"]] == [
            "unlock-ack", "led"]
        assert bcm_state(twins[10])[1] > 2  # commands kept toggling
        # Block boundaries: a block size equal to a world's frame count
        # puts its last frame -- the finding frame of an ack finding,
        # the step limit of every other world -- on a block's last
        # frame; one frame per block, a few frames per block, and a
        # block longer than every world cover the rest.
        sizes = sorted({result["frames_sent"] for result in reference})
        for size in sizes + [1, 7, 10 ** 6]:
            monkeypatch.setattr(batch_engine, "BLOCK_FRAMES", size)
            for case, want, twin in zip(self.CASES, reference, twins):
                world = build_world(*case)
                assert world.run().to_dict() == want, (case, size)
                assert oracle_states(world) == oracle_states(twin), (case,
                                                                     size)


class CountingRandom(random.Random):
    """A ``random.Random`` that counts the 32-bit words it draws (every
    draw the frame generator makes goes through ``getrandbits``)."""

    words = 0

    def getrandbits(self, k):
        self.words += -(-k // 32)
        return super().getrandbits(k)


@functools.lru_cache(maxsize=None)
def block_parser(kind):
    """A fresh world's generator config and the frame engine's parser
    for its plan."""
    campaign = build_world(kind, 0)
    plan = batch_engine.plan_frame_world(campaign, campaign.bench, None)
    return campaign.generator.config, batch_engine._BlockParser(plan)


class TestBlockParser:
    """``_BlockParser.scan`` on its own, against the scalar generator."""

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(["factory", "narrow", "targeted"]),
           seed=st.integers(min_value=0, max_value=2**32 - 1),
           skip=st.integers(min_value=0, max_value=1400),
           count=st.integers(min_value=1,
                             max_value=batch_engine.BLOCK_FRAMES),
           data=st.data())
    def test_block_holds_the_scalar_frames_that_fit(self, kind, seed, skip,
                                                    count, data):
        config, parser = block_parser(kind)
        # The scalar generator's first ``count`` frames from a state
        # ``skip`` words into the stream (mid-block, or on a twist),
        # with its state and the words drawn so far after each frame.
        rng = CountingRandom(seed)
        rng.getrandbits(32 * skip)
        start = rng.getstate()
        rng.words = 0
        generator = RandomFrameGenerator(config, rng)
        frames, states, used = [], [], []
        for _ in range(count):
            frame = generator.next_frame()
            frames.append((frame.can_id, len(frame.data), frame.data))
            states.append(rng.getstate())
            used.append(rng.words)
        # Cut the words anywhere up to past the last frame, often right
        # at a frame's end (too short for the first frame included).
        cut = data.draw(st.one_of(
            st.integers(min_value=0, max_value=used[-1] + 8),
            st.builds(lambda end, shift: max(0, end + shift),
                      st.sampled_from(used), st.integers(-1, 1))))
        words = BatchRandom([start]).peek(0, cut)
        block = parser.scan(words, count, 0, 1)
        fitting = sum(end <= cut for end in used)
        assert block.size == fitting
        assert block.ends.tolist() == used[:fitting]
        assert [(int(block.ids[i]), int(block.dlcs[i]), block.payload(i))
                for i in range(block.size)] == frames[:fitting]
        batch = BatchRandom([start])
        committed = 0
        for end, state in zip(block.ends.tolist(), states):
            batch.commit(0, end - committed)
            committed = end
            assert batch.getstate(0) == state


class TestScalarFallback:
    def test_jittered_world_falls_back_and_still_matches_scalar(self):
        def build(seed):
            bench = UnlockTestbench(seed=seed)
            bench.power_on(settle_seconds=0.5)
            adapter = bench.attacker_adapter()
            generator = RandomFrameGenerator(FuzzConfig(),
                                             random.Random(seed))
            campaign = FuzzCampaign(
                bench.sim, adapter, generator,
                limits=CampaignLimits(max_frames=500), interval=1 * MS,
                interval_jitter=100, rng=random.Random(seed + 1),
                name=f"jitter-{seed}")
            campaign.bench = bench
            return campaign

        reference = build(5)._execute(None).to_dict()
        result = build(5).run()
        assert result.to_dict() == reference
        assert len(result.fallback_reasons) == 1
        assert "jitter" in result.fallback_reasons[0]

    def test_mixed_eligible_and_fallback_worlds(self):
        def odd():
            bench = UnlockTestbench(seed=9)
            bench.power_on(settle_seconds=0.5)
            adapter = bench.attacker_adapter()
            campaign = FuzzCampaign(
                bench.sim, adapter,
                RandomFrameGenerator(FuzzConfig(), random.Random(9)),
                limits=CampaignLimits(max_frames=300), interval=1 * MS,
                interval_jitter=50, rng=random.Random(10), name="odd")
            campaign.bench = bench
            return campaign

        def every_match():
            campaign = build_world("ack", 0, stop_on_finding=False)
            campaign.oracles[0].once = False
            return campaign

        # An admitted world, a jittered one, an unbounded recent window
        # (the reference deque keeps every frame), and a keep-going
        # world whose ack oracle reports every match; the last two are
        # named rules of their own.
        builds = [lambda: build_world("ack", 0), odd,
                  lambda: build_world("ack", 4, recent_window=None),
                  every_match]
        reasons = []
        for build in builds:
            result = build().run()
            assert result.to_dict() == build()._execute(None).to_dict()
            reasons.append(result.fallback_reasons)
        assert reasons[0] == []
        assert len(reasons[1]) == 1
        assert reasons[2] == ["unbounded recent window runs scalar"]
        assert reasons[3] == ["oracle 'unlock-ack' reports every match "
                              "(once=False) runs scalar"]


def journal_spec(index, max_frames=1200, stop_on_finding=True):
    return ShardSpec(index=index, shard_count=8, master_seed=3,
                     seed=derive_shard_seed(3, index),
                     limits=CampaignLimits(max_frames=max_frames,
                                           stop_on_finding=stop_on_finding))


def journal_build(spec, recent_window=32):
    bench = UnlockTestbench(seed=spec.seed, check_mode="byte")
    bench.power_on(settle_seconds=0.5)
    adapter = bench.attacker_adapter()
    config = FuzzConfig(id_choices=(0x215, 0x3A5, 0x100),
                        dlc_min=0, dlc_max=8)
    generator = RandomFrameGenerator(config,
                                     random.Random(spec.seed * 31 + 5))
    oracles = [
        AckMessageOracle(bench.bus, UNLOCK_ACK_ID, predicate=_unlock_ack,
                         exclude_sender=adapter.controller.name,
                         name="unlock-ack"),
        PhysicalStateOracle(lambda: bench.bcm.led_on, expected=False,
                            period=20 * MS, name="led"),
    ]
    campaign = FuzzCampaign(bench.sim, adapter, generator,
                            limits=spec.limits, oracles=oracles,
                            interval=1 * MS, recent_window=recent_window,
                            name=f"jp-{spec.index}")
    campaign.bench = bench
    return campaign


def read_records(directory):
    records, warnings = scan_records(DirectoryStore(str(directory)))
    assert warnings == []
    return records


class TestJournalParity:
    def test_record_streams_checkpoints_and_results_identical(
            self, tmp_path, monkeypatch):
        # Default blocks; blocks that end exactly at each checkpoint;
        # 7-frame blocks, which end between checkpoints; a checkpoint
        # on shard 2's finding frame (checkpoint first, then the
        # finding); an empty recent window; a checkpoint after every
        # frame.  Then keep-going runs, whose shards 0 and 2 report the
        # ack at frames 1056 and 261 and the LED poll at frames 1060
        # and 280: checkpoints on shard 2's ack frame and after both
        # its findings, before shard 0's, and (in 7-frame blocks) on
        # shard 0's LED frame; and a checkpoint after every frame, so
        # shard 2's checkpoints after frame 261 carry its ack finding
        # and those after frame 280 both findings.
        runs = [("default", journal_build, None, 500, True, 1200),
                ("cp-aligned", journal_build, 500, 500, True, 1200),
                ("cp-cut", journal_build, 7, 500, True, 1200),
                ("cp-on-finding", journal_build, None, 261, True, 1200),
                ("window0", functools.partial(journal_build,
                                              recent_window=0), None, 500,
                 True, 1200),
                ("cp-every-frame", journal_build, None, 1, True, 300),
                ("kg-cp-on-ack", journal_build, None, 261, False, 1200),
                ("kg-cp-on-led", journal_build, 7, 1060, False, 1200),
                ("kg-cp-every-frame", journal_build, None, 1, False, 300)]
        for tag, build, block, every, stop, frames in runs:
            specs = [journal_spec(i, max_frames=frames, stop_on_finding=stop)
                     for i in range(3)]
            if block is not None:
                monkeypatch.setattr(batch_engine, "BLOCK_FRAMES", block)
            for spec in specs:
                journal = CampaignJournal(DirectoryStore(
                    str(tmp_path / f"{tag}/scalar/shard-{spec.index:04d}")))
                reference_resume(journal, lambda spec=spec: build(spec),
                                 checkpoint_every=every)
            infos = [(None, str(tmp_path / f"{tag}/batch/shard-"
                                           f"{s.index:04d}"), every)
                     for s in specs]
            run_shard_batch(build, specs, journal_infos=infos)
            monkeypatch.undo()
            for spec in specs:
                scalar_dir = tmp_path / f"{tag}/scalar/shard-{spec.index:04d}"
                batch_dir = tmp_path / f"{tag}/batch/shard-{spec.index:04d}"
                # The whole log, byte for byte: events, every checkpoint,
                # the result.
                assert log_bytes(batch_dir) == log_bytes(scalar_dir), tag
                records = read_records(scalar_dir)
                assert records[-1]["type"] == "result"
                checkpoints = [record["state"] for record in records
                               if record["type"] == "checkpoint"]
                if every == 1:
                    assert len(checkpoints) == records[-1]["result"][
                        "frames_sent"]
                if tag == "kg-cp-every-frame" and spec.index == 2:
                    assert [len(state["findings"])
                            for state in checkpoints] == \
                        [0] * 261 + [1] * 19 + [2] * 20

    def test_kill_resume_matches_scalar_resume_both_ways(self, tmp_path):
        # The resume contract: a fast-path resume of a surviving journal
        # equals a *reference resume* of the same journal (the protocol
        # rebuilds the target fresh, so neither necessarily equals the
        # uninterrupted run when commands preceded the checkpoint).
        # Checkpoints every 1040 frames leave shard 0's finding (frame
        # 1056) 16 frames after the resume point, so its recent window
        # joins resumed rows to new frames.
        spec = journal_spec(0)
        for every in (500, 1040):
            source = tmp_path / f"full-{every}"
            journal = CampaignJournal(DirectoryStore(str(source)))
            reference_resume(journal, lambda: journal_build(spec),
                             checkpoint_every=every)
            ctl, bat = tmp_path / f"ctl-{every}", tmp_path / f"bat-{every}"
            for target in (ctl, bat):
                shutil.copytree(source, target)
                kill_after_last_checkpoint(target)
            control = reference_resume(
                CampaignJournal(DirectoryStore(str(ctl))),
                lambda: journal_build(spec), checkpoint_every=every)
            pairs = run_shard_batch(
                journal_build, [spec],
                journal_infos=[(None, str(bat), every)])
            assert pairs[0][0].to_dict() == control.to_dict()
            assert read_records(bat) == read_records(ctl)
            kinds = [record["type"] for record in read_records(bat)]
            assert kinds.count("resume") == 1
            # A second resume of the now-completed journal
            # short-circuits to the saved result.
            again = run_shard_batch(
                journal_build, [spec],
                journal_infos=[(None, str(bat), every)])
            assert again[0][0].to_dict() == control.to_dict()
        checkpointed = control.started_at + (1040 - 1) * MS
        times = control.findings[0].recent_times
        assert times[0] < checkpointed < times[-1]

    @pytest.mark.parametrize("every, rule", [
        # The last checkpoint (frame 1000) precedes shard 0's first
        # finding (frame 1056): the engine resumes and finds.
        (500, None),
        # The checkpoint at frame 1058 carries the ack finding and its
        # latched oracle: the resume runs on the reference kernel.
        (1058, "resume state carries findings")])
    def test_keep_going_kill_resume_around_a_finding(self, tmp_path, every,
                                                     rule):
        spec = journal_spec(0, stop_on_finding=False)
        source = tmp_path / "full"
        reference_resume(CampaignJournal(DirectoryStore(str(source))),
                         lambda: journal_build(spec),
                         checkpoint_every=every)
        ctl, bat = tmp_path / "ctl", tmp_path / "bat"
        for target in (ctl, bat):
            shutil.copytree(source, target)
            kill_after_last_checkpoint(target)
        checkpoint = CampaignJournal(
            DirectoryStore(str(bat))).load_checkpoint()
        control = reference_resume(
            CampaignJournal(DirectoryStore(str(ctl))),
            lambda: journal_build(spec), checkpoint_every=every)
        (result, _warnings), = run_shard_batch(
            journal_build, [spec], journal_infos=[(None, str(bat), every)])
        assert result.to_dict() == control.to_dict()
        assert read_records(bat) == read_records(ctl)
        assert result.findings
        assert result.stop_reason == "frame limit reached"
        if rule is None:
            assert checkpoint["findings"] == []
            assert result.fallback_reasons == []
        else:
            assert len(checkpoint["findings"]) == 1
            assert result.fallback_reasons == [rule]


class TestShardedBatching:
    LIMITS = CampaignLimits(max_frames=4000)

    def test_batched_run_fingerprints_like_serial(self):
        serial_run = ShardedCampaign(UnlockBenchFactory(), shards=4,
                                     limits=self.LIMITS,
                                     master_seed=11, jobs=2)
        serial = serial_run.run_serial()
        reference = reference_shards(UnlockBenchFactory(), serial_run)
        assert {o.index: o.result.to_dict()
                for o in serial.outcomes} == reference
        for batch_size in (1, 64):
            batched = ShardedCampaign(UnlockBenchFactory(), shards=4,
                                      limits=self.LIMITS, master_seed=11,
                                      jobs=2, batch_size=batch_size).run()
            assert batched.ok
            assert batched.fingerprint() == serial.fingerprint()
            assert batched.fallback_reasons == {}

    def test_rejected_shards_surface_their_rule(self):
        # Every shard runs through the prover whatever the chunk size,
        # so a rejected one reports its rule as a shard warning.
        limits = CampaignLimits(max_frames=300, stop_on_finding=False)
        factory = UnlockBenchFactory(supervise=True)
        sharded = ShardedCampaign(factory, shards=2, limits=limits,
                                  master_seed=11)
        serial = sharded.run_serial()
        rule = "oracle type CampaignSupervisor not modelled"
        assert serial.fallback_reasons == {0: rule, 1: rule}
        assert {o.index: o.result.to_dict()
                for o in serial.outcomes} == reference_shards(
                    factory, sharded)

    def test_batched_journal_rerun_skips_completed(self, tmp_path):
        first = ShardedCampaign(UnlockBenchFactory(), shards=4,
                                limits=self.LIMITS, master_seed=11,
                                jobs=2, batch_size=4,
                                journal_dir=tmp_path / "journal").run()
        assert first.ok
        second = ShardedCampaign(UnlockBenchFactory(), shards=4,
                                 limits=self.LIMITS, master_seed=11,
                                 jobs=2, batch_size=4,
                                 journal_dir=tmp_path / "journal").run()
        assert second.ok
        assert second.fingerprint() == first.fingerprint()
        assert all("previous run" in warning for outcome in second.outcomes
                   for warning in outcome.warnings)

    def test_batch_size_must_be_positive(self):
        with pytest.raises(ValueError):
            ShardedCampaign(UnlockBenchFactory(), shards=2,
                            limits=self.LIMITS, batch_size=0)


class TestHypothesisParity:
    """Satellite: random seeds and limits through both kernels."""

    @settings(max_examples=6, deadline=None)
    @given(data=st.data())
    def test_random_worlds_fingerprint_identically(self, data):
        seeds = data.draw(st.lists(
            st.integers(min_value=0, max_value=2**31 - 1),
            min_size=2, max_size=4, unique=True))
        max_frames = data.draw(st.integers(min_value=50, max_value=1500))
        kind = data.draw(st.sampled_from(["ack", "led", "factory"]))
        stop = data.draw(st.booleans())
        for seed in seeds:
            want = build_world(kind, seed % 1000, max_frames=max_frames,
                               stop_on_finding=stop)
            result = build_world(kind, seed % 1000, max_frames=max_frames,
                                 stop_on_finding=stop).run()
            assert result.fallback_reasons == []
            assert result.to_dict() == want._execute(None).to_dict()

    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=500),
           checkpoint_every=st.integers(min_value=100, max_value=600))
    def test_kill_resume_of_batched_run(self, tmp_path_factory, seed,
                                        checkpoint_every):
        # Run on the fast path with a journal, simulate a kill right
        # after the last checkpoint, then resume -- fast-path and
        # reference resumes of the surviving journal must agree
        # exactly.
        tmp_path = tmp_path_factory.mktemp("batch-resume")
        spec = ShardSpec(index=0, shard_count=4, master_seed=seed,
                         seed=derive_shard_seed(seed, 0),
                         limits=CampaignLimits(max_frames=1000))
        batch_dir = tmp_path / "batch"
        run_shard_batch(
            journal_build, [spec],
            journal_infos=[(None, str(batch_dir), checkpoint_every)])
        if "checkpoint" not in record_types(batch_dir):
            return  # found a defect before the first checkpoint
        shutil.copytree(batch_dir, tmp_path / "ctl")
        kill_after_last_checkpoint(batch_dir)
        kill_after_last_checkpoint(tmp_path / "ctl")
        control = reference_resume(
            CampaignJournal(DirectoryStore(str(tmp_path / "ctl"))),
            lambda: journal_build(spec),
            checkpoint_every=checkpoint_every)
        resumed = run_shard_batch(
            journal_build, [spec],
            journal_infos=[(None, str(batch_dir), checkpoint_every)])
        assert resumed[0][0].to_dict() == control.to_dict()
        assert read_records(batch_dir) == read_records(tmp_path / "ctl")
