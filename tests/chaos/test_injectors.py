"""Per-layer injectors and guards: clock, storage, quota, rlimits."""

import pickle

import pytest

from repro.chaos import ChaosStoreFactory, SkewedClock
from repro.fuzz.durability import (DirectoryStore, DiskQuotaExceeded,
                                   FaultyStore, QuotaStore)
from repro.fuzz.parallel import ResourceGuards


class TestSkewedClock:
    def test_rate_scales_elapsed_time(self):
        wall = [100.0]
        clock = SkewedClock(rate=2.0, source=lambda: wall[0])
        start = clock()
        wall[0] += 5.0
        assert clock() - start == pytest.approx(10.0)

    def test_jump_steps_forward(self):
        clock = SkewedClock(source=lambda: 0.0)
        before = clock()
        clock.jump(3.5)
        assert clock() - before == pytest.approx(3.5)
        assert clock.stats()["jumps"] == 1
        assert clock.stats()["jumped_seconds"] == pytest.approx(3.5)

    def test_backwards_jump_refused(self):
        with pytest.raises(ValueError, match="forward"):
            SkewedClock().jump(-1.0)

    def test_rate_must_be_positive(self):
        with pytest.raises(ValueError, match="rate"):
            SkewedClock(rate=0.0)

    def test_monotonic_under_rate_and_jumps(self):
        wall = [0.0]
        clock = SkewedClock(rate=0.5, source=lambda: wall[0])
        readings = []
        for step in range(20):
            wall[0] += 0.1
            if step % 5 == 0:
                clock.jump(0.2)
            readings.append(clock())
        assert readings == sorted(readings)


class TestChaosStoreFactory:
    def test_pickles_for_the_worker_boundary(self):
        factory = ChaosStoreFactory(seed=7, fail_rate=0.1)
        clone = pickle.loads(pickle.dumps(factory))
        assert clone == factory

    def test_builds_a_seeded_faulty_store(self, tmp_path):
        factory = ChaosStoreFactory(seed=7, fail_rate=0.5,
                                    torn_rate=0.25)
        store = factory(str(tmp_path / "j"))
        assert isinstance(store, FaultyStore)
        assert store.fail_rate == 0.5
        assert store.torn_rate == 0.25

    def test_per_path_fault_streams_are_deterministic(self, tmp_path):
        factory = ChaosStoreFactory(seed=7, fail_rate=0.5)

        def fault_pattern(path):
            store = factory(str(path))
            pattern = []
            for index in range(50):
                try:
                    store.append("x.bin", b"data")
                    pattern.append(0)
                except OSError:
                    pattern.append(1)
            return pattern

        # Same path: identical schedule (re-executed job sees the
        # same weather).  Different path: independent schedule.
        first = fault_pattern(tmp_path / "a")
        (tmp_path / "a" / "x.bin").unlink()
        assert fault_pattern(tmp_path / "a") == first
        assert fault_pattern(tmp_path / "b") != first


class TestQuotaStore:
    def test_append_within_quota_passes_through(self, tmp_path):
        store = QuotaStore(DirectoryStore(tmp_path), quota_bytes=100)
        store.append("a.bin", b"x" * 60)
        assert store.used_bytes == 60
        assert store.read("a.bin") == b"x" * 60

    def test_breach_raises_before_writing(self, tmp_path):
        store = QuotaStore(DirectoryStore(tmp_path), quota_bytes=100)
        store.append("a.bin", b"x" * 60)
        with pytest.raises(DiskQuotaExceeded, match="quota"):
            store.append("a.bin", b"y" * 50)
        # The refused write never reached the disk.
        assert store.read("a.bin") == b"x" * 60

    def test_quota_breach_is_not_an_oserror(self, tmp_path):
        # The whole design hinges on this: OSError degrades the
        # journal to memory-only; a quota breach must escalate.
        store = QuotaStore(DirectoryStore(tmp_path), quota_bytes=10)
        with pytest.raises(DiskQuotaExceeded) as excinfo:
            store.append("a.bin", b"z" * 11)
        assert not isinstance(excinfo.value, OSError)
        assert isinstance(excinfo.value, RuntimeError)

    def test_remove_refunds_the_bytes(self, tmp_path):
        store = QuotaStore(DirectoryStore(tmp_path), quota_bytes=100)
        store.append("a.bin", b"x" * 80)
        store.remove("a.bin")
        store.append("b.bin", b"y" * 80)
        assert store.used_bytes == 80

    def test_existing_bytes_count_at_attach(self, tmp_path):
        inner = DirectoryStore(tmp_path)
        inner.append("old.bin", b"x" * 70)
        store = QuotaStore(DirectoryStore(tmp_path), quota_bytes=100)
        assert store.used_bytes == 70
        with pytest.raises(DiskQuotaExceeded):
            store.append("new.bin", b"y" * 40)

    def test_sub_stores_share_one_budget(self, tmp_path):
        store = QuotaStore(DirectoryStore(tmp_path), quota_bytes=100)
        child = store.sub("shard-0000")
        child.append("a.bin", b"x" * 60)
        assert store.used_bytes == 60
        with pytest.raises(DiskQuotaExceeded):
            store.append("b.bin", b"y" * 50)


class TestResourceGuards:
    def test_validation(self):
        with pytest.raises(ValueError, match="cpu_seconds"):
            ResourceGuards(cpu_seconds=0)
        with pytest.raises(ValueError, match="address_space"):
            ResourceGuards(address_space_bytes=100)

    def test_pickles_for_the_worker_boundary(self):
        guards = ResourceGuards(cpu_seconds=5,
                                address_space_bytes=1 << 28)
        assert pickle.loads(pickle.dumps(guards)) == guards

    def test_apply_is_a_noop_without_limits(self):
        assert ResourceGuards().apply() == []

    def test_apply_sets_rlimits_in_a_child(self):
        resource = pytest.importorskip("resource")
        import multiprocessing

        def probe(conn):
            notes = ResourceGuards(cpu_seconds=60).apply()
            soft, _hard = resource.getrlimit(resource.RLIMIT_CPU)
            conn.send((notes, soft))
            conn.close()

        parent, child = multiprocessing.Pipe(duplex=False)
        process = multiprocessing.get_context("fork").Process(
            target=probe, args=(child,))
        process.start()
        child.close()
        notes, soft = parent.recv()
        process.join()
        assert soft == 60
        assert any("RLIMIT_CPU" in note for note in notes)
