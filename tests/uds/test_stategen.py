"""Tests for protocol-state coverage and the stateful UDS generator."""

import random

from repro.fuzz.coverage import ProtocolStateCoverage
from repro.uds.client import UdsResponse
from repro.uds.stategen import (KEY_ALGORITHMS, UdsStateGenerator, crc8_key,
                                lfsr8_key)

from tests.fuzz.reference import reference_record_batch


def positive(*payload):
    return UdsResponse(bytes(payload))


def negative(sid, nrc):
    return UdsResponse(bytes((0x7F, sid, nrc)))


TIMEOUT = UdsResponse(None)


class TestProtocolStateCoverage:
    def test_first_tuple_is_new_repeat_is_not(self):
        coverage = ProtocolStateCoverage()
        assert coverage.record(0x10, 0x03, 0, 0x01)
        assert not coverage.record(0x10, 0x03, 0, 0x01)
        assert coverage.tuples_seen == 1
        assert coverage.exchanges_recorded == 2

    def test_dimensions_are_distinguished(self):
        coverage = ProtocolStateCoverage()
        coverage.record(0x10, 0x03, 0, 0x01)
        assert coverage.record(0x10, 0x02, 0, 0x01)  # other sub-function
        assert coverage.record(0x10, 0x03, 0x33, 0x01)  # other NRC
        assert coverage.record(0x10, 0x03, 0, 0x03)  # other session
        assert coverage.tuples_seen == 4

    def test_summary_is_json_ready(self):
        import json

        coverage = ProtocolStateCoverage()
        coverage.record(0x22, -1, 0x31, 0x01)
        summary = coverage.summary()
        json.dumps(summary)
        assert summary["tuples"] == 1
        assert "0x22" in summary["services"]

    def test_state_roundtrip(self):
        coverage = ProtocolStateCoverage()
        coverage.record(0x10, 0x03, 0, 0x01)
        coverage.record(0x27, 0x01, 0x22, 0x03)
        restored = ProtocolStateCoverage()
        restored.load_state(coverage.state_dict())
        assert restored.state_digest() == coverage.state_digest()
        assert not restored.record(0x10, 0x03, 0, 0x01)  # still known


class TestRecordBatch:
    """The vectorised tuple accounting against its loop oracle."""

    @staticmethod
    def random_exchanges(rng, count):
        # Narrow field ranges force plenty of duplicates, and the -1
        # sentinels (no sub-function / timeout) are always in play.
        return [(rng.choice((0x10, 0x22, 0x27, 0x3E)),
                 rng.choice((-1, 0x01, 0x02, 0x03)),
                 rng.choice((-1, 0x00, 0x11, 0x33, 0x7F)),
                 rng.choice((0x01, 0x02, 0x03)))
                for _ in range(count)]

    def test_empty_batch(self):
        assert ProtocolStateCoverage().record_batch([]) == []

    def test_matches_the_loop_oracle(self):
        rng = random.Random(20180625)
        fast, slow = ProtocolStateCoverage(), ProtocolStateCoverage()
        for _ in range(20):
            batch = self.random_exchanges(rng, rng.randrange(0, 40))
            assert (fast.record_batch(batch)
                    == reference_record_batch(slow, batch))
            assert fast.state_digest() == slow.state_digest()
        assert fast.exchanges_recorded == slow.exchanges_recorded
        assert fast.tuples_seen == slow.tuples_seen

    def test_first_occurrence_within_batch_is_the_new_one(self):
        coverage = ProtocolStateCoverage()
        flags = coverage.record_batch([
            (0x10, 0x03, 0, 0x01),
            (0x10, 0x03, 0, 0x01),   # duplicate inside the batch
            (0x22, -1, 0x31, 0x01),
        ])
        assert flags == [True, False, True]
        assert coverage.count(0x10, 0x03, 0, 0x01) == 2
        # A later batch sees the map, not just itself.
        assert coverage.record_batch([(0x22, -1, 0x31, 0x01)]) == [False]


class TestKeyAlgorithms:
    def test_registry_is_append_only(self):
        # Indices are persisted in checkpoints and finding metadata;
        # the original five entries must keep their positions.
        names = [name for name, _ in KEY_ALGORITHMS]
        assert names[:5] == ["xor-a5", "identity", "complement",
                            "plus-one", "swap-nibbles"]
        assert names[5:] == ["crc8-j1850", "lfsr8-b8"]

    def test_crc8_known_answers(self):
        # CRC-8/SAE-J1850: poly 0x1D, init 0xFF, xorout 0xFF.
        assert crc8_key(0x00) == 0x3B
        assert crc8_key(0x5A) == 0x37
        assert crc8_key(0xA5) == 0xF3
        assert crc8_key(0xFF) == 0xFF

    def test_crc8_matches_reference_bitwise_crc(self):
        def reference(byte):
            crc = 0xFF ^ byte
            for _ in range(8):
                crc = (((crc << 1) ^ 0x1D) if crc & 0x80
                       else (crc << 1)) & 0xFF
            return crc ^ 0xFF

        assert all(crc8_key(s) == reference(s) for s in range(256))

    def test_lfsr_known_answers(self):
        assert lfsr8_key(0x5A) == 0x30
        assert lfsr8_key(0xA5) == 0x13
        assert lfsr8_key(0x31) == 0x5D

    def test_lfsr_zero_seed_is_not_a_fixed_point(self):
        # An all-zero LFSR state never leaves zero; the algorithm must
        # substitute a non-zero state first.
        assert lfsr8_key(0x00) != 0x00
        assert lfsr8_key(0x00) == lfsr8_key(0xFF)  # both map via 0xFF

    def test_lfsr_is_bijective_on_nonzero_seeds(self):
        keys = {lfsr8_key(seed) for seed in range(1, 256)}
        assert len(keys) == 255

    def test_all_algorithms_emit_one_byte(self):
        # The sendKey request carries the key as a single byte.
        for name, algorithm in KEY_ALGORITHMS:
            for seed in range(256):
                assert 0 <= algorithm(seed) <= 0xFF, name


class TestUdsStateGenerator:
    def drive(self, generator, steps):
        """Run the generator with canned answers; returns the stream."""
        stream = []
        for _ in range(steps):
            request = generator.next_request()
            stream.append(request)
            # Answer everything negatively so beliefs stay put; the
            # point here is the request stream, not the state walk.
            generator.observe(request, negative(request[0], 0x11))
        return stream

    def test_same_seed_same_stream(self):
        a = UdsStateGenerator(random.Random(42))
        b = UdsStateGenerator(random.Random(42))
        assert self.drive(a, 200) == self.drive(b, 200)

    def test_state_walk_follows_positive_responses(self):
        generator = UdsStateGenerator(random.Random(0))
        # Walk the belief machine by hand through observe().
        generator.observe(bytes((0x10, 0x03)), positive(0x50, 0x03))
        generator.observe(bytes((0x27, 0x01)), positive(0x67, 0x01, 0x5A))
        assert generator._seed == 0x5A
        generator.observe(bytes((0x27, 0x02, 0xFF)), positive(0x67, 0x02))
        assert generator._unlocked
        generator.observe(bytes((0x10, 0x02)), positive(0x50, 0x02))
        # Armed: the witness reconstructs the whole walk.
        witness = generator.state_witness()
        assert witness[0] == bytes((0x10, 0x03))
        assert witness[1] == bytes((0x27, 0x01))
        assert witness[2][:2] == bytes((0x27, 0x02))
        assert witness[-1] == bytes((0x10, 0x02))

    def test_witness_empty_in_default_locked_state(self):
        generator = UdsStateGenerator(random.Random(0))
        assert generator.state_witness() == ()

    def test_key_algorithm_learned_from_accepted_key(self):
        generator = UdsStateGenerator(random.Random(0))
        generator._last_key_algorithm = 0
        generator.observe(bytes((0x27, 0x02, 0xFF)), positive(0x67, 0x02))
        assert generator.key_algorithm == 0
        assert generator.key_algorithm_name == KEY_ALGORITHMS[0][0]

    def test_reset_clears_lockout_belief(self):
        generator = UdsStateGenerator(random.Random(0))
        generator.observe(bytes((0x27, 0x02, 0x00)), negative(0x27, 0x36))
        assert generator._locked_out
        # While locked out the state move is always a hard reset.
        for _ in range(50):
            request = generator.next_request()
            if request[:1] == b"\x11":
                break
        else:
            raise AssertionError("no ECU reset attempted under lockout")
        generator.observe(bytes((0x11, 0x01)), positive(0x51, 0x01))
        assert not generator._locked_out

    def test_denied_write_marks_did_interesting(self):
        generator = UdsStateGenerator(random.Random(0))
        generator.observe(bytes((0x2E, 0xF1, 0xA0, 0x00)),
                          negative(0x2E, 0x33))
        assert 0xF1A0 in generator._interesting_dids

    def test_timeouts_do_not_enter_the_corpus(self):
        generator = UdsStateGenerator(random.Random(0))
        generator.observe(bytes((0x10, 0x03)), TIMEOUT)
        assert generator._corpus == []

    def test_state_roundtrip_continues_identically(self):
        a = UdsStateGenerator(random.Random(7))
        self.drive(a, 100)
        b = UdsStateGenerator(random.Random(0))
        b.load_state(a.state_dict())
        assert b.state_digest() == a.state_digest()
        assert self.drive(a, 100) == self.drive(b, 100)


class TestSessionSweep:
    """The deterministic session sub-function sweep: protocol moves
    walk DiagnosticSessionControl through every sub byte in order, so
    the NRC-path hang (sub 0x04) is found without luck."""

    def test_sweep_emits_every_sub_in_order(self):
        generator = UdsStateGenerator(random.Random(0))
        subs = [generator._advance_session_sweep() for _ in range(258)]
        assert subs[:256] == list(range(256))
        assert subs[256:] == [0, 1]        # wraps

    def test_protocol_moves_drive_the_sweep(self):
        # Within the protocol-probe move, session-control requests
        # come exclusively from the sweep, so the subs appear in
        # counter order from zero -- 0x04, the probe that exposes the
        # hang, among the first few.
        generator = UdsStateGenerator(random.Random(0))
        seen = []
        for _ in range(500):
            request = generator._protocol_move()
            if request[0] == 0x10:
                seen.append(request[1])
        assert seen == list(range(len(seen)))
        assert 0x04 in seen

    def test_sweep_position_rides_checkpoints(self):
        a = UdsStateGenerator(random.Random(7))
        for _ in range(10):
            a._advance_session_sweep()
        state = a.state_dict()
        assert state["session_sweep"] == 10
        b = UdsStateGenerator(random.Random(0))
        b.load_state(state)
        assert b._advance_session_sweep() == 10
