"""Tests for the truncated-MAC CAN authentication scheme."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.defense.authentication import (
    AuthError,
    AuthVerdict,
    CanAuthenticator,
)

KEY = b"sixteen-byte-key"
CMD_ID = 0x215


def linked_pair(**kwargs):
    """Sender and receiver sharing a key."""
    return (CanAuthenticator(KEY, CMD_ID, **kwargs),
            CanAuthenticator(KEY, CMD_ID, **kwargs))


class TestConfiguration:
    def test_empty_key_rejected(self):
        with pytest.raises(AuthError):
            CanAuthenticator(b"", CMD_ID)

    def test_tag_size_bounds(self):
        with pytest.raises(AuthError):
            CanAuthenticator(KEY, CMD_ID, tag_bytes=0)
        with pytest.raises(AuthError):
            CanAuthenticator(KEY, CMD_ID, tag_bytes=9)

    def test_overhead_accounting(self):
        auth = CanAuthenticator(KEY, CMD_ID, tag_bytes=2, counter_bytes=1)
        assert auth.overhead == 3
        assert auth.max_data == 5

    def test_oversize_data_rejected(self):
        sender, _ = linked_pair()
        with pytest.raises(AuthError):
            sender.protect(bytes(6))  # 6 + 3 overhead > 8


class TestHappyPath:
    def test_protect_verify_roundtrip(self):
        sender, receiver = linked_pair()
        frame = sender.protect(b"\x20\x5f")
        verdict, data = receiver.verify(frame)
        assert verdict is AuthVerdict.AUTHENTIC
        assert data == b"\x20\x5f"

    def test_counters_advance(self):
        sender, receiver = linked_pair()
        for _ in range(10):
            verdict, _ = receiver.verify(sender.protect(b"\x20"))
            assert verdict is AuthVerdict.AUTHENTIC
        assert receiver.accepted == 10

    def test_lost_frames_tolerated_within_window(self):
        sender, receiver = linked_pair(counter_window=8)
        receiver.verify(sender.protect(b"\x20"))
        for _ in range(5):
            sender.protect(b"\x20")   # frames lost on the wire
        verdict, _ = receiver.verify(sender.protect(b"\x20"))
        assert verdict is AuthVerdict.AUTHENTIC

    @given(data=st.binary(max_size=5))
    def test_property_roundtrip_any_payload(self, data):
        sender, receiver = linked_pair()
        verdict, restored = receiver.verify(sender.protect(data))
        assert verdict is AuthVerdict.AUTHENTIC
        assert restored == data


class TestAttacks:
    def test_replay_rejected(self):
        sender, receiver = linked_pair()
        frame = sender.protect(b"\x20")
        assert receiver.verify(frame)[0] is AuthVerdict.AUTHENTIC
        assert receiver.verify(frame)[0] is AuthVerdict.REPLAYED

    def test_stale_counter_rejected_beyond_window(self):
        sender, receiver = linked_pair(counter_window=4)
        old = sender.protect(b"\x20")
        for _ in range(6):
            receiver.verify(sender.protect(b"\x20"))
        assert receiver.verify(old)[0] is AuthVerdict.REPLAYED

    def test_forged_tag_rejected(self):
        sender, receiver = linked_pair()
        frame = sender.protect(b"\x20")
        tampered = frame.replace_data(
            frame.data[:-1] + bytes((frame.data[-1] ^ 1,)))
        assert receiver.verify(tampered)[0] is AuthVerdict.BAD_TAG

    def test_tampered_payload_rejected(self):
        sender, receiver = linked_pair()
        frame = sender.protect(b"\x10")
        tampered = frame.replace_data(b"\x20" + frame.data[1:])
        assert receiver.verify(tampered)[0] is AuthVerdict.BAD_TAG

    def test_wrong_key_rejected(self):
        sender = CanAuthenticator(b"other-key", CMD_ID)
        receiver = CanAuthenticator(KEY, CMD_ID)
        assert receiver.verify(sender.protect(b"\x20"))[0] \
            is AuthVerdict.BAD_TAG

    def test_short_frame_malformed(self):
        _, receiver = linked_pair()
        from repro.can.frame import CanFrame
        assert receiver.verify(CanFrame(CMD_ID, b"\x20"))[0] \
            is AuthVerdict.MALFORMED

    @settings(max_examples=200, derandomize=True, database=None)
    @given(payload=st.binary(min_size=3, max_size=8))
    def test_property_random_frames_never_authentic(self, payload):
        """The fuzzer's view: a random payload authenticates with
        probability at most 2^-16 per draw (a 2-byte truncated tag), so
        200 draws never do -- on a fixed sample.  Over free draws some
        checkout eventually meets a payload that passes, and an example
        database would then replay it on every run there; a fixed seed
        and no database check the same 200 payloads everywhere."""
        from repro.can.frame import CanFrame
        _, receiver = linked_pair()
        verdict, _ = receiver.verify(CanFrame(CMD_ID, payload))
        assert verdict is not AuthVerdict.AUTHENTIC
