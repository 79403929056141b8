"""Tests for the DBC-lite signal codec."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.can.frame import CanFrame, FrameError
from repro.vehicle.signals import (
    FRAME_MEMO_MAX,
    DecodedMessage,
    MessageDef,
    SignalCodecError,
    SignalDatabase,
    SignalDef,
)

from . import reference


class TestSignalValidation:
    def test_length_bounds(self):
        with pytest.raises(SignalCodecError):
            SignalDef("bad", 0, 0)
        with pytest.raises(SignalCodecError):
            SignalDef("bad", 0, 65)

    def test_unknown_byte_order(self):
        with pytest.raises(SignalCodecError):
            SignalDef("bad", 0, 8, byte_order="middle_endian")

    def test_zero_scale_rejected(self):
        with pytest.raises(SignalCodecError):
            SignalDef("bad", 0, 8, scale=0)


class TestLittleEndian:
    def test_byte_aligned(self):
        sig = SignalDef("s", start_bit=8, length=8)
        data = bytearray(3)
        sig.encode(data, 0xAB)
        assert data == bytearray((0, 0xAB, 0))
        assert sig.decode(bytes(data)) == 0xAB

    def test_cross_byte(self):
        sig = SignalDef("s", start_bit=4, length=8)
        data = bytearray(2)
        sig.insert_raw(data, 0xFF)
        assert data == bytearray((0xF0, 0x0F))

    def test_sixteen_bit_little_endian_layout(self):
        sig = SignalDef("s", start_bit=0, length=16)
        data = bytearray(2)
        sig.insert_raw(data, 0x1234)
        assert data == bytearray((0x34, 0x12))  # LSB in byte 0


class TestBigEndian:
    def test_byte_aligned_motorola(self):
        sig = SignalDef("s", start_bit=7, length=8,
                        byte_order="big_endian")
        data = bytearray(2)
        sig.insert_raw(data, 0xAB)
        assert data == bytearray((0xAB, 0))

    def test_sixteen_bit_motorola_layout(self):
        sig = SignalDef("s", start_bit=7, length=16,
                        byte_order="big_endian")
        data = bytearray(2)
        sig.insert_raw(data, 0x1234)
        assert data == bytearray((0x12, 0x34))  # MSB in byte 0

    @given(value=st.integers(0, 0xFFFF))
    def test_property_motorola_roundtrip(self, value):
        sig = SignalDef("s", start_bit=3, length=16,
                        byte_order="big_endian")
        data = bytearray(4)
        sig.insert_raw(data, value)
        assert sig.extract_raw(bytes(data)) == value


class TestSignedAndScaled:
    def test_signed_roundtrip(self):
        sig = SignalDef("s", 0, 16, signed=True, scale=0.25)
        data = bytearray(2)
        sig.encode(data, -100.0)
        assert sig.decode(bytes(data)) == -100.0

    def test_raw_range_enforced_on_encode(self):
        sig = SignalDef("s", 0, 8)
        with pytest.raises(SignalCodecError):
            sig.insert_raw(bytearray(1), 256)
        with pytest.raises(SignalCodecError):
            sig.insert_raw(bytearray(1), -1)

    def test_signed_range(self):
        sig = SignalDef("s", 0, 8, signed=True)
        data = bytearray(1)
        sig.insert_raw(data, -128)
        assert sig.extract_raw(bytes(data)) == -128
        with pytest.raises(SignalCodecError):
            sig.insert_raw(bytearray(1), 128)

    def test_offset_and_scale(self):
        sig = SignalDef("temp", 0, 8, offset=-40.0)
        data = bytearray(1)
        sig.encode(data, 90.0)
        assert data[0] == 130
        assert sig.decode(bytes(data)) == 90.0

    def test_documented_range_not_enforced_on_decode(self):
        """Fig 8's point: out-of-range values decode without clamping."""
        sig = SignalDef("rpm", 0, 16, signed=True, scale=0.25,
                        minimum=0, maximum=8000)
        data = bytearray(2)
        sig.insert_raw(data, -5000)
        assert sig.decode(bytes(data)) == -1250.0

    @given(value=st.integers(-(1 << 15), (1 << 15) - 1),
           start=st.integers(0, 16))
    def test_property_signed_roundtrip_any_position(self, value, start):
        sig = SignalDef("s", start, 16, signed=True)
        data = bytearray(5)
        sig.insert_raw(data, value)
        assert sig.extract_raw(bytes(data)) == value


class TestShortPayloads:
    def test_extract_past_end_raises(self):
        sig = SignalDef("s", 56, 8)
        with pytest.raises(SignalCodecError):
            sig.extract_raw(b"\x00" * 4)

    def test_insert_past_end_raises(self):
        sig = SignalDef("s", 56, 8)
        with pytest.raises(SignalCodecError):
            sig.insert_raw(bytearray(4), 1)


@st.composite
def codec_cases(draw):
    """A signal, a payload and a raw value, in and out of range."""
    length = draw(st.integers(1, 64))
    sig = SignalDef("s", start_bit=draw(st.integers(0, 70)), length=length,
                    byte_order=draw(st.sampled_from(("little_endian",
                                                     "big_endian"))),
                    signed=draw(st.booleans()))
    payload = draw(st.binary(max_size=9))
    raw = draw(st.integers(-(1 << length), 1 << length))
    return sig, payload, raw


def outcome(call):
    """What ``call`` returns, or the text of the codec error it raises."""
    try:
        return "value", call()
    except SignalCodecError as exc:
        return "error", str(exc)


class TestCompiledCodec:
    """The per-byte codec against the bit walk in ``reference.py``."""

    @settings(max_examples=400)
    @given(codec_cases())
    # Byte 2 missing: the Intel signal writes bytes 0 and 1 before the
    # error, the Motorola one (its LSB in byte 2) writes nothing.
    @example((SignalDef("s", start_bit=4, length=16), b"\x00\x00", 0xFFFF))
    @example((SignalDef("s", start_bit=3, length=16,
                        byte_order="big_endian"), b"\x00\x00", 0x1234))
    def test_matches_bit_walk(self, case):
        sig, payload, raw = case
        assert (outcome(lambda: sig.extract_raw(payload))
                == outcome(lambda: reference.extract_raw(sig, payload)))
        got, want = bytearray(payload), bytearray(payload)
        assert (outcome(lambda: sig.insert_raw(got, raw))
                == outcome(lambda: reference.insert_raw(sig, want, raw)))
        # Also when a byte is missing: the same bytes written before it.
        assert got == want


def demo_message():
    return MessageDef(
        name="DEMO", can_id=0x123, length=4, cycle_time_ms=10,
        signals=(
            SignalDef("alpha", 0, 8),
            SignalDef("beta", 8, 16, scale=0.1),
            SignalDef("flag", 24, 1),
        ))


class TestMessageDef:
    def test_encode_decode_roundtrip(self):
        message = demo_message()
        data = message.encode({"alpha": 5, "beta": 20.0, "flag": 1})
        assert message.decode(data) == {"alpha": 5, "beta": 20.0, "flag": 1}

    def test_missing_signals_encode_as_zero(self):
        message = demo_message()
        data = message.encode({})
        assert data == bytes(4)

    def test_unknown_signal_rejected(self):
        with pytest.raises(SignalCodecError):
            demo_message().encode({"gamma": 1})

    def test_short_payload_skips_unreachable_signals(self):
        message = demo_message()
        values = message.decode(b"\x07")
        assert values == {"alpha": 7}

    def test_strict_decode_raises_on_short(self):
        with pytest.raises(SignalCodecError):
            demo_message().decode(b"\x07", strict=True)

    def test_duplicate_signal_names_rejected(self):
        with pytest.raises(SignalCodecError):
            MessageDef("bad", 1, 8, signals=(
                SignalDef("x", 0, 8), SignalDef("x", 8, 8)))

    def test_signal_lookup(self):
        message = demo_message()
        assert message.signal("beta").scale == 0.1
        with pytest.raises(KeyError):
            message.signal("nope")

    @given(alpha=st.integers(0, 255), beta_raw=st.integers(0, 65535),
           flag=st.integers(0, 1))
    def test_property_message_roundtrip(self, alpha, beta_raw, flag):
        message = demo_message()
        values = {"alpha": alpha, "beta": beta_raw * 0.1, "flag": flag}
        decoded = message.decode(message.encode(values))
        assert decoded["alpha"] == alpha
        assert decoded["flag"] == flag
        assert decoded["beta"] == pytest.approx(beta_raw * 0.1)


class TestMessageFrame:
    @pytest.mark.parametrize("message, values", [
        (demo_message(), {"alpha": 5, "beta": 20.0, "flag": 1}),
        (MessageDef("EXT", 0x18FEF100, 8, signals=(SignalDef("x", 0, 8),),
                    extended=True), {"x": 7}),
    ])
    def test_equals_the_encoded_frame(self, message, values):
        assert message.frame(values) == CanFrame(
            message.can_id, message.encode(values),
            extended=message.extended)

    def test_equal_values_return_the_same_frame(self):
        message = demo_message()
        first = message.frame({"alpha": 5, "beta": 20.0})
        assert message.frame({"alpha": 5, "beta": 20.0}) is first
        assert message.frame({"alpha": 6, "beta": 20.0}) != first

    def test_errors_propagate_and_are_not_memoised(self):
        message = demo_message()
        with pytest.raises(SignalCodecError):
            message.frame({"gamma": 1})
        with pytest.raises(SignalCodecError):
            message.frame({"alpha": 256})
        wide = MessageDef("WIDE", 0x800, 1, signals=(SignalDef("x", 0, 8),))
        with pytest.raises(FrameError):
            wide.frame({"x": 1})
        assert message._frames == {} and wide._frames == {}

    def test_memo_stays_bounded(self):
        message = demo_message()
        for raw in range(FRAME_MEMO_MAX + 10):
            message.frame({"beta": raw * 0.1})
            assert len(message._frames) <= FRAME_MEMO_MAX
        assert message.frame({"beta": 0.0}) == CanFrame(
            message.can_id, message.encode({"beta": 0.0}))


class TestSignalDatabase:
    def test_lookup_by_id_and_name(self):
        db = SignalDatabase([demo_message()])
        assert db.by_id(0x123).name == "DEMO"
        assert db.by_name("DEMO").can_id == 0x123

    def test_contains_and_len(self):
        db = SignalDatabase([demo_message()])
        assert 0x123 in db
        assert 0x124 not in db
        assert len(db) == 1

    def test_duplicate_id_rejected(self):
        db = SignalDatabase([demo_message()])
        with pytest.raises(SignalCodecError):
            db.add(MessageDef("OTHER", 0x123, 8))

    def test_duplicate_name_rejected(self):
        db = SignalDatabase([demo_message()])
        with pytest.raises(SignalCodecError):
            db.add(MessageDef("DEMO", 0x124, 8))

    def test_decode_payload_unknown_id_returns_none(self):
        db = SignalDatabase([demo_message()])
        assert db.decode_payload(0x999, b"") is None

    def test_ids_sorted(self):
        db = SignalDatabase([demo_message(),
                             MessageDef("LOW", 0x001, 8)])
        assert db.ids == (0x001, 0x123)

    def test_missing_lookups_raise(self):
        db = SignalDatabase()
        with pytest.raises(KeyError):
            db.by_id(1)
        with pytest.raises(KeyError):
            db.by_name("x")
