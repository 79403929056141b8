"""Tests for the transport fixes behind stateful UDS fuzzing.

Covers the single-frame failure path, the empty-payload guard, the
STmin codec (microsecond encodings and the reserved-value fallback),
transmit aborts, checkpoint state round-trips, and a property test
that round-trips arbitrary payloads under randomised flow-control
parameters and frame loss -- bit-identically across snapshot/restore.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.can.bus import CanBus
from repro.can.frame import CanFrame
from repro.can.node import CanController
from repro.sim.clock import MS, SECOND, US
from repro.sim.kernel import Simulator
from repro.sim.snapshot import capture
from repro.uds.isotp import (
    MAX_PAYLOAD,
    ST_MIN_RESERVED_FALLBACK,
    IsoTpEndpoint,
    IsoTpError,
    decode_st_min,
    encode_st_min,
)

from tests.uds.test_isotp import make_channel


def make_fallible_endpoint(sim, bus, *, name="fallible",
                           tx_id=0x7E8, rx_id=0x7E0):
    """An endpoint whose transmit path can be switched off."""
    node = CanController(name)
    node.attach(bus)
    allow_tx = [True]
    endpoint = IsoTpEndpoint(
        sim, lambda f: allow_tx[0] and (node.send(f) or True),
        tx_id=tx_id, rx_id=rx_id)
    node.set_rx_handler(endpoint.handle_frame)
    return endpoint, allow_tx


class TestSendFailurePaths:
    def test_single_frame_send_failure_is_an_error(self, sim, bus):
        endpoint, allow_tx = make_fallible_endpoint(sim, bus)
        errors, done = [], []
        endpoint.on_error(errors.append)
        allow_tx[0] = False
        endpoint.send(b"\x3e\x00", on_complete=lambda: done.append(1))
        assert errors and "single frame" in errors[0]
        assert done == []
        assert endpoint.messages_sent == 0
        assert endpoint.errors == 1
        assert endpoint.tx_idle

    def test_first_frame_send_failure_is_an_error(self, sim, bus):
        endpoint, allow_tx = make_fallible_endpoint(sim, bus)
        errors = []
        endpoint.on_error(errors.append)
        allow_tx[0] = False
        endpoint.send(bytes(50))
        assert errors and "first frame" in errors[0]
        assert endpoint.messages_sent == 0
        assert endpoint.tx_idle  # a failed send leaves the channel free

    def test_empty_payload_rejected(self, sim, bus):
        left, _ = make_channel(sim, bus)
        with pytest.raises(IsoTpError):
            left.send(b"")
        assert left.messages_sent == 0

    def test_tx_failure_preserves_in_progress_reception(self, sim, bus):
        endpoint, allow_tx = make_fallible_endpoint(sim, bus)
        got, errors = [], []
        endpoint.on_message(got.append)
        endpoint.on_error(errors.append)
        peer = CanController("peer")
        peer.attach(bus)
        payload = bytes(range(10))
        peer.send(CanFrame(0x7E0, bytes((0x10, 10)) + payload[:6]))
        sim.run_for(5 * MS)  # FF handled, reassembly in progress
        allow_tx[0] = False
        endpoint.send(b"\x3e\x00")
        assert errors  # the send failed ...
        allow_tx[0] = True
        peer.send(CanFrame(0x7E0, bytes((0x21,)) + payload[6:]))
        sim.run_for(5 * MS)
        assert got == [payload]  # ... but reception survived it

    def test_abort_tx_frees_the_channel_without_error(self, sim, bus):
        left_node = CanController("lonely")
        left_node.attach(bus)
        left = IsoTpEndpoint(sim, lambda f: (left_node.send(f) or True),
                             tx_id=0x7E0, rx_id=0x7E8)
        errors = []
        left.on_error(errors.append)
        left.send(bytes(50))  # nobody answers the FF
        assert not left.tx_idle
        left.abort_tx()
        assert left.tx_idle
        assert left.tx_aborted == 1
        assert errors == []
        sim.run_for(2 * SECOND)
        assert errors == []  # the N_Bs timer was disarmed too
        left.send(b"\x3e\x00")  # and the channel is usable again


class TestStMinCodec:
    def test_millisecond_range_decodes_linearly(self):
        assert decode_st_min(0x00) == 0
        assert decode_st_min(0x01) == 1 * MS
        assert decode_st_min(0x7F) == 127 * MS

    def test_microsecond_encodings(self):
        assert decode_st_min(0xF1) == 100 * US
        assert decode_st_min(0xF5) == 500 * US
        assert decode_st_min(0xF9) == 900 * US

    @pytest.mark.parametrize("raw", [0x80, 0xA0, 0xF0, 0xFA, 0xFF])
    def test_reserved_values_fall_back_to_maximum(self, raw):
        assert decode_st_min(raw) == ST_MIN_RESERVED_FALLBACK
        assert ST_MIN_RESERVED_FALLBACK == 127 * MS

    def test_encode_covers_both_ranges(self):
        assert encode_st_min(0) == 0x00
        assert encode_st_min(500 * US) == 0xF5
        assert encode_st_min(50 * US) == 0xF1  # minimum sub-ms encoding
        assert encode_st_min(3 * MS) == 0x03
        assert encode_st_min(300 * MS) == 0x7F  # clamped

    @pytest.mark.parametrize("ticks",
                             [0, 100 * US, 900 * US, 1 * MS, 127 * MS])
    def test_exact_values_roundtrip(self, ticks):
        assert decode_st_min(encode_st_min(ticks)) == ticks

    def test_receiver_advertised_microsecond_gap_reaches_sender(self, sim,
                                                                bus):
        left_node = CanController("left")
        left_node.attach(bus)
        right_node = CanController("right")
        right_node.attach(bus)
        left = IsoTpEndpoint(sim, lambda f: (left_node.send(f) or True),
                             tx_id=0x7E0, rx_id=0x7E8)
        right = IsoTpEndpoint(sim, lambda f: (right_node.send(f) or True),
                              tx_id=0x7E8, rx_id=0x7E0, st_min=300 * US)
        left_node.set_rx_handler(left.handle_frame)
        right_node.set_rx_handler(right.handle_frame)
        got = []
        right.on_message(got.append)
        payload = bytes(range(40))
        left.send(payload)
        sim.run_for(1 * SECOND)
        assert got == [payload]
        assert left._peer_st_min == 300 * US

    def test_reserved_st_min_from_peer_forces_maximum_pacing(self, sim, bus):
        left_node = CanController("left")
        left_node.attach(bus)
        left = IsoTpEndpoint(sim, lambda f: (left_node.send(f) or True),
                             tx_id=0x7E0, rx_id=0x7E8)
        left_node.set_rx_handler(left.handle_frame)
        peer = CanController("peer")
        peer.attach(bus)
        left.send(bytes(50))
        sim.run_for(2 * MS)
        # Flow control advertising the reserved STmin byte 0x80: before
        # the fix this decoded as 128 ms-ish milliseconds; per ISO
        # 15765-2 the sender must assume the maximum separation.
        peer.send(CanFrame(0x7E8, bytes((0x30, 0x00, 0x80))))
        sim.run_for(10 * MS)
        assert left._peer_st_min == ST_MIN_RESERVED_FALLBACK
        # Pacing is really 127 ms: far too slow to finish in 100 ms ...
        sim.run_for(100 * MS)
        assert not left.tx_idle
        # ... but the transfer completes given enough time.
        sim.run_for(6 * SECOND)
        assert left.tx_idle and left.messages_sent == 1


class TestEndpointState:
    def test_state_roundtrip_preserves_digest(self, sim, bus):
        left, right = make_channel(sim, bus)
        left.send(bytes(range(100)))
        sim.run_for(1 * SECOND)
        left.abort_tx()  # exercise a non-zero counter
        state = left.state_dict()
        other = IsoTpEndpoint(Simulator(), lambda f: True,
                              tx_id=0x7E0, rx_id=0x7E8)
        other.load_state(state)
        assert other.state_digest() == left.state_digest()
        assert other.messages_sent == left.messages_sent

    def test_state_dict_is_json_ready(self, sim, bus):
        import json

        left, _ = make_channel(sim, bus)
        left.send(bytes(20))
        json.dumps(left.state_dict())  # must not raise mid-transfer either


class TestTransportProperty:
    @settings(max_examples=20, deadline=None)
    @given(payload=st.binary(min_size=1, max_size=MAX_PAYLOAD),
           block_size=st.sampled_from([0, 1, 4, 15]),
           st_min=st.sampled_from([0, 100 * US, 300 * US, 1 * MS, 2 * MS]),
           loss=st.sampled_from([0.0, 0.02, 0.1]),
           seed=st.integers(min_value=0, max_value=2 ** 16))
    def test_roundtrip_under_noise_and_snapshot(self, payload, block_size,
                                                st_min, loss, seed):
        """Any payload either arrives intact or not at all, and the
        outcome is bit-identical when resumed from a mid-transfer
        snapshot."""
        sim = Simulator()
        bus = CanBus(sim, name="prop")
        rng = random.Random(seed)
        left_node = CanController("left")
        left_node.attach(bus)
        right_node = CanController("right")
        right_node.attach(bus)
        left = IsoTpEndpoint(sim, lambda f: (left_node.send(f) or True),
                             tx_id=0x7E0, rx_id=0x7E8,
                             block_size=block_size, st_min=st_min)
        right = IsoTpEndpoint(sim, lambda f: (right_node.send(f) or True),
                              tx_id=0x7E8, rx_id=0x7E0,
                              block_size=block_size, st_min=st_min)
        left_node.set_rx_handler(
            lambda s: None if rng.random() < loss else left.handle_frame(s))
        right_node.set_rx_handler(
            lambda s: None if rng.random() < loss else right.handle_frame(s))
        got = []
        right.on_message(got.append)
        left.send(payload)
        sim.run_for(3 * MS)  # long payloads are mid-transfer here
        snap = capture((sim, left, right, got, rng))
        sim.run_for(8 * SECOND)
        assert got in ([], [payload])  # intact or lost, never corrupt
        outcome = (list(got), left.state_digest(), right.state_digest(),
                   sim.now)
        sim2, left2, right2, got2, _ = snap.restore()
        sim2.run_for(8 * SECOND)
        resumed = (list(got2), left2.state_digest(),
                   right2.state_digest(), sim2.now)
        assert resumed == outcome
