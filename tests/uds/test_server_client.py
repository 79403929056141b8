"""Tests for the UDS server and client over the simulated bus."""

import pytest

from repro.ecu.base import Ecu, EcuState
from repro.ecu.modes import OperatingMode
from repro.sim.clock import MS
from repro.uds.client import UdsClient
from repro.uds.server import (
    BOOTLOADER_SCRATCH_DID,
    SCRATCH_BUFFER_SIZE,
    UdsServer,
)
from repro.uds.services import (
    NegativeResponse,
    negative_response,
    positive_response,
)


@pytest.fixture
def rig(sim, bus):
    ecu = Ecu(sim, bus, "diag-target", boot_time=10 * MS)
    server = UdsServer(ecu)
    ecu.power_on()
    sim.run_for(50 * MS)
    client = UdsClient(sim, bus)
    return ecu, server, client


class TestServiceHelpers:
    def test_positive_response_offset(self):
        assert positive_response(0x10, b"\x01") == b"\x50\x01"

    def test_negative_response_layout(self):
        message = negative_response(
            0x22, NegativeResponse.REQUEST_OUT_OF_RANGE)
        assert message == b"\x7f\x22\x31"


class TestBasicServices:
    def test_tester_present(self, rig):
        _, _, client = rig
        response = client.tester_present()
        assert response.positive
        assert response.message == b"\x7e\x00"

    def test_read_known_did(self, rig):
        _, _, client = rig
        response = client.read_did(0xF190)
        assert response.positive
        assert b"REPRO-VIN" in response.message

    def test_read_unknown_did(self, rig):
        _, _, client = rig
        response = client.read_did(0x0001)
        assert response.nrc == NegativeResponse.REQUEST_OUT_OF_RANGE

    def test_unsupported_service(self, rig):
        _, _, client = rig
        response = client.request(b"\x99\x01")
        assert response.nrc == NegativeResponse.SERVICE_NOT_SUPPORTED

    def test_wrong_length_request(self, rig):
        _, _, client = rig
        response = client.request(b"\x22\xf1")  # DID truncated
        assert response.nrc == NegativeResponse.INCORRECT_MESSAGE_LENGTH


class TestSessions:
    def test_extended_session(self, rig):
        ecu, _, client = rig
        response = client.change_session(0x03)
        assert response.positive
        assert ecu.modes.mode is OperatingMode.DIAGNOSTIC

    def test_programming_without_security_refused(self, rig):
        ecu, _, client = rig
        client.change_session(0x03)
        response = client.change_session(0x02)
        assert response.nrc == NegativeResponse.CONDITIONS_NOT_CORRECT

    def test_unknown_session_subfunction(self, rig):
        _, _, client = rig
        response = client.change_session(0x7F)
        assert response.nrc == NegativeResponse.SUB_FUNCTION_NOT_SUPPORTED


class TestSecurityAccess:
    def test_security_requires_diagnostic_session(self, rig):
        _, _, client = rig
        response = client.request(b"\x27\x01")
        assert response.nrc == NegativeResponse.CONDITIONS_NOT_CORRECT

    def test_seed_key_unlock(self, rig):
        ecu, _, client = rig
        client.change_session(0x03)
        assert client.security_unlock()
        assert ecu.modes.security_unlocked

    def test_wrong_key_rejected(self, rig):
        _, _, client = rig
        client.change_session(0x03)
        seed_resp = client.request(b"\x27\x01")
        assert seed_resp.positive
        response = client.request(b"\x27\x02\x00")
        assert response.nrc == NegativeResponse.INVALID_KEY

    def test_attempt_limit(self, rig):
        _, _, client = rig
        client.change_session(0x03)
        for _ in range(3):
            client.request(b"\x27\x01")
            client.request(b"\x27\x02\x00")
        response = client.request(b"\x27\x01")
        assert response.nrc == NegativeResponse.EXCEEDED_NUMBER_OF_ATTEMPTS

    def test_key_without_seed_is_sequence_error(self, rig):
        _, _, client = rig
        client.change_session(0x03)
        response = client.request(b"\x27\x02\x42")
        assert response.nrc == NegativeResponse.REQUEST_SEQUENCE_ERROR


class TestProgrammingAndDefect:
    def unlock_programming(self, client):
        client.change_session(0x03)
        assert client.security_unlock()
        assert client.change_session(0x02).positive

    def test_scratch_write_within_bounds(self, rig):
        _, server, client = rig
        self.unlock_programming(client)
        response = client.write_did(BOOTLOADER_SCRATCH_DID,
                                    bytes(SCRATCH_BUFFER_SIZE))
        assert response.positive
        assert server.data_identifiers[BOOTLOADER_SCRATCH_DID] == \
            bytes(SCRATCH_BUFFER_SIZE)

    def test_scratch_write_locked_refused(self, rig):
        """In the default session even an oversized record is refused
        before it reaches the defective handler: the ECU keeps running
        (the paper's point about mode coverage)."""
        ecu, _, client = rig
        for record in (b"\x01", bytes(SCRATCH_BUFFER_SIZE + 1)):
            response = client.write_did(BOOTLOADER_SCRATCH_DID, record)
            assert response.nrc == NegativeResponse.SECURITY_ACCESS_DENIED
        assert ecu.state is EcuState.RUNNING

    def test_overflow_crashes_ecu(self, rig):
        """The seeded defect: an oversized record kills the server."""
        ecu, _, client = rig
        self.unlock_programming(client)
        response = client.write_did(BOOTLOADER_SCRATCH_DID,
                                    bytes(SCRATCH_BUFFER_SIZE + 1))
        assert response.timed_out          # crash: no answer comes back
        assert ecu.state is EcuState.CRASHED

    def test_ecu_reset_service(self, rig):
        ecu, _, client = rig
        response = client.request(b"\x11\x01")
        assert response.positive
        ecu.sim.run_for(100 * MS)
        assert ecu.power_cycles == 1
        assert ecu.state is EcuState.RUNNING


class TestTimeouts:
    def test_silent_target_times_out(self, sim, bus):
        client = UdsClient(sim, bus, timeout=50 * MS)
        response = client.tester_present()  # no server on the bus
        assert response.timed_out


class TestNrcPathHang:
    """The seeded NRC-path hang: session-control sub-function 0x04
    wedges the server application while the ECU stays on the bus.

    The tester here times out after 200 ms (as the campaign bench
    does) so several exchanges fit inside the 1 s stall window."""

    @pytest.fixture
    def hang_rig(self, sim, bus):
        ecu = Ecu(sim, bus, "diag-target", boot_time=10 * MS)
        server = UdsServer(ecu)
        ecu.power_on()
        sim.run_for(50 * MS)
        client = UdsClient(sim, bus, timeout=200 * MS)
        return ecu, server, client

    def test_hang_sub_stalls_the_server(self, hang_rig):
        ecu, server, client = hang_rig
        response = client.request(b"\x10\x04")
        assert response.timed_out          # the defect: no answer at all
        assert ecu.state is EcuState.RUNNING
        # Every request inside the stall window is swallowed too --
        # including the in-band ECU reset that could clear it.
        assert client.tester_present().timed_out
        assert client.request(b"\x11\x01").timed_out

    def test_stall_expires_on_its_own(self, hang_rig):
        ecu, server, client = hang_rig
        client.request(b"\x10\x04")
        ecu.sim.run_for(server._stalled_until - ecu.sim.now)
        assert client.tester_present().positive

    def test_out_of_band_reset_clears_the_stall(self, hang_rig):
        # The campaign's recovery path: a bench-side hard reset (the
        # UDS reset handler's own callback) reinitialises the wedged
        # application.
        ecu, server, client = hang_rig
        client.request(b"\x10\x04")
        server._do_reset()
        assert server._stalled_until == 0
        ecu.sim.run_for(50 * MS)
        assert client.tester_present().positive

    def test_stall_rides_checkpoints(self, hang_rig):
        ecu, server, client = hang_rig
        client.request(b"\x10\x04")
        state = server.state_dict()
        assert state["stalled_until"] == server._stalled_until > 0
        other = UdsServer(ecu)
        other.load_state(state)
        assert other._stalled_until == server._stalled_until
