"""Tests for the target vehicle's message database."""

import pytest

from repro.vehicle.database import (
    BODY_COMMAND_ID,
    BUS_ASSIGNMENT,
    CLUSTER_DISPLAY_ID,
    GATEWAY_FORWARD_TO_BODY,
    LOCK_COMMAND,
    UNLOCK_COMMAND,
    VEHICLE_SPEED_ID,
    WHEEL_SPEEDS_ID,
    BODY_STATUS_ID,
    target_vehicle_database,
)
from repro.vehicle.signals import MessageDef


@pytest.fixture(scope="module")
def db():
    return target_vehicle_database()


class TestPaperIdentifiers:
    """The database carries the identifiers the paper actually shows."""

    def test_table2_ids_present(self, db):
        for can_id in (0x43A, 0x296, 0x4B0, 0x4F2, 0x215):
            assert can_id in db

    def test_table2_lengths_match(self, db):
        # Table II: 0x43A/0x296/0x4B0/0x4F2 have length 8, 0x215 length 7.
        assert db.by_id(0x43A).length == 8
        assert db.by_id(0x296).length == 8
        assert db.by_id(0x4B0).length == 8
        assert db.by_id(0x4F2).length == 8
        assert db.by_id(0x215).length == 7

    def test_unlock_command_id_is_533_decimal(self):
        """Fig 13 shows CAN id 533 dec = 0x215 for lock/unlock."""
        assert BODY_COMMAND_ID == 533

    def test_lock_unlock_codes_match_fig13(self):
        # The app screenshot shows first byte 16 (lock) / 32 (unlock).
        assert LOCK_COMMAND == 16
        assert UNLOCK_COMMAND == 32


class TestSignalDefinitions:
    def test_engine_speed_is_signed(self, db):
        """Signed decode is what lets Fig 8's negative RPM appear."""
        sig = db.by_name("ENGINE_STATUS").signal("EngineSpeed")
        assert sig.signed

    def test_engine_speed_scale(self, db):
        sig = db.by_name("ENGINE_STATUS").signal("EngineSpeed")
        payload = db.by_name("ENGINE_STATUS").encode({"EngineSpeed": 850.0})
        assert sig.decode(payload) == 850.0

    def test_negative_rpm_encodes_and_decodes(self, db):
        message = db.by_name("ENGINE_STATUS")
        payload = message.encode({"EngineSpeed": -1250.0})
        assert message.decode(payload)["EngineSpeed"] == -1250.0

    def test_all_cyclic_messages_have_senders(self, db):
        for message in db.messages:
            if message.cycle_time_ms is not None:
                assert message.sender, f"{message.name} has no sender"

    def test_signals_fit_message_length(self, db):
        for message in db.messages:
            payload = bytearray(message.length)
            for sig in message.signals:
                sig.insert_raw(payload, 0)  # raises if out of bounds


class TestOneDefinitionSet:
    def test_databases_are_independent_over_shared_definitions(self):
        first, second = target_vehicle_database(), target_vehicle_database()
        assert first is not second
        for message in first.messages:
            assert second.by_id(message.can_id) is message
        first.add(MessageDef("EXTRA", 0x7F0, 8))
        assert 0x7F0 in first and 0x7F0 not in second


class TestBusAssignment:
    def test_every_message_assigned(self, db):
        assert set(BUS_ASSIGNMENT) == set(db.ids)

    def test_assignments_valid(self):
        assert set(BUS_ASSIGNMENT.values()) <= {"powertrain", "body"}

    def test_forwarded_ids_are_powertrain(self):
        for can_id in GATEWAY_FORWARD_TO_BODY:
            assert BUS_ASSIGNMENT[can_id] == "powertrain"

    def test_cluster_feeds_forwarded_or_local(self, db):
        """Everything the cluster listens to must reach the body bus."""
        cluster_inputs = {0x0C9, VEHICLE_SPEED_ID, CLUSTER_DISPLAY_ID,
                          BODY_STATUS_ID}
        reachable = (set(GATEWAY_FORWARD_TO_BODY)
                     | {i for i, b in BUS_ASSIGNMENT.items() if b == "body"})
        assert cluster_inputs <= reachable
