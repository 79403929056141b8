"""UDS service identifiers and negative response codes (ISO 14229)."""

from __future__ import annotations

import enum


class ServiceId(enum.IntEnum):
    """The ISO 14229 services our server implements."""

    DIAGNOSTIC_SESSION_CONTROL = 0x10
    ECU_RESET = 0x11
    READ_DATA_BY_IDENTIFIER = 0x22
    SECURITY_ACCESS = 0x27
    WRITE_DATA_BY_IDENTIFIER = 0x2E
    ROUTINE_CONTROL = 0x31
    TESTER_PRESENT = 0x3E


#: Positive responses echo the service id plus this offset.
POSITIVE_RESPONSE_OFFSET = 0x40

#: First byte of every negative response.
NEGATIVE_RESPONSE_SID = 0x7F


class NegativeResponse(enum.IntEnum):
    """Negative response codes (NRCs) the server can return."""

    SERVICE_NOT_SUPPORTED = 0x11
    SUB_FUNCTION_NOT_SUPPORTED = 0x12
    INCORRECT_MESSAGE_LENGTH = 0x13
    CONDITIONS_NOT_CORRECT = 0x22
    REQUEST_SEQUENCE_ERROR = 0x24
    REQUEST_OUT_OF_RANGE = 0x31
    SECURITY_ACCESS_DENIED = 0x33
    INVALID_KEY = 0x35
    EXCEEDED_NUMBER_OF_ATTEMPTS = 0x36
    GENERAL_PROGRAMMING_FAILURE = 0x72


#: Sub-functions of DiagnosticSessionControl.
SESSION_DEFAULT = 0x01
SESSION_PROGRAMMING = 0x02
SESSION_EXTENDED = 0x03

#: Sub-functions of SecurityAccess (level 1).
SECURITY_REQUEST_SEED = 0x01
SECURITY_SEND_KEY = 0x02


# Response construction runs for every exchange of a fuzz campaign;
# the small closed domains (256 echo bytes, a few dozen sid/NRC pairs)
# make both builders table- or memo-backed.
_POSITIVE_PREFIX = tuple(bytes((sid + POSITIVE_RESPONSE_OFFSET,))
                         for sid in range(0x100 - POSITIVE_RESPONSE_OFFSET))
_NEGATIVE_MEMO: dict[tuple[int, int], bytes] = {}


def positive_response(sid: int, payload: bytes = b"") -> bytes:
    """Build a positive-response message for ``sid``."""
    if 0 <= sid < len(_POSITIVE_PREFIX):
        return _POSITIVE_PREFIX[sid] + payload
    # Out-of-range echo byte: raise exactly as the direct construction
    # always has.
    return bytes((sid + POSITIVE_RESPONSE_OFFSET,)) + payload


def negative_response(sid: int, nrc: NegativeResponse) -> bytes:
    """Build a negative-response message for ``sid``."""
    message = _NEGATIVE_MEMO.get((sid, nrc))
    if message is None:
        message = _NEGATIVE_MEMO[(sid, nrc)] = \
            bytes((NEGATIVE_RESPONSE_SID, sid, nrc))
    return message
