"""CRC-15 as specified by Bosch CAN 2.0 (polynomial 0x4599).

The CRC covers the frame from the start-of-frame bit through the end of
the data field.  :mod:`repro.can.bitstuff` computes it a byte at a time
through a table built from these parameters.
"""

CRC15_POLY = 0x4599
"""Generator polynomial x^15 + x^14 + x^10 + x^8 + x^7 + x^4 + x^3 + 1."""

CRC15_MASK = 0x7FFF
