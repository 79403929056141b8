"""Journal directories in the states a crash leaves them in.

A campaign journal is one append-only log of CRC-framed records
(:mod:`repro.fuzz.durability`).  A run SIGKILLed straight after a
checkpoint leaves a log that ends on that ``checkpoint`` record: no
later findings, no ``end`` and no ``result`` record.
"""

from itertools import accumulate
from pathlib import Path

from repro.fuzz.durability import DirectoryStore, parse_records, scan_records


def record_types(directory) -> list[str]:
    """The type of every intact record of the log in ``directory``
    (empty when the directory does not exist yet)."""
    if not Path(directory).is_dir():
        return []
    records, _ = scan_records(DirectoryStore(directory))
    return [record.get("type") for record in records]


def kill_after_last_checkpoint(directory) -> None:
    """Cut the log in ``directory`` at the first record after its last
    ``checkpoint`` record, as a SIGKILL right after that checkpoint
    leaves it."""
    store = DirectoryStore(directory)
    cut = None
    segments = [name for name in store.list() if name.endswith(".wal")]
    for position, name in enumerate(segments):
        data = store.read(name)
        records, _, _ = parse_records(data)
        ends = accumulate(map(len, data.splitlines(keepends=True)))
        for record, end in zip(records, ends):
            if record.get("type") == "checkpoint":
                cut = position, end
    assert cut is not None, f"no checkpoint record in {directory}"
    position, size = cut
    store.truncate(segments[position], size)
    for name in segments[position + 1:]:
        store.remove(name)
