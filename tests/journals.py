"""Journal directories in the states a crash leaves them in.

A campaign journal is one append-only log of CRC-framed records
(:mod:`repro.fuzz.durability`).  A run SIGKILLed straight after a
checkpoint leaves a log that ends on that ``checkpoint`` record: no
later findings, no ``end`` and no ``result`` record.
"""

from itertools import accumulate
from pathlib import Path

from repro.fuzz.durability import (DirectoryStore, encode_record,
                                   parse_records, scan_records)
from repro.sim.random import rng_state_from_json


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


def rewrite_in_older_format(directory) -> None:
    """Rewrite the log in ``directory`` as the code before the compact
    RNG encoding wrote it: a checkpoint's RNG states (the campaign's
    jitter stream, the generator's stream) hold their words as a JSON
    list of ints, and a ``progress`` record precedes each checkpoint."""
    store = DirectoryStore(directory)
    rewritten = 0
    for name in sorted(n for n in store.list() if n.endswith(".wal")):
        records, _, _ = parse_records(store.read(name))
        data = b""
        for record in records:
            if record.get("type") == "checkpoint":
                state = record["state"]
                data += encode_record({
                    "type": "progress", "frames_sent": state["frames_sent"],
                    "sim_now": state["sim_now"],
                    "findings": len(state["findings"])})
                for holder, key in ((state, "jitter_rng"),
                                    (state.get("generator", {}), "rng")):
                    if key in holder:
                        version, words, gauss_next = rng_state_from_json(
                            holder[key])
                        holder[key] = [version, list(words), gauss_next]
                        rewritten += 1
            data += encode_record(record)
        store.replace(name, data)
    assert rewritten, f"no RNG state in a checkpoint of {directory}"
