"""Snapshot/restore for the discrete-event kernel.

The paper's test cycle is "record the conditions, reset the system,
reproduce" -- and resetting a *simulated* system does not have to mean
rebuilding it.  This module captures a whole simulation world (clock,
event queue with its live closures, RNG streams, bus/ECU/bench state)
as a frozen image that can be restored any number of times.  Restoring
is O(state), not O(history): a minimisation probe that used to replay
a 500-frame prefix can instead resume from a checkpoint.

A capture is one :mod:`pickle` dump of the world and a restore is one
load by the C unpickler.  The pickler applies these sharing rules:

- **Shared by reference:** classes, enum members, closure-free
  functions, code objects and instances of the immutable types
  registered with :func:`shared_by_reference` (frames, bit timings,
  signal definitions).  Module-level builtins such as ``len`` pickle
  by name, which shares them too.
- **Closures** get fresh cells, filled through the same pickle memo
  after the function exists.  Captured objects therefore unify with
  the rest of the cloned graph, and a closure that reaches itself
  still clones.  This matters for the lambdas the simulator schedules
  (``lambda: bench.bcm.led_on`` and friends): a shared closure would
  leave the clone's event queue firing callbacks into the *original*
  world.
- **Bound methods** share ``__func__`` and clone ``__self__``.  A
  builtin bound method such as ``got.append`` is rebound to the clone
  of its list, so a restored world never writes into the original.
- **Snapshottable objects** (:class:`Snapshottable`) take their state
  from ``__snapshot__`` and install it with ``__snapshot_restore__``;
  the event queue drops its cancelled corpses this way.
- Everything else clones through its ordinary pickle reduction.

Snapshot bytes never leave the process: they are not written to disk
or sent to a worker, so nothing from outside the program is ever
unpickled.

The determinism guarantee -- run, snapshot, diverge, restore, rerun
reproduces a bit-identical event/frame fingerprint -- holds because
the clone shares no mutable state with the original (closures
included) and the kernel itself is deterministic.  It is enforced by
``tests/sim/test_snapshot.py``.
"""

from __future__ import annotations

import copyreg
import enum
import hashlib
import io
import pickle
import types
from typing import Any, Iterable

__all__ = [
    "Snapshottable",
    "Snapshot",
    "capture",
    "fingerprint",
    "shared_by_reference",
]


# ----------------------------------------------------------------------
# Sharing rules
# ----------------------------------------------------------------------
#: Exact types whose instances every snapshot shares instead of
#: cloning: type objects, code objects and the registered immutable
#: value types.
_BY_REFERENCE: set[type] = {type, types.CodeType}


def shared_by_reference(cls: type) -> type:
    """Class decorator: snapshots share instances of ``cls``.

    Only for immutable types whose mutable attributes, if any, are pure
    memos (a frame's wire-bit cache, a bit timing's duration table):
    sharing them keeps the memo warm across restores and skips cloning
    the thousands of frames a capture window holds.
    """
    _BY_REFERENCE.add(cls)
    return cls


def _shared(index: int) -> Any:
    """Placeholder for the loader's by-reference lookup.

    Pickled by name; :class:`_Loader` resolves the name to its table's
    ``__getitem__``, so this body never runs.
    """
    raise AssertionError("resolved by the snapshot loader")


class _Ref:
    """Forces one object into the by-reference table."""

    __slots__ = ("target",)

    def __init__(self, target: Any) -> None:
        self.target = target


class _EmptyCell:
    """Marks a closure cell that was not yet filled when captured."""


def _new_closure(code: types.CodeType, globals_: dict, name: str,
                 qualname: str) -> types.FunctionType:
    """A function of ``code`` with fresh, empty closure cells."""
    clone = types.FunctionType(
        code, globals_, name, None,
        tuple(types.CellType() for _ in code.co_freevars))
    clone.__qualname__ = qualname
    return clone


def _fill_closure(clone: types.FunctionType, state: tuple) -> None:
    """Install cloned cell contents, defaults and attributes."""
    contents, defaults, kwdefaults, attrs = state
    for cell, value in zip(clone.__closure__, contents):
        if value is not _EmptyCell:
            cell.cell_contents = value
    clone.__defaults__ = defaults
    clone.__kwdefaults__ = kwdefaults
    if attrs:
        clone.__dict__.update(attrs)


class _Dumper(pickle.Pickler):
    """Pickles a world, applying the module's sharing rules.

    By-reference objects go into ``shared`` and are pickled as their
    index there.
    """

    def __init__(self, file: io.BytesIO, shared: list) -> None:
        super().__init__(file, pickle.HIGHEST_PROTOCOL)
        self._table = shared

    def _share(self, obj: Any) -> tuple:
        table = self._table
        table.append(obj)
        return _shared, (len(table) - 1,)

    def reducer_override(self, obj: Any) -> Any:
        cls = type(obj)
        if cls in _BY_REFERENCE:
            return self._share(obj)
        if cls is types.FunctionType:
            closure = obj.__closure__
            if closure is None:
                if obj is _shared:
                    return NotImplemented  # by name, for the loader
                return self._share(obj)
            contents = []
            for cell in closure:
                try:
                    contents.append(cell.cell_contents)
                except ValueError:
                    contents.append(_EmptyCell)
            # The table gets only the immutable parts: the original's
            # cells would pin the captured world for the snapshot's life.
            return (_new_closure,
                    (obj.__code__, _Ref(obj.__globals__), obj.__name__,
                     obj.__qualname__),
                    (contents, obj.__defaults__, obj.__kwdefaults__,
                     obj.__dict__ or None), None, None, _fill_closure)
        if cls is types.MethodType:
            return types.MethodType, (_Ref(obj.__func__), obj.__self__)
        if cls is _Ref:
            return self._share(obj.target)
        if isinstance(obj, (type, enum.Enum)):
            return self._share(obj)
        # Builtin methods reduce to getattr(clone of __self__, name);
        # module-level builtins pickle by name.
        return NotImplemented


class _Loader(pickle.Unpickler):
    """Loads a world, resolving by-reference objects from ``shared``."""

    def __init__(self, file: io.BytesIO, shared: list) -> None:
        super().__init__(file)
        self._table = shared

    def find_class(self, module: str, name: str) -> Any:
        if name == "_shared" and module == __name__:
            return self._table.__getitem__
        return super().find_class(module, name)


# ----------------------------------------------------------------------
# The Snapshottable protocol
# ----------------------------------------------------------------------
class Snapshottable:
    """Opt-in mixin: a class that knows its own snapshot state.

    The default implementation captures ``__dict__`` wholesale;
    subclasses override ``__snapshot__`` / ``__snapshot_restore__``
    when the raw attribute dump is not the right state (e.g. the event
    queue filters cancelled entries and re-heapifies on restore).
    ``__slots__`` classes must override ``__snapshot__``, since they
    have no ``__dict__`` to dump.

    The protocol is the class's reduction, so ``copy.deepcopy`` and
    :mod:`pickle` honour it too.  Custom state values are cloned
    **through the capture's memo**, so identity is preserved across
    the whole world: if two components hold the same
    ``random.Random``, their clones do too.
    """

    __slots__ = ()

    def __snapshot__(self) -> dict[str, Any]:
        """State to capture, as an attribute dict."""
        return dict(self.__dict__)

    def __snapshot_restore__(self, state: dict[str, Any]) -> None:
        """Install captured (already cloned) state on a blank instance."""
        for key, value in state.items():
            setattr(self, key, value)

    def __reduce_ex__(self, protocol: int) -> tuple:
        return copyreg.__newobj__, (type(self),), self.__snapshot__()

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__snapshot_restore__(state)


# ----------------------------------------------------------------------
# Capture / restore
# ----------------------------------------------------------------------
class Snapshot:
    """A frozen image of a simulation world.

    Holds the world's pickle and the table of objects it shares by
    reference; every :meth:`restore` loads a fresh clone, so one
    snapshot yields any number of independent worlds and the snapshot
    itself is never consumed.
    """

    __slots__ = ("_data", "_shared", "label", "restores")

    def __init__(self, data: bytes, shared: list, *,
                 label: str = "") -> None:
        self._data = data
        self._shared = shared
        self.label = label
        self.restores = 0

    def _loader(self) -> _Loader:
        return _Loader(io.BytesIO(self._data), self._shared)

    def restore(self) -> Any:
        """A fresh, fully isolated clone of the captured world.

        The returned object has the same shape as the ``root`` passed
        to :func:`capture` (commonly a tuple such as ``(sim, adapter,
        probe)``).  Clones share nothing mutable with each other, with
        the snapshot, or with the originally captured world.
        """
        world = self._loader().load()
        self.restores += 1
        return world

    @property
    def object_count(self) -> int:
        """Objects one restore builds, not counting shared ones.

        A diagnostic: it loads the image once more to count.
        """
        loader = self._loader()
        loader.load()
        return len(loader.memo.copy()) - len(self._shared)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = f" {self.label!r}" if self.label else ""
        return (f"Snapshot({tag} bytes={len(self._data)}, "
                f"restores={self.restores})")


def capture(root: Any, *, label: str = "") -> Snapshot:
    """Snapshot ``root`` (typically a tuple spanning the whole world).

    ``root`` must reach every mutable object of the simulation:
    anything only referenced from outside the captured graph keeps
    pointing at the *original* world.  In practice, capturing
    ``(sim, adapter, failure_probe)`` covers a bench because the probe
    closure pins the bench, which pins buses, nodes and oracles.
    """
    buffer = io.BytesIO()
    shared: list = []
    _Dumper(buffer, shared).dump(root)
    return Snapshot(buffer.getvalue(), shared, label=label)


# ----------------------------------------------------------------------
# Fingerprinting
# ----------------------------------------------------------------------
def fingerprint(records: Iterable[Any]) -> str:
    """Deterministic digest of a sequence of observation records.

    Hashes each record's ``repr``; callers must pass records whose
    repr is address-free (dataclass records such as
    :class:`~repro.can.frame.TimestampedFrame` qualify, arbitrary
    objects with the default ``object.__repr__`` do not).  Used by the
    determinism tests to compare a restored rerun against the
    uninterrupted run bit-for-bit.
    """
    digest = hashlib.sha256()
    for record in records:
        digest.update(repr(record).encode("utf-8", "backslashreplace"))
        digest.update(b"\x1f")
    return digest.hexdigest()
