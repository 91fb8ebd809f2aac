"""Wire protocol between the coordinator and its worker fleet.

Messages are small frozen dataclasses pickled over
:class:`multiprocessing.Pipe` connections (one duplex pipe per worker).
The conversation is strictly client-driven except for shutdown:

* worker -> coordinator: :class:`Hello`, :class:`WorkRequest`,
  :class:`Heartbeat`, :class:`VisitedBatch` /
  :class:`PackedVisitedBatch`, :class:`Checkpoint`, :class:`UnitDone`
* coordinator -> worker: :class:`WorkGrant`, :class:`Wait`,
  :class:`NoMoreWork`, :class:`VisitedReply` /
  :class:`PackedVisitedReply`, :class:`Shutdown`

These messages are the **control plane** plus the RPC **data plane**.
On platforms that support it the data plane moves to sharded
shared-memory segments (:mod:`repro.mc.shardmem`): visited-state
traffic then bypasses the pipe entirely, and only control messages
(grants, heartbeats, results) remain here.

See ``docs/distributed.md`` for the full protocol walk-through and the
fault-tolerance semantics built on heartbeats and lease deadlines.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Dict, List, Optional, Tuple

from repro.core.metrics import MetricsView, RunMetrics, check_document
from repro.dist.spec import WorkUnit

#: packed-batch key widths/forms by store kind: exact and tiered ship
#: full digests that decode back to 32-char hex strings; bitstate ships
#: the digest as a 128-bit integer; hc ships its compacted fingerprint
PACKED_KEY_FORMS: Dict[str, Tuple[int, str]] = {
    "exact": (16, "hex"),
    "tiered": (16, "hex"),
    "bitstate": (16, "int"),
    "hc": (8, "int"),
}

#: depth field width in a packed entry (u32, saturating)
_PACKED_DEPTH_BYTES = 4
_PACKED_DEPTH_MAX = 0xFFFFFFFF


def packing_for_store(store: str) -> Tuple[int, str]:
    """``(key_bytes, key_form)`` for a ``--state-store`` spec string."""
    from repro.mc.statestore import parse_store_spec

    return PACKED_KEY_FORMS[parse_store_spec(store).kind]


def pack_entries(entries, key_bytes: int, key_form: str) -> bytes:
    """Serialise ``(wire key, depth)`` pairs into one flat byte array.

    One ``bytes`` object pickles as a single opaque blob -- no per-entry
    object headers, no per-entry memo lookups -- which is the point:
    the fleet's hottest message becomes O(1) pickle work.  Raises
    ``ValueError`` for keys that do not fit the packing (callers fall
    back to the legacy tuple form).
    """
    packed = bytearray()
    for key, depth in entries:
        value = int(key, 16) if key_form == "hex" else int(key)
        packed += value.to_bytes(key_bytes, "little")
        packed += min(int(depth), _PACKED_DEPTH_MAX).to_bytes(
            _PACKED_DEPTH_BYTES, "little")
    return bytes(packed)


def unpack_entries(payload: bytes, key_bytes: int,
                   key_form: str) -> List[Tuple[Any, int]]:
    """Invert :func:`pack_entries` (hex keys come back as hex strings)."""
    stride = key_bytes + _PACKED_DEPTH_BYTES
    entries: List[Tuple[Any, int]] = []
    for offset in range(0, len(payload), stride):
        value = int.from_bytes(payload[offset:offset + key_bytes], "little")
        depth = int.from_bytes(
            payload[offset + key_bytes:offset + stride], "little")
        key: Any = (format(value, f"0{key_bytes * 2}x")
                    if key_form == "hex" else value)
        entries.append((key, depth))
    return entries


def pack_flags(flags) -> bytes:
    """Bit-pack a sequence of booleans (LSB-first within each byte)."""
    packed = bytearray((len(flags) + 7) // 8)
    for index, flag in enumerate(flags):
        if flag:
            packed[index >> 3] |= 1 << (index & 7)
    return bytes(packed)


def unpack_flags(bits: bytes, count: int) -> Tuple[bool, ...]:
    return tuple(bool(bits[index >> 3] & (1 << (index & 7)))
                 for index in range(count))


# ------------------------------------------------------------------ worker --
@dataclass(frozen=True)
class Hello:
    """First message a worker sends: announces its id and OS pid."""

    worker_id: str
    pid: int


@dataclass(frozen=True)
class WorkRequest:
    """The worker's local frontier drained; it wants a unit (or will steal)."""

    worker_id: str


@dataclass(frozen=True)
class Heartbeat:
    """Periodic liveness signal, sent every ``heartbeat_operations`` ops."""

    worker_id: str
    unit_index: int
    operations: int


@dataclass(frozen=True)
class VisitedBatch:
    """Batched insert RPC: locally-new ``(wire key, depth)`` pairs.

    Keys are whatever the campaign's store ships: full hex digests for
    the exact table, compact integer fingerprints for the memory-bounded
    stores (:mod:`repro.mc.statestore`).  The coordinator answers with a
    :class:`VisitedReply` carrying one flag per entry (True = globally
    new).
    """

    worker_id: str
    sequence: int
    entries: Tuple[Tuple[Any, int], ...]


@dataclass(frozen=True)
class PackedVisitedBatch:
    """:class:`VisitedBatch` as one struct-packed byte array.

    The RPC data plane's hot message: ``count`` fixed-width
    ``(key, depth)`` records in ``payload`` (see :func:`pack_entries`),
    so pickling cost no longer scales with per-entry Python objects.
    The coordinator answers with a :class:`PackedVisitedReply`.
    """

    worker_id: str
    sequence: int
    count: int
    key_bytes: int
    key_form: str  # "hex" | "int"
    payload: bytes

    def entries(self) -> List[Tuple[Any, int]]:
        return unpack_entries(self.payload, self.key_bytes, self.key_form)


@dataclass(frozen=True)
class Checkpoint:
    """Periodic progress snapshot in ``repro.mc.persistence`` v2 format.

    Covers the worker's *current* unit only; on lease recovery the
    coordinator merges the document so partial knowledge survives even
    though the unit itself is deterministically re-run elsewhere.
    """

    worker_id: str
    unit_index: int
    document: Dict[str, Any]


#: version of the result documents (unit results, worker summaries,
#: merged campaigns) the server wire and spool carry; version 1 was the
#: unversioned layout with the counters inlined
RESULT_VERSION = 2


class ResultDocument(MetricsView):
    """A result dataclass of JSON-ready identity fields plus one
    ``metrics`` record, as a versioned, strictly decoded document."""

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form; the server wire and result spool use this."""
        document = {item.name: getattr(self, item.name)
                    for item in fields(self)}
        document.update(version=RESULT_VERSION,
                        metrics=self.metrics.to_dict())
        return document

    @classmethod
    def from_dict(cls, document: Dict[str, Any]):
        """Strict inverse of :meth:`to_dict` (``ValueError`` on an
        unknown version, an unknown key, or a missing one)."""
        values = check_document(document, RESULT_VERSION,
                                [item.name for item in fields(cls)],
                                cls.__name__)
        values["metrics"] = RunMetrics.from_dict(values["metrics"])
        return cls(**values)


@dataclass
class UnitResult(ResultDocument):
    """A finished work unit: which seed ran where, what it found, and
    its counters (:attr:`metrics`, readable as ``unit.operations``)."""

    index: int
    seed: int
    worker_id: str
    stopped_reason: str = ""
    #: serialised DiscrepancyReport (``to_dict()``) when the unit hit a bug
    violation: Optional[Dict[str, Any]] = None
    metrics: RunMetrics = field(default_factory=RunMetrics)


@dataclass(frozen=True)
class UnitDone:
    worker_id: str
    result: UnitResult


# ------------------------------------------------------------- coordinator --
@dataclass(frozen=True)
class WorkGrant:
    """A leased work unit; the lease is kept alive by heartbeats."""

    unit: WorkUnit


@dataclass(frozen=True)
class Wait:
    """No unit free right now (all leased out); ask again shortly."""

    seconds: float = 0.05


@dataclass(frozen=True)
class NoMoreWork:
    """Every unit has a result; the worker should exit cleanly."""


@dataclass(frozen=True)
class VisitedReply:
    """Answer to a :class:`VisitedBatch`: per-entry globally-new flags."""

    sequence: int
    new_flags: Tuple[bool, ...]


@dataclass(frozen=True)
class PackedVisitedReply:
    """Answer to a :class:`PackedVisitedBatch`: bit-packed new flags."""

    sequence: int
    count: int
    flag_bits: bytes

    def flags(self) -> Tuple[bool, ...]:
        return unpack_flags(self.flag_bits, self.count)


@dataclass(frozen=True)
class Shutdown:
    """Immediate stop (run aborted or complete)."""
