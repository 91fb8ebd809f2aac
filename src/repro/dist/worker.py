"""Worker process: runs leased work units and streams its discoveries.

A worker is a plain loop -- request a unit, run it, report it -- with
three side channels woven through the explorer's sample hook (which
fires every ``heartbeat_operations`` explored operations):

* **heartbeats** keep the coordinator's lease on the current unit alive;
* **visited batches** flush locally-new state hashes to the shared
  service (suppressed by the exact LRU of already-shipped hashes);
* **checkpoints** ship a :mod:`repro.mc.persistence` v2 snapshot of the
  current unit's partial table, so a SIGKILL'd worker's knowledge
  survives even though the re-issued unit deterministically re-runs.

The same unit runner also serves the coordinator's inline fallback (when
the whole fleet has died) through the :class:`ResultSink` indirection:
a :class:`PipeSink` speaks the wire protocol, a local sink calls the
service directly.
"""

from __future__ import annotations

import os
import signal
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.core.metrics import RunMetrics
from repro.dist import realtime
from repro.dist.bloom import BloomFilter, LRUSet
from repro.dist.client import ShippingVisitedTable
from repro.dist.protocol import (
    Checkpoint,
    Heartbeat,
    Hello,
    NoMoreWork,
    PackedVisitedBatch,
    PackedVisitedReply,
    Shutdown,
    UnitDone,
    UnitResult,
    VisitedBatch,
    VisitedReply,
    Wait,
    WorkGrant,
    WorkRequest,
    pack_entries,
    packing_for_store,
)
from repro.dist.spec import CheckSpec, WorkUnit
from repro.mc.persistence import snapshot_document
from repro.mc.shardmem import ShardFull, ShardLayout, ShardSegment
from repro.mc.statestore import make_store


@dataclass
class WorkerConfig:
    """Tunables every worker receives at spawn time."""

    #: sample-hook period: heartbeat + batch flush every N operations
    heartbeat_operations: int = 100
    #: ship a persistence-v2 checkpoint every N operations
    checkpoint_operations: int = 400
    #: visited-batch size before an eager flush
    batch_size: int = 64
    #: exact LRU of shipped hashes (suppresses re-sends)
    lru_capacity: int = 1 << 16
    #: Bloom summary of service-confirmed hashes
    bloom_bits: int = 1 << 17
    #: fault injection: SIGKILL ourselves after this many operations
    #: (counted across the whole worker session); None disables
    chaos_kill_after_operations: Optional[int] = None
    #: shared-memory data plane (set by the coordinator when resolved):
    #: segment geometry, every worker's segment *name* (raw SharedMemory
    #: handles must never ride the wire -- workers reattach by name),
    #: and which slot is ours to write.  All defaults off = RPC plane.
    shm_layout: Optional[ShardLayout] = None
    shm_segments: Tuple[str, ...] = ()
    shm_slot: int = -1

    @property
    def shm_enabled(self) -> bool:
        return (self.shm_layout is not None and len(self.shm_segments) > 0
                and 0 <= self.shm_slot < len(self.shm_segments))


class ResultSink:
    """Where a running unit sends its side-channel traffic."""

    def ship_batch(self, entries: List[Tuple[str, int]]) -> None:
        raise NotImplementedError

    def heartbeat(self, unit_index: int, operations: int) -> None:
        raise NotImplementedError

    def checkpoint(self, unit_index: int, document: Dict[str, Any]) -> None:
        raise NotImplementedError

    def drain(self) -> None:
        """Process any pending replies (non-blocking)."""


class PipeSink(ResultSink):
    """Speaks the wire protocol over the worker's pipe connection.

    Batches ship struct-packed (:class:`PackedVisitedBatch`) whenever
    the campaign's wire keys fit the fixed-width packing -- hex digests
    and integer fingerprints both do -- falling back to the legacy
    tuple form for anything else (ad-hoc test keys).
    """

    def __init__(self, conn, worker_id: str, bloom: BloomFilter,
                 packing: Optional[Tuple[int, str]] = None):
        self.conn = conn
        self.worker_id = worker_id
        self.bloom = bloom
        self.packing = packing
        self._sequence = 0
        self._pending: Dict[int, Tuple[Tuple[str, int], ...]] = {}
        self.confirmed_cross_duplicates = 0

    def ship_batch(self, entries: List[Tuple[str, int]]) -> None:
        self._sequence += 1
        batch = tuple(entries)
        self._pending[self._sequence] = batch
        if self.packing is not None:
            key_bytes, key_form = self.packing
            try:
                payload = pack_entries(batch, key_bytes, key_form)
            except (ValueError, TypeError):
                pass  # unpackable keys: legacy tuple form below
            else:
                self.conn.send(PackedVisitedBatch(
                    self.worker_id, self._sequence, len(batch),
                    key_bytes, key_form, payload))
                return
        self.conn.send(VisitedBatch(self.worker_id, self._sequence, batch))

    def heartbeat(self, unit_index: int, operations: int) -> None:
        self.conn.send(Heartbeat(self.worker_id, unit_index, operations))

    def checkpoint(self, unit_index: int, document: Dict[str, Any]) -> None:
        self.conn.send(Checkpoint(self.worker_id, unit_index, document))

    def drain(self) -> None:
        while self.conn.poll(0):
            self.handle(self.conn.recv())

    def handle(self, message) -> None:
        """Fold one coordinator message back into local state."""
        if isinstance(message, (VisitedReply, PackedVisitedReply)):
            flags = (message.flags() if isinstance(message, PackedVisitedReply)
                     else message.new_flags)
            entries = self._pending.pop(message.sequence, ())
            for (state_hash, _depth), was_new in zip(entries, flags):
                self.bloom.add(state_hash)
                if not was_new:
                    self.confirmed_cross_duplicates += 1


class ShmSink(ResultSink):
    """Shared-memory data plane: publish to our segment, read the peers'.

    Control traffic (heartbeats) still rides the pipe; visited-state
    traffic becomes buffer stores into this worker's own single-writer
    :class:`~repro.mc.shardmem.ShardSegment` plus lock-free membership
    probes of the peers' segments.  Checkpoints are a no-op: the
    segment *is* the checkpoint -- it lives in the coordinator's
    address space and survives this worker's death, carrying strictly
    more knowledge than any periodic snapshot message could.

    A full shard overflows to the wrapped RPC sink, so a mis-sized
    segment degrades to the old plane instead of losing states.
    """

    def __init__(self, layout: ShardLayout, own: ShardSegment,
                 peers: List[ShardSegment], pipe: PipeSink):
        self.layout = layout
        self.own = own
        self.peers = peers  # excludes our own segment
        self.pipe = pipe
        #: published keys already present in some peer's segment at
        #: publish time (the shm analogue of the Bloom-probable count)
        self.peer_duplicates = 0
        self.published = 0
        self.overflowed = 0

    def ship_batch(self, entries: List[Tuple[str, int]]) -> None:
        key_of = self.layout.key_of
        insert = self.own.insert
        for wire_key, depth in entries:
            key = key_of(wire_key)
            try:
                is_new, _ = insert(key, depth)
            except ShardFull:
                self.overflowed += 1
                self.pipe.ship_batch([(wire_key, depth)])
                continue
            self.published += 1
            if is_new and any(peer.contains(key) for peer in self.peers):
                self.peer_duplicates += 1

    def heartbeat(self, unit_index: int, operations: int) -> None:
        self.pipe.heartbeat(unit_index, operations)

    def checkpoint(self, unit_index: int, document: Dict[str, Any]) -> None:
        pass  # the segment outlives us; there is nothing extra to ship

    def drain(self) -> None:
        self.pipe.drain()

    def handle(self, message) -> None:
        self.pipe.handle(message)


def run_unit(spec: CheckSpec, unit: WorkUnit, worker_id: str,
             config: WorkerConfig, sink: ResultSink,
             shipped_lru: Optional[LRUSet] = None,
             global_bloom: Optional[BloomFilter] = None,
             session_operations: int = 0) -> UnitResult:
    """Execute one work unit to completion; deterministic in isolation.

    ``session_operations`` is the operation count the worker completed in
    earlier units (chaos fault injection triggers on the session total).
    """
    mcfs = spec.build_mcfs()
    # per-unit input diversification: the unit's profile (a function of
    # the unit index only, via CheckSpec.unit_profile) overrides the
    # spec-wide default before the engine/catalog is built
    mcfs.options.input_profile = unit.input_profile
    profile = None
    ship = sink.ship_batch
    if getattr(mcfs.options, "profile", False):
        from repro.mc.perf import CostProfile

        profile = CostProfile()

        def ship(entries, _ship=sink.ship_batch, _profile=profile):
            return _profile.timed("ship", _ship, entries)

    # the local store mirrors the service's spec (same kind, same seed),
    # so the wire keys the two sides compute agree; for compacted stores
    # those keys are small integers instead of 32-char hex strings
    store_spec = getattr(spec, "state_store", "exact")
    local = make_store(store_spec, seed=spec.base_seed)
    table = ShippingVisitedTable(
        ship=ship,
        local=local,
        shipped_lru=shipped_lru,
        global_bloom=global_bloom,
        batch_size=config.batch_size,
    )
    last_checkpoint = {"operations": 0}

    def tick(stats) -> None:
        if (config.chaos_kill_after_operations is not None
                and session_operations + stats.operations
                >= config.chaos_kill_after_operations):
            os.kill(os.getpid(), signal.SIGKILL)  # fault injection: die hard
        table.flush()
        sink.heartbeat(unit.index, stats.operations)
        if (stats.operations - last_checkpoint["operations"]
                >= config.checkpoint_operations):
            last_checkpoint["operations"] = stats.operations
            sink.checkpoint(unit.index, snapshot_document(
                table.local, operations_completed=stats.operations,
                seed=unit.seed, worker_id=worker_id,
            ))
        sink.drain()

    peer_duplicates_before = getattr(sink, "peer_duplicates", 0)
    wall_start = realtime.now()
    result = mcfs.run_random(
        max_operations=unit.max_operations,
        seed=unit.seed,
        max_depth=unit.max_depth,
        backtrack_probability=unit.backtrack_probability,
        sample_every=config.heartbeat_operations,
        sample_hook=tick,
        visited=table,
        profile=profile,
    )
    table.flush()
    peer_duplicates = (getattr(sink, "peer_duplicates", 0)
                       - peer_duplicates_before)
    return UnitResult(
        index=unit.index,
        seed=unit.seed,
        worker_id=worker_id,
        stopped_reason=result.stats.stopped_reason,
        violation=result.report.to_dict() if result.report else None,
        # the shipping counters are final only after the last flush
        metrics=RunMetrics.collect(
            table, result.metrics,
            wall_time=realtime.now() - wall_start,
            probable_cross_duplicates=(table.probable_cross_duplicates
                                       + peer_duplicates)),
    )


def worker_main(conn, spec: CheckSpec, worker_id: str,
                config: WorkerConfig) -> None:
    """Process entry point: the request/run/report loop."""
    try:
        _worker_loop(conn, spec, worker_id, config)
    except (EOFError, BrokenPipeError, OSError, KeyboardInterrupt):
        pass  # coordinator went away (or aborted); nothing to clean up
    finally:
        try:
            conn.close()
        except OSError:
            pass


def _worker_loop(conn, spec: CheckSpec, worker_id: str,
                 config: WorkerConfig) -> None:
    conn.send(Hello(worker_id, os.getpid()))
    shipped_lru = LRUSet(config.lru_capacity)
    global_bloom = BloomFilter(config.bloom_bits)
    try:
        packing = packing_for_store(getattr(spec, "state_store", "exact"))
    except (KeyError, ValueError):
        packing = None
    pipe_sink = PipeSink(conn, worker_id, global_bloom, packing=packing)
    sink: ResultSink = pipe_sink
    if config.shm_enabled:
        try:
            # untrack=False: forked workers share the coordinator's
            # resource tracker (see ShardSegment.attach)
            segments = [ShardSegment.attach(config.shm_layout, name,
                                            untrack=False)
                        for name in config.shm_segments]
        except Exception:
            segments = None  # segments gone (or non-fork spawn): RPC plane
        if segments is not None:
            own = segments[config.shm_slot]
            peers = [segment for index, segment in enumerate(segments)
                     if index != config.shm_slot]
            sink = ShmSink(config.shm_layout, own, peers, pipe_sink)
    session_operations = 0
    while True:
        conn.send(WorkRequest(worker_id))
        message = conn.recv()
        # replies to earlier batches may arrive ahead of the grant; a
        # reply that falls through this loop would trigger a duplicate
        # WorkRequest, and the coordinator would overwrite our lease
        # and lose the first granted unit (livelock: the unit is no
        # longer queued, leased, or resulted)
        while isinstance(message,
                         (VisitedReply, PackedVisitedReply, Heartbeat)):
            sink.handle(message)
            message = conn.recv()
        if isinstance(message, Wait):
            realtime.sleep(message.seconds)
            continue
        if isinstance(message, (NoMoreWork, Shutdown)):
            return
        if not isinstance(message, WorkGrant):
            continue  # unknown message: ignore and re-request
        result = run_unit(
            spec, message.unit, worker_id, config, sink,
            shipped_lru=shipped_lru, global_bloom=global_bloom,
            session_operations=session_operations,
        )
        session_operations += result.operations
        conn.send(UnitDone(worker_id, result))
