"""The visited-state hash table (Spin's state store).

Spin detects already-visited states by comparing tracked state against
everything seen before; with ``c_track``'s abstract/concrete split, only
the abstract hashes are matched.  Two behaviours of the real store are
modelled because they are visible in the paper's Figure 3:

* **resize stalls** -- "this rate then dropped drastically and swap usage
  spiked because Spin was resizing its hash table of visited states";
  growing the table costs time proportional to the number of stored
  states;
* **memory pressure** -- each stored state consumes RAM and eventually
  swap, via the attached :class:`~repro.mc.memory.MemoryModel`.

:class:`VisitedStateTable` is the **exact** store: every abstract hash
is kept in full and matching is collision-free (up to MD5 itself).  The
memory-bounded alternatives -- bitstate hashing, hash compaction, and
the two-tier hot/cold store -- live in :mod:`repro.mc.statestore` and
plug in behind the same :class:`AbstractVisitedTable` interface.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, fields
from typing import Any, Dict, Mapping, Optional, Tuple, Union

from repro.clock import Cost
from repro.mc.memory import MemoryModel

#: bookkeeping footprint of one exact-table entry: the 128-bit digest
#: kept as a 32-byte hex string plus an 8-byte shallowest-depth slot
EXACT_ENTRY_BYTES = 40

#: a state key on the wire / in a store: the full 32-char hex digest or
#: a compacted integer fingerprint (see :mod:`repro.mc.statestore`)
StateKey = Union[str, int]


@dataclass
class TableStats:
    inserts: int = 0
    duplicate_hits: int = 0
    resizes: int = 0
    resize_time: float = 0.0
    #: bookkeeping bytes the store itself occupies (hash entries,
    #: fingerprints, or the bitstate bit array -- not concrete states)
    stored_bytes: int = 0
    #: True when the store is lossy: a reported duplicate hit may have
    #: been a fingerprint/bit collision, silently omitting a state
    omission_possible: bool = False
    #: current per-query probability that a *fresh* state is wrongly
    #: reported as visited (0.0 for exact stores)
    omission_probability: float = 0.0

    @property
    def visits(self) -> int:
        return self.inserts + self.duplicate_hits

    @property
    def duplicate_hit_ratio(self) -> float:
        """Fraction of visits that matched an already-stored state."""
        return self.duplicate_hits / self.visits if self.visits else 0.0

    @property
    def bits_per_state(self) -> float:
        """Store bookkeeping bits per distinct stored state."""
        return self.stored_bytes * 8 / self.inserts if self.inserts else 0.0

    def to_dict(self) -> Dict[str, float]:
        return {item.name: getattr(self, item.name) for item in fields(self)}

    @classmethod
    def from_dict(cls, document: Dict[str, Any]) -> "TableStats":
        """Rebuild from :meth:`to_dict` output (missing keys default)."""
        return cls(**{item.name: type(item.default)(document[item.name])
                      for item in fields(cls) if item.name in document})

    def reset(self) -> None:
        """Zero every counter (``omission_possible`` is sticky: it
        describes the store *mode*, not the traffic)."""
        self.inserts = 0
        self.duplicate_hits = 0
        self.resizes = 0
        self.resize_time = 0.0
        self.stored_bytes = 0
        self.omission_probability = 0.0


class AbstractVisitedTable(ABC):
    """What the explorer needs from a visited-state store.

    The concrete :class:`VisitedStateTable` is the in-process default;
    :mod:`repro.mc.statestore` provides the memory-bounded stores,
    :mod:`repro.dist` plugs in service-backed tables that ship newly
    discovered hashes to a coordinator, and swarm's cooperative mode
    wraps one shared table per member to record coverage.
    """

    #: optional RAM/swap model (the explorer samples its swap usage)
    memory: Optional[MemoryModel] = None
    stats: TableStats

    @abstractmethod
    def visit(self, state_hash: StateKey, depth: int = 0) -> Tuple[bool, bool]:
        """Record a visit; return ``(is_new, should_expand)``."""

    @abstractmethod
    def __len__(self) -> int:
        """Number of distinct states stored."""

    def add(self, state_hash: StateKey) -> bool:
        """Insert a state hash; return True if it was new."""
        is_new, _ = self.visit(state_hash, depth=0)
        return is_new

    def visit_many(self, entries) -> list:
        """Bulk :meth:`visit`: one ``is_new`` flag per ``(key, depth)``.

        The distributed data plane moves fingerprints in batches; this
        is the store-side bulk entry point, so a whole
        :class:`~repro.dist.protocol.VisitedBatch` costs one call, not
        one per entry.  Semantically identical to looping ``visit``
        (stores with a cheaper bulk form override it).
        """
        visit = self.visit
        return [visit(key, int(depth))[0] for key, depth in entries]

    def wire_key(self, state_hash: str) -> StateKey:
        """The key this store matches on, as shipped over the wire.

        Exact stores ship the full hex digest; compacted stores override
        this to ship their (much smaller) integer fingerprint, and their
        :meth:`visit` accepts such pre-compacted keys directly.
        """
        return state_hash

    @property
    def duplicate_hit_ratio(self) -> float:
        """Fraction of visits answered from the store (effectiveness)."""
        return self.stats.duplicate_hit_ratio

    def visited_fingerprint(self) -> str:
        """A canonical digest of the visited set's *content*.

        Two stores of the same kind holding the same set report the same
        fingerprint regardless of insertion order, worker count, shard
        count, or data plane -- the equality the distributed determinism
        tests assert.  Fingerprints are only comparable between stores
        of the same kind (an exact set and its bitstate projection are
        different objects).
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not define a canonical "
            f"visited-set fingerprint")


class VisitedStateTable(AbstractVisitedTable):
    """A visited-state set keyed by full abstract-state hashes (exact)."""

    def __init__(self, memory: Optional[MemoryModel] = None,
                 initial_buckets: int = 1 << 10,
                 max_load_factor: float = 0.75):
        self.memory = memory
        self.buckets = initial_buckets
        self.initial_buckets = initial_buckets
        self.max_load_factor = max_load_factor
        #: hash -> shallowest depth at which the state was reached
        self._seen: Dict[str, int] = {}
        self.stats = TableStats()
        #: callbacks invoked as resize_hook(new_buckets) -- the Figure 3
        #: benchmark uses this to timestamp resize events.
        self.resize_hooks = []

    def __len__(self) -> int:
        return len(self._seen)

    def __contains__(self, state_hash: str) -> bool:
        return state_hash in self._seen

    def visit(self, state_hash: str, depth: int = 0) -> Tuple[bool, bool]:
        """Record a state visit; return ``(is_new, should_expand)``.

        Like Spin, the table remembers the shallowest depth at which each
        state was reached: a known state re-reached at a *smaller* depth
        must be expanded again, otherwise depth-bounded search silently
        loses the deeper part of its subtree (states first discovered at
        the depth frontier would never be expanded at all).
        """
        existing = self._seen.get(state_hash)
        if existing is None:
            self._seen[state_hash] = depth
            self.stats.inserts += 1
            self.stats.stored_bytes += EXACT_ENTRY_BYTES
            if self.memory is not None:
                self.memory.store_state()
            if len(self._seen) > self.buckets * self.max_load_factor:
                self._resize()
            return True, True
        self.stats.duplicate_hits += 1
        if self.memory is not None:
            self.memory.touch_state()
        if depth < existing:
            self._seen[state_hash] = depth
            return False, True
        return False, False

    def visited_fingerprint(self) -> str:
        """MD5 over the sorted ``hash:depth`` entries (order-free)."""
        import hashlib

        ctx = hashlib.md5()
        for state_hash in sorted(self._seen):
            ctx.update(f"{state_hash}:{self._seen[state_hash]}\n".encode())
        return ctx.hexdigest()

    # ------------------------------------------------------------ accessors --
    def export_seen(self) -> Dict[str, int]:
        """A copy of the stored ``hash -> shallowest depth`` mapping.

        Public boundary for persistence and the distributed merge; callers
        must not reach into ``_seen`` directly.
        """
        return dict(self._seen)

    def import_seen(self, seen: Mapping[str, int]) -> int:
        """Bulk-merge a ``hash -> depth`` mapping; return how many were new.

        Hashes are merged in sorted order so the table's iteration order
        (and therefore anything derived from a later export) is identical
        no matter how the mapping was assembled.  Known hashes keep the
        shallower of the two depths; merged duplicates are *not* counted
        as duplicate hits (they are bookkeeping, not exploration).
        """
        added = 0
        for state_hash in sorted(seen):
            depth = int(seen[state_hash])
            existing = self._seen.get(state_hash)
            if existing is None:
                self._seen[state_hash] = depth
                self.stats.inserts += 1
                self.stats.stored_bytes += EXACT_ENTRY_BYTES
                added += 1
                if self.memory is not None:
                    self.memory.store_state()
                if len(self._seen) > self.buckets * self.max_load_factor:
                    self._resize()
            elif depth < existing:
                self._seen[state_hash] = depth
        return added

    def _resize(self) -> None:
        """Double the bucket array, rehashing every stored state.

        This is the stall Figure 3 shows around day 3: the whole store is
        rehashed, and when it no longer fits in RAM the rehash sweeps
        through swap.
        """
        self.buckets *= 2
        self.stats.resizes += 1
        cost = Cost.HASH_RESIZE_PER_STATE * len(self._seen)
        if self.memory is not None:
            # Rehashing touches every state; the swap-resident fraction
            # pays swap latency, which is what makes the spike dramatic.
            hit = self.memory.ram_hit_ratio()
            cost += (1.0 - hit) * Cost.SWAP_STATE_TOUCH * len(self._seen)
            self.memory.clock.charge(cost, "hash-resize")
            self.stats.resize_time += cost
        for hook in self.resize_hooks:
            hook(self.buckets)

    def clear(self) -> None:
        """Empty the table and reset every observable side effect.

        The stats are zeroed (a cleared table that still reports the old
        inserts/resizes would poison any rate derived from them), the
        memory model releases the stored states, and resize hooks are
        notified of the bucket array shrinking back to its initial size
        -- the same channel they use for growth, so event timelines stay
        consistent.
        """
        self._seen.clear()
        self.buckets = self.initial_buckets
        self.stats.reset()
        if self.memory is not None:
            self.memory.reset()
        for hook in self.resize_hooks:
            hook(self.buckets)
