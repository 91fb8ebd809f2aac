"""Deterministic per-state cost profiling for checking runs.

"States per second" is only actionable when it decomposes: a slow fleet
might be paying for the abstraction syscall walk (re-reading dirty
regions through the kernel surface), the hash encode (feeding record
bytes to MD5 and resuming Merkle prefix checkpoints), the fingerprint
insert (the visited-table probe), shipping (moving discoveries to the
global union -- RPC pickling or shared-memory stores), or
snapshot/restore (the ``c_track`` concrete-state captures backtracking
needs).  The profiler charges wall time to exactly those five buckets
so ``repro check --profile`` and the distributed benchmarks can
headline a real throughput number *with its cost breakdown* instead of
a bare rate.

Buckets nest exclusively: when a ``timed`` call runs inside another
``timed`` call (the explorer wraps the whole state check while the
abstraction cache charges its walk and hash sub-phases), the inner
charge is subtracted from the outer bucket, so the buckets partition
wall time instead of double-counting it.

Profiling is measurement only: buckets never feed back into exploration
decisions, so enabling it cannot change what a run finds -- the same
contract as :mod:`repro.dist.realtime`, the other sanctioned wall-clock
read.  The profile itself is wall-clock data and therefore **not**
deterministic; everything derived from it (reports, benchmarks) must
treat it as a measurement, never as an input to the merge.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Tuple

#: the cost buckets, in presentation order
BUCKETS: Tuple[str, ...] = (
    "abstraction_syscall",  # re-walking dirty regions via the syscall surface
    "abstraction_hash",     # encoding records + MD5 over the sorted stream
    "fingerprint",          # visited-table probes/inserts (local store)
    "ship",                 # moving discoveries to the global union
    "snapshot_restore",     # concrete-state checkpoint captures + rollbacks
)

#: compact labels for one-line rendering
_LABELS: Dict[str, str] = {
    "abstraction_syscall": "walk",
    "abstraction_hash": "hash",
    "fingerprint": "fp",
    "ship": "ship",
    "snapshot_restore": "snap",
}

#: pre-PR-9 profiles had one combined abstraction bucket; fold it into
#: the syscall lane when deserialising so old documents still read
_LEGACY_BUCKETS: Dict[str, str] = {
    "abstraction_walk": "abstraction_syscall",
}


#: high-resolution timestamp for cost attribution; a direct alias (not a
#: wrapper function) because it runs twice per ``timed`` span
_now = time.perf_counter


def _empty_seconds() -> Dict[str, float]:
    return {bucket: 0.0 for bucket in BUCKETS}


def _empty_calls() -> Dict[str, int]:
    return {bucket: 0 for bucket in BUCKETS}


@dataclass
class CostProfile:
    """Accumulated wall seconds and call counts per cost bucket.

    ``states`` counts the state checks the run performed (one per
    explorer ``_record_state``), the natural denominator for per-state
    averages.  Profiles merge additively, so a fleet's unit profiles
    fold into one campaign-wide breakdown.
    """

    seconds: Dict[str, float] = field(default_factory=_empty_seconds)
    calls: Dict[str, int] = field(default_factory=_empty_calls)
    states: int = 0
    #: live ``timed`` nesting: each frame accumulates the seconds its
    #: inner spans charged, to subtract from the enclosing bucket.
    #: Transient bookkeeping only -- never serialised or merged.
    _spans: List[float] = field(default_factory=list, repr=False, compare=False)

    # ------------------------------------------------------------ recording --
    def add(self, bucket: str, elapsed: float, count: int = 1) -> None:
        self.seconds[bucket] += elapsed
        self.calls[bucket] += count

    def timed(self, bucket: str, func: Callable, *args) -> Any:
        """Run ``func(*args)``, charging its wall time to ``bucket``.

        Exclusive under nesting: time a nested ``timed`` call charges to
        its own bucket is subtracted from this one, so an outer
        state-check span and the walk/hash sub-spans inside it partition
        the wall time instead of counting it twice.
        """
        spans = self._spans
        spans.append(0.0)
        start = _now()
        try:
            return func(*args)
        finally:
            # hand-inlined ``add``: this bookkeeping runs inside the
            # enclosing span's window, so every saved instruction keeps
            # profiler overhead out of the parent bucket
            elapsed = _now() - start
            inner = spans.pop()
            self.seconds[bucket] += elapsed - inner
            self.calls[bucket] += 1
            if spans:
                spans[-1] += elapsed

    def note_state(self) -> None:
        self.states += 1

    def merge(self, other: "CostProfile") -> None:
        for bucket in BUCKETS:
            self.seconds[bucket] += other.seconds.get(bucket, 0.0)
            self.calls[bucket] += other.calls.get(bucket, 0)
        self.states += other.states

    def __add__(self, other: "CostProfile") -> "CostProfile":
        """A new profile holding both (``RunMetrics``' sum rule)."""
        total = CostProfile()
        total.merge(self)
        total.merge(other)
        return total

    # -------------------------------------------------------------- derived --
    @property
    def total_seconds(self) -> float:
        return sum(self.seconds[bucket] for bucket in BUCKETS)

    def per_state_microseconds(self) -> Dict[str, float]:
        """Average microseconds per recorded state, per bucket."""
        states = max(1, self.states)
        return {bucket: self.seconds[bucket] / states * 1e6
                for bucket in BUCKETS}

    def describe(self) -> str:
        """One-line per-state breakdown (``RunMetrics.render`` shows it)."""
        per_state = self.per_state_microseconds()
        total = self.total_seconds
        parts = []
        for bucket in BUCKETS:
            share = self.seconds[bucket] / total if total > 0 else 0.0
            parts.append(
                f"{_LABELS[bucket]} {per_state[bucket]:.0f}us ({share:.0%})")
        return " | ".join(parts)

    # ------------------------------------------------------- serialisation --
    def to_dict(self) -> Dict[str, Any]:
        return {
            "states": self.states,
            "seconds": {bucket: self.seconds[bucket] for bucket in BUCKETS},
            "calls": {bucket: self.calls[bucket] for bucket in BUCKETS},
        }

    @classmethod
    def from_dict(cls, document: Dict[str, Any]) -> "CostProfile":
        profile = cls(states=int(document.get("states", 0)))
        seconds = document.get("seconds", {})
        calls = document.get("calls", {})
        for bucket in BUCKETS:
            profile.seconds[bucket] = float(seconds.get(bucket, 0.0))
            profile.calls[bucket] = int(calls.get(bucket, 0))
        for legacy, bucket in _LEGACY_BUCKETS.items():
            profile.seconds[bucket] += float(seconds.get(legacy, 0.0))
            profile.calls[bucket] += int(calls.get(legacy, 0))
        return profile
