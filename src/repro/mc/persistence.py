"""Persisting checker state to resume interrupted runs (§7 future work).

The paper: "We are also working on APIs that will checkpoint file system
states to help us resume the model-checking process if an interruption
occurs (e.g., due to a kernel crash)."

What must survive an interruption is the checker's *knowledge*: the
visited-state table (abstract hashes and their shallowest depths) plus
enough bookkeeping to continue counting meaningfully.  Concrete
file-system state does NOT need to survive -- a resumed run starts from
freshly formatted file systems, and the visited table prevents
re-exploring everything it already covered.

Format: a single JSON document, versioned, written atomically (tmp file
+ rename) so a crash during save never corrupts the previous snapshot.

Version history:

* **v1** -- buckets, seen map, operations_completed, runs.
* **v2** -- adds ``table_stats`` (insert/duplicate/resize counters, so a
  resumed run's duplicate-hit ratio is meaningful), ``seed`` and
  ``worker_id`` (so :mod:`repro.dist` workers can ship their periodic
  checkpoints in this format and the coordinator knows whose leased work
  a snapshot covers).  v1 documents still load.
* **v3** -- memory-bounded stores (:mod:`repro.mc.statestore`): instead
  of a ``seen`` hash map, the document carries a ``store`` record (the
  store's own serialised form -- bit array, fingerprint map, or hot/cold
  tiers) so a bitstate or hash-compaction campaign resumes without the
  full hashes it never kept.  Exact tables keep writing v2; v1/v2 still
  load.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.mc.hashtable import AbstractVisitedTable, TableStats, VisitedStateTable

FORMAT_VERSION = 2

#: version written for memory-bounded (lossy) stores
LOSSY_FORMAT_VERSION = 3

#: versions this module can still read
SUPPORTED_VERSIONS = (1, 2, 3)


@dataclass
class CheckerSnapshot:
    """Everything persisted between runs."""

    visited: AbstractVisitedTable
    operations_completed: int = 0
    runs: int = 1
    #: exploration seed the snapshot belongs to (v2; None for v1 docs)
    seed: Optional[int] = None
    #: distributed worker that produced the snapshot (v2; None for v1)
    worker_id: Optional[str] = None
    table_stats: TableStats = field(default_factory=TableStats)
    #: pending work-unit indices at pause time (the campaign server's
    #: pause/resume hook): a paused campaign serialises its visited
    #: store *and* the frontier of not-yet-run units, so resume -- in
    #: the same daemon or after a restart -- re-derives exactly the
    #: remaining work from the spec.  None for snapshots of completed
    #: or non-job runs.
    frontier: Optional[List[int]] = None


def snapshot_document(visited: AbstractVisitedTable,
                      operations_completed: int = 0, runs: int = 1,
                      seed: Optional[int] = None,
                      worker_id: Optional[str] = None,
                      frontier: Optional[List[int]] = None) -> Dict[str, Any]:
    """Build the (JSON-serialisable) snapshot document.

    Exact tables produce the v2 form (full ``seen`` map); memory-bounded
    stores produce v3 with their own ``store`` record.  Shared by
    :func:`save_checker_state` and the distributed workers, which ship
    the same document over a pipe instead of writing a file.
    """
    common = {
        "operations_completed": operations_completed,
        "runs": runs,
        "seed": seed,
        "worker_id": worker_id,
        "table_stats": visited.stats.to_dict(),
    }
    if frontier is not None:
        common["frontier"] = [int(index) for index in frontier]
    if isinstance(visited, VisitedStateTable):
        return {
            "version": FORMAT_VERSION,
            "buckets": visited.buckets,
            "seen": visited.export_seen(),  # hash -> shallowest depth
            **common,
        }
    store_document = getattr(visited, "store_document", None)
    if store_document is None:
        raise ValueError(
            f"{type(visited).__name__} does not support persistence "
            f"(no store_document)"
        )
    return {
        "version": LOSSY_FORMAT_VERSION,
        "store": store_document(),
        **common,
    }


def _stats_from_raw(raw: Dict[str, Any], fallback_inserts: int) -> TableStats:
    return TableStats.from_dict({"inserts": fallback_inserts, **raw})


def snapshot_from_document(document: Dict[str, Any],
                           memory=None) -> CheckerSnapshot:
    """Rebuild a :class:`CheckerSnapshot` from a v1, v2, or v3 document."""
    version = document.get("version")
    if version not in SUPPORTED_VERSIONS:
        raise ValueError(
            f"checker snapshot has version {version}, "
            f"expected one of {SUPPORTED_VERSIONS}"
        )
    if version >= 3:
        from repro.mc.statestore import store_from_document

        visited: AbstractVisitedTable = store_from_document(
            document["store"], memory=memory)
        stats = _stats_from_raw(document.get("table_stats", {}),
                                fallback_inserts=len(visited))
        # the rebuilt store already knows its footprint and omission
        # state; the persisted counters restore the traffic history
        stats.stored_bytes = max(stats.stored_bytes,
                                 visited.stats.stored_bytes)
        stats.omission_possible = (stats.omission_possible
                                   or visited.stats.omission_possible)
        stats.omission_probability = max(stats.omission_probability,
                                         visited.stats.omission_probability)
        visited.stats = stats
    else:
        visited = VisitedStateTable(memory=memory,
                                    initial_buckets=document["buckets"])
        visited.import_seen({
            state_hash: int(depth)
            for state_hash, depth in document["seen"].items()
        })
        stats = TableStats(inserts=len(visited),
                           stored_bytes=visited.stats.stored_bytes)
        if version >= 2:
            stats = _stats_from_raw(document.get("table_stats", {}),
                                    fallback_inserts=len(visited))
            if not stats.stored_bytes:
                stats.stored_bytes = visited.stats.stored_bytes
        visited.stats = stats
    raw_frontier = document.get("frontier")
    return CheckerSnapshot(
        visited=visited,
        operations_completed=int(document.get("operations_completed", 0)),
        runs=int(document.get("runs", 1)),
        seed=document.get("seed"),
        worker_id=document.get("worker_id"),
        table_stats=stats,
        frontier=(None if raw_frontier is None
                  else [int(index) for index in raw_frontier]),
    )


def save_checker_state(path: str, visited: AbstractVisitedTable,
                       operations_completed: int = 0, runs: int = 1,
                       seed: Optional[int] = None,
                       worker_id: Optional[str] = None,
                       frontier: Optional[List[int]] = None) -> None:
    """Atomically write the checker's knowledge to ``path``."""
    document = snapshot_document(visited,
                                 operations_completed=operations_completed,
                                 runs=runs, seed=seed, worker_id=worker_id,
                                 frontier=frontier)
    tmp_path = path + ".tmp"
    with open(tmp_path, "w", encoding="utf-8") as handle:
        json.dump(document, handle)
    os.replace(tmp_path, path)  # atomic on POSIX


def load_checker_state(path: str, memory=None) -> Optional[CheckerSnapshot]:
    """Load a previously saved snapshot; None when ``path`` is absent."""
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    try:
        return snapshot_from_document(document, memory=memory)
    except ValueError as error:
        raise ValueError(f"{path}: {error}") from None
