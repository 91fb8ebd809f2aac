"""One record for every counter a checking run reports.

MCFS's value is its per-run scoreboard (paper §5): states, operations,
speed, snapshot traffic, store risk, and where the time went.
:class:`RunMetrics` declares each of those counters exactly once,
together with the rule that folds two records into one:

* ``sum`` -- additive counters (operations, bytes, hits, seconds, and
  the embedded :class:`~repro.mc.perf.CostProfile`);
* ``max`` -- worst-case figures (the omission probability);
* ``any`` -- sticky flags (a lossy store was in play somewhere).

Records flow unit -> campaign -> job through one :meth:`RunMetrics.merge`.
A campaign then replaces the two figures a union does not sum: its
unique-state count is the merged table's size and its simulated time is
the modeled parallel time (see :attr:`repro.dist.DistResult.metrics`).

Counters are **collected by name**: :meth:`RunMetrics.collect` reads
each field from the first source object that has an attribute of the
same name (the explorer's ``ExplorationStats``, the visited table's
``TableStats``, a worker's shipping table).  A new counter therefore
needs one declaration here plus its increment site; no result type,
wire message, or CLI path changes.

Result types (``MCFSResult``, ``UnitResult``, ``WorkerSummary``,
``DistResult``, the swarm results) keep only their identity fields and
read counters through :class:`MetricsView`, so ``result.operations`` is
``result.metrics.operations``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field, fields
from functools import reduce
from typing import Any, Dict, Iterable, Optional

from repro.mc.perf import CostProfile

#: version of the :meth:`RunMetrics.to_dict` document
METRICS_VERSION = 1


def _add(left, right):
    """``sum`` rule; ``None`` (an absent cost profile) is the identity."""
    if left is None:
        return right
    if right is None:
        return left
    return left + right


MERGE_RULES = {"sum": _add, "max": max, "any": operator.or_}


def _metric(rule: str, default: Any = 0):
    return field(default=default, metadata={"merge": rule})


@dataclass(frozen=True)
class RunMetrics:
    """Every counter of one run, unit, campaign, or job."""

    # -- exploration (the explorer's ExplorationStats) --
    operations: int = _metric("sum")
    transitions: int = _metric("sum")
    #: distinct states; a campaign reports its merged table's size
    unique_states: int = _metric("sum")
    revisited_states: int = _metric("sum")
    checkpoints: int = _metric("sum")
    restores: int = _metric("sum")
    #: transitions skipped by sleep-set partial-order reduction
    por_pruned: int = _metric("sum")
    #: fsck-oracle sweeps over the device images
    fsck_checks: int = _metric("sum")
    #: simulated seconds; a campaign reports its modeled parallel time
    sim_time: float = _metric("sum", 0.0)
    #: real seconds (0.0 when the run did not measure wall time)
    wall_time: float = _metric("sum", 0.0)
    # -- visited-state store (the table's TableStats) --
    inserts: int = _metric("sum")
    duplicate_hits: int = _metric("sum")
    #: bookkeeping bytes the visited store occupied
    stored_bytes: int = _metric("sum")
    #: a lossy store (bitstate / hash compaction / tiered) may have
    #: silently omitted states; coverage loss is surfaced, never hidden
    omission_possible: bool = _metric("any", False)
    #: per-query probability that a fresh state was wrongly matched
    omission_probability: float = _metric("max", 0.0)
    # -- snapshot traffic (the devices' copy-on-write chunk stores) --
    #: bytes the checkpoint path physically copied
    bytes_snapshotted: int = _metric("sum")
    #: bytes restores physically rewrote
    bytes_restored: int = _metric("sum")
    #: what a full-copy checkpointer would have copied
    logical_snapshot_bytes: int = _metric("sum")
    # -- distributed shipping (a worker's ShippingVisitedTable) --
    shipped_hashes: int = _metric("sum")
    suppressed_hashes: int = _metric("sum")
    probable_cross_duplicates: int = _metric("sum")
    #: per-state wall-time breakdown when the run profiled
    cost_profile: Optional[CostProfile] = _metric("sum", None)

    # ------------------------------------------------------------- derived --
    @property
    def ops_per_second(self) -> float:
        """Operations per simulated second."""
        return self.operations / self.sim_time if self.sim_time > 0 else 0.0

    @property
    def duplicate_hit_ratio(self) -> float:
        """Fraction of store visits answered as already known."""
        visits = self.inserts + self.duplicate_hits
        return self.duplicate_hits / visits if visits else 0.0

    @property
    def bits_per_state(self) -> float:
        """Store bookkeeping bits per stored state."""
        return self.stored_bytes * 8 / self.inserts if self.inserts else 0.0

    @property
    def snapshot_dedup_ratio(self) -> float:
        """Logical-to-physical snapshot ratio (>= 1 means chunk sharing
        saved copies; 0.0 when no snapshot traffic was recorded)."""
        if self.bytes_snapshotted <= 0:
            return 0.0
        return self.logical_snapshot_bytes / self.bytes_snapshotted

    # ------------------------------------------------------------ building --
    @classmethod
    def collect(cls, *sources: Any, **values: Any) -> "RunMetrics":
        """Fill each field not given in ``values`` from the first source
        with a non-None attribute of the same name."""
        for metric in fields(cls):
            if metric.name in values:
                continue
            for source in sources:
                value = getattr(source, metric.name, None)
                if value is not None:
                    values[metric.name] = value
                    break
        return cls(**values)

    def merge(self, other: "RunMetrics") -> "RunMetrics":
        """Fold two records by each field's declared rule."""
        return RunMetrics(**{
            metric.name: MERGE_RULES[metric.metadata["merge"]](
                getattr(self, metric.name), getattr(other, metric.name))
            for metric in fields(self)
        })

    @classmethod
    def merge_all(cls, records: Iterable["RunMetrics"]) -> "RunMetrics":
        """Merge any number of records (none gives the zero record)."""
        return reduce(cls.merge, records, cls())

    # ------------------------------------------------------- serialisation --
    def to_dict(self) -> Dict[str, Any]:
        document: Dict[str, Any] = {"version": METRICS_VERSION}
        for metric in fields(self):
            document[metric.name] = getattr(self, metric.name)
        if self.cost_profile is not None:
            document["cost_profile"] = self.cost_profile.to_dict()
        return document

    @classmethod
    def from_dict(cls, document: Dict[str, Any]) -> "RunMetrics":
        """Strict inverse of :meth:`to_dict`: an unknown version, key,
        or missing key raises ``ValueError`` instead of defaulting."""
        values = check_document(document, METRICS_VERSION,
                                [metric.name for metric in fields(cls)],
                                "run metrics")
        for metric in fields(cls):
            if metric.name == "cost_profile":
                if values[metric.name] is not None:
                    values[metric.name] = CostProfile.from_dict(
                        values[metric.name])
            else:
                values[metric.name] = type(metric.default)(values[metric.name])
        return cls(**values)

    # ---------------------------------------------------------- rendering --
    def render(self) -> str:
        """The scoreboard ``repro check`` prints (optional lines appear
        only when their counters are non-zero)."""
        lines = [
            f"operations : {self.operations}",
            f"new states : {self.unique_states}",
            f"dup hits   : {self.duplicate_hits} "
            f"({self.duplicate_hit_ratio:.1%} of visits)",
            f"sim time   : {self.sim_time:.3f}s "
            f"({self.ops_per_second:.1f} ops/s)",
        ]
        if self.omission_possible:
            lines.append(
                f"store      : LOSSY ({self.bits_per_state:.1f} bits/state, "
                f"omission p <= {self.omission_probability:.2e})")
        if self.bytes_snapshotted or self.bytes_restored:
            lines.append(
                f"snapshots  : {self.bytes_snapshotted} B copied / "
                f"{self.bytes_restored} B restored "
                f"(dedup {self.snapshot_dedup_ratio:.1f}x)")
        if self.cost_profile is not None:
            lines.append("cost/state : " + self.cost_profile.describe())
        if self.fsck_checks:
            lines.append(f"fsck sweeps: {self.fsck_checks}")
        return "\n".join(lines)


#: every counter and derived figure :class:`MetricsView` forwards
METRIC_ATTRIBUTES = frozenset(
    [metric.name for metric in fields(RunMetrics)]
    + [name for name, value in vars(RunMetrics).items()
       if isinstance(value, property)])


class MetricsView:
    """Mixin for result types: read any :class:`RunMetrics` counter off
    the result itself (``result.operations`` is
    ``result.metrics.operations``)."""

    def __getattr__(self, name: str) -> Any:
        if name in METRIC_ATTRIBUTES:
            return getattr(self.metrics, name)
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}")


def check_document(document: Dict[str, Any], version: int,
                   keys: Iterable[str], what: str) -> Dict[str, Any]:
    """Validate a versioned wire/spool document; return its fields.

    The document must carry ``"version": version`` and exactly ``keys``
    besides; anything else raises ``ValueError`` naming the offending
    keys, so a malformed or future document fails loudly instead of
    quietly decoding to defaults.
    """
    if not isinstance(document, dict):
        raise ValueError(f"{what}: expected a JSON object, "
                         f"got {type(document).__name__}")
    found = document.get("version")
    if found != version:
        raise ValueError(f"{what}: unsupported document version {found!r} "
                         f"(this build reads version {version})")
    values = {key: value for key, value in document.items()
              if key != "version"}
    expected = set(keys)
    problems = []
    unknown = sorted(set(values) - expected)
    missing = sorted(expected - set(values))
    if unknown:
        problems.append(f"unknown key(s) {', '.join(unknown)}")
    if missing:
        problems.append(f"missing key(s) {', '.join(missing)}")
    if problems:
        raise ValueError(f"{what}: {'; '.join(problems)}")
    return values
