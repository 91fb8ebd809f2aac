"""Discrepancy reports: precise, replayable bug evidence.

When the integrity checker trips, Spin "logs the precise sequence of
operations, parameters, and starting and ending states that led to a
problem, simplifying reproducibility" (section 2).  The report captures
all of that, renders it for humans, supports replaying the logged
sequence against fresh file systems, and serialises to JSON so a trace
can be attached to a bug report and replayed elsewhere.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.findings import Finding, finding_from_dict
from repro.core.integrity import Outcome, StateDiff
from repro.core.ops import Operation
from repro.mc import trace


def _encode_arg(value: Any) -> Any:
    if isinstance(value, (bytes, bytearray)):
        return {"__bytes__": bytes(value).hex()}
    return value


def _decode_arg(value: Any) -> Any:
    if isinstance(value, dict) and "__bytes__" in value:
        return bytes.fromhex(value["__bytes__"])
    return value


def operation_to_dict(operation: Operation) -> Dict[str, Any]:
    return {
        "name": operation.name,
        "args": [_encode_arg(arg) for arg in operation.args],
    }


def operation_from_dict(document: Dict[str, Any]) -> Operation:
    return Operation(
        name=document["name"],
        args=tuple(_decode_arg(arg) for arg in document["args"]),
    )


def _outcome_to_dict(outcome: Outcome) -> Dict[str, Any]:
    return {"ok": outcome.ok,
            "value": _encode_arg(outcome.value),
            "errno": outcome.errno}


def _outcome_from_dict(document: Dict[str, Any]) -> Outcome:
    return Outcome(ok=document["ok"],
                   value=_decode_arg(document.get("value")),
                   errno=document.get("errno"))


def schedule_event_to_dict(event: Tuple) -> Dict[str, Any]:
    """Serialise one explorer schedule event (see :mod:`repro.mc.trace`)."""
    tag = event[0]
    if tag == trace.OP:
        return {"event": tag, "operation": operation_to_dict(event[1])}
    if tag in (trace.CHECKPOINT, trace.RESTORE):
        return {"event": tag, "id": event[1]}
    return {"event": tag}


def schedule_event_from_dict(document: Dict[str, Any]) -> Tuple:
    tag = document["event"]
    if tag == trace.OP:
        return (tag, operation_from_dict(document["operation"]))
    if tag in (trace.CHECKPOINT, trace.RESTORE):
        return (tag, document["id"])
    return (tag,)


@dataclass
class LoggedOperation:
    """One executed operation with its per-file-system outcomes."""

    operation: Operation
    outcomes: Dict[str, Outcome] = field(default_factory=dict)

    def describe(self) -> str:
        results = ", ".join(
            f"{label}={outcome.describe()}" for label, outcome in self.outcomes.items()
        )
        return f"{self.operation.describe():40s} {results}"


@dataclass
class DiscrepancyReport:
    """Everything needed to understand and reproduce one discrepancy."""

    kind: str  # "outcome" | "state" | "corruption"
    summary: str
    operation_log: List[LoggedOperation] = field(default_factory=list)
    state_diff: Optional[StateDiff] = None
    starting_state: str = ""
    ending_states: Dict[str, str] = field(default_factory=dict)
    operations_executed: int = 0
    sim_time: float = 0.0
    #: labels outvoted by the majority (set when majority voting is on
    #: and a strict majority existed) -- the suspected culprits
    suspects: List[str] = field(default_factory=list)
    #: structured fsck findings (set for ``kind="corruption"`` reports
    #: raised by the :mod:`repro.analysis` oracle)
    findings: List[Finding] = field(default_factory=list)
    #: the explorer's full event schedule (operations, checkpoints,
    #: restores, checks) from run start to detection -- what
    #: :mod:`repro.trail` replays; None when the run recorded none
    #: (e.g. a violation raised outside an explorer)
    schedule: Optional[List[Tuple]] = None

    @property
    def failing_operation(self) -> Optional[LoggedOperation]:
        return self.operation_log[-1] if self.operation_log else None

    def operations(self) -> List[Operation]:
        """The replayable operation sequence."""
        return [logged.operation for logged in self.operation_log]

    # ------------------------------------------------------- serialisation --
    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "summary": self.summary,
            "starting_state": self.starting_state,
            "ending_states": dict(self.ending_states),
            "operations_executed": self.operations_executed,
            "sim_time": self.sim_time,
            "suspects": list(self.suspects),
            "findings": [finding.to_dict() for finding in self.findings],
            "state_diff": (self.state_diff.to_dict()
                           if self.state_diff is not None else None),
            "schedule": ([schedule_event_to_dict(event)
                          for event in self.schedule]
                         if self.schedule is not None else None),
            "operation_log": [
                {
                    "operation": operation_to_dict(logged.operation),
                    "outcomes": {
                        label: _outcome_to_dict(outcome)
                        for label, outcome in logged.outcomes.items()
                    },
                }
                for logged in self.operation_log
            ],
        }

    @classmethod
    def from_dict(cls, document: Dict[str, Any]) -> "DiscrepancyReport":
        state_diff = document.get("state_diff")
        schedule = document.get("schedule")
        return cls(
            kind=document["kind"],
            summary=document["summary"],
            starting_state=document.get("starting_state", ""),
            ending_states=dict(document.get("ending_states", {})),
            operations_executed=document.get("operations_executed", 0),
            sim_time=document.get("sim_time", 0.0),
            suspects=list(document.get("suspects", [])),
            findings=[finding_from_dict(entry)
                      for entry in document.get("findings", [])],
            state_diff=(StateDiff.from_dict(state_diff)
                        if state_diff is not None else None),
            schedule=([schedule_event_from_dict(entry) for entry in schedule]
                      if schedule is not None else None),
            operation_log=[
                LoggedOperation(
                    operation=operation_from_dict(entry["operation"]),
                    outcomes={
                        label: _outcome_from_dict(outcome)
                        for label, outcome in entry["outcomes"].items()
                    },
                )
                for entry in document.get("operation_log", [])
            ],
        )

    def save(self, path: str) -> None:
        """Write the report as a JSON trace file."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2)

    @classmethod
    def load(cls, path: str) -> "DiscrepancyReport":
        """Load a JSON trace file saved by :meth:`save`."""
        with open(path, encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))

    def __str__(self) -> str:
        lines = [
            f"=== MCFS discrepancy ({self.kind}) ===",
            self.summary,
            f"detected after {self.operations_executed} operations "
            f"({self.sim_time:.3f}s simulated)",
            f"starting abstract state: {self.starting_state or '(unrecorded)'}",
        ]
        if self.suspects:
            lines.append(f"suspected culprit(s) by majority vote: "
                         f"{', '.join(self.suspects)}")
        if self.findings:
            lines.append(f"fsck findings ({len(self.findings)}):")
            for finding in self.findings:
                lines.append(f"  {finding.describe()}")
        if self.ending_states:
            lines.append("ending abstract states:")
            for label, state in self.ending_states.items():
                lines.append(f"  {label}: {state}")
        if self.operation_log:
            lines.append(f"operation sequence ({len(self.operation_log)} steps):")
            for index, logged in enumerate(self.operation_log):
                lines.append(f"  {index + 1:3d}. {logged.describe()}")
        if self.state_diff is not None:
            lines.append("state diff:")
            lines.append(self.state_diff.describe())
        return "\n".join(lines)


def replay(operations: Sequence[Operation], futs, catalog) -> List[LoggedOperation]:
    """Re-execute a logged sequence on fresh FUTs; return the new log.

    Used to confirm a report reproduces (e.g. after fixing a bug, replay
    should now produce matching outcomes everywhere).
    """
    log: List[LoggedOperation] = []
    for operation in operations:
        outcomes = {fut.label: catalog.execute(fut, operation) for fut in futs}
        log.append(LoggedOperation(operation=operation, outcomes=outcomes))
    return log
