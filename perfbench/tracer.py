"""Outside-in span recorder for the traced run.

The program is not edited: :func:`install` replaces public functions of
each layer, at class level, with wrappers that record one span per call
(name, start, end, parent).  Spans live in flat arrays in memory and are
aggregated (or, in forked fleet workers, dumped to a file) at the end.

Self time is exclusive: a span's duration minus its children's durations
minus the probe readings taken while it was the innermost span.  Time
inside the traced window but outside every span is ``other``, so the
layer self times, the probe time and ``other`` add up to the wall.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array
from typing import Any, Dict, List, Optional, Tuple

#: (module, class or None for a module function, attributes or None for
#: every public function the class itself defines) -> layer
LAYERS: List[Tuple[str, Optional[str], Optional[Tuple[str, ...]], str]] = [
    ("repro.mc.explorer", "Explorer", ("run_dfs", "run_random"),
     "mc.explorer"),
    ("repro.core.engine", "SyscallEngine", ("run_operation",),
     "core.engine"),
    ("repro.core.engine", "SyscallEngine", ("combined_abstract_state",),
     "core.abstraction"),
    ("repro.core.futs", "FilesystemUnderTest",
     ("abstract_state", "collect_entries", "entries_digests",
      "snapshot_abstraction", "restore_abstraction"), "core.abstraction"),
    ("repro.kernel.kernel", "Kernel", None, "kernel"),
    ("repro.fuse.connection", "FuseConnection", ("send", "send_dict"),
     "fuse"),
    ("repro.fuse.server", "FuseServerProcess", ("handle",), "verifs"),
    ("repro.fs.ext2", "MountedExt2", None, "fs"),
    ("repro.fs.ext4", "MountedExt4", None, "fs"),
    ("repro.fs.xfs", "MountedXfs", None, "fs"),
    ("repro.fs.jffs2", "MountedJffs2", None, "fs"),
    ("repro.storage.device", "BlockDevice",
     ("read", "write", "read_block", "write_block"), "storage"),
    ("repro.storage.device", "ChunkedStore",
     ("snapshot_chunks", "restore_snapshot", "snapshot_image",
      "restore_image"), "storage"),
    ("repro.mc.hashtable", "VisitedStateTable", ("visit",), "mc.statestore"),
    ("repro.core.engine", "MCFSTarget", ("choose_action",), "workload"),
    ("repro.workload.profile", "WeightedChooser", ("choose",), "workload"),
    ("repro.dist.coordinator", "DistributedChecker", ("run",), "dist"),
    ("repro.dist.service", "VisitedStateService",
     ("insert_batch", "insert_packed"), "dist"),
    ("repro.dist.worker", None, ("run_unit",), "dist.worker"),
    ("repro.dist.worker", "ShmSink", ("ship_batch",), "dist.ship"),
    ("repro.dist.worker", "PipeSink", ("ship_batch",), "dist.ship"),
    ("repro.dist.client", "ShippingVisitedTable", ("visit",), "dist.ship"),
]

#: checkpoint strategies: every concrete class's own checkpoint/restore
STRATEGY_METHODS = ("checkpoint", "restore")


class Tracer:
    """Flat-array span store; ``stack[-1]`` is the innermost open span."""

    def __init__(self):
        self.names: List[str] = []
        self.layers: List[str] = []
        self.name_col = array("i")
        self.parent_col = array("i")
        self.start_col = array("d")
        self.end_col = array("d")
        self.stack: List[int] = [-1]

    def current(self) -> int:
        return self.stack[-1]

    def _name_id(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.layers.append(layer)
        return len(self.names) - 1

    def wrap(self, owner: Any, attr: str, layer: str) -> None:
        raw = (owner.__dict__[attr] if inspect.isclass(owner)
               else getattr(owner, attr))
        if isinstance(raw, (staticmethod, classmethod, property)):
            return
        label = f"{owner.__name__}." if inspect.isclass(owner) else ""
        name_id = self._name_id(label + attr, layer)
        name_col, parent_col = self.name_col, self.parent_col
        start_col, end_col, stack = self.start_col, self.end_col, self.stack
        clock = time.perf_counter

        @functools.wraps(raw)
        def wrapper(*args, **kwargs):
            start = clock()
            index = len(start_col)
            start_col.append(start)
            end_col.append(0.0)
            name_col.append(name_id)
            parent_col.append(stack[-1])
            stack.append(index)
            try:
                return raw(*args, **kwargs)
            finally:
                stack.pop()
                end_col[index] = clock()

        setattr(owner, attr, wrapper)

    # ------------------------------------------------------------- dump --
    def dump(self, stem: str) -> None:
        import json

        with open(stem + ".spans", "wb") as handle:
            for column in (self.name_col, self.parent_col):
                column.tofile(handle)
            for column in (self.start_col, self.end_col):
                column.tofile(handle)
        with open(stem + ".names", "w") as handle:
            json.dump({"names": self.names, "layers": self.layers,
                       "count": len(self.start_col)},
                      handle)


def load_dump(stem: str) -> Tracer:
    import json

    with open(stem + ".names") as handle:
        meta = json.load(handle)
    tracer = Tracer()
    tracer.names, tracer.layers = meta["names"], meta["layers"]
    count = meta["count"]
    with open(stem + ".spans", "rb") as handle:
        for column in (tracer.name_col, tracer.parent_col,
                       tracer.start_col, tracer.end_col):
            column.fromfile(handle, count)
    return tracer


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary listed in :data:`LAYERS`."""
    import importlib

    for module_name, class_name, attrs, layer in LAYERS:
        module = importlib.import_module(module_name)
        owner = module if class_name is None else getattr(module, class_name)
        if attrs is None:
            attrs = tuple(attr for attr, value in vars(owner).items()
                          if not attr.startswith("_")
                          and inspect.isfunction(value))
        for attr in attrs:
            tracer.wrap(owner, attr, layer)
    strategies = importlib.import_module("repro.mc.strategies")
    for value in vars(strategies).values():
        if (inspect.isclass(value)
                and issubclass(value, strategies.CheckpointStrategy)):
            for attr in STRATEGY_METHODS:
                if inspect.isfunction(value.__dict__.get(attr)):
                    tracer.wrap(value, attr, "mc.strategies")


# ---------------------------------------------------------- aggregation --
class Aggregate:
    """Per-name and per-layer self time of one process's spans."""

    def __init__(self, tracer: Tracer, readings: List[tuple],
                 first: float, last: float):
        n = len(tracer.start_col)
        names, parent = tracer.name_col, tracer.parent_col
        start, end = tracer.start_col, tracer.end_col
        layer_of = tracer.layers
        duration = [end[i] - start[i] for i in range(n)]
        self_time = list(duration)
        for i in range(n):
            if parent[i] >= 0:
                self_time[parent[i]] -= duration[i]
        probe_in_window = 0.0
        for reading_start, reading, span in readings:
            if first <= reading_start <= last:
                probe_in_window += reading
                if 0 <= span < n:
                    self_time[span] -= reading
        self.window_s = last - first
        self.probe_s = probe_in_window
        #: name -> [calls, inclusive seconds]
        self.by_name: Dict[str, List[float]] = {}
        #: name -> start of its first span
        self.starts: Dict[str, float] = {}
        self.layer_of_name = dict(zip(tracer.names, tracer.layers))
        self.by_layer: Dict[str, float] = {}
        #: calls entering a layer from another one, by the caller's layer
        self.entries: Dict[Tuple[str, str], int] = {}
        #: self time of a layer by the layer that entered it
        self.self_by_context: Dict[Tuple[str, str], float] = {}
        context = [""] * n
        for i in range(n):
            layer = layer_of[names[i]]
            p = parent[i]
            parent_layer = layer_of[names[p]] if p >= 0 else "root"
            if parent_layer != layer:
                context[i] = parent_layer
                key = (layer, parent_layer)
                self.entries[key] = self.entries.get(key, 0) + 1
            else:
                context[i] = context[p]
            key = (layer, context[i])
            self.self_by_context[key] = (self.self_by_context.get(key, 0.0)
                                         + self_time[i])
            name = tracer.names[names[i]]
            slot = self.by_name.setdefault(name, [0, 0.0])
            slot[0] += 1
            slot[1] += duration[i]
            self.starts.setdefault(name, start[i])
            self.by_layer[layer] = self.by_layer.get(layer, 0.0) + self_time[i]
        self.span_count = n

    @property
    def other_s(self) -> float:
        return self.window_s - sum(self.by_layer.values()) - self.probe_s

    def merge(self, other: "Aggregate") -> None:
        """Fold another process's aggregate into this one (fleet)."""
        self.window_s += other.window_s
        self.probe_s += other.probe_s
        for name, (count, total) in other.by_name.items():
            slot = self.by_name.setdefault(name, [0, 0.0])
            slot[0] += count
            slot[1] += total
        self.layer_of_name.update(other.layer_of_name)
        for layer, value in other.by_layer.items():
            self.by_layer[layer] = self.by_layer.get(layer, 0.0) + value
        for key, value in other.entries.items():
            self.entries[key] = self.entries.get(key, 0) + value
        for key, value in other.self_by_context.items():
            self.self_by_context[key] = (self.self_by_context.get(key, 0.0)
                                         + value)
        self.span_count += other.span_count
        for name, value in other.starts.items():
            self.starts[name] = min(value, self.starts.get(name, value))

    def calls(self, name: str) -> int:
        return int(self.by_name.get(name, [0])[0])

    def inclusive_s(self, name: str) -> float:
        return self.by_name.get(name, [0, 0.0])[1]

    def entries_from(self, layer: str, callers: Optional[Tuple[str, ...]] = None,
                     exclude: Tuple[str, ...] = ()) -> int:
        return sum(count for (entered, caller), count in self.entries.items()
                   if entered == layer and caller not in exclude
                   and (callers is None or caller in callers))
