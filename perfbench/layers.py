"""Per-layer metrics of a traced round: span aggregates + public counters.

Every metric here is listed in ``BENCHMARK.json``'s ``per_layer`` and is
reported on every workload (0 where the layer does no work there).
Denominators: ``op`` = explored operation (both file systems run it),
``state`` = visited-store probe (one abstraction walk each).
"""

from __future__ import annotations

from typing import Any, Dict

#: SimClock categories with their own metric; others sum into unlisted
SIM_CATEGORIES = ("ram-io", "mount", "umount", "syscall", "state-tracking",
                  "fuse-transport", "verifs-checkpoint", "verifs-restore")

LAYER_NAMES = ("mc.explorer", "core.engine", "core.abstraction", "kernel",
               "fuse", "verifs", "fs", "storage", "mc.strategies",
               "mc.statestore", "workload", "dist", "dist.worker",
               "dist.ship")

#: name -> unit, in report order; run.py adds the mc.explorer
#: us_per_transition and trace.* metrics, which need untraced rounds
UNITS: Dict[str, str] = {}
for _layer in LAYER_NAMES:
    UNITS[f"{_layer}.self_s"] = "s"
UNITS.update({
    "mc.explorer.transitions": "count",
    "mc.explorer.por_pruned": "count",
    "mc.explorer.restores": "count",
    "mc.explorer.new_state_ratio": "1",
    "mc.explorer.us_per_transition": "us",
    "core.engine.self_us_per_op": "us",
    "core.abstraction.self_us_per_state": "us",
    "core.abstraction.kernel_calls_per_state": "count",
    "kernel.self_us_per_op": "us",
    "kernel.op_self_s": "s",
    "kernel.walk_self_s": "s",
    "kernel.calls_per_op": "count",
    "kernel.dcache_hit_ratio": "1",
    "fuse.round_trips_per_op": "count",
    "fuse.self_us_per_round_trip": "us",
    "verifs.requests": "count",
    "verifs.self_us_per_request": "us",
    "fs.self_us_per_op": "us",
    "fs.calls_per_op": "count",
    "storage.self_us_per_op": "us",
    "storage.requests_per_op": "count",
    "storage.bytes_written_per_op": "B",
    "storage.bytes_snapshotted_per_checkpoint": "B",
    "storage.bytes_restored_per_restore": "B",
    "mc.strategies.checkpoint_us": "us",
    "mc.strategies.restore_us": "us",
    "mc.strategies.checkpoints": "count",
    "mc.strategies.restores": "count",
    "mc.statestore.probes": "count",
    "mc.statestore.hit_ratio": "1",
    "mc.statestore.self_us_per_probe": "us",
    "workload.self_us_per_draw": "us",
    "dist.spawn_s": "s",
    "dist.worker.busy_frac": "1",
    "dist.ship_us_per_state": "us",
    "dist.merge_s": "s",
    "dist.units_stolen": "count",
    "dist.units_recovered": "count",
    "dist.cross_worker_duplicates": "count",
})
#: simulated (modelled) seconds, kept apart from wall seconds
for _category in SIM_CATEGORIES:
    UNITS[f"sim.{_category}_s"] = "sim_s"
UNITS.update({
    "sim.unlisted_s": "sim_s",
    "other.self_s": "s",
    "bench.probe_s": "s",
    "trace.wall_s": "s",
    "trace.process_wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "1",
    "trace.spans": "count",
})


def _ratio(numerator: float, denominator: float, scale: float = 1.0) -> float:
    return numerator * scale / denominator if denominator else 0.0


def per_layer(agg, counters: Dict[str, Any], report: Dict[str, Any],
              t_entry: float) -> Dict[str, float]:
    """Everything one traced round can say about its layers.

    ``agg`` is the :class:`tracer.Aggregate` of the round (fleet: every
    process merged); ``counters`` the program's public counters.
    """
    explorer = counters["explorer"]
    ops = explorer.get("operations", 0)
    transitions = explorer.get("transitions", 0)
    inserts, duplicate_hits = counters["table"]
    probes = inserts + duplicate_hits
    outcome = report["outcome"]
    layer_self = agg.by_layer
    metrics: Dict[str, float] = {}
    for layer in LAYER_NAMES:
        metrics[f"{layer}.self_s"] = layer_self.get(layer, 0.0)

    metrics["mc.explorer.transitions"] = transitions
    metrics["mc.explorer.por_pruned"] = explorer.get("por_pruned", 0)
    metrics["mc.explorer.restores"] = explorer.get("restores", 0)
    metrics["mc.explorer.new_state_ratio"] = _ratio(outcome["unique_states"],
                                                    transitions)

    metrics["core.engine.self_us_per_op"] = _ratio(
        layer_self.get("core.engine", 0.0), ops, 1e6)
    metrics["core.abstraction.self_us_per_state"] = _ratio(
        layer_self.get("core.abstraction", 0.0), probes, 1e6)
    walk_calls = agg.entries_from("kernel", callers=("core.abstraction",))
    metrics["core.abstraction.kernel_calls_per_state"] = _ratio(walk_calls,
                                                                probes)

    walk_self = agg.self_by_context.get(("kernel", "core.abstraction"), 0.0)
    kernel_self = layer_self.get("kernel", 0.0)
    metrics["kernel.self_us_per_op"] = _ratio(kernel_self, ops, 1e6)
    metrics["kernel.op_self_s"] = kernel_self - walk_self
    metrics["kernel.walk_self_s"] = walk_self
    metrics["kernel.calls_per_op"] = _ratio(
        agg.entries_from("kernel", exclude=("core.abstraction",)), ops)
    hits, negative_hits, misses = counters["dcache"]
    metrics["kernel.dcache_hit_ratio"] = _ratio(
        hits + negative_hits, hits + negative_hits + misses)

    round_trips = counters["fuse_requests"]
    metrics["fuse.round_trips_per_op"] = _ratio(round_trips, ops)
    metrics["fuse.self_us_per_round_trip"] = _ratio(
        layer_self.get("fuse", 0.0), round_trips, 1e6)
    requests = agg.calls("FuseServerProcess.handle")
    metrics["verifs.requests"] = requests
    metrics["verifs.self_us_per_request"] = _ratio(
        layer_self.get("verifs", 0.0), requests, 1e6)

    metrics["fs.self_us_per_op"] = _ratio(layer_self.get("fs", 0.0), ops, 1e6)
    metrics["fs.calls_per_op"] = _ratio(agg.entries_from("fs"), ops)

    device = counters["device"]
    checkpoints = explorer.get("checkpoints", 0)
    restores = explorer.get("restores", 0)
    metrics["storage.self_us_per_op"] = _ratio(layer_self.get("storage", 0.0),
                                               ops, 1e6)
    metrics["storage.requests_per_op"] = _ratio(
        device.get("read_requests", 0) + device.get("write_requests", 0), ops)
    metrics["storage.bytes_written_per_op"] = _ratio(
        device.get("bytes_written", 0), ops)
    metrics["storage.bytes_snapshotted_per_checkpoint"] = _ratio(
        device.get("bytes_snapshotted", 0), checkpoints)
    metrics["storage.bytes_restored_per_restore"] = _ratio(
        device.get("bytes_restored", 0), restores)

    for method, plural in (("checkpoint", "checkpoints"),
                           ("restore", "restores")):
        names = [name for name, layer in agg.layer_of_name.items()
                 if layer == "mc.strategies" and name.endswith("." + method)]
        calls = sum(agg.calls(name) for name in names)
        inclusive = sum(agg.inclusive_s(name) for name in names)
        metrics[f"mc.strategies.{method}_us"] = _ratio(inclusive, calls, 1e6)
        metrics[f"mc.strategies.{plural}"] = calls

    metrics["mc.statestore.probes"] = probes
    metrics["mc.statestore.hit_ratio"] = _ratio(duplicate_hits, probes)
    metrics["mc.statestore.self_us_per_probe"] = _ratio(
        layer_self.get("mc.statestore", 0.0),
        agg.calls("VisitedStateTable.visit"), 1e6)

    draws = agg.calls("MCFSTarget.choose_action") + agg.calls(
        "WeightedChooser.choose")
    metrics["workload.self_us_per_draw"] = _ratio(
        layer_self.get("workload", 0.0), draws, 1e6)

    dist = report.get("dist")
    first_unit = agg.starts.get("run_unit")
    metrics["dist.spawn_s"] = (first_unit - t_entry
                               if dist and first_unit is not None else 0.0)
    metrics["dist.worker.busy_frac"] = _ratio(
        dist["busy_s"], dist["workers"] * dist["wall_time"]) if dist else 0.0
    metrics["dist.ship_us_per_state"] = _ratio(
        layer_self.get("dist.ship", 0.0),
        dist["shipped_states"] if dist else 0, 1e6)
    for key in ("merge_s", "units_stolen", "units_recovered",
                "cross_worker_duplicates"):
        metrics[f"dist.{key}"] = dist[key] if dist else 0

    sim = dict(counters["sim"])
    for category in SIM_CATEGORIES:
        metrics[f"sim.{category}_s"] = sim.pop(category, 0.0)
    metrics["sim.unlisted_s"] = sum(sim.values())

    metrics["other.self_s"] = agg.other_s
    metrics["bench.probe_s"] = agg.probe_s
    metrics["trace.wall_s"] = report["verdict_raw_s"]
    metrics["trace.process_wall_s"] = agg.window_s
    metrics["trace.spans"] = agg.span_count
    return metrics
