"""One benchmark round in a fresh interpreter; prints one JSON line.

    python3 perfbench/round.py --workload dfs-por --seed 0 --trace 0 \
        --launch <perf_counter at launch> --workdir <dump dir>

A round starts the reference probe first, then imports the program,
builds the workload (mkfs + mount), makes the timed entry call, checks
the outcome against ``expected.json`` and reports raw and normalized
times.  With ``--trace 1`` the layer wrappers are installed after the
set-up and the round also reports per-layer aggregates.
"""

import time

T_FIRST = time.perf_counter()

import argparse  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

import probe as probes  # noqa: E402


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--launch", type=float, required=True,
                        help="perf_counter() reading taken by the parent "
                             "just before starting this interpreter")
    parser.add_argument("--workdir", required=True,
                        help="directory for fleet workers' dump files")
    return parser.parse_args(argv)


def import_program():
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import repro

    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        raise ImportError(f"repro imported from {repro.__file__}, "
                          f"not from {src}")


def harness_counters(harnesses, explorers):
    """The program's public counters, summed over harnesses/explorers."""
    counters = {"sim": {}, "dcache": [0, 0, 0], "device": {},
                "fuse_requests": 0, "explorer": {}, "table": [0, 0]}
    clocks = {}
    for mcfs in harnesses:
        clocks[id(mcfs.clock)] = mcfs.clock
        for fut in mcfs.futs:
            stats = fut.kernel.dcache.stats
            counters["dcache"][0] += stats.hits
            counters["dcache"][1] += stats.negative_hits
            counters["dcache"][2] += stats.misses
            if fut.device is not None:
                for key, value in vars(fut.device.stats).items():
                    counters["device"][key] = (counters["device"].get(key, 0)
                                               + value)
            if fut.verifs is not None:
                counters["fuse_requests"] += fut.verifs.connection.requests_sent
    for clock in clocks.values():
        for category, value in clock.by_category.items():
            counters["sim"][category] = counters["sim"].get(category, 0.0) + value
    for explorer in explorers:
        for key in ("operations", "transitions", "unique_states",
                    "revisited_states", "checkpoints", "restores",
                    "por_pruned"):
            counters["explorer"][key] = (counters["explorer"].get(key, 0)
                                         + getattr(explorer.stats, key))
        table_stats = explorer.visited.stats
        counters["table"][0] += table_stats.inserts
        counters["table"][1] += table_stats.duplicate_hits
    return counters


def capture_harnesses(sink):
    from repro.dist.spec import CheckSpec

    original = CheckSpec.build_mcfs

    def build_mcfs(self):
        mcfs = original(self)
        sink.append(mcfs)
        return mcfs

    CheckSpec.build_mcfs = build_mcfs


def merge_counters(total, part):
    for key, value in part["sim"].items():
        total["sim"][key] = total["sim"].get(key, 0.0) + value
    for index in range(3):
        total["dcache"][index] += part["dcache"][index]
    for key, value in part["device"].items():
        total["device"][key] = total["device"].get(key, 0) + value
    total["fuse_requests"] += part["fuse_requests"]
    for key, value in part["explorer"].items():
        total["explorer"][key] = total["explorer"].get(key, 0) + value
    for index in range(2):
        total["table"][index] += part["table"][index]


def main(argv=None):
    args = parse_args(argv)
    os.makedirs(args.workdir, exist_ok=True)
    probe = probes.Probe()
    probe.start()
    t_ready = time.perf_counter()
    import_program()
    import workloads

    workload = workloads.Workload(args.workload, args.seed)
    harnesses, explorers = [], []
    fleet = args.workload == "fleet-campaign"
    workload.setup()
    t_setup = time.perf_counter()

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        probe.current_span = tracer.current
        if fleet:  # inherited by the forked workers
            workloads.capture_explorers(explorers)
            capture_harnesses(harnesses)
    if fleet:
        def child_dump(stem):
            if tracer is not None:
                tracer.dump(stem)
                with open(stem + ".counters", "w") as handle:
                    json.dump(harness_counters(harnesses, explorers), handle)

        def child_reset(_):
            if tracer is not None:
                for column in (tracer.name_col, tracer.parent_col,
                               tracer.start_col, tracer.end_col):
                    del column[:]
                tracer.stack[:] = [-1]
                del harnesses[:], explorers[:]

        if tracer is not None:
            from multiprocessing import util

            util.register_after_fork(tracer, child_reset)
        probes.install_in_forked_children(probe, args.workdir, child_dump)
        probe.stop()  # the coordinator mostly waits; workers probe
    probe.note_hooks()
    t_entry = time.perf_counter()
    workload.run()
    t_verdict = time.perf_counter()
    probe.stop()

    readings = probe.triples()
    first_reading = readings[0][1] if readings else None
    setup = probes.normalize(readings, t_ready, t_setup, first_reading)
    startup_s = T_FIRST - args.launch
    setup_ref_s = setup["ref_s"] + startup_s * probes.NOMINAL_PROBE_S / (
        first_reading or probes.NOMINAL_PROBE_S)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "variant": workload.variant,
        "trace": args.trace,
        "setup_raw_s": startup_s + (t_setup - t_ready),
        "setup_s": setup_ref_s,
        "setup_probe": setup,
        "verdict_raw_s": t_verdict - t_entry,
    }

    hooks = set(probe.hooks)
    worker_probes = []
    if fleet:
        for path in sorted(glob.glob(os.path.join(args.workdir,
                                                  "child-*.probe"))):
            hooks.update(probes.load_child_hooks(
                path[:-len(".probe")] + ".hooks"))
            worker_readings = probes.load_child_readings(path)
            if worker_readings:
                worker_probes.append(probes.normalize(
                    worker_readings, t_entry, t_verdict))
        if worker_probes:
            probe_s = sum(p["probe_s"] for p in worker_probes) / len(worker_probes)
            factor = sum(p["ref_s"] / p["work_s"] for p in worker_probes
                         ) / len(worker_probes)
        else:
            probe_s, factor = 0.0, 1.0
        report["verdict_s"] = (t_verdict - t_entry - probe_s) * factor
        report["verdict_probe"] = {"workers": worker_probes,
                                   "factor": factor}
    else:
        verdict = probes.normalize(readings, t_entry, t_verdict,
                                   first_reading)
        report["verdict_s"] = verdict["ref_s"]
        report["verdict_probe"] = verdict

    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if fleet:
        rss_kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    report["peak_rss_mb"] = rss_kb / 1024.0

    outcome = workload.outcome()
    report["outcome"] = {key: value for key, value in outcome.items()
                         if key != "units"}
    checks = workloads.check(args.workload, args.seed, outcome,
                             workloads.load_expected())
    # one more unit per round: the measurement itself
    measurement = []
    if hooks:
        measurement.append("interpreter hooks active around the entry "
                           "call (" + ", ".join(sorted(hooks)) + "): a "
                           "reference second is undefined under them")
    if fleet:
        ran_units = sum(1 for summary in workload.result.worker_summaries
                        if summary.units_completed)
        if len(worker_probes) != ran_units:
            measurement.append(
                f"{len(worker_probes)} worker probe dump(s) for {ran_units} "
                f"worker(s) that ran units: verdict_s is not normalized "
                f"over every worker")
    checks["attempted"] += 1
    checks["failed"] += 1 if measurement else 0
    checks["failures"].extend(measurement)
    report.update(checks)
    if fleet:
        result = workload.result
        report["dist"] = {
            "wall_time": result.wall_time,
            "busy_s": sum(s.wall_time for s in result.worker_summaries),
            "workers": result.workers,
            "units_stolen": result.stolen_units,
            "units_recovered": result.recovered_units,
            "cross_worker_duplicates": result.cross_worker_duplicates,
            "shipped_states": sum(unit.shipped_hashes
                                  for unit in result.unit_results),
            "merge_s": t_verdict - max(workload.unit_done_times,
                                       default=t_verdict),
        }

    if tracer is not None:
        import layers

        coordinator = tracing.Aggregate(tracer, readings, t_entry, t_verdict)
        if fleet:
            counters = harness_counters([], [])
            for stem in sorted(glob.glob(os.path.join(args.workdir,
                                                      "child-*.names"))):
                stem = stem[:-len(".names")]
                child = tracing.load_dump(stem)
                child_readings = probes.load_child_readings(stem + ".probe")
                first = min(child.start_col, default=t_entry)
                last = max(child.end_col, default=t_entry)
                coordinator.merge(tracing.Aggregate(child, child_readings,
                                                    first, last))
                with open(stem + ".counters") as handle:
                    merge_counters(counters, json.load(handle))
        else:
            counters = harness_counters([workload.mcfs], workload.explorers)
        report["layers"] = layers.per_layer(coordinator, counters, report,
                                            t_entry)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
