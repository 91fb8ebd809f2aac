"""The repository benchmark: time-to-verdict and states/s per workload.

    python3 perfbench/run.py --workload dfs-por --seed 0 --seconds 25 --trace 0

Runs rounds of one workload, each in a fresh interpreter
(``perfbench/round.py``), until ``--seconds`` are spent, checks every
round's verdict, counts and visited fingerprint against
``expected.json``, and prints the medians.  The last line of standard
output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1`` (traced rounds alternate with untraced ones,
whose difference is the tracing overhead).  The line before it is a
JSON detail record: host, steadiness method, and every round's raw and
normalized readings.  Wall metrics are in reference seconds (see
``probe.py``); the raw wall time is in the detail record.
"""

import argparse
import compileall
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
ROUND_TIMEOUT_S = 60
MIN_ROUNDS = 3
#: no new round starts after this long, so a run ends well inside 180 s
MAX_RUN_S = 100

E2E_UNITS = {
    "verdict_s": "s",
    "states_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_s": "sim_s",
    "ok_frac": "1",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def host_record():
    affinity = sorted(os.sched_getaffinity(0))
    return {
        "cores": os.cpu_count(),
        "affinity": affinity,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "loadavg": list(os.getloadavg()),
    }


def run_round(args, trace, workdir):
    os.makedirs(workdir, exist_ok=True)
    command = [sys.executable, os.path.join(HERE, "round.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--trace", str(trace), "--workdir", workdir]
    launch = time.perf_counter()
    try:
        completed = subprocess.run(
            command + ["--launch", repr(launch)], cwd=ROOT,
            capture_output=True, text=True, timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"round timed out after {ROUND_TIMEOUT_S} s"
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        tail = (completed.stderr or completed.stdout).strip().splitlines()[-5:]
        return None, (f"round exited {completed.returncode}: "
                      + " | ".join(tail))
    try:
        return json.loads(lines[-1]), None
    except ValueError:
        return None, f"round printed no JSON: {lines[-1][:200]}"


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def median_of(rounds, key):
    return statistics.median(r[key] for r in rounds)


def e2e_metrics(rounds, attempted, failed):
    metrics = {
        "verdict_s": median_of(rounds, "verdict_s"),
        "states_per_s": statistics.median(
            r["outcome"]["unique_states"] / r["verdict_s"] for r in rounds),
        "setup_s": median_of(rounds, "setup_s"),
        "peak_rss_mb": median_of(rounds, "peak_rss_mb"),
        "sim_s": statistics.median(r["outcome"]["sim_s"] for r in rounds),
        "ok_frac": 1.0 - failed / attempted,
    }
    return {name: {"value": value, "unit": E2E_UNITS[name]}
            for name, value in metrics.items()}


def layer_metrics(traced, untraced):
    from layers import UNITS

    values = {}
    for name in traced[0]["layers"]:
        values[name] = statistics.median(r["layers"][name] for r in traced)
    plain_s = median_of(untraced, "verdict_s")
    traced_s = median_of(traced, "verdict_s")
    values["trace.untraced_wall_s"] = median_of(untraced, "verdict_raw_s")
    values["trace.overhead_s"] = traced_s - plain_s
    values["trace.overhead_frac"] = (traced_s - plain_s) / plain_s
    transitions = untraced[0]["outcome"]["transitions"]
    values["mc.explorer.us_per_transition"] = plain_s * 1e6 / transitions
    return {name: {"value": values[name], "unit": unit}
            for name, unit in UNITS.items()}


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no program source at {os.path.join(ROOT, 'src')}; "
              f"run from a full checkout", file=sys.stderr)
        return 2
    compileall.compile_dir(os.path.join(ROOT, "src", "repro"), quiet=1)
    compileall.compile_dir(HERE, quiet=1, maxlevels=0)

    workdir = os.path.join(HERE, "_work", f"run-{os.getpid()}")
    started = time.perf_counter()
    rounds, errors = [], []
    attempted = failed = 0
    round_walls = []
    while True:
        elapsed = time.perf_counter() - started
        traced_count = sum(1 for r in rounds if r["trace"])
        enough = (len(rounds) >= MIN_ROUNDS
                  and (not args.trace or traced_count >= 1))
        typical = statistics.median(round_walls) if round_walls else 0.0
        if enough and elapsed + typical > args.seconds:
            break
        if elapsed > MAX_RUN_S or (len(round_walls) >= 3 * MIN_ROUNDS
                                   and not rounds):
            break  # failing or far too slow: stop burning time
        trace = args.trace and len(rounds) % 2 == 1
        round_started = time.perf_counter()
        report, error = run_round(args, int(trace),
                                  os.path.join(workdir, str(len(round_walls))))
        round_walls.append(time.perf_counter() - round_started)
        if report is None:
            attempted += 1
            failed += 1
            errors.append(error)
            continue
        attempted += report["attempted"]
        failed += report["failed"]
        errors.extend(report["failures"])
        rounds.append(report)
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        os.rmdir(os.path.dirname(workdir))
    except OSError:
        pass  # another run is using it

    for error in errors:
        print(f"FAILED: {error}", file=sys.stderr)
    untraced = [r for r in rounds if not r["trace"]]
    traced = [r for r in rounds if r["trace"]]
    if not untraced or (args.trace and not traced):
        print("error: no round completed", file=sys.stderr)
        return 1

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "host": host_record(),
        "method": ("ref-normalized wall: SIGPROF every 10 ms CPU times a "
                   "fixed reference kernel on the measured thread; each "
                   "gap of program work is scaled by nominal/rolling-median "
                   "reading (fleet: per-worker factors, averaged); medians "
                   "over fresh-interpreter rounds"),
        "rounds": [{
            "trace": r["trace"],
            "verdict_raw_s": r["verdict_raw_s"],
            "verdict_s": r["verdict_s"],
            "setup_raw_s": r["setup_raw_s"],
            "setup_s": r["setup_s"],
            "peak_rss_mb": r["peak_rss_mb"],
            "probe": r["verdict_probe"],
        } for r in rounds],
        "spread_in_run": {
            "verdict_raw_s": spread([r["verdict_raw_s"] for r in untraced]),
            "verdict_s": spread([r["verdict_s"] for r in untraced]),
        },
        "raw_medians": {
            "verdict_raw_s": median_of(untraced, "verdict_raw_s"),
            "setup_raw_s": median_of(untraced, "setup_raw_s"),
        },
        "outcome": untraced[0]["outcome"],
        "errors": errors,
    }
    print(json.dumps(detail))
    metrics = (layer_metrics(traced, untraced) if args.trace
               else e2e_metrics(untraced, attempted, failed))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
