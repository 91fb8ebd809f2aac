"""Steadiness check: sets of benchmark runs over several seeds.

    python3 perfbench/steadiness.py --workload verifs-walk --seeds 10 \
        --sets 2 --pause 60

One *set* runs ``run.py`` once per seed (seeds 0..N-1) for
``BENCHMARK.json``'s ``run_seconds``.  For every end-to-end metric, and for the raw wall
time beside the normalized one, it prints each set's median and
interquartile spread (IQR / median) and, between consecutive sets, how
far the median moved -- the two quantities the bounds in
``BENCHMARK.json`` must cover.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def one_run(workload, seed, seconds):
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"run failed ({completed.returncode}): "
                         f"{completed.stderr[-500:]}")
    detail, result = json.loads(lines[-2]), json.loads(lines[-1])
    values = {name: entry["value"] for name, entry in result["metrics"].items()}
    values["verdict_raw_s"] = detail["raw_medians"]["verdict_raw_s"]
    values["setup_raw_s"] = detail["raw_medians"]["setup_raw_s"]
    return values


def summarize(runs):
    summary = {}
    for name in runs[0]:
        values = [run[name] for run in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        summary[name] = {"median": median,
                         "iqr_frac": (q3 - q1) / median if median else 0.0}
    return summary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--pause", type=float, default=0.0)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        seconds = json.load(handle)["run_seconds"]
    sets = []
    for index in range(args.sets):
        if index:
            time.sleep(args.pause)
        runs = []
        for seed in range(args.seeds):
            runs.append(one_run(args.workload, seed, seconds))
            print(f"set {index} seed {seed}: " + ", ".join(
                f"{k}={v:.4g}" for k, v in runs[-1].items()), flush=True)
        sets.append(summarize(runs))
        print(f"set {index} summary: " + ", ".join(
            f"{k} med {v['median']:.4g} iqr {v['iqr_frac']:.3f}"
            for k, v in sets[-1].items()), flush=True)
    for before, after in zip(sets, sets[1:]):
        print("between sets: " + ", ".join(
            f"{k} {after[k]['median'] / before[k]['median'] - 1:+.3f}"
            for k in before if before[k]["median"]), flush=True)
    print(json.dumps({"workload": args.workload, "seconds": seconds,
                      "sets": sets}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
