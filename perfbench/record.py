"""Record the expected outcome of every workload input variant.

    python3 perfbench/record.py

Runs each variant once in this process and writes ``expected.json``:
verdict, unique states, transitions, operations, simulated time and
visited fingerprint (plus every unit's counts for the fleet).  The
fleet is recorded on the benchmark's worker count and re-run on one
worker, which must merge to the same fingerprint and unit results --
the fleet-size invariance the program promises.  (Its simulated time
is the modelled parallel time, so it depends on the worker count.)
Only re-record after a change that is meant to alter what the checker
explores, and say so.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402


def run(name: str, variant: int, workers: int) -> dict:
    workload = workloads.Workload(name, variant, workers=workers)
    workload.setup()
    workload.run()
    outcome = workload.outcome()
    outcome.pop("recovered_units", None)
    return outcome


def record(name: str, variant: int) -> dict:
    outcome = run(name, variant, workloads.FLEET_WORKERS)
    if name == "fleet-campaign":
        single = run(name, variant, 1)
        for key in ("fingerprint", "unique_states", "units"):
            if single[key] != outcome[key]:
                raise SystemExit(f"{name} variant {variant}: {key} of the "
                                 f"1-worker run differs from the "
                                 f"{workloads.FLEET_WORKERS}-worker run")
    return outcome


def main() -> int:
    expected = {}
    for name in workloads.WORKLOADS:
        expected[name] = {}
        for variant in range(workloads.VARIANTS):
            expected[name][str(variant)] = record(name, variant)
            print(name, variant, {key: value for key, value in
                                  expected[name][str(variant)].items()
                                  if key != "units"}, flush=True)
    with open(workloads.EXPECTED_PATH, "w") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
