"""The benchmark's three workloads, their seeded inputs and output checks.

Every workload is built from a :class:`repro.dist.spec.CheckSpec`, the
same picklable description the CLI and the worker fleet use.  The seed
argument picks one of ``VARIANTS`` input variants (``seed % VARIANTS``):
a parameter pool whose fill byte and write sizes are shifted by the
variant.  The walk seeds, depth bound and budgets stay fixed, so every
variant does the same amount of work (same states, transitions and
simulated time) over different file contents, and a spread between
seeds measures the machine rather than the input.  The expected verdict,
counts and visited fingerprint of every variant are recorded in
``expected.json`` (regenerate with ``python3 perfbench/record.py``).
"""

from __future__ import annotations

import json
import os
from dataclasses import replace
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")

WORKLOADS = ("dfs-por", "verifs-walk", "fleet-campaign")
VARIANTS = 16
#: the seed each workload's figures are quoted at, and a second seed
#: kept back for validating later performance claims
PRIMARY_SEED = 0
HELD_OUT_SEED = 11

#: dfs-por: ext2 vs ext4, exhaustive DFS with sleep-set POR
DFS_DEPTH = 3
#: verifs-walk: VeriFS1 vs VeriFS2 random walk (the profiling config,
#: scaled up)
WALK_SEED = 7
WALK_OPERATIONS = 20_000
#: fleet-campaign: fixed unit partition on nproc fork workers
FLEET_SEED = 7
FLEET_UNITS = 16
FLEET_UNIT_OPERATIONS = 1000
FLEET_WORKERS = 2


def variant_of(seed: int) -> int:
    return seed % VARIANTS


def pool_for(variant: int):
    """The generated parameter pool of one input variant."""
    from repro.core.ops import ParameterPool

    base = ParameterPool()
    shift = 16 * variant
    return replace(
        base,
        fill_bytes=(0x41 + variant,),
        write_sizes=(base.write_sizes[0] + shift, base.write_sizes[1] - shift),
    )


def register_pool(variant: int) -> str:
    """Publish the variant's pool under a preset name, so specs (and the
    fleet workers forked from this process) can refer to it."""
    from repro.workload.presets import PRESETS

    name = f"perfbench-v{variant}"
    PRESETS[name] = pool_for(variant)
    return name


def spec_for(workload: str, variant: int):
    from repro.dist.spec import CheckSpec

    pool = register_pool(variant)
    if workload == "dfs-por":
        return CheckSpec(filesystems=("ext2", "ext4"), pool=pool)
    if workload == "verifs-walk":
        return CheckSpec(filesystems=("verifs1", "verifs2"), pool=pool)
    if workload == "fleet-campaign":
        return CheckSpec(filesystems=("verifs1", "verifs2"), pool=pool,
                         units=FLEET_UNITS, base_seed=FLEET_SEED,
                         unit_operations=FLEET_UNIT_OPERATIONS)
    raise ValueError(f"unknown workload {workload!r}; "
                     f"expected one of {', '.join(WORKLOADS)}")


def capture_explorers(sink: List[Any]) -> None:
    """Record every Explorer that runs, so its visited table can be
    fingerprinted after the verdict (one extra call per run)."""
    from repro.mc.explorer import Explorer

    for name in ("run_dfs", "run_random"):
        original = getattr(Explorer, name)

        def wrapper(self, *args, _original=original, **kwargs):
            sink.append(self)
            return _original(self, *args, **kwargs)

        setattr(Explorer, name, wrapper)


class Workload:
    """One built workload: ``setup()`` is mkfs + mount, ``run()`` is the
    timed entry call, ``outcome()`` reads what the run produced."""

    def __init__(self, name: str, seed: int, workers: int = FLEET_WORKERS):
        self.name = name
        self.seed = seed
        self.variant = variant_of(seed)
        self.workers = workers
        self.explorers: List[Any] = []
        self.spec = None
        self.mcfs = None
        self.result = None
        #: perf_counter() of each fleet unit's completion, as the
        #: coordinator's public on_unit_done hook reports it
        self.unit_done_times: List[float] = []

    def setup(self) -> None:
        self.spec = spec_for(self.name, self.variant)
        if self.name == "fleet-campaign":
            return  # every worker builds its own harness from the spec
        capture_explorers(self.explorers)
        self.mcfs = self.spec.build_mcfs()

    def run(self) -> None:
        if self.name == "dfs-por":
            self.result = self.mcfs.run_dfs(max_depth=DFS_DEPTH, por=True)
        elif self.name == "verifs-walk":
            self.result = self.mcfs.run_random(
                max_operations=WALK_OPERATIONS, seed=WALK_SEED)
        else:
            import time

            from repro.dist import DistributedChecker

            done = self.unit_done_times
            self.result = DistributedChecker(
                self.spec, workers=self.workers,
                on_unit_done=lambda unit: done.append(time.perf_counter()),
            ).run()

    def outcome(self) -> Dict[str, Any]:
        result = self.result
        if self.name == "fleet-campaign":
            return {
                "verdict": "discrepancy" if result.found_discrepancy else "clean",
                "unique_states": result.visited_states,
                "transitions": sum(u.transitions for u in result.unit_results),
                "operations": result.total_operations,
                "sim_s": result.modeled_parallel_time,
                "fingerprint": result.table.visited_fingerprint(),
                "units": [[u.index, u.operations, u.transitions,
                           u.unique_states, u.sim_time,
                           u.violation is not None]
                          for u in result.unit_results],
                "recovered_units": result.recovered_units,
            }
        return {
            "verdict": "discrepancy" if result.found_discrepancy else "clean",
            "unique_states": result.unique_states,
            "transitions": result.stats.transitions,
            "operations": result.operations,
            "sim_s": result.sim_time,
            "fingerprint": self.explorers[-1].visited.visited_fingerprint(),
        }


# --------------------------------------------------------------- checks --
def load_expected() -> Dict[str, Any]:
    with open(EXPECTED_PATH) as handle:
        return json.load(handle)


def check(workload: str, seed: int, outcome: Dict[str, Any],
          expected: Dict[str, Any]) -> Dict[str, Any]:
    """Compare one run with the recorded values of its workload/seed.

    Returns ``attempted``/``failed`` work-unit counts and the failure
    messages.  In-process workloads are one unit; a fleet campaign is
    one unit per work unit (re-issued leases count as attempts) plus
    the merge.
    """
    record = expected.get(workload, {}).get(str(variant_of(seed)))
    if record is None:
        return {"attempted": 1, "failed": 1,
                "failures": [f"no recorded outcome for {workload} "
                             f"variant {variant_of(seed)}"]}
    failures: List[str] = []
    if outcome["verdict"] != "clean":
        failures.append(f"verdict {outcome['verdict']}: the pair is clean")
    for key in ("unique_states", "transitions", "operations", "sim_s",
                "fingerprint"):
        if outcome[key] != record[key]:
            failures.append(f"{key} {outcome[key]!r} != recorded "
                            f"{record[key]!r}")
    if workload != "fleet-campaign":
        return {"attempted": 1, "failed": 1 if failures else 0,
                "failures": failures}
    merge_failed = bool(failures)
    recorded_units = {unit[0]: unit for unit in record["units"]}
    bad_units = 0
    for unit in outcome["units"]:
        if list(unit) != recorded_units.get(unit[0]):
            bad_units += 1
            failures.append(f"unit {unit[0]} {unit} != recorded "
                            f"{recorded_units.get(unit[0])}")
    missing = max(0, len(recorded_units) - len(outcome["units"]))
    if missing:
        failures.append(f"{missing} unit(s) never reported")
    return {
        "attempted": len(recorded_units) + outcome["recovered_units"] + 1,
        "failed": bad_units + missing + (1 if merge_failed else 0),
        "failures": failures,
    }
