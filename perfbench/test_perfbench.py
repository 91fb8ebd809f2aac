"""The benchmark's own tests.

    python3 -m pytest -q perfbench/test_perfbench.py

They run real rounds of ``dfs-por`` and ``verifs-walk`` (a few seconds
each) and check that the program's counters repeat exactly at one seed,
that the seed changes the generated inputs, that self times partition
the traced wall, that a round under an interpreter hook fails its
measurement, and that the benchmark refuses to run without the
program's source.
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import layers  # noqa: E402
import probe as probes  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

#: per-layer metrics that are program counts, not times
COUNT_METRICS = [name for name, unit in layers.UNITS.items()
                 if unit in ("count", "B", "1") and name.startswith(
                     ("mc.", "core.", "kernel.", "fuse.", "verifs.", "fs.",
                      "storage."))
                 ] + [name for name in layers.UNITS if name.startswith("sim.")]


def run_round(tmp_path, workload, seed, trace, python_flags=()):
    workdir = tmp_path / f"{workload}-{seed}-{trace}-{len(python_flags)}"
    completed = subprocess.run(
        [sys.executable, *python_flags, os.path.join(HERE, "round.py"),
         "--workload", workload, "--seed", str(seed), "--trace", str(trace),
         "--workdir", str(workdir), "--launch", repr(time.perf_counter())],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def rounds(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("rounds")
    return {
        "traced_a": run_round(tmp_path, "dfs-por", 0, 1),
        "traced_b": run_round(tmp_path, "dfs-por", 0, 1),
        "other_seed": run_round(tmp_path, "dfs-por", 1, 0),
        "walk_a": run_round(tmp_path, "verifs-walk", 0, 1),
        "walk_b": run_round(tmp_path, "verifs-walk", 0, 1),
    }


@pytest.mark.parametrize("pair", [("traced_a", "traced_b"),
                                  ("walk_a", "walk_b")])
def test_layer_counts_repeat_exactly_at_one_seed(rounds, pair):
    first, second = rounds[pair[0]], rounds[pair[1]]
    assert first["failed"] == 0 and second["failed"] == 0
    assert first["outcome"] == second["outcome"]
    for name in COUNT_METRICS + ["trace.spans"]:
        assert first["layers"][name] == second["layers"][name], name


def test_counts_cover_each_workloads_layers(rounds):
    dfs, walk = rounds["traced_a"]["layers"], rounds["walk_a"]["layers"]
    assert dfs["mc.explorer.transitions"] == 2766
    assert rounds["traced_a"]["outcome"]["unique_states"] == 591
    assert dfs["mc.explorer.por_pruned"] > 0
    assert dfs["storage.requests_per_op"] > 0
    assert dfs["fuse.round_trips_per_op"] == 0
    # the FUSE and VeriFS counters only count on the VeriFS pair
    assert walk["fuse.round_trips_per_op"] > 0
    assert walk["verifs.requests"] > 0
    assert walk["workload.self_us_per_draw"] > 0
    assert walk["storage.requests_per_op"] == 0


def test_seed_changes_generated_inputs(rounds):
    assert workloads.pool_for(0) != workloads.pool_for(1)
    assert workloads.variant_of(0) != workloads.variant_of(1)
    assert (workloads.variant_of(workloads.PRIMARY_SEED)
            != workloads.variant_of(workloads.HELD_OUT_SEED))
    assert rounds["other_seed"]["failed"] == 0
    assert (rounds["other_seed"]["outcome"]["fingerprint"]
            != rounds["traced_a"]["outcome"]["fingerprint"])
    expected = workloads.load_expected()
    for name in workloads.WORKLOADS:
        prints = {record["fingerprint"] for record in expected[name].values()}
        assert len(prints) == workloads.VARIANTS, name


@pytest.mark.parametrize("name", ["traced_a", "walk_a"])
def test_self_times_partition_the_traced_wall(rounds, name):
    metrics = rounds[name]["layers"]
    # other.self_s is the traced wall minus every layer's self time and
    # the probe time, so the sum holds by construction; the partition
    # is real only if no self time is negative or counted twice (other
    # would go below 0) and the spans cover the entry call (other, the
    # harness glue outside every span, stays a small share of the wall)
    for layer in layers.LAYER_NAMES:
        assert metrics[f"{layer}.self_s"] >= 0.0, layer
    assert 0.0 <= metrics["other.self_s"] < 0.05 * metrics["trace.wall_s"]


def test_a_round_under_an_interpreter_hook_fails_its_measurement(tmp_path):
    report = run_round(tmp_path, "dfs-por", 0, 0,
                       python_flags=("-X", "tracemalloc"))
    assert report["failed"] == 1
    assert any("tracemalloc" in failure for failure in report["failures"])
    # the program's own outcome is still as recorded
    assert report["outcome"]["unique_states"] == 591


def test_interpreter_hooks_sees_a_trace_function():
    assert probes.interpreter_hooks() == []
    sys.settrace(lambda *args: None)
    try:
        assert probes.interpreter_hooks() == ["sys.settrace"]
    finally:
        sys.settrace(None)


def test_self_time_is_exclusive_under_nesting():
    class Inner:
        def work(self):
            time.sleep(0.02)

    class Outer:
        def work(self, inner):
            time.sleep(0.01)
            inner.work()
            inner.work()

    recorder = tracing.Tracer()
    recorder.wrap(Inner, "work", "inner")
    recorder.wrap(Outer, "work", "outer")
    started = time.perf_counter()
    Outer().work(Inner())
    finished = time.perf_counter()
    agg = tracing.Aggregate(recorder, [], started, finished)
    assert agg.calls("Inner.work") == 2
    assert agg.by_layer["inner"] == pytest.approx(0.04, abs=0.01)
    assert agg.by_layer["outer"] == pytest.approx(0.01, abs=0.01)
    assert agg.by_layer["inner"] + agg.by_layer["outer"] + agg.other_s == (
        pytest.approx(finished - started, abs=1e-9))


def test_refuses_without_program_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dfs-por",
         "--seed", "0", "--seconds", "5", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
