"""The one metrics record: campaign counters are the merge of unit
counters, and every CLI path renders the same scoreboard from it.

The round-trip and merge-order properties of :class:`RunMetrics` itself
live with the other document round trips in
``tests/test_dist_serialization.py``.
"""

import multiprocessing
import os
import re
from dataclasses import fields, replace

import pytest

import repro
from repro.cli import _print_summary, main
from repro.core.metrics import RunMetrics
from repro.dist import CheckSpec, DistributedChecker
from repro.mc.shardmem import shared_memory_available

SHM_SUPPORTED = (shared_memory_available()
                 and "fork" in multiprocessing.get_all_start_methods())

#: the kernel-fs campaign the CLI tests share: ext2/ext4 with the fsck
#: oracle on, so snapshot traffic and oracle sweeps are both non-zero
CLI_ARGS = ["check", "--fs", "ext2", "--fs", "ext4", "--mode", "random",
            "--max-ops", "120", "--seed", "7", "--fsck-every", "15"]


def summary_lines(output: str) -> dict:
    """``label -> value`` for the scoreboard lines (up to ``stopped``)."""
    lines = {}
    for line in output.splitlines():
        label, colon, value = line.partition(":")
        if not colon:
            continue
        lines[label.strip()] = value.strip()
        if label.strip() == "stopped":
            break
    return lines


def campaign_spec(**overrides) -> CheckSpec:
    """The spec ``CLI_ARGS --workers`` builds (same defaults as the CLI)."""
    spec = CheckSpec(filesystems=("ext2", "ext4"), units=8, base_seed=7,
                     unit_operations=15, max_depth=12, fsck_every=15)
    return replace(spec, **overrides)


class TestCampaignMerge:
    def test_campaign_counters_are_the_sum_over_units(self):
        spec = CheckSpec(filesystems=("verifs1", "verifs2"), fsck_every=50)
        result = spec.build_mcfs().run_random(max_operations=800, seed=7,
                                              workers=2)
        units = [unit.metrics for unit in result.dist.unit_results]
        for metric in fields(RunMetrics):
            if metric.metadata["merge"] != "sum" or metric.name in (
                    "unique_states", "sim_time", "wall_time",
                    "cost_profile"):
                continue
            assert getattr(result.metrics, metric.name) == sum(
                getattr(unit, metric.name) for unit in units), metric.name
        # the counters the distributed path used to drop
        assert result.checkpoints > 0 and result.restores > 0
        assert result.fsck_checks > 0
        assert result.stats.checkpoints == result.checkpoints
        assert result.stats.fsck_checks == result.fsck_checks
        # the two figures a union does not sum
        assert result.unique_states == len(result.dist.table)
        assert result.sim_time == result.dist.modeled_parallel_time

    def test_worker_summaries_add_up_to_the_campaign(self):
        dist = DistributedChecker(campaign_spec(fsck_every=None, units=4),
                                  workers=2).run()
        merged = RunMetrics.merge_all(summary.metrics
                                      for summary in dist.worker_summaries)
        assert merged.operations == dist.total_operations
        assert merged.transitions == dist.transitions
        assert sum(summary.units_completed
                   for summary in dist.worker_summaries) == 4


class TestCliScoreboard:
    def test_inline_and_workers_print_the_same_lines(self, capsys):
        assert main(CLI_ARGS) == 0
        inline = summary_lines(capsys.readouterr().out)
        assert main(CLI_ARGS + ["--workers", "2"]) == 0
        fleet = summary_lines(capsys.readouterr().out)
        assert set(inline) == set(fleet)
        assert {"snapshots", "fsck sweeps"} <= set(inline)

    @pytest.mark.parametrize("plane", [
        pytest.param("shm", marks=pytest.mark.skipif(
            not SHM_SUPPORTED, reason="needs shared memory and fork")),
        "rpc",
    ])
    def test_dup_hits_are_the_units_own_hits(self, plane, capsys):
        """The same campaign reports the same ``dup hits`` on either
        data plane: the sum of the units' own table hits."""
        reference = DistributedChecker(campaign_spec(data_plane="rpc"),
                                       workers=1).run()
        expected = sum(unit.duplicate_hits
                       for unit in reference.unit_results)
        assert main(CLI_ARGS + ["--workers", "2",
                                "--data-plane", plane]) == 0
        printed = summary_lines(capsys.readouterr().out)["dup hits"]
        assert printed.split()[0] == str(expected)

        swarm = ["swarm"] + CLI_ARGS[1:5] + [
            "--max-ops", "120", "--seed", "7", "--fsck-every", "15",
            "--data-plane", plane]
        assert main(swarm) == 0
        ratio = re.search(r"dup-hit ratio ([0-9.]+)%",
                          capsys.readouterr().out).group(1)
        assert ratio == f"{reference.duplicate_hit_ratio:.1%}"[:-1]

    def test_fsck_checks_reaches_the_workers_summary(self, capsys):
        """``fsck_checks`` is declared once (RunMetrics) and incremented
        once (the explorer); nothing between -- worker, wire,
        coordinator, CLI -- names it, yet the fleet scoreboard shows
        the sum of every unit's sweeps."""
        root = os.path.dirname(repro.__file__)
        naming = set()
        for directory, _, files in os.walk(root):
            for name in files:
                if not name.endswith(".py"):
                    continue
                path = os.path.join(directory, name)
                with open(path, encoding="utf-8") as handle:
                    if "fsck_checks" in handle.read():
                        naming.add(os.path.relpath(path, root))
        assert naming == {os.path.join("core", "metrics.py"),
                          os.path.join("mc", "explorer.py")}

        reference = DistributedChecker(campaign_spec(), workers=1).run()
        expected = sum(unit.metrics.fsck_checks
                       for unit in reference.unit_results)
        assert expected > 0
        assert main(CLI_ARGS + ["--workers", "2"]) == 0
        assert summary_lines(capsys.readouterr().out)["fsck sweeps"] == \
            str(expected)

    def test_summary_mentions_trail_and_minimized(self, capsys):
        _print_summary(RunMetrics(operations=3), "property violation",
                       ["a.trail.json", "b.trail.json"],
                       minimized_operations=2)
        output = capsys.readouterr().out
        assert "trail      : a.trail.json" in output
        assert "trail      : b.trail.json" in output
        assert "minimized  : 2 operation(s)" in output
        assert "stopped    : property violation" in output
