"""Tests of the benchmark's generators, correctness gate and tracer.

Run from the repository root: ``python3 -m pytest -q perfbench``.
"""

from __future__ import annotations

import dataclasses
import json
import signal
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import bench_gen  # noqa: E402
import bench_trace  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
from hcconfl import (  # noqa: E402
    HopTableCache,
    Instance,
    evaluate,
    exact_solve,
    ghs_solve,
    greedy_variants,
    hs_solve,
    merge_instances,
    parse_stp,
    parse_uflp,
)
from hcconfl.greedy_variants import GreedyParams  # noqa: E402
from hcconfl.oracle import PROFILE_ROW_CAP  # noqa: E402


def small(seed: int, index: int) -> Instance:
    return Instance(**bench_gen.small_instance_kwargs(seed, index))


@pytest.mark.parametrize("edges", [625, 2500])
def test_steinc_text_is_seeded_and_parses(edges):
    stp, uflp = bench_gen.steinc_texts(3, 1, edges, 3)
    assert (stp, uflp) == bench_gen.steinc_texts(3, 1, edges, 3)
    assert (stp, uflp) != bench_gen.steinc_texts(4, 1, edges, 3)
    graph = parse_stp(stp)
    costs = parse_uflp(uflp)
    assert graph.num_nodes == 500 and len(graph.edges) == edges
    assert costs.num_facilities == 200 and costs.num_customers == 200
    instance = merge_instances(graph, costs, hop_limit=5)
    assert instance.facilities == tuple(range(1, 201))


def test_small_instances_are_seeded():
    assert bench_gen.small_instance_kwargs(2, 5) == bench_gen.small_instance_kwargs(2, 5)
    for index in range(run.SMALL_BATCH):
        instance = small(2, index)
        assert 8 <= instance.num_nodes <= 10 and len(instance.core_edges) <= 20
        assert len(instance.facilities) == 8 and len(instance.customers) == 20
        assert instance.hop_limit in (3, 4)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_greedy_dense_keeps_most_facilities_reachable(seed):
    stp, uflp = bench_gen.steinc_texts(seed, 0, 2500, 3)
    instance = merge_instances(parse_stp(stp), parse_uflp(uflp), hop_limit=3)
    table = HopTableCache(instance).table(instance.root)
    reachable = sum(np.isfinite(table.cost(f)) for f in instance.facilities)
    assert reachable >= 150


def test_small_batch_splits_between_oracle_strategies():
    for seed in (1, 2, 3):
        by_profile = [
            (inst.hop_limit + 1) ** (inst.num_nodes - 1) <= PROFILE_ROW_CAP
            for inst in (small(seed, i) for i in range(run.SMALL_BATCH))
        ]
        assert by_profile.count(True) == by_profile.count(False)


def test_speedometer_takes_its_samples_out_and_restores_sigalrm():
    before = signal.getsignal(signal.SIGALRM)
    with speed.Speedometer(interval=0.01) as meter:
        start = time.perf_counter()
        result, wall, seconds = meter.timed(lambda: time.sleep(0.2) or 7)
        elapsed = time.perf_counter() - start
        assert signal.getsignal(signal.SIGALRM) == meter._on_alarm
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert result == 7
    # samples ran during the sleep; their time is taken out of the call's
    assert len(meter.samples) > 2 and meter.spent > 0
    assert 0.2 <= wall + meter.spent <= elapsed
    kernel_s = statistics.median(meter.samples)
    assert seconds == pytest.approx(wall * speed.REFERENCE_S / kernel_s)


def test_gate_counts_wrong_and_raising_solves():
    instance = small(1, 0)
    optimum = exact_solve(instance).total
    solves = [
        run.Solve("exact", instance, lambda: exact_solve(instance)),
        run.Solve("ghs", instance, lambda: 1 / 0),
    ]
    run.run_passes(solves, speed.Speedometer(interval=None), None, repeats=2)
    run.check(solves[0], optimum=optimum + 1)
    run.check(solves[1])
    assert solves[0].failure.startswith("beats the exact optimum")
    assert solves[1].failure == "raised"
    answers = [evaluate(instance, [instance.root]), evaluate(instance, instance.facilities)]
    assert answers[0].total != answers[1].total
    flaky = run.Solve("ghs", instance, iter(answers).__next__)
    run.run_passes([flaky], speed.Speedometer(interval=None), None, repeats=2)
    run.check(flaky)
    assert flaky.failure.startswith("repeats disagree")


def test_traced_evaluations_match_solver_stats():
    tracer = bench_trace.Tracer()
    tracer.install()
    try:
        stats = [
            hs_solve(small(1, 0), seed=1).stats,
            ghs_solve(small(1, 1), seed=2).stats,
            # looked up at call time, as the benchmark does, so the wrapper applies
            greedy_variants.hybrid_solve(small(1, 2), GreedyParams(top_k=6), seed=3).stats,
        ]
    finally:
        tracer.uninstall()
    totals = tracer.totals()
    assert totals["objective.evaluate"]["calls"] == sum(s.evaluations for s in stats)
    harmony = stats[0].evaluations + stats[1].evaluations
    assert tracer.counts["harmony_core.evaluations"] == harmony
    assert totals["harmony_core.improvise"]["calls"] == stats[0].iterations + stats[1].iterations
    assert totals["greedy_variants.hybrid.enumerate"]["calls"] == 1
    for name, entry in totals.items():
        assert 0 <= entry["self_s"] <= entry["s"] + 1e-9, name


def test_traced_oracle_solves_every_facility_subset():
    instances = [small(4, 0), small(4, 1)]
    tracer = bench_trace.Tracer()
    tracer.install()
    try:
        for instance in instances:
            exact_solve(instance)
    finally:
        tracer.uninstall()
    expected = sum(2 ** (len(inst.facilities) - 1) for inst in instances)
    assert tracer.totals()["oracle.HcstOracle.solve"]["calls"] == expected
    assert tracer.counts["oracle.strategy_profile"] == 1
    assert tracer.counts["oracle.strategy_edge_subsets"] == 1


@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_leaves_package_untouched_and_prints_contract(trace, capsys, monkeypatch):
    small_run = dataclasses.replace(run.WORKLOADS["exact-small"], min_rounds=1, repeats=2)
    monkeypatch.setitem(run.WORKLOADS, "exact-small", small_run)
    probe = bench_trace.Tracer()
    probe.install()  # only to list what a tracer replaces
    originals = [(owner, attr, original) for owner, attr, original in probe._saved]
    probe.uninstall()
    code = run.main(["--workload", "exact-small", "--seed", "5", "--seconds", "0", "--trace", trace])
    assert code == 0
    for owner, attr, original in originals:
        assert getattr(owner, attr) is original, (owner, attr)
    out, err = capsys.readouterr()
    assert "memory reduced" not in err
    result = json.loads(out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == 2 * run.SMALL_BATCH
    spec = run.read_benchmark_metrics(trace == "1")
    assert list(result["metrics"]) == [m["name"] for m in spec]
    if trace == "1":
        assert result["metrics"]["harmony_core.memory_shrink_warnings"]["value"] > 0
