"""Benchmark of the hcconfl solvers on seeded OR-Library-shaped instances.

Run from the root of a checkout::

    python3 perfbench/run.py --workload hs-deep --seed 1 --seconds 40 --trace 0

The run generates its instances from ``--seed`` (see ``bench_gen``), hands the
package only STP/UflLib text or ``Instance(...)`` arguments, checks every
solution it gets back, and keeps solving fresh rounds until the next round
would overrun ``--seconds``.  Every gated timing is taken in reference
seconds (see ``speed``), so the machine's drifting speed cancels.  It prints
one ``name = value unit`` line per metric and, last, one JSON object whose
``metrics`` hold the end-to-end metrics of ``BENCHMARK.json`` (``--trace 0``)
or its per-layer metrics (``--trace 1``, measured with the wrappers of
``bench_trace`` installed).
See ``perfbench/README.md`` for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import gc
import json
import logging
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

from speed import Speedometer

# one process, one thread: keep NumPy's BLAS from starting a thread pool
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

COST_TOL = 1e-9
# timed set-up calls per round; setup_s is the median over rounds of the
# median call, per build
SETUP_REPEATS = 5
SMALL_BATCH = 8  # exact-small instances per round, half per oracle strategy
SAMPLE_INTERVAL_S = 0.2  # machine-speed samples during a timed call


@dataclass
class Solve:
    """One solver call of a round, timed and checked."""

    solver: str
    instance: object
    call: Callable[[], object]
    references: list[float] = field(default_factory=list)  # each repeat, reference seconds
    wall: float = float("inf")  # fastest repeat, as the clock read it
    result: object = None
    totals: set = field(default_factory=set)  # objective of every repeat
    failure: str | None = None

    @property
    def seconds(self) -> float:
        """Median repeat in reference seconds.

        Not the fastest: a repeat that met a slow speed sample would read
        fast, and the median is proof against one such reading.
        """
        return statistics.median(self.references)

    @property
    def solution(self):
        return getattr(self.result, "solution", self.result)

    @property
    def objective(self) -> float:
        return self.solution.total

    @property
    def evaluations(self) -> int:
        """``stats.evaluations`` of a heuristic solve; 0 for exact and failures."""
        return 0 if self.failure or self.solver == "exact" else self.result.stats.evaluations


@dataclass
class Round:
    setup_s: float  # median build, in reference seconds
    setup_wall: float  # median build, as the clock read it
    solves: list[Solve] = field(default_factory=list)
    gaps: list[float] = field(default_factory=list)  # exact-small: (ghs - opt) / opt

    @property
    def seconds(self) -> float:
        return sum(s.seconds for s in self.solves)

    @property
    def wall(self) -> float:
        return sum(s.wall for s in self.solves)


class WarningCounter(logging.Handler):
    """Counts the harmony engine's "memory reduced" notes and keeps them off stderr."""

    def __init__(self) -> None:
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record: logging.LogRecord) -> None:
        if "memory reduced" in record.getMessage():
            self.count += 1


def traced_call(solve: Solve, tracer) -> Callable[[], object]:
    if tracer is None:
        return solve.call

    def call():
        with tracer.span(f"bench.{solve.solver}"):
            return solve.call()

    return call


def run_passes(solves: list[Solve], meter: Speedometer, tracer, repeats: int) -> None:
    """Run every solve of a round, ``repeats`` passes over the list.

    Each solve keeps the time of every repeat; spreading the repeats over
    whole passes lets each meet several moments of the machine.  A raising
    solve is counted as failed, never retried, and the run goes on.
    """
    for _ in range(repeats):
        for solve in solves:
            if solve.failure:
                continue
            try:
                result, wall, seconds = meter.timed(traced_call(solve, tracer))
            except Exception:  # counted as a failed solve; the run goes on
                traceback.print_exc()
                wall, seconds = meter.last
                solve.failure = "raised"
            else:
                solve.result = result
                solve.totals.add(solve.solution.total)
            solve.wall = min(solve.wall, wall)
            solve.references.append(seconds)


def check(solve: Solve, optimum: float | None = None) -> None:
    """Correctness gate: feasible, no ``validate()`` violation, not below the optimum.

    The solvers are deterministic, so repeats that disagree fail too.
    """
    from hcconfl.objective import validate

    if solve.failure is None:
        solution = solve.solution
        if len(solve.totals) > 1:
            solve.failure = f"repeats disagree: {sorted(solve.totals)}"
        elif not solution.feasible:
            solve.failure = "infeasible"
        elif problems := validate(solve.instance, solution):
            solve.failure = f"violates {problems[0].constraint}"
        elif optimum is not None and solution.total < optimum - COST_TOL:
            solve.failure = f"beats the exact optimum {optimum}"
    if solve.failure:
        print(f"FAILED {solve.solver} on {solve.instance.name}: {solve.failure}", file=sys.stderr)


def timed_setup(
    build: Callable[[], object], meter: Speedometer, builds: int
) -> tuple[object, Round]:
    """Time ``SETUP_REPEATS`` calls of ``builds`` builds each, each call from a
    collected heap; a round holding the median call's time per build."""
    walls: list[float] = []
    times: list[float] = []
    for _ in range(SETUP_REPEATS):
        gc.collect()  # so no collection owed by the previous round lands in the timing
        built, wall, seconds = meter.timed(lambda: [build() for _ in range(builds)][-1])
        walls.append(wall / builds)
        times.append(seconds / builds)
    return built, Round(statistics.median(times), statistics.median(walls))


def steinc_round(edges: int, hop: int, solvers: list[str]):
    """Round maker for the 500-node workloads: one fresh instance per round."""

    def make(seed: int, index: int, meter: Speedometer, tracer, repeats: int) -> Round:
        import bench_gen
        from hcconfl import greedy_variants, harmony_core, instance_model

        stp, uflp = bench_gen.steinc_texts(seed, index, edges, hop)
        name = f"steinc{edges}-s{seed}-r{index}"

        def build():
            graph = instance_model.parse_stp(stp)
            costs = instance_model.parse_uflp(uflp)
            return instance_model.merge_instances(graph, costs, hop_limit=hop, name=name)

        instance, rnd = timed_setup(build, meter, builds=1)
        solver_seed = seed * 1000 + index
        calls = {
            "hs": lambda: harmony_core.hs_solve(instance, seed=solver_seed),
            "ghs": lambda: greedy_variants.ghs_solve(instance, seed=solver_seed),
            "hybrid": lambda: greedy_variants.hybrid_solve(
                instance, greedy_variants.GreedyParams(top_k=10), seed=solver_seed
            ),
        }
        rnd.solves = [Solve(solver, instance, calls[solver]) for solver in solvers]
        run_passes(rnd.solves, meter, tracer, repeats)
        for solve in rnd.solves:
            check(solve)
        return rnd

    return make


def small_round(seed: int, index: int, meter: Speedometer, tracer, repeats: int) -> Round:
    """exact-small: a batch of small instances, each solved exactly and by ghs."""
    import bench_gen
    from hcconfl import greedy_variants, instance_model, oracle

    batch = [
        bench_gen.small_instance_kwargs(seed, index * SMALL_BATCH + j)
        for j in range(SMALL_BATCH)
    ]
    # one batch builds in well under a millisecond: time 30 at a go
    instances, rnd = timed_setup(
        lambda: [instance_model.Instance(**kw) for kw in batch], meter, builds=30
    )
    for j, instance in enumerate(instances):
        solver_seed = seed * 1000 + index * SMALL_BATCH + j
        rnd.solves.append(Solve("exact", instance, partial(oracle.exact_solve, instance)))
        rnd.solves.append(
            Solve("ghs", instance, partial(greedy_variants.ghs_solve, instance, seed=solver_seed))
        )
    run_passes(rnd.solves, meter, tracer, repeats)
    for exact, ghs in zip(rnd.solves[::2], rnd.solves[1::2]):
        check(exact)
        optimum = None if exact.failure else exact.objective
        check(ghs, optimum)
        if optimum and not ghs.failure:
            rnd.gaps.append((ghs.objective - optimum) / optimum)
    return rnd


# A clock is the attribute a Solve or Round keeps its time under: "seconds"
# (reference seconds) or "wall" (as the clock read it).


def median_round(rounds: list[Round], clock: str = "seconds") -> float:
    return statistics.median(getattr(r, clock) for r in rounds)


def per_kilo_eval(rounds: list[Round], clock: str = "seconds") -> float:
    solves = [s for r in rounds for s in r.solves]
    spent = sum(getattr(s, clock) for s in solves)
    return 1000 * spent / max(1, sum(s.evaluations for s in solves))


@dataclass(frozen=True)
class Workload:
    # (seed, index, meter, tracer, repeats)
    make_round: Callable[[int, int, Speedometer, object, int], Round]
    # work_s: seconds per unit of this workload's work.  A round whose work is
    # about the same for every seed is the unit; where the solver's stopping
    # rule makes the work per round swing several-fold, 1000 evaluations are.
    work_s: Callable[[list[Round], str], float]
    # rounds always run; objective_sum and opt_gap_pct cover exactly these,
    # so they are the same for a seed on any machine
    min_rounds: int
    # untraced passes over a round's solves; each solve keeps its median reference time
    repeats: int


WORKLOADS = {
    "hs-deep": Workload(steinc_round(625, 5, ["hs"]), per_kilo_eval, 6, 1),
    "greedy-dense": Workload(steinc_round(2500, 3, ["ghs", "hybrid"]), median_round, 2, 1),
    "exact-small": Workload(small_round, median_round, 6, 3),
}


def percentile_metrics(solves: list[Solve], out: dict) -> None:
    """``<solver>.solve_s_p50`` (wall) for every solver, ``_p90`` from 100 solves on."""
    by_solver: dict[str, list[float]] = {}
    for s in solves:
        by_solver.setdefault(s.solver, []).append(s.wall)
    for solver, times in by_solver.items():
        out[f"{solver}.solve_s_p50"] = (statistics.median(times), "s")
        out[f"{solver}.solves"] = (len(times), "count")
        if len(times) >= 100:
            out[f"{solver}.solve_s_p90"] = (statistics.quantiles(times, n=10)[-1], "s")


def end_to_end(rounds: list[Round], workload: Workload, meter: Speedometer) -> dict:
    solves = [s for r in rounds for s in r.solves]
    heuristic = [s for s in solves if s.solver != "exact"]
    fixed = [
        s
        for r in rounds[: workload.min_rounds]
        for s in r.solves
        if s.solver != "exact" and not s.failure
    ]
    failed = sum(1 for s in solves if s.failure)
    out: dict[str, tuple[float, str]] = {
        "setup_s": (statistics.median(r.setup_s for r in rounds), "s"),
        "work_s": (workload.work_s(rounds, "seconds"), "s"),
        "setup_wall_s": (statistics.median(r.setup_wall for r in rounds), "s"),
        "work_wall_s": (workload.work_s(rounds, "wall"), "s"),
        "speed_kernel_ms": (1000 * statistics.median(meter.samples), "ms"),
        "wall_s": (median_round(rounds, "wall"), "s"),
        "evals_per_s": (
            sum(s.evaluations for s in heuristic) / sum(s.wall for s in heuristic),
            "1/s",
        ),
        "objective_sum": (sum(s.objective for s in fixed), "cost"),
        "fail_rate": (failed / len(solves), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "rounds": (len(rounds), "count"),
    }
    gaps = [g for r in rounds[: workload.min_rounds] for g in r.gaps]
    if gaps:
        out["opt_gap_pct"] = (100 * statistics.fmean(gaps), "%")
    percentile_metrics(solves, out)
    return out


def per_layer(tracer, rounds: list[Round], warnings: WarningCounter) -> dict:
    totals = tracer.totals()
    counts = tracer.counts

    def span(name: str, key: str) -> float:
        return totals.get(name, {}).get(key, 0)

    out: dict[str, tuple[float, str]] = {}
    for name in (
        "instance_model.parse_stp",
        "instance_model.parse_uflp",
        "instance_model.merge_instances",
    ):
        out[f"{name}.s"] = (span(name, "s"), "s")
    for name in (
        "hop_paths.hop_bellman_ford",
        "hop_paths.extract_path",
        "hcst_nrbi.nrbi_phase1",
        "hcst_nrbi.nrbi_phase2",
        "objective.as_open_set",
        "objective.validate",
        "harmony_core.improvise",
        "harmony_core.update_bias",
        "greedy_variants.greedy_close",
        "oracle.HcstOracle.solve",
    ):
        out[f"{name}.calls"] = (span(name, "calls"), "count")
        out[f"{name}.s"] = (span(name, "s"), "s")
    out["objective.evaluate.calls"] = (span("objective.evaluate", "calls"), "count")
    out["objective.evaluate.s"] = (span("objective.evaluate", "s"), "s")
    out["objective.evaluate.self_s"] = (span("objective.evaluate", "self_s"), "s")
    table_calls = counts["hop_paths.table.calls"]
    builds = span("hop_paths.hop_bellman_ford", "calls")
    out["hop_paths.table.calls"] = (table_calls, "count")
    out["hop_paths.table_build_ratio"] = (builds / table_calls if table_calls else 0.0, "ratio")
    out["hcst_nrbi.parent_tree_fallbacks"] = (counts["hcst_nrbi.parent_tree_fallbacks"], "count")
    out["objective.infeasible"] = (counts["objective.infeasible"], "count")
    for name in ("replace_worst", "contains"):
        out[f"harmony_core.{name}.calls"] = (counts[f"harmony_core.{name}.calls"], "count")
    harmony_evals = counts["harmony_core.evaluations"]
    draws = span("harmony_core.improvise", "calls") + counts["harmony_core.fill_draws"]
    out["harmony_core.fill_s"] = (tracer.fill_s, "s")
    out["harmony_core.eval_ratio"] = (harmony_evals / draws if draws else 0.0, "ratio")
    out["harmony_core.replace_ratio"] = (
        counts["harmony_core.replace_worst.calls"] / harmony_evals if harmony_evals else 0.0,
        "ratio",
    )
    out["harmony_core.memory_shrink_warnings"] = (warnings.count, "count")
    out["greedy_variants.closing_scores.calls"] = (
        counts["greedy_variants.closing_scores.calls"],
        "count",
    )
    out["greedy_variants.hybrid.sample_s"] = (span("greedy_variants.hybrid.sample", "s"), "s")
    out["greedy_variants.hybrid.enumerate_s"] = (
        span("greedy_variants.hybrid.enumerate", "s"),
        "s",
    )
    profile = span("oracle.HcstOracle.init.profile", "s")
    subsets = span("oracle.HcstOracle.init.edge_subsets", "s")
    out["oracle.HcstOracle.init.s"] = (profile + subsets, "s")
    out["oracle.HcstOracle.init.profile.s"] = (profile, "s")
    out["oracle.HcstOracle.init.edge_subsets.s"] = (subsets, "s")
    out["oracle.strategy_profile"] = (counts["oracle.strategy_profile"], "count")
    out["oracle.strategy_edge_subsets"] = (counts["oracle.strategy_edge_subsets"], "count")
    # the load each workload is chosen for, as a share of its solver's time
    nrbi = {"hcst_nrbi.nrbi_phase1", "hcst_nrbi.nrbi_phase2"}
    oracle_spans = {
        "oracle.HcstOracle.init.profile",
        "oracle.HcstOracle.init.edge_subsets",
        "oracle.HcstOracle.solve",
    }
    greedy = {"greedy_variants.greedy_close"}
    evaluate = {"objective.evaluate"}
    out["share.hs.nrbi"] = (tracer.share_under("bench.hs", nrbi), "ratio")
    out["share.ghs.greedy_close"] = (tracer.share_under("bench.ghs", greedy), "ratio")
    out["share.ghs.evaluate"] = (tracer.share_under("bench.ghs", evaluate), "ratio")
    out["share.hybrid.greedy_close"] = (tracer.share_under("bench.hybrid", greedy), "ratio")
    out["share.exact.oracle"] = (tracer.share_under("bench.exact", oracle_spans), "ratio")
    out["traced.wall_s"] = (median_round(rounds, "wall"), "s")
    out["traced.evaluations"] = (
        sum(s.evaluations for r in rounds for s in r.solves),
        "count",
    )
    return out


def read_benchmark_metrics(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hcconfl" / "__init__.py").is_file():
        print(f"error: no package source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bench_trace

    wanted = read_benchmark_metrics(bool(args.trace))
    workload = WORKLOADS[args.workload]
    warnings = WarningCounter()
    engine_log = logging.getLogger("hcconfl.harmony_core")
    engine_log.addHandler(warnings)
    engine_log.propagate = False

    tracer = bench_trace.Tracer() if args.trace else None
    repeats = 1 if tracer else workload.repeats
    # a traced run samples only between calls, so no sample lands in a span
    meter = Speedometer(interval=None if tracer else SAMPLE_INTERVAL_S)
    if tracer is not None:
        tracer.install()
    rounds: list[Round] = []
    round_walls: list[float] = []
    start = time.perf_counter()
    try:
        with meter:
            # stop before a round that would likely overrun --seconds
            while len(rounds) < workload.min_rounds or (
                time.perf_counter() - start + statistics.median(round_walls) <= args.seconds
            ):
                began = time.perf_counter()
                rounds.append(
                    workload.make_round(args.seed, len(rounds), meter, tracer, repeats)
                )
                round_walls.append(time.perf_counter() - began)
    finally:
        if tracer is not None:
            tracer.uninstall()
        engine_log.removeHandler(warnings)
        engine_log.propagate = True

    measured = end_to_end(rounds, workload, meter)
    if tracer is not None:
        measured.update(per_layer(tracer, rounds, warnings))
    for name, (value, unit) in measured.items():
        print(f"{name} = {value:.6g} {unit}")

    metrics = {}
    for spec in wanted:
        value, unit = measured[spec["name"]]
        if unit != spec["unit"]:
            raise ValueError(f"{spec['name']} is measured in {unit}, BENCHMARK.json says {spec['unit']}")
        metrics[spec["name"]] = {"value": value, "unit": unit}
    attempted = sum(len(r.solves) for r in rounds)
    failed = sum(1 for r in rounds for s in r.solves if s.failure)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
