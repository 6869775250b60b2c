"""End-to-end acceptance checks.

Each test prints one summary line (visible under ``pytest -v -s`` or in
failure output) and covers one release gate:

1. evaluation matches brute force and never beats the exhaustive optimum
2. heuristic trees are always feasible and never beat the exact tree
3. ghs/hybrid hit the exhaustive optimum at desk scale
4. benchmark objectives land within 2% of reference values (needs data)
5. the validator flags each constraint family individually
6. solver CSV output is byte-for-byte reproducible
7. the greedy closing step follows its documented trace
"""

import math
import random
import time
from pathlib import Path

import numpy as np
import pytest

from hcconfl import (
    GreedyParams,
    HarmonyParams,
    HcstOracle,
    HopTableCache,
    evaluate,
    exact_solve,
    ghs_solve,
    greedy_close,
    hybrid_solve,
    merge_instances,
    nrbi,
    parse_stp,
    parse_uflp,
    validate,
)
from hcconfl.bench_cli import main as bench_main
from hcconfl.hcst_nrbi import TreeInfeasibleError

from conftest import DATA_DIR, ORLIB_DIR
from corpus_util import naive_assignment, random_tiny_instance, tree_is_valid

TOL = 1e-9
CORPUS_SEED = 20240801
CORPUS_SIZE = 500


@pytest.fixture(scope="module")
def corpus():
    rng = random.Random(CORPUS_SEED)
    return [random_tiny_instance(rng) for _ in range(CORPUS_SIZE)]


def _root_open_subsets(instance):
    others = [f for f in instance.facilities if f != instance.root]
    for mask in range(2 ** len(others)):
        yield {instance.root} | {
            f for i, f in enumerate(others) if mask >> i & 1
        }


def test_evaluation_matches_brute_force_and_oracle(corpus):
    start = time.perf_counter()
    vectors = 0
    for inst in corpus:
        best = exact_solve(inst)
        cache = HopTableCache(inst)
        oracle = HcstOracle(inst)
        for opens in _root_open_subsets(inst):
            vectors += 1
            sol = evaluate(inst, opens, cache)
            if not sol.feasible:
                assert oracle.solve(opens) is None
                continue
            assign, assign_cost = naive_assignment(inst, opens)
            assert sol.assignment == assign
            assert abs(sol.breakdown.assignment_cost - assign_cost) <= TOL
            used = {inst.root} | set(assign.values())
            assert set(sol.open_facilities) == used
            assert (
                abs(
                    sol.breakdown.opening_cost
                    - sum(inst.opening_costs[f] for f in used)
                )
                <= TOL
            )
            assert abs(
                sol.total
                - (
                    sol.breakdown.tree_cost
                    + sol.breakdown.assignment_cost
                    + sol.breakdown.opening_cost
                )
            ) <= TOL
            assert sol.total >= best.total - TOL
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(
        f"[PASS] evaluation = brute force on {len(corpus)} instances / "
        f"{vectors} open vectors, never below the exhaustive optimum "
        f"({elapsed:.1f}s)"
    )


def test_heuristic_trees_feasible_and_bounded(corpus):
    built = 0
    for inst in corpus:
        oracle = HcstOracle(inst)
        for opens in _root_open_subsets(inst):
            try:
                tree = nrbi(inst, opens)
            except TreeInfeasibleError:
                assert oracle.solve(opens) is None
                continue
            reference = oracle.solve(opens)
            assert reference is not None
            assert tree_is_valid(inst, tree, opens)
            assert tree.cost >= reference.cost - TOL
            built += 1
    print(
        f"[PASS] {built} heuristic trees all connected, acyclic, within the "
        f"hop limit, and never beat the exact tree"
    )


def test_heuristics_reach_exhaustive_optimum_at_desk_scale():
    rng = random.Random(900)
    instances = [random_tiny_instance(rng) for _ in range(40)]
    seeds = range(101, 111)
    ghs_hits = hybrid_hits = runs = 0
    for inst in instances:
        best = exact_solve(inst)
        for seed in seeds:
            runs += 1
            g = ghs_solve(
                inst, HarmonyParams(hms=30, max_no_improve=200), seed=seed
            )
            h = hybrid_solve(
                inst,
                GreedyParams(top_k=len(inst.facilities), sample_count=200),
                seed=seed,
            )
            assert g.solution.total >= best.total - TOL
            assert h.solution.total >= best.total - TOL
            ghs_hits += g.solution.total <= best.total + TOL
            hybrid_hits += h.solution.total <= best.total + TOL
    assert hybrid_hits == runs, f"hybrid optimal on {hybrid_hits}/{runs}"
    assert ghs_hits >= 0.95 * runs, f"ghs optimal on {ghs_hits}/{runs}"
    print(
        f"[PASS] over {runs} runs: ghs optimal {ghs_hits}/{runs}, "
        f"hybrid (full shortlist) optimal {hybrid_hits}/{runs}"
    )


BENCHMARKS_H3 = [
    ("steinc5.txt", "mp1.txt", "C5mp1", 3188.66),
    ("steinc5.txt", "mq1.txt", "C5mq1", 4904.25),
    ("steinc10.txt", "mp1.txt", "C10mp1", 3032.99),
    ("steind5.txt", "mp1.txt", "D5mp1", 3221.18),
    ("steinc5.txt", "mp2.txt", "C5mp2", 3321.18),
    ("steinc5.txt", "mq2.txt", "C5mq2", 4548.37),
    ("steind5.txt", "mp2.txt", "D5mp2", 3386.00),
    ("steind10.txt", "mp1.txt", "D10mp1", 3126.22),
]


def test_benchmark_objectives_within_two_percent():
    needed = sorted({f for case in BENCHMARKS_H3 for f in case[:2]})
    missing = [name for name in needed if not (ORLIB_DIR / name).exists()]
    if missing:
        pytest.skip(
            "benchmark data not present (run scripts/fetch_orlib.py); "
            "missing: " + ", ".join(missing)
        )
    for stp_name, uflp_name, label, best_known in BENCHMARKS_H3:
        stp = parse_stp((ORLIB_DIR / stp_name).read_text())
        uflp = parse_uflp((ORLIB_DIR / uflp_name).read_text())
        inst = merge_instances(stp, uflp, hop_limit=3, name=label)
        best = math.inf
        for seed in range(1, 6):
            t0 = time.perf_counter()
            result = ghs_solve(inst, seed=seed)
            elapsed = time.perf_counter() - t0
            assert elapsed <= 30.0, f"{label} seed {seed} took {elapsed:.1f}s"
            assert validate(inst, result.solution) == []
            best = min(best, result.solution.total)
        gap = abs(best - best_known) / best_known
        assert gap <= 0.02, f"{label}: best {best:.2f} vs best-known {best_known}"
        print(f"[PASS] {label}: best-of-5 {best:.2f} vs {best_known} "
              f"(gap {gap:.3%})")


def test_validator_flags_each_constraint_family(tiny1):
    from test_objective import _solution

    cases = {
        "tree-structure": dict(
            opens={1, 2, 3},
            edges={(1, 2), (3, 4)},
            depth={1: 0, 2: 1, 4: 1, 3: 2},
            assignment={"a": 2, "b": 3},
        ),
        "root-edge-position": dict(
            opens={1, 2},
            edges={(1, 2)},
            depth={1: 0, 2: 2},
            assignment={"a": 2, "b": 2},
        ),
        "assignment-complete": dict(
            opens={1, 2, 3},
            edges={(1, 2), (1, 4), (3, 4)},
            depth={1: 0, 2: 1, 4: 1, 3: 2},
            assignment={"a": 2},
        ),
        "assignment-open": dict(
            opens={1, 3},
            edges={(1, 4), (3, 4)},
            depth={1: 0, 4: 1, 3: 2},
            assignment={"a": 2, "b": 3},
        ),
        "root-open": dict(
            opens={2, 3},
            edges={(1, 2), (1, 4), (3, 4)},
            depth={1: 0, 2: 1, 4: 1, 3: 2},
            assignment={"a": 2, "b": 3},
        ),
    }
    for tag, kwargs in cases.items():
        found = {v.constraint for v in validate(tiny1, _solution(tiny1, **kwargs))}
        assert found == {tag}, f"expected exactly {{{tag}}}, got {found}"
    print(f"[PASS] validator isolates each of {sorted(cases)} exactly")


def test_solver_csv_byte_for_byte_reproducible(capsys, tmp_path):
    tiny = DATA_DIR / "tiny1.txt"
    # each solver is shortened by the parameter it reads
    short = {
        "hs": ["--max-no-improve", "50"],
        "ghs": ["--max-no-improve", "50"],
        "hybrid": ["--samples", "80"],
        "oracle": [],
    }
    for algo, knobs in short.items():
        argv = [
            "--tiny", str(tiny),
            "--algo", algo,
            "--seed", "11",
            "--repeats", "2" if algo in ("hs", "ghs") else "1",
            *knobs,
            "--zero-time",
        ]
        assert bench_main(list(argv)) == 0
        first = capsys.readouterr().out
        assert bench_main(list(argv)) == 0
        second = capsys.readouterr().out
        assert first == second and first.startswith("instance,")
    # without --zero-time only the measured column may move
    argv = ["--tiny", str(tiny), "--algo", "ghs", "--seed", "3",
            "--max-no-improve", "50"]
    assert bench_main(list(argv)) == 0
    first = capsys.readouterr().out
    assert bench_main(list(argv)) == 0
    second = capsys.readouterr().out
    scrub = lambda text: [  # noqa: E731
        row[:5] + row[6:]
        for row in (line.split(",") for line in text.splitlines())
    ]
    assert scrub(first) == scrub(second)
    print("[PASS] identical seeds give byte-identical CSV for every solver")


def test_greedy_closing_trace_on_fixture(tiny1):
    from hcconfl.greedy_variants import Closer, ClosingState, closing_scores

    closer = Closer(HopTableCache(tiny1))
    scores = closing_scores(ClosingState(closer, np.ones((1, 3), dtype=np.uint8)))[0]
    assert scores[1] == pytest.approx(-2.0)
    assert scores[2] == pytest.approx(2.0)
    vec = greedy_close(tiny1, {1, 2, 3}, max_open=2)
    kept = {f for f, bit in zip(tiny1.facilities, vec) if bit}
    assert kept == {1, 3}
    assert kept == set(exact_solve(tiny1).open_facilities)
    print(
        "[PASS] closing trace: scores (-2.0, +2.0) drop facility 2, "
        "keeping the exhaustive optimum {1, 3}"
    )
