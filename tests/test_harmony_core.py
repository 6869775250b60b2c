import logging
import math
import random
import re
from itertools import product

import numpy as np
import pytest

from hcconfl import (
    GreedyParams,
    HarmonyMemory,
    HarmonyParams,
    HopTableCache,
    Instance,
    evaluate,
    exact_solve,
    harmony_solve,
    hs_solve,
    improvise,
    init_bias,
    repair_vector,
    update_bias,
    validate,
    Violation,
)
from hcconfl.harmony_core import (
    DUPLICATE_DRAW_LIMIT,
    HMCR_RAMP_ITERS,
    _fill_memory,
    vector_ids,
)

from hcconfl import greedy_variants, harmony_core, hcst_nrbi, hop_paths, objective

from corpus_util import (
    golden_cases,
    random_deep_instance,
    random_dense_instance,
    random_tiny_instance,
    reference_fill_memory,
)

GOLDEN_INSTANCES, _ = golden_cases()


def test_init_bias_fixture_values(tiny1):
    bias = init_bias(tiny1)
    assert bias[0] == 0.5  # the root's entry is not pinned
    assert bias[1] == pytest.approx(0.375)
    assert bias[2] == pytest.approx(0.75)


def test_init_bias_degenerate_costs(tiny1):
    import dataclasses

    flat = dataclasses.replace(
        tiny1,
        opening_costs={1: 5.0, 2: 5.0, 3: 5.0},
        assignment_costs=np.full((3, 2), 4.0),
    )
    bias = init_bias(flat)
    assert bias.tolist() == [0.5, 0.5, 0.5]


def test_init_bias_stays_clipped():
    rng = random.Random(5)
    for _ in range(100):
        inst = random_tiny_instance(rng)
        bias = init_bias(inst)
        assert (bias >= 0.05 - 1e-12).all() and (bias <= 0.95 + 1e-12).all()


def test_update_bias_blends_memory_frequencies(tiny1):
    memory = HarmonyMemory(
        np.array([[1, 0, 1], [1, 1, 1]], dtype=np.uint8),
        np.array([10.0, 12.0]),
    )
    static = init_bias(tiny1)
    blended = update_bias(static, memory)
    assert blended[0] == pytest.approx(0.5 * 0.5 + 0.5 * 1.0)  # not pinned to 1
    assert blended[1] == pytest.approx(0.5 * 0.375 + 0.5 * 0.5)
    assert blended[2] == pytest.approx(0.5 * 0.75 + 0.5 * 1.0)


def test_memory_keeps_rows_sorted_and_distinct():
    memory = HarmonyMemory(
        np.array([[1, 1, 0], [1, 0, 1], [1, 1, 1]], dtype=np.uint8),
        np.array([7.0, 3.0, 9.0]),
    )
    assert list(memory.totals) == [3.0, 7.0, 9.0]
    assert memory.worst_total == 9.0
    assert memory.contains(np.array([1, 0, 1], dtype=np.uint8))
    memory.replace_worst(np.array([1, 0, 0], dtype=np.uint8), 5.0)
    assert list(memory.totals) == [3.0, 5.0, 7.0]
    assert not memory.contains(np.array([1, 1, 1], dtype=np.uint8))
    with pytest.raises(ValueError):
        memory.replace_worst(np.array([1, 0, 0], dtype=np.uint8), 1.0)  # dup
    with pytest.raises(ValueError):
        memory.replace_worst(np.array([0, 1, 1], dtype=np.uint8), 99.0)  # worse
    with pytest.raises(ValueError, match="^memory rows must be distinct$"):
        HarmonyMemory(
            np.array([[1, 0, 1], [1, 0, 1]], dtype=np.uint8), np.array([3.0, 4.0])
        )


def test_repair_vector_closes_unreachable(tiny1):
    import dataclasses

    one_hop = dataclasses.replace(tiny1, hop_limit=1)
    cache = HopTableCache(one_hop)
    paths = cache.root_paths
    assert list(paths) == [0.0, 2.0, math.inf]  # node 3 is two hops out
    assert cache.counters()["tables_built"] == 1  # the root's table alone
    assert cache.root_paths is paths  # read once per cache
    with pytest.raises(ValueError, match="read-only"):
        paths[2] = 0.0
    mask = np.isfinite(paths)
    repaired = repair_vector(one_hop, np.array([0, 1, 1], dtype=np.uint8), mask)
    assert list(repaired) == [1, 1, 0]


def test_improvise_recall_one_copies_memory_rows(tiny1):
    memory = HarmonyMemory(
        np.array([[1, 0, 1]], dtype=np.uint8), np.array([10.0])
    )
    rng = np.random.default_rng(0)
    vec = improvise(rng, memory, init_bias(tiny1), hmcr=1.0)
    assert list(vec) == [1, 0, 1]


def test_improvise_recall_zero_follows_bias_extremes(tiny1):
    memory = HarmonyMemory(
        np.array([[1, 0, 0]], dtype=np.uint8), np.array([10.0])
    )
    rng = np.random.default_rng(0)
    ones = improvise(rng, memory, np.array([1.0, 1.0, 1.0]), hmcr=0.0)
    assert list(ones) == [1, 1, 1]
    zeros = improvise(rng, memory, np.array([0.0, 0.0, 0.0]), hmcr=0.0)
    assert list(zeros) == [0, 0, 0]


def test_vector_ids_reads_facility_order():
    inst = Instance(
        name="spread",
        num_nodes=4,
        core_edges=((1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0)),
        facilities=(1, 2, 4),
        root=1,
        customers=(),
        opening_costs={1: 0.0, 2: 1.0, 4: 1.0},
        assignment_costs=np.zeros((3, 0)),
        hop_limit=3,
    )
    assert vector_ids(inst, np.array([1, 0, 1], dtype=np.uint8)) == [1, 4]
    assert vector_ids(inst, np.zeros(3, dtype=np.uint8)) == []


def test_hmcr_ramps_to_one():
    assert HMCR_RAMP_ITERS == 5000
    params = HarmonyParams(hmcr_start=0.96)
    assert params.hmcr(0) == pytest.approx(0.96)
    assert params.hmcr(2500) == pytest.approx(0.98)
    assert params.hmcr(5000) == 1.0
    assert params.hmcr(50000) == 1.0


def test_fill_memory_exhausts_small_pattern_space(tiny1):
    cache = HopTableCache(tiny1)
    reach = np.isfinite(cache.root_paths)
    rng = np.random.default_rng(3)
    params = HarmonyParams(hms=50)
    memory, evaluated, covered = _fill_memory(
        tiny1,
        params,
        rng,
        init_bias(tiny1),
        lambda rows: repair_vector(tiny1, rows, reach),
        lambda v: evaluate(tiny1, vector_ids(tiny1, v), cache),
    )
    # only 4 distinct root-open vectors exist
    assert covered
    assert len(memory) == 4
    assert len(evaluated) == 4
    assert list(memory.totals) == sorted(memory.totals)
    assert memory.totals[0] == 10.0


LINE22 = Instance(
    name="line22",
    num_nodes=22,
    core_edges=tuple((i, i + 1, 1.0) for i in range(1, 22)),
    facilities=tuple(range(1, 23)),
    root=1,
    customers=(),
    opening_costs={f: 1.0 for f in range(1, 23)},
    assignment_costs=np.zeros((22, 0)),
    hop_limit=3,
)


def test_fill_memory_warning_says_what_ran_out(tiny1, caplog):
    line = LINE22
    for inst, rest in (
        (tiny1, "a sweep of all 4 root-open patterns found no more"),
        (line, "21 free bits are too many to sweep"),
    ):
        root_only = np.zeros(len(inst.facilities), dtype=np.uint8)
        root_only[inst.facility_index[inst.root]] = 1
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="hcconfl.harmony_core"):
            memory, _, covered = _fill_memory(
                inst,
                HarmonyParams(hms=10),
                np.random.default_rng(1),
                init_bias(inst),
                lambda rows: np.tile(root_only, (len(rows), 1)),
                lambda v: evaluate(inst, vector_ids(inst, v)),
            )
        assert len(memory) == 1
        # only the sweep establishes that nothing else is left
        assert covered == (inst is tiny1)
        assert caplog.messages == [
            "memory reduced to 1 rows (10 requested): the random fill stopped "
            f"after {DUPLICATE_DRAW_LIMIT} duplicate draws and {rest}"
        ]


@pytest.mark.parametrize("transform", ["repair", "greedy"])
@pytest.mark.parametrize("case", ["tiny1", "line22", "small-1-0"])
def test_block_fill_matches_one_draw_at_a_time(case, transform, tiny1, caplog, monkeypatch):
    inst = {"tiny1": tiny1, "line22": LINE22, "small-1-0": GOLDEN_INSTANCES["small-1-0"]}[case]
    cache = HopTableCache(inst)
    if transform == "greedy":
        rows_to_rows = greedy_variants._repair_and_close(cache, 6)
    else:
        reach = np.isfinite(cache.root_paths)
        rows_to_rows = lambda rows: repair_vector(inst, rows, reach)  # noqa: E731
    sweeps = []
    monkeypatch.setattr(
        harmony_core, "product", lambda *args, **kw: sweeps.append(1) or product(*args, **kw)
    )
    runs = []
    for fill in (_fill_memory, reference_fill_memory):
        rng = np.random.default_rng(11)
        caplog.clear()
        with caplog.at_level(logging.WARNING):
            memory, evaluated, covered = fill(
                inst,
                HarmonyParams(hms=150),
                rng,
                init_bias(inst),
                rows_to_rows,
                lambda v: evaluate(inst, vector_ids(inst, v), cache),
            )
        runs.append(
            (
                memory.vectors.tobytes(),
                memory.totals.tobytes(),
                [(v.tobytes(), float(s.total).hex()) for v, s in evaluated],
                caplog.messages,
                covered,
                rng.random(),  # both consumed the same stream
            )
        )
    assert runs[0] == runs[1]
    if case == "small-1-0":
        assert sweeps  # the block fill reached the sweep


def test_harmony_solve_hands_the_loop_one_row_at_a_time(tiny1):
    cache = HopTableCache(tiny1)
    reach = np.isfinite(cache.root_paths)
    sizes: list[int] = []

    def transform(rows):
        sizes.append(len(rows))
        return repair_vector(tiny1, rows, reach)

    # 3 rows, below tiny1's 4 root-open patterns, so the loop runs
    params = HarmonyParams(hms=3, max_no_improve=50)
    got = harmony_core.harmony_solve(tiny1, params, seed=2, transform=transform, cache=cache)
    want = hs_solve(tiny1, params, seed=2)
    assert got.solution.total == want.solution.total
    assert got.stats.evaluations == want.stats.evaluations
    assert got.stats.iterations == want.stats.iterations == 50
    # the fill's blocks, the first as large as its target of 3 rows, then
    # one row per iteration
    assert sizes[0] == 3 and sizes[-50:] == [1] * 50


def _transforms(inst, cache):
    """The rows -> rows maps of hs (repair) and ghs (repair and close)."""
    reach = np.isfinite(cache.root_paths)
    return {
        "hs": lambda rows: repair_vector(inst, rows, reach),
        "ghs": greedy_variants._repair_and_close(cache, 6),
    }


def test_covered_memory_holds_every_improvisation():
    rng = random.Random(4321)
    fired = skipped = 0
    for _ in range(40):
        inst = random_tiny_instance(rng, max_nodes=8, max_facilities=6, max_hop=4)
        cache = HopTableCache(inst)
        for name, transform in _transforms(inst, cache).items():
            # 3 rows fall short of many of these pattern spaces, 150 of none
            for hms in (3, 150):
                draws = np.random.default_rng(rng.randrange(10**6))
                static = init_bias(inst)
                memory, _, covered = _fill_memory(
                    inst,
                    HarmonyParams(hms=hms),
                    draws,
                    static,
                    transform,
                    lambda v: evaluate(inst, vector_ids(inst, v), cache),
                )
                if not covered:
                    skipped += 1
                    continue
                fired += 1
                bias = update_bias(static, memory)
                vectors = [improvise(draws, memory, bias, draws.random()) for _ in range(200)]
                assert all(map(memory.contains, transform(np.array(vectors)))), name
    assert fired >= 100 and skipped >= 10


def test_skipped_loop_changes_no_result(monkeypatch):
    # the same solves with the loop forced to run: it could only have
    # improvised rows the memory already held
    rng = random.Random(8765)
    instances = [random_tiny_instance(rng, max_facilities=6, max_hop=4) for _ in range(30)]
    instances += [GOLDEN_INSTANCES["small-1-0"], GOLDEN_INSTANCES["small-2-5"]]
    fill = harmony_core._fill_memory

    def runs():
        out = []
        for inst in instances:
            for solve in (hs_solve, greedy_variants.ghs_solve):
                result = solve(inst, HarmonyParams(hms=150, max_no_improve=200), seed=7)
                stats = result.stats
                out.append(
                    (
                        float(result.solution.total).hex(),
                        result.solution.open_facilities,
                        stats.evaluations,
                        stats.incumbent_history,
                        stats.iterations,
                    )
                )
        return out

    skipping = runs()
    monkeypatch.setattr(harmony_core, "_fill_memory", lambda *a: (*fill(*a)[:2], False))
    looping = runs()
    assert [run[:4] for run in skipping] == [run[:4] for run in looping]
    assert all(run[4] == 200 for run in looping)
    assert sum(run[4] == 0 for run in skipping) >= len(skipping) // 2


@pytest.mark.parametrize(
    "case, solver, hms, loops",
    [
        ("tiny1", "hs", 150, False),  # the memory holds one row per pattern
        ("tiny1", "ghs", 150, False),  # closing leaves 3 rows: the sweep ran out
        ("tiny1", "hs", 3, True),  # filled to hms
        ("small-1-0", "hs", 10, True),  # filled to hms
        ("line22", "hs", 10, True),  # 8 rows fit the hop limit, 21 free bits are not swept
    ],
)
def test_improvise_runs_only_while_memory_may_miss_a_row(
    case, solver, hms, loops, tiny1, monkeypatch
):
    inst = {"tiny1": tiny1, "line22": LINE22, "small-1-0": GOLDEN_INSTANCES["small-1-0"]}[case]
    solve = {"hs": hs_solve, "ghs": greedy_variants.ghs_solve}[solver]
    calls, sweeps = [], []
    original = harmony_core.improvise
    monkeypatch.setattr(
        harmony_core, "improvise", lambda *args: calls.append(1) or original(*args)
    )
    monkeypatch.setattr(
        harmony_core, "product", lambda *args, **kw: sweeps.append(1) or product(*args, **kw)
    )
    result = solve(inst, HarmonyParams(hms=hms, max_no_improve=30), seed=3)
    assert bool(sweeps) == (solver == "ghs")
    assert len(calls) == result.stats.iterations
    assert result.stats.iterations >= 30 if loops else result.stats.iterations == 0


def test_hs_finds_fixture_optimum(tiny1):
    result = hs_solve(tiny1, HarmonyParams(max_no_improve=100), seed=1)
    assert result.solution.total == 10.0
    assert sorted(result.solution.open_facilities) == [1, 3]
    assert validate(tiny1, result.solution) == []
    assert result.stats.evaluations == 4  # everything else is a duplicate
    assert result.stats.incumbent_history[0][0] == 0


def test_hs_deterministic_per_seed(tiny1):
    params = HarmonyParams(max_no_improve=60)
    a = hs_solve(tiny1, params, seed=9)
    b = hs_solve(tiny1, params, seed=9)
    assert a.solution.total == b.solution.total
    assert a.solution.open_facilities == b.solution.open_facilities
    assert a.stats.evaluations == b.stats.evaluations
    assert [h for h in a.stats.incumbent_history] == [
        h for h in b.stats.incumbent_history
    ]


SOLVERS = {"hs": hs_solve, "ghs": greedy_variants.ghs_solve, "hybrid": greedy_variants.hybrid_solve}


@pytest.mark.parametrize("solver", sorted(SOLVERS))
@pytest.mark.parametrize(
    "seed, message",
    [
        (None, "seed must be an integer, got None"),
        (True, "seed must be an integer, got True"),
        (1.5, "seed must be an integer, got 1.5"),
        (-1, "seed must be >= 0, got -1"),
    ],
)
def test_a_seed_is_an_integer_at_least_zero(tiny1, solver, seed, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        SOLVERS[solver](tiny1, seed=seed)


@pytest.mark.parametrize("solver", sorted(SOLVERS))
def test_a_numpy_integer_seed_solves_as_its_value(solver):
    inst = random_dense_instance(random.Random(0), facilities=12, customers=12)

    def run(seed):
        result = SOLVERS[solver](inst, seed=seed)
        stats = result.stats
        return (result.solution.total, result.solution.open_facilities, stats.evaluations,
                stats.iterations, stats.incumbent_history, stats.counters)

    assert run(np.int64(3)) == run(3)
    assert run(0)[0] < math.inf  # 0 is a seed too


def test_hs_loop_records_each_improvement():
    # large enough that the memory fill does not already hold the best set
    inst = random_dense_instance(random.Random(0), facilities=24, customers=24)
    result = hs_solve(inst, HarmonyParams(hms=10, max_no_improve=200), seed=0)
    history = result.stats.incumbent_history
    iterations = [iteration for iteration, _ in history]
    totals = [total for _, total in history]
    assert iterations[0] == 0 and len(history) >= 3  # improved in the loop
    assert all(a < b for a, b in zip(iterations, iterations[1:]))
    assert all(a > b for a, b in zip(totals, totals[1:]))
    assert totals[-1] == result.solution.total
    # the loop stops once the last improvement is max_no_improve iterations old
    assert result.stats.iterations == iterations[-1] + 200


@pytest.mark.parametrize("solver", ["hs", "ghs", "hybrid"])
def test_counters_read_the_solves_cache(solver, monkeypatch):
    inst = random_deep_instance(
        random.Random(0), nodes=40, edges=50, facilities=12, customers=10, hop_limit=3
    )
    cutoffs: list[float] = []  # per candidate handed to evaluate
    asked: list[frozenset[int]] = []  # per served set price asked a tree for
    built = []
    relabeled: list[int] = []  # per phase-1 round
    paths = []  # every extract_path call of nrbi, in either phase
    phase1_reads: list[int] = []  # per node whose row phase 1 reads
    tree_sizes: list[int] = []  # per facility phase 2 visits
    real_evaluate, real_price = harmony_core.evaluate, objective.price
    real_build = hop_paths.hop_bellman_ford
    real_insert, real_extract = hcst_nrbi._insert_phase1_path, hcst_nrbi.extract_path
    real_chain = hcst_nrbi._parent_chain

    def recording(instance, open_facilities, cache=None, cutoff=math.inf):
        cutoffs.append(cutoff)
        return real_evaluate(instance, open_facilities, cache, cutoff)

    def pricing(instance, opened, tree_for, *screen):
        # the tree memo is keyed by the served set, not the requested one
        def asking(served):
            asked.append(frozenset(served))
            return tree_for(served)

        return real_price(instance, opened, asking, *screen)

    def building(instance, source):
        built.append(source)
        return real_build(instance, source)

    def inserting(instance, state, remaining, path):
        if not state.insertion_epoch:
            # the first round's pick came after the root read every facility
            phase1_reads.append(len(remaining))
        nodes = real_insert(instance, state, remaining, path)
        relabeled.append(len(nodes))
        if remaining:
            # each relabeled node with a hop to spare reads every missing one
            for node in nodes:
                if state.hops_from_root[node] < instance.hop_limit:
                    phase1_reads.append(len(remaining))
        return nodes

    def chaining(state, node, stop):
        # phase 2 reads the chain of every facility it visits, stopping at
        # the tree built so far
        tree_sizes.append(len(stop))
        return real_chain(state, node, stop)

    def extracting(*args):
        paths.append(args)
        return real_extract(*args)

    for module in (harmony_core, greedy_variants):
        monkeypatch.setattr(module, "evaluate", recording)
    monkeypatch.setattr(objective, "price", pricing)
    monkeypatch.setattr(hop_paths, "hop_bellman_ford", building)
    monkeypatch.setattr(hcst_nrbi, "_insert_phase1_path", inserting)
    monkeypatch.setattr(hcst_nrbi, "extract_path", extracting)
    monkeypatch.setattr(hcst_nrbi, "_parent_chain", chaining)
    monkeypatch.setattr(hcst_nrbi, "_parent_tree", lambda *args: pytest.fail("phase 2 fell back"))
    params = HarmonyParams(hms=10, max_no_improve=60)
    if solver == "hs":
        stats = hs_solve(inst, params, seed=3).stats
    elif solver == "ghs":
        stats = greedy_variants.ghs_solve(inst, params, seed=3).stats
    else:
        greedy = GreedyParams(top_k=6, sample_count=60)
        stats = greedy_variants.hybrid_solve(inst, greedy, seed=3).stats
    assert stats.evaluations == len(cutoffs)
    # a screened candidate asks for no tree, so the memo neither answers nor
    # keeps one for it
    reused = len(asked) - len(set(asked))
    # phase 1 reads one path a round; phase 2 reads the rest
    assert stats.counters == {
        "tables_built": len(built),
        "trees_reused": reused,
        "phase1_rounds": len(relabeled),
        "relabeled": sum(relabeled),
        "phase1_reads": sum(phase1_reads),
        "phase2_reads": sum(tree_sizes),
        "fresh_paths": len(paths) - len(relabeled),
        "screened": len(cutoffs) - len(asked),
    }
    if solver == "hybrid":
        # the hybrid keeps every subset's total, so it screens nothing
        assert set(cutoffs) == {math.inf} and stats.counters["screened"] == 0
    else:
        # the fill keeps every row it prices; the loop passes the worst row
        assert stats.counters["screened"] > 0
    if solver == "hs":
        # 30 of the 75 requested sets repeat and 15 more close onto a served
        # set seen before; 29 of those 45 are screened, and so are 9 served
        # sets seen for the first time, so the memo answers 16
        assert stats.counters["trees_reused"] == 16
        assert stats.counters["screened"] == 29 + 9


def test_counters_are_the_totals_of_a_cache_handed_to_the_solve():
    # each solve reports its cache's totals as it ends, so a cache shared by
    # two solves carries the first one's work into the second one's counters
    inst = random_dense_instance(random.Random(3), 40, 40)
    params = HarmonyParams(hms=10, max_no_improve=60)
    cache = HopTableCache(inst)
    first = harmony_solve(inst, params, seed=1, cache=cache).stats.counters
    second = harmony_solve(inst, params, seed=2, cache=cache).stats.counters
    assert first == harmony_solve(inst, params, seed=1).stats.counters
    assert list(first) == list(second) == ["tables_built", *hop_paths.WORK_COUNTS]
    assert all(second[name] >= first[name] for name in first)
    assert second["phase1_rounds"] > first["phase1_rounds"] > 0
    assert second["trees_reused"] > first["trees_reused"]


@pytest.mark.parametrize("module", [harmony_core, greedy_variants])
def test_a_best_solution_that_fails_validate_is_an_internal_error(module, tiny1, monkeypatch):
    broken = [Violation("tree-structure", "made up")]
    monkeypatch.setattr(module, "validate", lambda instance, solution: broken)
    solve = hs_solve if module is harmony_core else greedy_variants.hybrid_solve
    with pytest.raises(RuntimeError, match="^internal error: best solution violates tree-structure$"):
        solve(tiny1, seed=1)


def test_hs_matches_oracle_often():
    rng = random.Random(321)
    params = HarmonyParams(hms=20, max_no_improve=120)
    hits = 0
    runs = 0
    for _ in range(40):
        inst = random_tiny_instance(rng, max_nodes=6)
        best = exact_solve(inst)
        result = hs_solve(inst, params, seed=5)
        assert result.solution.feasible
        assert result.solution.total >= best.total - 1e-9
        runs += 1
        if result.solution.total <= best.total + 1e-9:
            hits += 1
    assert hits >= runs * 0.8


@pytest.mark.parametrize("value", [True, "0.5", 0.0, math.nan, 1.5])
def test_hmcr_start_is_a_real_number_in_0_1(value):
    # True would run as 1.0, and "0.5" raised TypeError from its range test
    message = f"hmcr_start must be in (0, 1], got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        HarmonyParams(hmcr_start=value)


def test_hmcr_start_takes_a_numpy_float():
    assert HarmonyParams(hmcr_start=np.float64(0.5)).hmcr(0) == 0.5


def test_params_validate_their_ranges():
    with pytest.raises(ValueError, match="hms"):
        HarmonyParams(hms=1)
    with pytest.raises(ValueError, match="hmcr_start"):
        HarmonyParams(hmcr_start=0.0)
    with pytest.raises(ValueError, match="max_no_improve"):
        HarmonyParams(max_no_improve=0)
    # counts must be integers: 2.5 used to fail later inside the fill, and
    # True would count as 1
    for name in ("hms", "max_no_improve"):
        for bad in (2.5, True):
            with pytest.raises(ValueError, match=f"^{name} must be an integer, got {bad}$"):
                HarmonyParams(**{name: bad})
    assert HarmonyParams(hms=np.int64(3)).hms == 3
