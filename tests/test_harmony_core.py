import logging
import math
import random

import numpy as np
import pytest

from hcconfl import (
    HarmonyMemory,
    HarmonyParams,
    HopTableCache,
    Instance,
    evaluate,
    exact_solve,
    hs_solve,
    improvise,
    init_bias,
    repair_vector,
    update_bias,
    validate,
)
from hcconfl.harmony_core import (
    DUPLICATE_DRAW_LIMIT,
    _fill_memory,
    root_path_costs,
)

from corpus_util import random_tiny_instance


def test_init_bias_fixture_values(tiny1):
    bias = init_bias(tiny1)
    assert bias[0] == 1.0  # root forced open
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
    assert bias[0] == 1.0
    assert bias[1] == bias[2] == 0.5


def test_init_bias_stays_clipped():
    rng = random.Random(5)
    for _ in range(100):
        inst = random_tiny_instance(rng)
        bias = init_bias(inst)
        root_pos = inst.facility_index[inst.root]
        assert bias[root_pos] == 1.0
        others = np.delete(bias, root_pos)
        assert (others >= 0.05 - 1e-12).all() and (others <= 0.95 + 1e-12).all()


def test_update_bias_blends_memory_frequencies(tiny1):
    memory = HarmonyMemory(
        np.array([[1, 0, 1], [1, 1, 1]], dtype=np.uint8),
        np.array([10.0, 12.0]),
    )
    static = init_bias(tiny1)
    blended = update_bias(tiny1, static, memory)
    assert blended[0] == 1.0
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


def test_repair_vector_closes_unreachable(tiny1):
    import dataclasses

    one_hop = dataclasses.replace(tiny1, hop_limit=1)
    cache = HopTableCache(one_hop)
    paths = root_path_costs(one_hop, cache)
    assert list(paths) == [0.0, 2.0, math.inf]  # node 3 is two hops out
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


def test_hmcr_ramps_to_one():
    params = HarmonyParams(hmcr_start=0.96, hmcr_ramp_iters=5000)
    assert params.hmcr(0) == pytest.approx(0.96)
    assert params.hmcr(2500) == pytest.approx(0.98)
    assert params.hmcr(5000) == 1.0
    assert params.hmcr(50000) == 1.0


def test_fill_memory_exhausts_small_pattern_space(tiny1):
    cache = HopTableCache(tiny1)
    reach = np.isfinite(root_path_costs(tiny1, cache))
    rng = np.random.default_rng(3)
    params = HarmonyParams(hms=50)
    memory, evaluated = _fill_memory(
        tiny1,
        params,
        rng,
        init_bias(tiny1),
        lambda v: repair_vector(tiny1, v, reach),
        lambda v: evaluate(tiny1, v, cache),
    )
    # only 4 distinct root-open vectors exist
    assert len(memory) == 4
    assert len(evaluated) == 4
    assert list(memory.totals) == sorted(memory.totals)
    assert memory.totals[0] == 10.0


def test_fill_memory_warning_says_what_ran_out(tiny1, caplog):
    line = Instance(
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
    for inst, rest in (
        (tiny1, "a sweep of all 4 root-open patterns found no more"),
        (line, "21 free bits are too many to sweep"),
    ):
        root_only = np.zeros(len(inst.facilities), dtype=np.uint8)
        root_only[inst.facility_index[inst.root]] = 1
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="hcconfl.harmony_core"):
            memory, _ = _fill_memory(
                inst,
                HarmonyParams(hms=10),
                np.random.default_rng(1),
                init_bias(inst),
                lambda v: root_only,
                lambda v: evaluate(inst, v),
            )
        assert len(memory) == 1
        assert caplog.messages == [
            "memory reduced to 1 rows (10 requested): the random fill stopped "
            f"after {DUPLICATE_DRAW_LIMIT} duplicate draws and {rest}"
        ]


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


def test_params_validate_their_ranges():
    with pytest.raises(ValueError, match="hms"):
        HarmonyParams(hms=1)
    with pytest.raises(ValueError, match="hmcr_start"):
        HarmonyParams(hmcr_start=0.0)
    with pytest.raises(ValueError, match="hmcr_ramp_iters"):
        HarmonyParams(hmcr_ramp_iters=0)
    with pytest.raises(ValueError, match="max_no_improve"):
        HarmonyParams(max_no_improve=0)
